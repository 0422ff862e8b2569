type stats = {
  max_size : int;
  window_max_size : int;
  ratio : float;
  clusters_opened : int;
}

let guaranteed_ratio ~n = float_of_int n /. float_of_int (n - 1)

type cluster = { first : int; mutable last : int; mutable volume : int }

let replay ~w ~n ~m ~sizes =
  if n < 2 then invalid_arg "Wata_bounded.replay: need n >= 2";
  let t = Array.length sizes in
  if t < w then invalid_arg "Wata_bounded.replay: trace shorter than window";
  if m <= 0 then invalid_arg "Wata_bounded.replay: need m > 0";
  let size_of day = sizes.(day - 1) in
  let cap = (m + n - 2) / (n - 1) in
  (* clusters, oldest first; the newest is the growing one *)
  let clusters = ref [ { first = 1; last = 1; volume = size_of 1 } ] in
  let opened = ref 1 in
  let peak = ref (size_of 1) in
  for day = 2 to t do
    (* Drop clusters whose every day has left the window. *)
    let oldest_alive = day - w + 1 in
    clusters := List.filter (fun c -> c.last >= oldest_alive) !clusters;
    let current = List.nth !clusters (List.length !clusters - 1) in
    let slot_free = List.length !clusters < n in
    if current.volume >= cap && slot_free then begin
      clusters := !clusters @ [ { first = day; last = day; volume = size_of day } ];
      incr opened
    end
    else begin
      current.last <- day;
      current.volume <- current.volume + size_of day
    end;
    let total = List.fold_left (fun acc c -> acc + c.volume) 0 !clusters in
    if total > !peak then peak := total
  done;
  let wmax = Wata_size.window_max ~w ~sizes in
  {
    max_size = !peak;
    window_max_size = wmax;
    ratio = float_of_int !peak /. float_of_int wmax;
    clusters_opened = !opened;
  }
