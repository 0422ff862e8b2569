type counter = { mutable count : float }

(* Gauges carry their name so [set] can record the update into the
   flight recorder; counters and histograms stay nameless — they are
   hot-path and would flood the ring. *)
type gauge = { g_name : string; mutable value : float }

(* Bounded histogram: a reservoir of at most [cap] observations (exact
   while [seen <= cap], algorithm R beyond), plus exact running count /
   sum / min / max so only the percentiles pay the sampling error.  The
   PRNG is a private splitmix64 seeded from the histogram's name, so a
   given workload always retains the same sample. *)
type histogram = {
  mutable xs : float array; (* capacity grows up to cap *)
  mutable len : int; (* observations retained *)
  cap : int;
  mutable seen : int; (* observations ever recorded *)
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  mutable rng : int64;
}

type item = C of counter | G of gauge | H of histogram

type registry = (string, item) Hashtbl.t

let create () : registry = Hashtbl.create 32
let default : registry = create ()

let hist_cap = ref 8192
let default_histogram_cap () = !hist_cap

let set_default_histogram_cap cap =
  if cap < 1 then invalid_arg "Metrics.set_default_histogram_cap: cap < 1";
  hist_cap := cap

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let intern registry name make match_item =
  match Hashtbl.find_opt registry name with
  | Some item -> (
    match match_item item with
    | Some x -> x
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is already a %s" name (kind_name item)))
  | None ->
    let item, x = make () in
    Hashtbl.add registry name item;
    x

let counter ?(registry = default) name =
  intern registry name
    (fun () ->
      let c = { count = 0.0 } in
      (C c, c))
    (function C c -> Some c | _ -> None)

let gauge ?(registry = default) name =
  intern registry name
    (fun () ->
      let g = { g_name = name; value = 0.0 } in
      (G g, g))
    (function G g -> Some g | _ -> None)

let histogram ?(registry = default) ?cap name =
  let cap = Option.value ~default:!hist_cap cap in
  if cap < 1 then invalid_arg "Metrics.histogram: cap < 1";
  intern registry name
    (fun () ->
      let h =
        {
          xs = Array.make (min 16 cap) 0.0;
          len = 0;
          cap;
          seen = 0;
          sum = 0.0;
          vmin = infinity;
          vmax = neg_infinity;
          rng = Int64.of_int (Hashtbl.hash name lor 1);
        }
      in
      (H h, h))
    (function H h -> Some h | _ -> None)

let inc ?(by = 1.0) c =
  if by < 0.0 then invalid_arg "Metrics.inc: negative increment";
  c.count <- c.count +. by

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative increment";
  c.count <- c.count +. float_of_int n

let counter_value c = c.count

let set g v =
  Recorder.record_metric ~name:g.g_name ~value:v ~delta:(v -. g.value);
  g.value <- v

let gauge_value g = g.value

let next_u64 h =
  h.rng <- Int64.add h.rng 0x9E3779B97F4A7C15L;
  let z = h.rng in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, n); the modulo bias at reservoir sizes is far below
   the sampling error itself. *)
let rand_below h n =
  Int64.to_int (Int64.rem (Int64.logand (next_u64 h) Int64.max_int) (Int64.of_int n))

let observe h x =
  h.seen <- h.seen + 1;
  h.sum <- h.sum +. x;
  if x < h.vmin then h.vmin <- x;
  if x > h.vmax then h.vmax <- x;
  if h.len < h.cap then begin
    if h.len = Array.length h.xs then begin
      let bigger = Array.make (min h.cap (2 * Array.length h.xs)) 0.0 in
      Array.blit h.xs 0 bigger 0 h.len;
      h.xs <- bigger
    end;
    h.xs.(h.len) <- x;
    h.len <- h.len + 1
  end
  else begin
    (* Algorithm R: the i-th observation replaces a reservoir slot with
       probability cap/i. *)
    let j = rand_below h h.seen in
    if j < h.cap then h.xs.(j) <- x
  end

let hist_count h = h.seen
let hist_sample_size h = h.len
let hist_values h = Array.sub h.xs 0 h.len

type hist_summary = {
  count : int;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let hist_summary h =
  if h.seen = 0 then None
  else begin
    let xs = hist_values h in
    Some
      {
        count = h.seen;
        mean = h.sum /. float_of_int h.seen;
        min = h.vmin;
        max = h.vmax;
        p50 = Wave_util.Stats.percentile xs 50.0;
        p95 = Wave_util.Stats.percentile xs 95.0;
        p99 = Wave_util.Stats.percentile xs 99.0;
      }
  end

type value =
  [ `Counter of float | `Gauge of float | `Histogram of hist_summary option ]

let lookup ?(registry = default) name : value option =
  match Hashtbl.find_opt registry name with
  | None -> None
  | Some (C c) -> Some (`Counter c.count)
  | Some (G g) -> Some (`Gauge g.value)
  | Some (H h) -> Some (`Histogram (hist_summary h))

let remove ?(registry = default) name =
  let existed = Hashtbl.mem registry name in
  Hashtbl.remove registry name;
  existed

let reset registry =
  Hashtbl.iter
    (fun _ item ->
      match item with
      | C c -> c.count <- 0.0
      | G g -> g.value <- 0.0
      | H h ->
        h.len <- 0;
        h.seen <- 0;
        h.sum <- 0.0;
        h.vmin <- infinity;
        h.vmax <- neg_infinity)
    registry

let reset_all () = reset default

let sorted_items registry =
  Hashtbl.fold (fun name item acc -> (name, item) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot ?(registry = default) () : (string * value) list =
  List.map
    (fun (name, item) ->
      let v : value =
        match item with
        | C c -> `Counter c.count
        | G g -> `Gauge g.value
        | H h -> `Histogram (hist_summary h)
      in
      (name, v))
    (sorted_items registry)

let to_json registry =
  let items = sorted_items registry in
  let pick f = List.filter_map f items in
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (pick (function n, C c -> Some (n, Json.Num c.count) | _ -> None)) );
      ( "gauges",
        Json.Obj
          (pick (function n, G g -> Some (n, Json.Num g.value) | _ -> None)) );
      ( "histograms",
        Json.Obj
          (pick (function
            | n, H h -> (
              match hist_summary h with
              | None -> Some (n, Json.Obj [ ("count", Json.int 0) ])
              | Some s ->
                Some
                  ( n,
                    Json.Obj
                      [
                        ("count", Json.int s.count);
                        ("mean", Json.Num s.mean);
                        ("min", Json.Num s.min);
                        ("max", Json.Num s.max);
                        ("p50", Json.Num s.p50);
                        ("p95", Json.Num s.p95);
                        ("p99", Json.Num s.p99);
                      ] ))
            | _ -> None)) );
    ]
