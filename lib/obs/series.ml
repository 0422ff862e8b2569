type point = { tick : int; day : int; value : float }

(* One bounded ring per series name: [buf] is allocated lazily up to
   [cap]; once full, [head] walks forward and the oldest point is
   overwritten.  Points are plain immutable records, so handing them
   out never exposes the ring's mutation. *)
type ring = { mutable buf : point array; mutable len : int; mutable head : int }

type t = {
  r_cap : int;
  rings : (string, ring) Hashtbl.t;
  mutable ticks : int;
}

let schema = "waveidx-series/1"

let create ?(cap = 2048) () =
  if cap < 1 then invalid_arg "Series.create: cap < 1";
  { r_cap = cap; rings = Hashtbl.create 32; ticks = 0 }

let cap t = t.r_cap
let tick t = t.ticks

let zero_point = { tick = 0; day = 0; value = 0.0 }

let push t r p =
  if r.len < t.r_cap then begin
    if r.len = Array.length r.buf then begin
      let bigger =
        Array.make (min t.r_cap (max 16 (2 * Array.length r.buf))) zero_point
      in
      Array.blit r.buf 0 bigger 0 r.len;
      r.buf <- bigger
    end;
    r.buf.((r.head + r.len) mod Array.length r.buf) <- p;
    r.len <- r.len + 1
  end
  else begin
    r.buf.(r.head) <- p;
    r.head <- (r.head + 1) mod Array.length r.buf
  end

let record t ~name ~day value =
  if Float.is_finite value then begin
    let r =
      match Hashtbl.find_opt t.rings name with
      | Some r -> r
      | None ->
        let r = { buf = [||]; len = 0; head = 0 } in
        Hashtbl.add t.rings name r;
        r
    in
    push t r { tick = t.ticks; day; value }
  end

let sample ?registry t ~day =
  t.ticks <- t.ticks + 1;
  List.iter
    (fun (name, v) ->
      match (v : Metrics.value) with
      | `Counter x | `Gauge x -> record t ~name ~day x
      | `Histogram None -> ()
      | `Histogram (Some s) ->
        record t ~name:(name ^ ".mean") ~day s.Metrics.mean;
        record t ~name:(name ^ ".p50") ~day s.Metrics.p50;
        record t ~name:(name ^ ".p95") ~day s.Metrics.p95;
        record t ~name:(name ^ ".p99") ~day s.Metrics.p99)
    (Metrics.snapshot ?registry ())

let names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.rings []
  |> List.sort String.compare

let length t name =
  match Hashtbl.find_opt t.rings name with None -> 0 | Some r -> r.len

let points t name =
  match Hashtbl.find_opt t.rings name with
  | None -> []
  | Some r ->
    List.init r.len (fun i -> r.buf.((r.head + i) mod Array.length r.buf))

let last_n t name n =
  match Hashtbl.find_opt t.rings name with
  | None -> []
  | Some r ->
    let n = max 0 (min n r.len) in
    List.init n (fun i ->
        r.buf.((r.head + r.len - n + i) mod Array.length r.buf))

(* Collapse mid-day ticks to the last point of each distinct day: a
   linear scan keeping a point only when the next one belongs to a
   different day. *)
let daily t name =
  let rec keep_last = function
    | [] -> []
    | [ p ] -> [ p ]
    | p :: (q :: _ as rest) ->
      if p.day = q.day then keep_last rest else p :: keep_last rest
  in
  keep_last (points t name)

type window_stats = {
  w_count : int;
  w_mean : float;
  w_min : float;
  w_max : float;
  w_p50 : float;
  w_p95 : float;
  w_p99 : float;
}

let window_stats t name ~n =
  match last_n t name n with
  | [] -> None
  | ps ->
    let xs = Array.of_list (List.map (fun p -> p.value) ps) in
    let sum = Array.fold_left ( +. ) 0.0 xs in
    Some
      {
        w_count = Array.length xs;
        w_mean = sum /. float_of_int (Array.length xs);
        w_min = Array.fold_left Float.min xs.(0) xs;
        w_max = Array.fold_left Float.max xs.(0) xs;
        w_p50 = Wave_util.Stats.percentile xs 50.0;
        w_p95 = Wave_util.Stats.percentile xs 95.0;
        w_p99 = Wave_util.Stats.percentile xs 99.0;
      }

let trend t name ~n =
  match last_n t name n with
  | [] | [ _ ] -> None
  | ps ->
    let pts =
      Array.of_list
        (List.mapi (fun i p -> (float_of_int i, p.value)) ps)
    in
    (* Degenerate x cannot happen (indices are distinct), but a
       constant series is fine: slope 0. *)
    let slope, _ = Wave_util.Stats.linear_regression pts in
    Some slope

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("cap", Json.int t.r_cap);
      ("ticks", Json.int t.ticks);
      ( "series",
        Json.Arr
          (List.map
             (fun name ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ( "points",
                     Json.Arr
                       (List.map
                          (fun p ->
                            Json.Obj
                              [
                                ("tick", Json.int p.tick);
                                ("day", Json.int p.day);
                                ("value", Json.Num p.value);
                              ])
                          (points t name)) );
                 ])
             (names t)) );
    ]
