type clock = [ `Model | `Wall ]

let tags_json tags = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) tags)

let span_json (s : Trace.span) =
  Json.Obj
    [
      ("type", Json.Str "span");
      ("id", Json.int s.Trace.id);
      ("parent", Json.int s.Trace.parent);
      ("name", Json.Str s.Trace.name);
      ("tags", tags_json s.Trace.tags);
      ("start_model_s", Json.Num s.Trace.start_model);
      ("end_model_s", Json.Num s.Trace.end_model);
      ("model_s", Json.Num (Trace.model_seconds s));
      ("start_wall_s", Json.Num s.Trace.start_wall);
      ("end_wall_s", Json.Num s.Trace.end_wall);
      ("wall_s", Json.Num (Trace.wall_seconds s));
      ("seeks", Json.int s.Trace.seeks);
      ("blocks_read", Json.int s.Trace.blocks_read);
      ("blocks_written", Json.int s.Trace.blocks_written);
      ("bytes_read", Json.int s.Trace.bytes_read);
      ("bytes_written", Json.int s.Trace.bytes_written);
    ]

let instant_json (i : Trace.instant) =
  Json.Obj
    [
      ("type", Json.Str "instant");
      ("name", Json.Str i.Trace.i_name);
      ("tags", tags_json i.Trace.i_tags);
      ("model_s", Json.Num i.Trace.at_model);
      ("wall_s", Json.Num i.Trace.at_wall);
    ]

(* Rows sorted by model start time so both sinks read chronologically. *)
let rows ~spans ~instants =
  let xs =
    List.map (fun s -> (s.Trace.start_model, `S s)) spans
    @ List.map (fun i -> (i.Trace.at_model, `I i)) instants
  in
  List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) xs

let jsonl ~spans ~instants =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (_, row) ->
      let j = match row with `S s -> span_json s | `I i -> instant_json i in
      Buffer.add_string buf (Json.to_string j);
      Buffer.add_char buf '\n')
    (rows ~spans ~instants);
  Buffer.contents buf

let micros seconds = seconds *. 1e6

let chrome_span ~clock (s : Trace.span) =
  let ts, dur =
    match clock with
    | `Model -> (micros s.Trace.start_model, micros (Trace.model_seconds s))
    | `Wall -> (micros s.Trace.start_wall, micros (Trace.wall_seconds s))
  in
  Json.Obj
    [
      ("name", Json.Str s.Trace.name);
      ("cat", Json.Str "wave");
      ("ph", Json.Str "X");
      ("ts", Json.Num ts);
      ("dur", Json.Num (Float.max 0.0 dur));
      ("pid", Json.int 1);
      ("tid", Json.int 1);
      ( "args",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Str v)) s.Trace.tags
          @ [
              ("span_id", Json.int s.Trace.id);
              ("parent", Json.int s.Trace.parent);
              ("model_s", Json.Num (Trace.model_seconds s));
              ("wall_s", Json.Num (Trace.wall_seconds s));
              ("seeks", Json.int s.Trace.seeks);
              ("blocks_read", Json.int s.Trace.blocks_read);
              ("blocks_written", Json.int s.Trace.blocks_written);
              ("bytes_read", Json.int s.Trace.bytes_read);
              ("bytes_written", Json.int s.Trace.bytes_written);
            ]) );
    ]

let chrome_instant ~clock (i : Trace.instant) =
  let ts =
    match clock with
    | `Model -> micros i.Trace.at_model
    | `Wall -> micros i.Trace.at_wall
  in
  Json.Obj
    [
      ("name", Json.Str i.Trace.i_name);
      ("cat", Json.Str "wave");
      ("ph", Json.Str "i");
      ("s", Json.Str "t");
      ("ts", Json.Num ts);
      ("pid", Json.int 1);
      ("tid", Json.int 1);
      ("args", tags_json i.Trace.i_tags);
    ]

let chrome_json ?(clock = `Model) ~spans ~instants () =
  let events =
    List.map
      (fun (_, row) ->
        match row with
        | `S s -> chrome_span ~clock s
        | `I i -> chrome_instant ~clock i)
      (rows ~spans ~instants)
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr events);
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("producer", Json.Str "waveidx");
            ( "clock",
              Json.Str (match clock with `Model -> "model-disk" | `Wall -> "wall") );
          ] );
    ]

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_jsonl ~path ~spans ~instants =
  write_file path (jsonl ~spans ~instants)

let write_chrome ?(clock = `Model) ~path ~spans ~instants () =
  write_file path (Json.to_string ~pretty:true (chrome_json ~clock ~spans ~instants ()))

(* --- document shapes ------------------------------------------------ *)

(* Every validator and reader below is a Shape plus, where the rules
   span values, a few lines of code after the shape holds.  Once a
   shape has checked a document, the accessors below cannot miss. *)

let ( let* ) = Result.bind
let field k j = Option.get (Json.member k j)
let field_num k j = Option.get (Json.to_float (field k j))
let field_str k j = Option.get (Json.to_str (field k j))
let field_list k j = Option.get (Json.to_list (field k j))

let read_parse path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match Json.parse contents with
    | Error e -> Error (Printf.sprintf "%s: bad JSON: %s" path e)
    | Ok j -> Ok j)

let from_file f path = Result.bind (read_parse path) f

let required keys t = List.map (fun k -> Shape.req k t) keys
let non_negative keys = required keys (Shape.at_least 0.0)

let chrome_shape =
  Shape.(
    obj
      [
        req "traceEvents"
          (arr ~label:(numbered "event")
             (obj
                [
                  req "name" str;
                  req "ph" str;
                  req "ts" finite;
                  req "pid" num;
                  req "tid" num;
                  case "ph" "X" [ req "dur" (at_least 0.0) ];
                ]));
      ])

let validate_chrome j =
  let* () = Shape.check chrome_shape j in
  Ok (List.length (field_list "traceEvents" j))

let validate_chrome_file = from_file validate_chrome

(* /5 adds the concurrent-serving series (probe+concurrent/...,
   probe+stopworld/...) measured by the epoch-interleaved runner.
   /6 adds the sharded throughput scaling curve: the four
   throughput+shards/{1,2,4,8} series are required, so a snapshot
   that silently lost its scaling curve fails validation by name.
   /7 adds a required "series" block: per-metric time-series summaries
   (points, last, mean, p95, trend) from the canonical profiled run,
   so a snapshot also shows the trend shape, not just the endpoint
   percentiles. *)
let bench_schema = "waveidx-bench/7"
let series_schema = "waveidx-series/1"

let required_bench_series =
  [
    "throughput+shards/1"; "throughput+shards/2"; "throughput+shards/4";
    "throughput+shards/8";
  ]

let bench_shape =
  Shape.(
    obj
      [
        req "schema" (exactly bench_schema);
        req "unit" (exactly "model-seconds");
        req "benchmarks"
          (arr ~nonempty:true ~label:(numbered "benchmark")
             (obj
                ((req "name" str :: non_negative [ "p50"; "p95" ])
                @ [
                    req "runs" (at_least 1.0);
                    opt "cache"
                      (obj
                         (req "hit_ratio" (between 0.0 1.0)
                         :: non_negative [ "hits"; "misses"; "frames" ]));
                    opt "writeback"
                      (obj
                         (non_negative
                            [ "writes_coalesced"; "flushes"; "flushed_blocks" ]));
                  ])));
        req "profile"
          (obj
             [
               req "scheme" str;
               req "technique" str;
               req "days" (at_least 1.0);
               req "total_model_s" (at_least 0.0);
               req "top"
                 (arr ~nonempty:true
                    (obj
                       ([ req "path" str; req "calls" (at_least 1.0) ]
                       @ non_negative
                           [ "self_model_s"; "total_model_s"; "seeks" ])));
             ]);
        (* A compact per-metric summary of the canonical run's
           time-series; the full ring dump belongs to sim --series-out. *)
        req "series"
          (obj
             [
               req "schema" (exactly series_schema);
               req "ticks" (at_least 1.0);
               req "tracked"
                 (arr ~nonempty:true
                    (obj
                       ([ req "name" str; req "points" (at_least 1.0) ]
                       @ required [ "last"; "mean"; "p95" ] finite
                       @ [ req "trend" finite_or_null ])));
             ]);
      ])

let validate_bench j =
  let* () = Shape.check bench_shape j in
  let names = List.map (field_str "name") (field_list "benchmarks" j) in
  match List.filter (fun s -> not (List.mem s names)) required_bench_series with
  | [] -> Ok (List.length names)
  | missing ->
    Error
      (Printf.sprintf "missing required series %s"
         (String.concat ", " (List.map (Printf.sprintf "%S") missing)))

let validate_bench_file = from_file validate_bench

let profile_schema = "waveidx-profile/1"

let profile_node =
  Shape.(
    fix (fun node ->
        obj
          ([ req "name" str; req "calls" (at_least 1.0) ]
          @ non_negative
              [
                "total_model_s"; "self_model_s"; "seeks"; "self_seeks";
                "blocks_read"; "blocks_written"; "bytes_read"; "bytes_written";
              ]
          @ [ req "children" (arr ~label:nested node) ])))

let profile_shape =
  Shape.(
    obj
      [
        req "schema" (exactly profile_schema);
        req "unit" (exactly "model-seconds");
        req "total_model_s" (at_least 0.0);
        req "roots" (arr ~label:nested profile_node);
      ])

let rec subtree_size n =
  List.fold_left (fun acc c -> acc + subtree_size c) 1 (field_list "children" n)

let validate_profile j =
  let* () = Shape.check profile_shape j in
  Ok (List.fold_left (fun acc r -> acc + subtree_size r) 0 (field_list "roots" j))

let validate_profile_file = from_file validate_profile

let series_shape =
  Shape.(
    obj
      [
        req "schema" (exactly series_schema);
        req "cap" (at_least 1.0);
        req "ticks" (at_least 0.0);
        req "series"
          (arr ~label:(numbered "series")
             (obj
                [
                  req "name" str;
                  req "points"
                    (arr
                       (obj
                          [
                            req "tick" (at_least 0.0);
                            req "day" num;
                            req "value" finite;
                          ]));
                ]));
      ])

(* Relational rules: at most [cap] points a series, ticks
   non-decreasing within one. *)
let validate_series j =
  let* () = Shape.check series_shape j in
  let cap = int_of_float (field_num "cap" j) in
  let rec points where i last = function
    | [] -> Ok ()
    | p :: rest ->
      let tick = field_num "tick" p in
      if tick < last then
        Error (Printf.sprintf "%s.points[%d]: decreasing \"tick\"" where i)
      else points where (i + 1) tick rest
  in
  let rec go i total = function
    | [] -> Ok total
    | s :: rest ->
      let where = Printf.sprintf "series %d (%S)" i (field_str "name" s) in
      let ps = field_list "points" s in
      let n = List.length ps in
      if n > cap then
        Error (Printf.sprintf "%s: %d points exceed cap %d" where n cap)
      else
        let* () = points where 0 neg_infinity ps in
        go (i + 1) (total + n) rest
  in
  go 0 0 (field_list "series" j)

let validate_series_file = from_file validate_series

let flight_schema = "waveidx-flight/1"

let flight_header =
  Shape.(
    obj
      [
        req "schema" (exactly flight_schema);
        req "reason" str;
        req "events" (at_least 0.0);
        req "dropped" (at_least 0.0);
      ])

let flight_payloads =
  [
    ( "span",
      ([ "name" ], [ "dur_model_s"; "seeks"; "blocks_read"; "blocks_written";
                     "bytes_read"; "bytes_written" ]) );
    ("metric", ([ "name" ], [ "value"; "delta" ]));
    ("alert", ([ "rule"; "metric"; "scope" ], [ "value"; "day" ]));
    ("io", ([ "syscall"; "outcome" ], [ "bytes" ]));
    ("epoch", ([ "event" ], [ "gen"; "refcount" ]));
  ]

let flight_event =
  Shape.(
    obj
      (required [ "seq"; "model_s"; "wall_s" ] finite
      @ (req "type" (one_of (List.map fst flight_payloads))
        :: List.map
             (fun (ty, (strs, nums)) ->
               case "type" ty (required strs str @ required nums finite))
             flight_payloads)))

(* The dump is JSONL, so validation takes the raw text.  Relational
   rules: the header's count equals the event lines, and "seq" strictly
   increases. *)
let validate_flight text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let parse where line =
    Result.map_error (Printf.sprintf "%s: bad JSON: %s" where) (Json.parse line)
  in
  match lines with
  | [] -> Error "empty dump"
  | header :: events ->
    let* h = parse "header" header in
    let* () = Shape.check ~where:"header" flight_header h in
    let claimed = int_of_float (field_num "events" h) in
    if claimed <> List.length events then
      Error
        (Printf.sprintf "header claims %d events, dump has %d" claimed
           (List.length events))
    else
      let rec go i last = function
        | [] -> Ok (List.length events)
        | line :: rest ->
          let where = Printf.sprintf "event %d" i in
          let* j = parse where line in
          let* () = Shape.check ~where flight_event j in
          let seq = field_num "seq" j in
          if seq > last then go (i + 1) seq rest
          else Error (where ^ ": non-increasing \"seq\"")
      in
      go 0 neg_infinity events

let validate_flight_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> validate_flight text

(* --- readers for the gates ------------------------------------------ *)

(* Lenient on purpose: the gates read only the fields they compare, in
   any snapshot version, so old baselines survive schema bumps. *)

type bench_series = { series_name : string; series_p50 : float; series_p95 : float }

let bench_series_shape =
  Shape.(
    obj
      [
        req "benchmarks"
          (arr ~label:(numbered "benchmark")
             (obj [ req "name" str; req "p50" num; req "p95" num ]));
      ])

let bench_series j =
  let* () = Shape.check bench_series_shape j in
  Ok
    (List.map
       (fun b ->
         {
           series_name = field_str "name" b;
           series_p50 = field_num "p50" b;
           series_p95 = field_num "p95" b;
         })
       (field_list "benchmarks" j))

type profile_top_node = {
  top_path : string;
  top_calls : int;
  top_self : float;
  top_total : float;
}

let profile_top_shape =
  Shape.(
    obj
      [
        req "profile"
          (obj
             [
               req "top"
                 (arr
                    (obj
                       (req "path" str
                       :: required
                            [ "calls"; "self_model_s"; "total_model_s" ] num)));
             ]);
      ])

let bench_profile_top j =
  let* () = Shape.check profile_top_shape j in
  Ok
    (List.map
       (fun n ->
         {
           top_path = field_str "path" n;
           top_calls = int_of_float (field_num "calls" n);
           top_self = field_num "self_model_s" n;
           top_total = field_num "total_model_s" n;
         })
       (field_list "top" (field "profile" j)))

let reader f path =
  from_file (fun j -> Result.map_error (Printf.sprintf "%s: %s" path) (f j)) path

let bench_series_file = reader bench_series
let bench_profile_top_file = reader bench_profile_top

(* --- bench regression gate -------------------------------------------- *)

type bench_delta = {
  delta_name : string;
  delta_field : string;  (* "p50" | "p95" *)
  baseline_value : float;
  current_value : float;
  delta_pct : float;
}

type bench_comparison = {
  compared : int;
  missing : string list;
  added : string list;
  regressions : bench_delta list;
  improvements : bench_delta list;
}

let pct_delta base cur =
  if base = 0.0 then if cur = 0.0 then 0.0 else infinity
  else (cur -. base) /. base *. 100.0

let compare_bench ~threshold_pct ~baseline ~current =
  let find name xs = List.find_opt (fun s -> String.equal s.series_name name) xs in
  let regressions = ref [] and improvements = ref [] and compared = ref 0 in
  let consider name field base cur =
    let d =
      {
        delta_name = name;
        delta_field = field;
        baseline_value = base;
        current_value = cur;
        delta_pct = pct_delta base cur;
      }
    in
    (* The epsilon keeps exact-equal model-second reruns from tripping
       the gate on float formatting noise. *)
    if cur > (base *. (1.0 +. (threshold_pct /. 100.0))) +. 1e-9 then
      regressions := d :: !regressions
    else if base > (cur *. (1.0 +. (threshold_pct /. 100.0))) +. 1e-9 then
      improvements := d :: !improvements
  in
  let missing =
    List.filter_map
      (fun b ->
        match find b.series_name current with
        | None -> Some b.series_name
        | Some c ->
          incr compared;
          consider b.series_name "p50" b.series_p50 c.series_p50;
          consider b.series_name "p95" b.series_p95 c.series_p95;
          None)
      baseline
  in
  let added =
    List.filter_map
      (fun c ->
        match find c.series_name baseline with
        | None -> Some c.series_name
        | Some _ -> None)
      current
  in
  {
    compared = !compared;
    missing;
    added;
    regressions = List.rev !regressions;
    improvements = List.rev !improvements;
  }

let bench_ok c = c.regressions = [] && c.missing = []

let comparison_report c =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line
    "compared %d series (model-seconds): %d regression(s), %d \
     improvement(s), %d missing, %d new"
    c.compared
    (List.length c.regressions)
    (List.length c.improvements)
    (List.length c.missing) (List.length c.added);
  List.iter
    (fun d ->
      line "  REGRESSION %-40s %s %.6f -> %.6f (%+.1f%%)" d.delta_name
        d.delta_field d.baseline_value d.current_value d.delta_pct)
    c.regressions;
  List.iter
    (fun n -> line "  MISSING    %-40s (present in baseline, absent now)" n)
    c.missing;
  List.iter
    (fun d ->
      line "  improved   %-40s %s %.6f -> %.6f (%+.1f%%)" d.delta_name
        d.delta_field d.baseline_value d.current_value d.delta_pct)
    c.improvements;
  List.iter (fun n -> line "  new        %s" n) c.added;
  Buffer.contents buf

let write_folded ~path profile = write_file path (Profile.folded profile)

let write_profile ~path profile =
  write_file path (Json.to_string ~pretty:true (Profile.to_json profile))

(* --- streaming trace flush -------------------------------------------- *)

(* An armed mid-run flush target: on alert firings and exceptional
   exits the tracer's collected events are written here immediately, so
   the evidence trail survives even if the process never reaches its
   normal end-of-run write.  The flush file is ordinary sink JSONL
   behind one "flush" header line carrying the reason. *)
let flush_target : string option ref = ref None

let set_flush_path p = flush_target := p
let flush_path () = !flush_target

let flush_traces ~reason =
  match !flush_target with
  | None -> ()
  | Some path -> (
    try
      let spans = Trace.spans () and instants = Trace.instants () in
      let buf = Buffer.create 4096 in
      Buffer.add_string buf
        (Json.to_string
           (Json.Obj
              [
                ("type", Json.Str "flush");
                ("reason", Json.Str reason);
                ("spans", Json.int (List.length spans));
                ("instants", Json.int (List.length instants));
              ]));
      Buffer.add_char buf '\n';
      Buffer.add_string buf (jsonl ~spans ~instants);
      write_file path (Buffer.contents buf)
    with Sys_error _ -> ())


(* --- profile-node gate ------------------------------------------------ *)

type profile_gate = {
  pg_compared : int;
  pg_missing : string list;
  pg_regressions : bench_delta list;
  pg_improvements : bench_delta list;
}

(* Self model-seconds carry float-subtraction noise (self = total -
   children, clamped at zero), so the gate's absolute epsilon is the
   profiler's own conservation tolerance, not the series gate's 1e-9 —
   a baseline node with self 0.0 must not trip on 1e-12 of rounding. *)
let profile_epsilon = 1e-6

let compare_profile_top ~threshold_pct ~baseline ~(current : Profile.t) =
  let regressions = ref [] and improvements = ref [] and compared = ref 0 in
  let consider path field base cur =
    let d =
      {
        delta_name = path;
        delta_field = field;
        baseline_value = base;
        current_value = cur;
        delta_pct = pct_delta base cur;
      }
    in
    if cur > (base *. (1.0 +. (threshold_pct /. 100.0))) +. profile_epsilon then
      regressions := d :: !regressions
    else if base > (cur *. (1.0 +. (threshold_pct /. 100.0))) +. profile_epsilon
    then improvements := d :: !improvements
  in
  let missing =
    List.filter_map
      (fun b ->
        match Profile.find current (String.split_on_char '/' b.top_path) with
        | None -> Some b.top_path
        | Some n ->
          incr compared;
          consider b.top_path "self_model_s" b.top_self
            n.Profile.self_model;
          consider b.top_path "total_model_s" b.top_total
            n.Profile.total_model;
          None)
      baseline
  in
  {
    pg_compared = !compared;
    pg_missing = missing;
    pg_regressions = List.rev !regressions;
    pg_improvements = List.rev !improvements;
  }

let profile_gate_ok g = g.pg_regressions = [] && g.pg_missing = []

let profile_gate_report g =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line
    "profile-node gate: %d node(s) compared, %d regression(s), %d \
     improvement(s), %d missing"
    g.pg_compared
    (List.length g.pg_regressions)
    (List.length g.pg_improvements)
    (List.length g.pg_missing);
  List.iter
    (fun d ->
      line "  REGRESSION %-58s %s %.6f -> %.6f (%+.1f%%)" d.delta_name
        d.delta_field d.baseline_value d.current_value d.delta_pct)
    g.pg_regressions;
  List.iter
    (fun p -> line "  MISSING    %s (baseline hot node absent from this run)" p)
    g.pg_missing;
  List.iter
    (fun d ->
      line "  improved   %-58s %s %.6f -> %.6f (%+.1f%%)" d.delta_name
        d.delta_field d.baseline_value d.current_value d.delta_pct)
    g.pg_improvements;
  Buffer.contents buf

(* --- OpenMetrics text exposition -------------------------------------- *)

(* Prometheus/OpenMetrics metric names are [a-zA-Z_:][a-zA-Z0-9_:]*;
   registry names use dots, so every other character maps to '_'. *)
let om_name name =
  let b = Buffer.create (String.length name) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> Buffer.add_char b c
      | '0' .. '9' -> if i = 0 then Buffer.add_char b '_' else Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  if Buffer.length b = 0 then "_" else Buffer.contents b

let om_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let om_value v = Printf.sprintf "%.17g" v

let openmetrics ?registry ?series () =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (* Sanitization can collide ("a.b" and "a_b" share a family); the
     first metric keeps the family, later collisions are skipped — a
     duplicate # TYPE would fail the format's own validator. *)
  let families = Hashtbl.create 32 in
  let fresh fam = if Hashtbl.mem families fam then false
    else begin Hashtbl.add families fam (); true end
  in
  let head fam kind orig =
    line "# TYPE %s %s" fam kind;
    line "# HELP %s %s" fam (om_escape (Printf.sprintf "Registry metric %s." orig))
  in
  List.iter
    (fun (name, v) ->
      let fam = om_name name in
      match (v : Metrics.value) with
      | `Counter x ->
        if fresh fam && Float.is_finite x then begin
          head fam "counter" name;
          line "%s_total %s" fam (om_value x)
        end
      | `Gauge x ->
        if fresh fam && Float.is_finite x then begin
          head fam "gauge" name;
          line "%s %s" fam (om_value x)
        end
      | `Histogram summary ->
        if fresh fam then begin
          head fam "summary" name;
          (match summary with
          | None ->
            line "%s_sum 0" fam;
            line "%s_count 0" fam
          | Some s ->
            let q quantile v =
              if Float.is_finite v then
                line "%s{quantile=\"%s\"} %s" fam quantile (om_value v)
            in
            q "0.5" s.Metrics.p50;
            q "0.95" s.Metrics.p95;
            q "0.99" s.Metrics.p99;
            let sum = s.Metrics.mean *. float_of_int s.Metrics.count in
            if Float.is_finite sum then line "%s_sum %s" fam (om_value sum);
            line "%s_count %d" fam s.Metrics.count)
        end)
    (Metrics.snapshot ?registry ());
  (match series with
  | None -> ()
  | Some st ->
    let names = Series.names st in
    if names <> [] then begin
      let quantiles =
        List.filter_map
          (fun name ->
            match Series.window_stats st name ~n:max_int with
            | None -> None
            | Some ws -> Some (name, ws))
          names
      in
      if quantiles <> [] && fresh "waveidx_series_quantile" then begin
        line "# TYPE waveidx_series_quantile gauge";
        line
          "# HELP waveidx_series_quantile Windowed quantiles over recorded \
           metric time-series.";
        List.iter
          (fun (name, (ws : Series.window_stats)) ->
            let q quantile v =
              if Float.is_finite v then
                line "waveidx_series_quantile{series=\"%s\",quantile=\"%s\"} %s"
                  (om_escape name) quantile (om_value v)
            in
            q "0.5" ws.Series.w_p50;
            q "0.95" ws.Series.w_p95;
            q "0.99" ws.Series.w_p99)
          quantiles
      end;
      let trends =
        List.filter_map
          (fun name ->
            match Series.trend st name ~n:max_int with
            | Some slope when Float.is_finite slope -> Some (name, slope)
            | _ -> None)
          names
      in
      if trends <> [] && fresh "waveidx_series_trend" then begin
        line "# TYPE waveidx_series_trend gauge";
        line
          "# HELP waveidx_series_trend Least-squares slope per sample over \
           each recorded series.";
        List.iter
          (fun (name, slope) ->
            line "waveidx_series_trend{series=\"%s\"} %s" (om_escape name)
              (om_value slope))
          trends
      end
    end);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* --- OpenMetrics validation ------------------------------------------- *)

let om_name_ok name =
  String.length name > 0
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

let om_label_name_ok name =
  String.length name > 0
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name

(* Parse a sample head [name{k=...,...}] into (name, labels,
   rest-offset); the label set may be absent.  Label values are quoted
   with backslash escapes for backslash, quote, and newline. *)
let om_parse_sample_head line =
  let n = String.length line in
  let rec name_end i =
    if i < n then
      match line.[i] with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> name_end (i + 1)
      | _ -> i
    else i
  in
  let ne = name_end 0 in
  if ne = 0 then Error "missing metric name"
  else
    let name = String.sub line 0 ne in
    if not (om_name_ok name) then Error (Printf.sprintf "bad metric name %S" name)
    else if ne < n && line.[ne] = '{' then begin
      (* label set *)
      let labels = ref [] in
      let i = ref (ne + 1) in
      let err = ref None in
      let fail m = if !err = None then err := Some m in
      let rec parse_pairs () =
        if !i >= n then fail "unterminated label set"
        else if line.[!i] = '}' then incr i
        else begin
          let ls = !i in
          while
            !i < n
            && (match line.[!i] with
               | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
               | _ -> false)
          do
            incr i
          done;
          let lname = String.sub line ls (!i - ls) in
          if not (om_label_name_ok lname) then
            fail (Printf.sprintf "bad label name %S" lname)
          else if !i >= n || line.[!i] <> '=' then fail "expected '=' in label"
          else begin
            incr i;
            if !i >= n || line.[!i] <> '"' then fail "expected quoted label value"
            else begin
              incr i;
              let b = Buffer.create 16 in
              let closed = ref false in
              while (not !closed) && !i < n && !err = None do
                (match line.[!i] with
                | '"' -> closed := true
                | '\\' ->
                  if !i + 1 >= n then fail "dangling escape"
                  else begin
                    incr i;
                    match line.[!i] with
                    | '\\' -> Buffer.add_char b '\\'
                    | '"' -> Buffer.add_char b '"'
                    | 'n' -> Buffer.add_char b '\n'
                    | c -> fail (Printf.sprintf "bad escape '\\%c'" c)
                  end
                | c -> Buffer.add_char b c);
                incr i
              done;
              if not !closed then fail "unterminated label value"
              else begin
                labels := (lname, Buffer.contents b) :: !labels;
                if !i < n && line.[!i] = ',' then begin
                  incr i;
                  parse_pairs ()
                end
                else if !i < n && line.[!i] = '}' then incr i
                else fail "expected ',' or '}' after label"
              end
            end
          end
        end
      in
      parse_pairs ();
      match !err with
      | Some m -> Error m
      | None -> Ok (name, List.rev !labels, !i)
    end
    else Ok (name, [], ne)

let om_parse_value s =
  match String.lowercase_ascii s with
  | "nan" | "+nan" | "-nan" -> Error "non-finite value (NaN)"
  | "inf" | "+inf" | "-inf" -> Error "non-finite value (Inf)"
  | _ -> (
    match float_of_string_opt s with
    | Some v when Float.is_finite v -> Ok v
    | Some _ -> Error "non-finite value"
    | None -> Error (Printf.sprintf "bad sample value %S" s))

(* Family the sample name belongs to under [kind]: counters append
   _total, summaries/histograms their _sum/_count/_bucket suffixes. *)
let om_base_name kind sample =
  let strip suffix =
    let n = String.length sample and m = String.length suffix in
    if n > m && String.sub sample (n - m) m = suffix then
      Some (String.sub sample 0 (n - m))
    else None
  in
  match kind with
  | "counter" -> strip "_total"
  | "summary" -> (
    match strip "_sum" with
    | Some b -> Some b
    | None -> (
      match strip "_count" with Some b -> Some b | None -> Some sample))
  | "histogram" -> (
    match strip "_bucket" with
    | Some b -> Some b
    | None -> (
      match strip "_sum" with
      | Some b -> Some b
      | None -> (
        match strip "_count" with Some b -> Some b | None -> None)))
  | _ -> Some sample

let om_kinds =
  [ "counter"; "gauge"; "summary"; "histogram"; "untyped"; "unknown" ]

let validate_openmetrics text =
  let lines = String.split_on_char '\n' text in
  (* Drop exactly one trailing "" from the final newline; any other
     blank line is a format violation. *)
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let fail i fmt =
    Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" (i + 1) m)) fmt
  in
  let seen = Hashtbl.create 16 in
  let rec go i current samples = function
    | [] -> Error "missing \"# EOF\" terminator"
    | [ "# EOF" ] -> Ok samples
    | "# EOF" :: _ -> fail i "content after \"# EOF\""
    | line :: rest -> (
      if String.trim line = "" then fail i "blank line"
      else if String.length line > 0 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: fam :: kind :: [] ->
          if not (om_name_ok fam) then fail i "bad family name %S" fam
          else if not (List.mem kind om_kinds) then
            fail i "unknown metric type %S" kind
          else if Hashtbl.mem seen fam then fail i "duplicate family %S" fam
          else begin
            Hashtbl.add seen fam kind;
            go (i + 1) (Some (fam, kind)) samples rest
          end
        | "#" :: "HELP" :: fam :: _ :: _ -> (
          match current with
          | Some (f, _) when f = fam -> go (i + 1) current samples rest
          | _ -> fail i "HELP for %S outside its family block" fam)
        | "#" :: "UNIT" :: fam :: _ -> (
          match current with
          | Some (f, _) when f = fam -> go (i + 1) current samples rest
          | _ -> fail i "UNIT for %S outside its family block" fam)
        | _ -> fail i "unknown comment %S (expected TYPE/HELP/UNIT/EOF)" line
      end
      else
        match om_parse_sample_head line with
        | Error m -> fail i "%s" m
        | Ok (sname, labels, off) -> (
          match current with
          | None -> fail i "sample %S before any # TYPE" sname
          | Some (fam, kind) -> (
            match om_base_name kind sname with
            | None ->
              fail i "%s sample %S lacks the required suffix (e.g. _total)"
                kind sname
            | Some base when base <> fam ->
              fail i "sample %S interleaved with family %S" sname fam
            | Some _ -> (
              (* counters must never expose the bare family name *)
              if kind = "counter" && sname = fam then
                fail i "counter sample %S without _total suffix" sname
              else
                let tail =
                  String.trim
                    (String.sub line off (String.length line - off))
                in
                match String.split_on_char ' ' tail with
                | [ v ] | [ v; _ ] -> (
                  match om_parse_value v with
                  | Error m -> fail i "%s" m
                  | Ok _ -> (
                    (* a summary's quantile label must be a fraction *)
                    match
                      (kind = "summary" && sname = fam,
                       List.assoc_opt "quantile" labels)
                    with
                    | true, Some q -> (
                      match float_of_string_opt q with
                      | Some f when f >= 0.0 && f <= 1.0 ->
                        go (i + 1) current (samples + 1) rest
                      | _ -> fail i "quantile %S outside [0, 1]" q)
                    | true, None ->
                      fail i "summary sample %S lacks a quantile label" sname
                    | false, _ -> go (i + 1) current (samples + 1) rest))
                | _ -> fail i "malformed sample line %S" line))))
  in
  go 0 None 0 lines

let validate_openmetrics_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> validate_openmetrics text
