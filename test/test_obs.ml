(* Tests for the Wave_obs observability layer: the JSON printer/parser,
   the ambient-span tracer and its disk-cost attribution, the metrics
   registry, the trace sinks, and — the load-bearing one — the
   cross-check that span-attributed disk totals for a full simulated
   day equal the runner's day_metrics fields exactly. *)

open Wave_obs
open Wave_core

let exact = Alcotest.(check (float 0.0))

(* Every test leaves the global tracer quiescent so suites can run in
   any order. *)
let with_clean_tracer f =
  Trace.disable ();
  Trace.reset ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Json                                                               *)
(* ------------------------------------------------------------------ *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("int", Json.int 42);
      ("neg", Json.Num (-17.5));
      ("text", Json.Str "hello \"quoted\" back\\slash\n\ttab");
      ("arr", Json.Arr [ Json.int 1; Json.Str "two"; Json.Bool false ]);
      ("nested", Json.Obj [ ("k", Json.Arr []) ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      match Json.parse (Json.to_string ~pretty sample_json) with
      | Ok parsed ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip pretty=%b" pretty)
          true
          (Json.equal sample_json parsed)
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ false; true ]

let test_json_escaping () =
  let s = Json.to_string (Json.Str "a\"b\\c\nd\x01e") in
  Alcotest.(check string) "escaped" {|"a\"b\\c\nd\u0001e"|} s;
  (match Json.parse {|"Aé😀"|} with
  | Ok (Json.Str s) ->
    Alcotest.(check string) "unicode decode" "A\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected string"
  | Error e -> Alcotest.failf "unicode parse failed: %s" e);
  (* Non-finite floats cannot be represented; they degrade to null. *)
  Alcotest.(check string) "nan -> null" "null" (Json.to_string (Json.Num Float.nan));
  Alcotest.(check string)
    "inf -> null" "null"
    (Json.to_string (Json.Num Float.infinity))

let test_json_integers_compact () =
  Alcotest.(check string) "integer without decimals" "3" (Json.to_string (Json.int 3));
  Alcotest.(check string)
    "float keeps precision" "0.5"
    (Json.to_string (Json.Num 0.5))

let test_json_parse_errors () =
  let bad input =
    match Json.parse input with
    | Ok _ -> Alcotest.failf "expected parse error for %S" input
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1, 2,]";
  bad "{\"a\": }";
  bad "tru";
  bad "1 2" (* trailing garbage *);
  bad "\"unterminated"

let test_json_accessors () =
  let j = Json.Obj [ ("x", Json.Num 1.5); ("s", Json.Str "v") ] in
  (match Json.member "x" j with
  | Some (Json.Num f) -> exact "member x" 1.5 f
  | _ -> Alcotest.fail "missing member x");
  Alcotest.(check bool) "absent member" true (Json.member "zzz" j = None)

let test_json_surrogate_pairs () =
  (* 😀 is U+1F600 (grinning face) encoded as a UTF-16
     surrogate pair; the parser must combine it into 4 UTF-8 bytes. *)
  (match Json.parse {|"😀"|} with
  | Ok (Json.Str s) ->
    Alcotest.(check string) "surrogate pair combined" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected string"
  | Error e -> Alcotest.failf "surrogate parse failed: %s" e);
  (* The combined scalar survives a print -> parse round trip. *)
  (match
     Json.parse (Json.to_string (Json.Str "\xf0\x9f\x98\x80"))
   with
  | Ok (Json.Str s) -> Alcotest.(check string) "roundtrip" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected string"
  | Error e -> Alcotest.failf "roundtrip failed: %s" e);
  (* Unpaired or malformed surrogates are parse errors, not mojibake. *)
  List.iter
    (fun input ->
      match Json.parse input with
      | Ok _ -> Alcotest.failf "accepted lone surrogate %S" input
      | Error _ -> ())
    [ {|"\ud83d"|}; {|"\ud83dA"|}; {|"\ude00"|} ]

let test_json_non_finite () =
  (* Non-finite floats degrade to null everywhere they can appear, so
     emitted documents always re-parse. *)
  let j =
    Json.Arr [ Json.Num Float.nan; Json.Num Float.neg_infinity; Json.Num 1.0 ]
  in
  let s = Json.to_string j in
  Alcotest.(check string) "non-finite -> null" "[null,null,1]" s;
  match Json.parse s with
  | Ok (Json.Arr [ Json.Null; Json.Null; Json.Num v ]) -> exact "finite kept" 1.0 v
  | Ok _ -> Alcotest.fail "reparse shape"
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_json_deep_nesting () =
  let depth = 500 in
  let rec build n = if n = 0 then Json.int 7 else Json.Arr [ build (n - 1) ] in
  let deep = build depth in
  match Json.parse (Json.to_string deep) with
  | Ok parsed ->
    Alcotest.(check bool) "deep document round-trips" true (Json.equal deep parsed)
  | Error e -> Alcotest.failf "deep parse failed: %s" e

(* parse (to_string j) = j over random finite documents. *)
let json_roundtrip_prop =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        (* eighths are exact in binary, so equality is not confounded
           by decimal printing *)
        map (fun i -> Json.Num (float_of_int i /. 8.0)) (int_range (-8000) 8000);
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 12));
      ]
  in
  let gen =
    sized @@ fix (fun self n ->
        if n = 0 then scalar
        else
          oneof
            [
              scalar;
              map (fun xs -> Json.Arr xs) (list_size (int_range 0 4) (self (n / 2)));
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_range 0 4)
                   (pair (string_size ~gen:printable (int_range 0 8)) (self (n / 2))));
            ])
  in
  QCheck2.Test.make ~name:"parse (to_string j) = j" ~count:300 gen (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> Json.equal j j'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Trace                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_disabled_is_passthrough () =
  with_clean_tracer @@ fun () ->
  Alcotest.(check bool) "disabled" false (Trace.is_enabled ());
  let r = Trace.with_span "nope" (fun () -> 7) in
  Alcotest.(check int) "body result" 7 r;
  Trace.on_seek ();
  Trace.on_read ~blocks:3 ~bytes:300;
  Trace.instant "nope";
  Alcotest.(check int) "no spans recorded" 0 (List.length (Trace.spans ()));
  Alcotest.(check int) "no instants recorded" 0 (List.length (Trace.instants ()));
  Alcotest.(check int) "nothing open" 0 (Trace.open_depth ())

let test_trace_nesting_and_attribution () =
  with_clean_tracer @@ fun () ->
  Trace.enable ();
  let r =
    Trace.with_span "parent" ~tags:[ ("k", "v") ] (fun () ->
        Trace.on_seek ();
        Trace.on_read ~blocks:2 ~bytes:200;
        let inner =
          Trace.with_span "child" (fun () ->
              Trace.on_write ~blocks:5 ~bytes:500;
              Trace.on_model_seconds 0.25;
              41)
        in
        Trace.on_seek ();
        inner + 1)
  in
  Alcotest.(check int) "result" 42 r;
  let parent =
    match Trace.find_spans "parent" with [ s ] -> s | _ -> Alcotest.fail "parent"
  in
  let child =
    match Trace.find_spans "child" with [ s ] -> s | _ -> Alcotest.fail "child"
  in
  Alcotest.(check int) "child nests under parent" parent.Trace.id
    child.Trace.parent;
  Alcotest.(check int) "parent at top level" 0 parent.Trace.parent;
  (* Attribution is inclusive: the child's writes also land on the
     parent; the parent's seeks/reads do not land on the child. *)
  Alcotest.(check int) "parent seeks" 2 parent.Trace.seeks;
  Alcotest.(check int) "parent blocks read" 2 parent.Trace.blocks_read;
  Alcotest.(check int) "parent blocks written" 5 parent.Trace.blocks_written;
  Alcotest.(check int) "parent bytes written" 500 parent.Trace.bytes_written;
  Alcotest.(check int) "child seeks" 0 child.Trace.seeks;
  Alcotest.(check int) "child blocks written" 5 child.Trace.blocks_written;
  exact "child model seconds" 0.25 (Trace.model_seconds child);
  exact "parent model seconds" 0.25 (Trace.model_seconds parent);
  Alcotest.(check bool)
    "tag filter hits" true
    (List.length (Trace.find_spans ~tags:[ ("k", "v") ] "parent") = 1);
  Alcotest.(check bool)
    "tag filter misses" true
    (Trace.find_spans ~tags:[ ("k", "other") ] "parent" = [])

let test_trace_exception_safety () =
  with_clean_tracer @@ fun () ->
  Trace.enable ();
  (try
     Trace.with_span "boom" (fun () ->
         Trace.on_seek ();
         failwith "kapow")
   with Failure _ -> ());
  (match Trace.find_spans "boom" with
  | [ s ] ->
    Alcotest.(check int) "attribution survives raise" 1 s.Trace.seeks;
    Alcotest.(check bool) "span was closed" true
      (s.Trace.end_wall >= s.Trace.start_wall)
  | _ -> Alcotest.fail "span not recorded on raise");
  Alcotest.(check int) "stack unwound" 0 (Trace.open_depth ())

let test_trace_model_clock () =
  with_clean_tracer @@ fun () ->
  Trace.enable ();
  let fake = ref 100.0 in
  Trace.set_model_clock (fun () -> !fake);
  Trace.with_span "clocked" (fun () -> fake := 103.5);
  (match Trace.find_spans "clocked" with
  | [ s ] ->
    exact "start from registered clock" 100.0 s.Trace.start_model;
    exact "end from registered clock" 103.5 s.Trace.end_model;
    exact "duration" 3.5 (Trace.model_seconds s)
  | _ -> Alcotest.fail "span not recorded");
  (* disable unregisters the clock; the default accumulator resumes. *)
  Trace.disable ();
  Trace.reset ();
  Trace.enable ();
  Trace.with_span "default-clock" (fun () -> Trace.on_model_seconds 2.0);
  match Trace.find_spans "default-clock" with
  | [ s ] ->
    exact "default accumulator start" 0.0 s.Trace.start_model;
    exact "default accumulator duration" 2.0 (Trace.model_seconds s)
  | _ -> Alcotest.fail "span not recorded"

let test_trace_instants () =
  with_clean_tracer @@ fun () ->
  Trace.enable ();
  Trace.on_model_seconds 1.5;
  Trace.instant "mark" ~tags:[ ("slot", "2") ];
  match Trace.instants () with
  | [ i ] ->
    Alcotest.(check string) "name" "mark" i.Trace.i_name;
    exact "model timestamp" 1.5 i.Trace.at_model;
    Alcotest.(check (list (pair string string)))
      "tags"
      [ ("slot", "2") ]
      i.Trace.i_tags
  | l -> Alcotest.failf "expected one instant, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_counter () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "test.hits" in
  Metrics.inc c;
  Metrics.inc ~by:2.5 c;
  exact "counter accumulates" 3.5 (Metrics.counter_value c);
  let c' = Metrics.counter ~registry:r "test.hits" in
  Metrics.inc c';
  exact "interned by name" 4.5 (Metrics.counter_value c);
  Metrics.add c 3;
  Metrics.add c 0;
  exact "add counts an int" 7.5 (Metrics.counter_value c);
  Alcotest.check_raises "negative increment rejected"
    (Invalid_argument "Metrics.inc: negative increment") (fun () ->
      Metrics.inc ~by:(-1.0) c);
  Alcotest.check_raises "negative int increment rejected"
    (Invalid_argument "Metrics.add: negative increment") (fun () -> Metrics.add c (-1))

let test_metrics_gauge_and_kinds () =
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "test.level" in
  Metrics.set g 7.0;
  Metrics.set g 3.0;
  exact "gauge keeps last" 3.0 (Metrics.gauge_value g);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"test.level\" is already a gauge")
    (fun () -> ignore (Metrics.counter ~registry:r "test.level"))

let test_metrics_histogram () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r "test.latency" in
  Alcotest.(check bool) "empty -> None" true (Metrics.hist_summary h = None);
  Array.iter (Metrics.observe h) (Array.init 100 (fun i -> float_of_int (i + 1)));
  Alcotest.(check int) "count" 100 (Metrics.hist_count h);
  (match Metrics.hist_summary h with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
    Alcotest.(check int) "summary count" 100 s.Metrics.count;
    exact "min" 1.0 s.Metrics.min;
    exact "max" 100.0 s.Metrics.max;
    exact "p50" 50.5 s.Metrics.p50;
    exact "mean" 50.5 s.Metrics.mean);
  Metrics.reset r;
  Alcotest.(check int) "reset clears" 0 (Metrics.hist_count h)

let test_metrics_json () =
  let r = Metrics.create () in
  Metrics.inc (Metrics.counter ~registry:r "c1");
  Metrics.set (Metrics.gauge ~registry:r "g1") 9.0;
  Metrics.observe (Metrics.histogram ~registry:r "h1") 4.0;
  let j = Metrics.to_json r in
  (match Json.member "counters" j with
  | Some (Json.Obj [ ("c1", Json.Num v) ]) -> exact "counter in json" 1.0 v
  | _ -> Alcotest.fail "counters shape");
  match Json.member "histograms" j with
  | Some (Json.Obj [ ("h1", h) ]) -> (
    match Json.member "count" h with
    | Some (Json.Num n) -> exact "hist count in json" 1.0 n
    | _ -> Alcotest.fail "histogram count")
  | _ -> Alcotest.fail "histograms shape"

let test_btree_counters_flow () =
  (* The substrate counters are always on; nodes split during plain
     index use must show up in the default registry.  [reset_all]
     gives this run a clean slate, so the value below is this run's
     own count rather than a delta against whatever earlier tests left
     behind in the process-global registry. *)
  Metrics.reset_all ();
  let t = Wave_storage.Btree.create ~order:8 () in
  for k = 1 to 500 do
    Wave_storage.Btree.insert t k k
  done;
  exact "insert counter" 500.0
    (Metrics.counter_value (Metrics.counter "btree.inserts"));
  (* The snapshot sees the same value without touching handles. *)
  match List.assoc_opt "btree.inserts" (Metrics.snapshot ()) with
  | Some (`Counter v) -> exact "snapshot agrees" 500.0 v
  | _ -> Alcotest.fail "snapshot missing btree.inserts"

let test_metrics_snapshot_and_reset () =
  let r = Metrics.create () in
  Metrics.inc ~by:2.0 (Metrics.counter ~registry:r "c");
  Metrics.set (Metrics.gauge ~registry:r "g") 9.0;
  Metrics.observe (Metrics.histogram ~registry:r "h") 4.0;
  let snap = Metrics.snapshot ~registry:r () in
  (match snap with
  | [ ("c", `Counter c); ("g", `Gauge g); ("h", `Histogram (Some s)) ] ->
    exact "counter" 2.0 c;
    exact "gauge" 9.0 g;
    Alcotest.(check int) "hist count" 1 s.Metrics.count;
    exact "hist mean" 4.0 s.Metrics.mean
  | l -> Alcotest.failf "unexpected snapshot shape (%d entries)" (List.length l));
  Metrics.reset r;
  (* The earlier snapshot is a copy, unchanged by the reset... *)
  (match List.assoc_opt "c" snap with
  | Some (`Counter c) -> exact "snapshot immutable" 2.0 c
  | _ -> Alcotest.fail "counter vanished from snapshot");
  (* ...while a fresh one sees the zeroed registry, handles intact. *)
  match Metrics.snapshot ~registry:r () with
  | [ ("c", `Counter c); ("g", `Gauge g); ("h", `Histogram None) ] ->
    exact "counter zeroed" 0.0 c;
    exact "gauge zeroed" 0.0 g
  | _ -> Alcotest.fail "post-reset snapshot shape"

let test_metrics_reset_all_default () =
  let c = Metrics.counter "obs.test.reset_all" in
  Metrics.inc c;
  Alcotest.(check bool) "advanced" true (Metrics.counter_value c >= 1.0);
  Metrics.reset_all ();
  exact "default registry zeroed" 0.0 (Metrics.counter_value c)

(* ------------------------------------------------------------------ *)
(* Sinks                                                              *)
(* ------------------------------------------------------------------ *)

let collect_small_trace () =
  with_clean_tracer @@ fun () ->
  Trace.enable ();
  Trace.with_span "outer" ~tags:[ ("scheme", "DEL") ] (fun () ->
      Trace.on_seek ();
      Trace.on_model_seconds 0.125;
      Trace.with_span "inner" (fun () -> Trace.on_write ~blocks:1 ~bytes:100);
      Trace.instant "tick");
  (Trace.spans (), Trace.instants ())

let test_sink_chrome_valid () =
  let spans, instants = collect_small_trace () in
  let doc = Sink.chrome_json ~spans ~instants () in
  (match Sink.validate_chrome doc with
  | Ok n -> Alcotest.(check int) "all events present" 3 n
  | Error e -> Alcotest.failf "invalid chrome trace: %s" e);
  (* The serialized document survives a parse -> validate round trip. *)
  match Json.parse (Json.to_string doc) with
  | Error e -> Alcotest.failf "chrome json reparse: %s" e
  | Ok doc' -> (
    match Sink.validate_chrome doc' with
    | Ok n -> Alcotest.(check int) "reparsed events" 3 n
    | Error e -> Alcotest.failf "reparsed invalid: %s" e)

let test_sink_chrome_file () =
  let spans, instants = collect_small_trace () in
  let path = Filename.temp_file "wave_obs_test" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Sink.write_chrome ~path ~spans ~instants ();
  match Sink.validate_chrome_file path with
  | Ok n -> Alcotest.(check int) "file validates" 3 n
  | Error e -> Alcotest.failf "chrome file invalid: %s" e

let test_sink_chrome_rejects_malformed () =
  let doc fields = Json.Obj [ ("traceEvents", Json.Arr [ Json.Obj fields ]) ] in
  (match Sink.validate_chrome (doc [ ("name", Json.Str "x"); ("ph", Json.Str "X") ]) with
  | Ok _ -> Alcotest.fail "validator accepted an event without ts"
  | Error _ -> ());
  (* A complete ("X") event needs its duration; an instant does not. *)
  let event ph =
    [
      ("name", Json.Str "x"); ("ph", Json.Str ph); ("ts", Json.Num 1.0);
      ("pid", Json.int 1); ("tid", Json.int 1);
    ]
  in
  (match Sink.validate_chrome (doc (event "X")) with
  | Ok _ -> Alcotest.fail "validator accepted an \"X\" event without dur"
  | Error e ->
    Alcotest.(check string) "error names the event and field"
      {|event 0 ("x"): missing numeric "dur"|} e);
  match Sink.validate_chrome (doc (event "i")) with
  | Ok n -> Alcotest.(check int) "instant without dur" 1 n
  | Error e -> Alcotest.failf "rejected an instant: %s" e

let test_sink_jsonl () =
  let spans, instants = collect_small_trace () in
  let text = Sink.jsonl ~spans ~instants in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  Alcotest.(check int) "one line per event" 3 (List.length lines);
  List.iter
    (fun line ->
      match Json.parse line with
      | Ok (Json.Obj _) -> ()
      | Ok _ -> Alcotest.fail "jsonl line is not an object"
      | Error e -> Alcotest.failf "jsonl line unparseable: %s" e)
    lines

(* ------------------------------------------------------------------ *)
(* Runner cross-check: span attribution == day_metrics, exactly       *)
(* ------------------------------------------------------------------ *)

let small_store =
  Wave_workload.Netnews.store
    {
      Wave_workload.Netnews.default_config with
      Wave_workload.Netnews.mean_postings = 80;
    }

let small_queries =
  {
    Wave_workload.Query_gen.seed = 5;
    probes_per_day = 6;
    probe_range = Wave_workload.Query_gen.Whole_window;
    scans_per_day = 1;
    scan_range = Wave_workload.Query_gen.Whole_window;
    value_dist = Wave_workload.Query_gen.Zipfian { vocab = 2_000; s = 1.0 };
  }

let traced_run scheme technique =
  with_clean_tracer @@ fun () ->
  Trace.enable ();
  let r =
    Wave_sim.Runner.run
      {
        (Wave_sim.Runner.default_config ~scheme ~store:small_store ~w:5 ~n:3) with
        Wave_sim.Runner.technique;
        run_days = 8;
        queries = Some small_queries;
      }
  in
  (r, Trace.spans ())

let check_day_attribution scheme technique =
  let r, spans = traced_run scheme technique in
  (* make_disk sets the disk's block size to entry_bytes. *)
  let block_size =
    Wave_storage.Index.default_config.Wave_storage.Index.entry_bytes
  in
  let ctx fmt =
    Printf.ksprintf
      (fun s ->
        Printf.sprintf "%s/%s %s" (Scheme.name scheme)
          (Env.technique_name technique) s)
      fmt
  in
  Alcotest.(check int) (ctx "ran 8 days") 8 (List.length r.Wave_sim.Runner.days);
  List.iter
    (fun (d : Wave_sim.Runner.day_metrics) ->
      let day_tag = [ ("day", string_of_int d.Wave_sim.Runner.day) ] in
      let the name =
        match
          List.filter
            (fun (sp : Trace.span) ->
              sp.Trace.name = name
              && List.for_all
                   (fun kv -> List.mem kv sp.Trace.tags)
                   day_tag)
            spans
        with
        | [ s ] -> s
        | l ->
          Alcotest.failf "%s: expected 1 %s span for day %d, got %d"
            (ctx "spans") name d.Wave_sim.Runner.day (List.length l)
      in
      let day_span = the "day" in
      let maint = the "phase.maintenance" in
      let query = the "phase.query" in
      (* Model seconds: bit-identical because the runner registers the
         simulation disk's elapsed clock as the tracer's model clock. *)
      exact
        (ctx "maintenance seconds day %d" d.Wave_sim.Runner.day)
        d.Wave_sim.Runner.maintenance_seconds
        (Trace.model_seconds maint);
      exact
        (ctx "query seconds day %d" d.Wave_sim.Runner.day)
        d.Wave_sim.Runner.query_seconds
        (Trace.model_seconds query);
      (* Disk counters: the day span's attributed totals are the same
         increments the runner differences out of Disk.counters. *)
      Alcotest.(check int)
        (ctx "seeks day %d" d.Wave_sim.Runner.day)
        d.Wave_sim.Runner.seeks day_span.Trace.seeks;
      Alcotest.(check int)
        (ctx "blocks read day %d" d.Wave_sim.Runner.day)
        d.Wave_sim.Runner.blocks_read day_span.Trace.blocks_read;
      Alcotest.(check int)
        (ctx "blocks written day %d" d.Wave_sim.Runner.day)
        d.Wave_sim.Runner.blocks_written day_span.Trace.blocks_written;
      (* Bytes: reads always arrive in whole blocks; writes may add
         streamed (sub-block) transfer bytes under packed shadowing. *)
      Alcotest.(check int)
        (ctx "bytes read day %d" d.Wave_sim.Runner.day)
        (d.Wave_sim.Runner.blocks_read * block_size)
        day_span.Trace.bytes_read;
      if technique = Env.In_place then
        Alcotest.(check int)
          (ctx "bytes written day %d" d.Wave_sim.Runner.day)
          (d.Wave_sim.Runner.blocks_written * block_size)
          day_span.Trace.bytes_written
      else
        Alcotest.(check bool)
          (ctx "bytes written cover blocks day %d" d.Wave_sim.Runner.day)
          true
          (day_span.Trace.bytes_written
          >= d.Wave_sim.Runner.blocks_written * block_size);
      (* Phases tile the day: their attributed model time can't exceed
         the whole day span's. *)
      Alcotest.(check bool)
        (ctx "phases within day %d" d.Wave_sim.Runner.day)
        true
        (Trace.model_seconds maint +. Trace.model_seconds query
        <= Trace.model_seconds day_span +. 1e-12))
    r.Wave_sim.Runner.days

let test_runner_attribution_del_inplace () =
  check_day_attribution Scheme.Del Env.In_place

let test_runner_attribution_del_packed () =
  check_day_attribution Scheme.Del Env.Packed_shadow

let test_runner_attribution_wata_inplace () =
  check_day_attribution Scheme.Wata_star Env.In_place

let test_runner_attribution_wata_packed () =
  check_day_attribution Scheme.Wata_star Env.Packed_shadow

let test_runner_span_inventory () =
  let r, spans = traced_run Scheme.Del Env.Simple_shadow in
  ignore r;
  let count name =
    List.length (List.filter (fun s -> s.Trace.name = name) spans)
  in
  Alcotest.(check int) "one start phase" 1 (count "phase.start");
  Alcotest.(check int) "day spans" 8 (count "day");
  Alcotest.(check int) "maintenance spans" 8 (count "phase.maintenance");
  Alcotest.(check int) "query spans" 8 (count "phase.query");
  Alcotest.(check int) "transition spans" 8 (count "transition");
  Alcotest.(check bool) "adds traced" true (count "AddToIndex" > 0);
  Alcotest.(check bool) "deletes traced" true (count "DeleteFromIndex" > 0);
  (* Every span's parent is either 0 or a recorded span id. *)
  let ids = List.map (fun s -> s.Trace.id) spans in
  List.iter
    (fun s ->
      if s.Trace.parent <> 0 then
        Alcotest.(check bool)
          (Printf.sprintf "parent of %s known" s.Trace.name)
          true
          (List.mem s.Trace.parent ids))
    spans

let test_runner_percentiles () =
  let r, _ = traced_run Scheme.Del Env.In_place in
  let series f =
    Array.of_list (List.map f r.Wave_sim.Runner.days)
  in
  let expect =
    Wave_util.Stats.percentile
      (series (fun d -> d.Wave_sim.Runner.transition_seconds))
      50.0
  in
  exact "transition p50 matches Stats" expect
    r.Wave_sim.Runner.transition_percentiles.Wave_sim.Runner.p50;
  let q95 =
    Wave_util.Stats.percentile
      (series (fun d -> d.Wave_sim.Runner.query_seconds))
      95.0
  in
  exact "query p95 matches Stats" q95
    r.Wave_sim.Runner.query_percentiles.Wave_sim.Runner.p95;
  let p = r.Wave_sim.Runner.transition_percentiles in
  Alcotest.(check bool)
    "percentiles ordered" true
    (p.Wave_sim.Runner.p50 <= p.Wave_sim.Runner.p95
    && p.Wave_sim.Runner.p95 <= p.Wave_sim.Runner.p99)

let test_runner_untraced_has_no_spans () =
  with_clean_tracer @@ fun () ->
  let r =
    Wave_sim.Runner.run
      {
        (Wave_sim.Runner.default_config ~scheme:Scheme.Del ~store:small_store
           ~w:5 ~n:2)
        with
        Wave_sim.Runner.run_days = 3;
      }
  in
  Alcotest.(check int) "days simulated" 3 (List.length r.Wave_sim.Runner.days);
  Alcotest.(check int) "no spans collected" 0 (List.length (Trace.spans ()))

(* ------------------------------------------------------------------ *)
(* Bounded histograms (reservoir sampling)                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_reservoir_bounded () =
  let r = Metrics.create () in
  let cap = 2048 in
  let n = 50_000 in
  let h = Metrics.histogram ~registry:r ~cap "test.reservoir" in
  for i = 1 to n do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int) "count stays exact past the cap" n (Metrics.hist_count h);
  Alcotest.(check int) "reservoir bounded" cap (Metrics.hist_sample_size h);
  Alcotest.(check int)
    "hist_values bounded" cap
    (Array.length (Metrics.hist_values h));
  match Metrics.hist_summary h with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
    (* Running aggregates are exact even while sampling. *)
    Alcotest.(check int) "summary count exact" n s.Metrics.count;
    exact "min exact" 1.0 s.Metrics.min;
    exact "max exact" (float_of_int n) s.Metrics.max;
    exact "mean exact" (float_of_int (n + 1) /. 2.0) s.Metrics.mean;
    (* Percentiles come from the reservoir: for a uniform stream the
       p-th percentile of a cap-sized uniform sample is within a few
       percent with overwhelming probability; 10% is a loose bound that
       never flakes with the deterministic per-name PRNG. *)
    let within name expected got tol =
      let rel = Float.abs (got -. expected) /. expected in
      if rel > tol then
        Alcotest.failf "%s: expected ~%g, got %g (rel err %.3f > %.2f)" name
          expected got rel tol
    in
    within "p50" (float_of_int n /. 2.0) s.Metrics.p50 0.10;
    within "p95" (float_of_int n *. 0.95) s.Metrics.p95 0.10

let test_metrics_reservoir_exact_below_cap () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~registry:r ~cap:1000 "test.small" in
  for i = 1 to 200 do
    Metrics.observe h (float_of_int i)
  done;
  Alcotest.(check int)
    "everything retained below cap" 200
    (Metrics.hist_sample_size h);
  (* Recording order is preserved while under the cap. *)
  let vs = Metrics.hist_values h in
  exact "first retained" 1.0 vs.(0);
  exact "last retained" 200.0 vs.(199);
  match Metrics.hist_summary h with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
    exact "p50 exact below cap" 100.5 s.Metrics.p50;
    (* linear interpolation at rank 0.95 * 199 = 189.05 *)
    Alcotest.(check bool)
      "p95 exact below cap" true
      (Float.abs (s.Metrics.p95 -. 190.05) < 1e-9)

let test_metrics_reservoir_deterministic () =
  (* Same name and stream => same reservoir, byte for byte: the PRNG
     is seeded from the histogram name. *)
  let run () =
    let r = Metrics.create () in
    let h = Metrics.histogram ~registry:r ~cap:64 "test.seeded" in
    for i = 1 to 5_000 do
      Metrics.observe h (float_of_int i)
    done;
    Metrics.hist_values h
  in
  Alcotest.(check bool) "reservoir reproducible" true (run () = run ())

let test_metrics_default_cap () =
  let original = Metrics.default_histogram_cap () in
  Alcotest.(check int) "initial default" 8192 original;
  Fun.protect
    ~finally:(fun () -> Metrics.set_default_histogram_cap original)
    (fun () ->
      Metrics.set_default_histogram_cap 16;
      let r = Metrics.create () in
      let h = Metrics.histogram ~registry:r "test.defaulted" in
      for i = 1 to 100 do
        Metrics.observe h (float_of_int i)
      done;
      Alcotest.(check int) "new default applies" 16 (Metrics.hist_sample_size h);
      Alcotest.check_raises "cap below 1 rejected"
        (Invalid_argument "Metrics.set_default_histogram_cap: cap < 1")
        (fun () -> Metrics.set_default_histogram_cap 0))

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)
(* ------------------------------------------------------------------ *)

let test_recorder_ring_bounds () =
  Recorder.clear ();
  let cap = Recorder.capacity () in
  for i = 1 to cap + 10 do
    Recorder.record_metric ~name:"m" ~value:(float_of_int i) ~delta:1.0
  done;
  Alcotest.(check int) "count capped at capacity" cap (Recorder.count ());
  Alcotest.(check int) "total keeps counting" (cap + 10) (Recorder.total ());
  Alcotest.(check int) "dropped = overflow" 10 (Recorder.dropped ());
  let evs = Recorder.events () in
  Alcotest.(check int) "events = count" cap (List.length evs);
  (* Oldest-first with the 10 oldest overwritten: sequence numbers
     start at 0, so the window opens at seq 10. *)
  (match evs with
  | first :: _ ->
    Alcotest.(check int) "oldest surviving seq" 10 first.Recorder.seq
  | [] -> Alcotest.fail "empty ring");
  let rec mono = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "seq strictly increasing" true
        (b.Recorder.seq > a.Recorder.seq);
      mono rest
    | _ -> ()
  in
  mono evs;
  Recorder.clear ();
  Alcotest.(check int) "clear empties the ring" 0 (Recorder.count ());
  Alcotest.(check int) "clear resets total" 0 (Recorder.total ())

let test_recorder_capacity_and_enable () =
  let cap0 = Recorder.capacity () in
  Fun.protect ~finally:(fun () ->
      Recorder.set_enabled true;
      Recorder.set_capacity cap0)
  @@ fun () ->
  Recorder.set_capacity 4;
  for i = 1 to 6 do
    Recorder.record_io ~syscall:"pwrite" ~outcome:"ok" ~bytes:i
  done;
  Alcotest.(check int) "resized ring holds 4" 4 (Recorder.count ());
  Alcotest.(check int) "dropped 2" 2 (Recorder.dropped ());
  Alcotest.(check bool) "capacity below 1 rejected" true
    (try
       Recorder.set_capacity 0;
       false
     with Invalid_argument _ -> true);
  Recorder.set_capacity 4;
  Recorder.set_enabled false;
  Recorder.record_metric ~name:"x" ~value:1.0 ~delta:1.0;
  Alcotest.(check int) "disabled records nothing" 0 (Recorder.total ())

let test_recorder_metric_hook () =
  Recorder.clear ();
  let r = Metrics.create () in
  let g = Metrics.gauge ~registry:r "t.gauge" in
  Metrics.set g 5.0;
  Metrics.set g 3.0;
  match Recorder.events () with
  | [ e1; e2 ] -> (
    match (e1.Recorder.kind, e2.Recorder.kind) with
    | ( Recorder.Metric { m_name; m_value = v1; m_delta = d1 },
        Recorder.Metric { m_value = v2; m_delta = d2; _ } ) ->
      Alcotest.(check string) "gauge name" "t.gauge" m_name;
      exact "first value" 5.0 v1;
      exact "first delta (from 0)" 5.0 d1;
      exact "second value" 3.0 v2;
      exact "second delta" (-2.0) d2
    | _ -> Alcotest.fail "expected two metric events")
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

let test_recorder_flight_roundtrip () =
  Recorder.clear ();
  Recorder.record_span ~name:"s" ~model_s:1.5 ~seeks:2 ~blocks_read:1
    ~blocks_written:0 ~bytes_read:100 ~bytes_written:0;
  Recorder.record_metric ~name:"m" ~value:1.0 ~delta:1.0;
  Recorder.record_alert ~rule:"r" ~metric:"m" ~value:1.0 ~day:3
    ~scope:"transition";
  Recorder.record_io ~syscall:"pwrite" ~outcome:"ok" ~bytes:4096;
  let text = Recorder.to_jsonl ~reason:"unit-test" () in
  (match Sink.validate_flight text with
  | Ok n -> Alcotest.(check int) "all four kinds validate" 4 n
  | Error e -> Alcotest.failf "flight invalid: %s" e);
  (match String.index_opt text '\n' with
  | Some i -> (
    match Json.parse (String.sub text 0 i) with
    | Ok h ->
      Alcotest.(check (option string))
        "schema" (Some "waveidx-flight/1")
        (Option.bind (Json.member "schema" h) Json.to_str);
      Alcotest.(check (option string))
        "reason" (Some "unit-test")
        (Option.bind (Json.member "reason" h) Json.to_str)
    | Error e -> Alcotest.failf "header unparseable: %s" e)
  | None -> Alcotest.fail "single-line dump");
  let path = Filename.temp_file "wave_flight" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Recorder.dump_to ~reason:"unit-test" path;
  match Sink.validate_flight_file path with
  | Ok n -> Alcotest.(check int) "file validates" 4 n
  | Error e -> Alcotest.failf "file invalid: %s" e

let test_flight_validator_rejects () =
  let reject label text =
    match Sink.validate_flight text with
    | Ok _ -> Alcotest.failf "accepted %s" label
    | Error _ -> ()
  in
  reject "empty input" "";
  reject "wrong schema"
    {|{"schema": "waveidx-flight/9", "reason": "x", "events": 0, "dropped": 0}|};
  let header n =
    Printf.sprintf
      {|{"schema": "waveidx-flight/1", "reason": "x", "events": %d, "dropped": 0}|}
      n
  in
  let metric seq =
    Printf.sprintf
      {|{"type": "metric", "seq": %d, "model_s": 0, "wall_s": 0, "name": "m", "value": 1, "delta": 1}|}
      seq
  in
  reject "header count above line count" (header 2 ^ "\n" ^ metric 0);
  reject "header count below line count"
    (header 1 ^ "\n" ^ metric 0 ^ "\n" ^ metric 1);
  reject "non-increasing seq" (header 2 ^ "\n" ^ metric 1 ^ "\n" ^ metric 1);
  reject "unknown event type"
    (header 1
    ^ "\n" ^ {|{"type": "bogus", "seq": 0, "model_s": 0, "wall_s": 0}|});
  reject "metric without delta"
    (header 1
    ^ "\n"
    ^ {|{"type": "metric", "seq": 0, "model_s": 0, "wall_s": 0, "name": "m", "value": 1}|}
    );
  (* The well-formed equivalent passes. *)
  match Sink.validate_flight (header 2 ^ "\n" ^ metric 0 ^ "\n" ^ metric 7) with
  | Ok n -> Alcotest.(check int) "sparse seq ok, count 2" 2 n
  | Error e -> Alcotest.failf "rejected a valid dump: %s" e

let test_alert_fire_records_and_dumps () =
  Recorder.clear ();
  let dump = Filename.temp_file "wave_flight_dump" ".jsonl" in
  Fun.protect ~finally:(fun () ->
      Recorder.set_dump_path None;
      try Sys.remove dump with Sys_error _ -> ())
  @@ fun () ->
  Recorder.set_dump_path (Some dump);
  let reg = Metrics.create () in
  let g = Metrics.gauge ~registry:reg "m.hot" in
  let eng =
    Alert.create [ Alert.rule ~name:"hot" ~metric:"m.hot" Alert.Gt 1.0 ]
  in
  Metrics.set g 5.0;
  ignore (Alert.eval ~registry:reg eng ~day:2);
  let is_alert e =
    match e.Recorder.kind with
    | Recorder.Alert_fire { a_rule; a_scope; a_day; _ } ->
      a_rule = "hot" && a_scope = "day" && a_day = 2
    | _ -> false
  in
  Alcotest.(check bool) "firing landed in the ring" true
    (List.exists is_alert (Recorder.events ()));
  (* The firing also dumped the ring to the armed path. *)
  match Sink.validate_flight_file dump with
  | Ok n -> Alcotest.(check bool) "dump holds the lead-up" true (n >= 2)
  | Error e -> Alcotest.failf "alert dump invalid: %s" e

let test_sink_flush_traces () =
  with_clean_tracer @@ fun () ->
  Trace.enable ();
  Trace.with_span "outer" (fun () -> Trace.instant "tick");
  (* Disarmed: a no-op, never an error. *)
  Sink.set_flush_path None;
  Sink.flush_traces ~reason:"ignored";
  let path = Filename.temp_file "wave_flush" ".jsonl" in
  Fun.protect ~finally:(fun () ->
      Sink.set_flush_path None;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Sink.set_flush_path (Some path);
  Alcotest.(check (option string)) "armed" (Some path) (Sink.flush_path ());
  Sink.flush_traces ~reason:"unit-test";
  let text = In_channel.with_open_text path In_channel.input_all in
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  match lines with
  | header :: rest ->
    (match Json.parse header with
    | Ok h ->
      Alcotest.(check (option string))
        "flush header" (Some "flush")
        (Option.bind (Json.member "type" h) Json.to_str);
      Alcotest.(check (option string))
        "reason" (Some "unit-test")
        (Option.bind (Json.member "reason" h) Json.to_str)
    | Error e -> Alcotest.failf "flush header unparseable: %s" e);
    Alcotest.(check int) "span + instant flushed" 2 (List.length rest)
  | [] -> Alcotest.fail "empty flush file"

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "obs.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "escaping" `Quick test_json_escaping;
        Alcotest.test_case "integers compact" `Quick test_json_integers_compact;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
        Alcotest.test_case "surrogate pairs" `Quick test_json_surrogate_pairs;
        Alcotest.test_case "non-finite floats" `Quick test_json_non_finite;
        Alcotest.test_case "deep nesting" `Quick test_json_deep_nesting;
      ]
      @ qcheck [ json_roundtrip_prop ] );
    ( "obs.trace",
      [
        Alcotest.test_case "disabled passthrough" `Quick
          test_trace_disabled_is_passthrough;
        Alcotest.test_case "nesting and attribution" `Quick
          test_trace_nesting_and_attribution;
        Alcotest.test_case "exception safety" `Quick test_trace_exception_safety;
        Alcotest.test_case "model clock" `Quick test_trace_model_clock;
        Alcotest.test_case "instants" `Quick test_trace_instants;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "counter" `Quick test_metrics_counter;
        Alcotest.test_case "gauge and kind clash" `Quick
          test_metrics_gauge_and_kinds;
        Alcotest.test_case "histogram" `Quick test_metrics_histogram;
        Alcotest.test_case "to_json" `Quick test_metrics_json;
        Alcotest.test_case "btree counters flow" `Quick test_btree_counters_flow;
        Alcotest.test_case "reservoir bounded" `Quick
          test_metrics_reservoir_bounded;
        Alcotest.test_case "reservoir exact below cap" `Quick
          test_metrics_reservoir_exact_below_cap;
        Alcotest.test_case "reservoir deterministic" `Quick
          test_metrics_reservoir_deterministic;
        Alcotest.test_case "default cap" `Quick test_metrics_default_cap;
        Alcotest.test_case "snapshot and reset" `Quick
          test_metrics_snapshot_and_reset;
        Alcotest.test_case "reset_all on default" `Quick
          test_metrics_reset_all_default;
      ] );
    ( "obs.recorder",
      [
        Alcotest.test_case "ring bounds" `Quick test_recorder_ring_bounds;
        Alcotest.test_case "capacity and enable" `Quick
          test_recorder_capacity_and_enable;
        Alcotest.test_case "gauge hook" `Quick test_recorder_metric_hook;
        Alcotest.test_case "flight roundtrip" `Quick
          test_recorder_flight_roundtrip;
        Alcotest.test_case "flight validator rejects" `Quick
          test_flight_validator_rejects;
        Alcotest.test_case "alert fire records and dumps" `Quick
          test_alert_fire_records_and_dumps;
      ] );
    ( "obs.sink",
      [
        Alcotest.test_case "chrome valid" `Quick test_sink_chrome_valid;
        Alcotest.test_case "chrome file" `Quick test_sink_chrome_file;
        Alcotest.test_case "chrome rejects malformed" `Quick
          test_sink_chrome_rejects_malformed;
        Alcotest.test_case "jsonl" `Quick test_sink_jsonl;
        Alcotest.test_case "flush traces" `Quick test_sink_flush_traces;
      ] );
    ( "obs.runner",
      [
        Alcotest.test_case "attribution DEL/in-place" `Quick
          test_runner_attribution_del_inplace;
        Alcotest.test_case "attribution DEL/packed-shadow" `Quick
          test_runner_attribution_del_packed;
        Alcotest.test_case "attribution WATA*/in-place" `Quick
          test_runner_attribution_wata_inplace;
        Alcotest.test_case "attribution WATA*/packed-shadow" `Quick
          test_runner_attribution_wata_packed;
        Alcotest.test_case "span inventory" `Quick test_runner_span_inventory;
        Alcotest.test_case "percentiles" `Quick test_runner_percentiles;
        Alcotest.test_case "untraced run stays clean" `Quick
          test_runner_untraced_has_no_spans;
      ] );
  ]
