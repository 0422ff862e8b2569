(* Tests for the PR-5 observability additions: the call-tree profiler
   (structure, self/total attribution, folded stacks, JSON shape), the
   conservation cross-check against the runner's day metrics, the alert
   engine (debounce, resolution, rule parsing), the runner's alert
   integration, and the bench regression gate. *)

open Wave_obs
open Wave_core

let exact = Alcotest.(check (float 0.0))
let close = Alcotest.(check (float 1e-9))

let with_clean_tracer f =
  Trace.disable ();
  Trace.reset ();
  Fun.protect ~finally:(fun () ->
      Trace.disable ();
      Trace.reset ())
    f

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let debounce (r : Alert.rule) =
  match r.Alert.window with
  | Alert.Debounce d -> d
  | Alert.Burn _ -> Alcotest.failf "rule %S: expected a debounce rule" r.Alert.name

(* ------------------------------------------------------------------ *)
(* Profile: hand-built span trees                                     *)
(* ------------------------------------------------------------------ *)

let mk ~id ~parent ~name ?(m = 0.0) ?(seeks = 0) ?(br = 0) ?(bw = 0) () =
  {
    Trace.id;
    parent;
    name;
    tags = [];
    start_model = 0.0;
    start_wall = 0.0;
    end_model = m;
    end_wall = 0.0;
    seeks;
    blocks_read = br;
    blocks_written = bw;
    bytes_read = br * 100;
    bytes_written = bw * 100;
  }

(* Two invocations of "root": the first with children a (4s) and b
   (3s), the second with another a (1s).  Same-path spans aggregate
   into one node. *)
let sample_spans =
  [
    mk ~id:1 ~parent:0 ~name:"root" ~m:10.0 ~seeks:5 ~br:10 ();
    mk ~id:2 ~parent:1 ~name:"a" ~m:4.0 ~seeks:2 ~br:6 ();
    mk ~id:3 ~parent:1 ~name:"b" ~m:3.0 ~seeks:1 ~br:2 ();
    mk ~id:4 ~parent:0 ~name:"root" ~m:2.0 ~seeks:1 ();
    mk ~id:5 ~parent:4 ~name:"a" ~m:1.0 ~seeks:1 ();
  ]

let test_profile_tree () =
  let prof = Profile.of_spans sample_spans in
  Alcotest.(check int) "span count" 5 (Profile.span_count prof);
  Alcotest.(check int) "one root node" 1 (List.length (Profile.roots prof));
  exact "total model" 12.0 (Profile.total_model prof);
  let root =
    match Profile.find prof [ "root" ] with
    | Some n -> n
    | None -> Alcotest.fail "no root node"
  in
  Alcotest.(check int) "root calls" 2 root.Profile.calls;
  exact "root total" 12.0 root.Profile.total_model;
  (* self = (10 - 7) + (2 - 1) *)
  exact "root self" 4.0 root.Profile.self_model;
  Alcotest.(check int) "root seeks" 6 root.Profile.seeks;
  Alcotest.(check int) "root self seeks" 2 root.Profile.self_seeks;
  let a =
    match Profile.find prof [ "root"; "a" ] with
    | Some n -> n
    | None -> Alcotest.fail "no root/a node"
  in
  Alcotest.(check int) "a calls" 2 a.Profile.calls;
  exact "a total" 5.0 a.Profile.total_model;
  exact "a self (leaf)" 5.0 a.Profile.self_model;
  Alcotest.(check string) "a path" "root/a" (Profile.path_string a);
  (* Children sorted by inclusive total, largest first: a (5) > b (3). *)
  (match root.Profile.children with
  | [ c1; c2 ] ->
    Alcotest.(check string) "first child" "a" c1.Profile.name;
    Alcotest.(check string) "second child" "b" c2.Profile.name
  | l -> Alcotest.failf "expected 2 children, got %d" (List.length l));
  Alcotest.(check int) "preorder node count" 3
    (List.length (Profile.nodes prof));
  Alcotest.(check bool) "find misses politely" true
    (Profile.find prof [ "root"; "zzz" ] = None)

let test_profile_orphans_are_roots () =
  (* A span whose parent never finished (or predates the collection)
     becomes a root rather than being dropped. *)
  let prof =
    Profile.of_spans [ mk ~id:7 ~parent:99 ~name:"stray" ~m:2.5 ~seeks:1 () ]
  in
  match Profile.roots prof with
  | [ n ] ->
    Alcotest.(check string) "orphan is a root" "stray" n.Profile.name;
    exact "orphan total" 2.5 n.Profile.total_model;
    exact "orphan self" 2.5 n.Profile.self_model
  | l -> Alcotest.failf "expected 1 root, got %d" (List.length l)

let test_profile_top_self () =
  let prof = Profile.of_spans sample_spans in
  (match Profile.top_self ~k:1 prof with
  | [ n ] -> Alcotest.(check string) "hottest self node" "a" n.Profile.name
  | l -> Alcotest.failf "expected 1 node, got %d" (List.length l));
  (match Profile.top_self ~k:10 ~under:[ "root"; "b" ] prof with
  | [ n ] -> Alcotest.(check string) "subtree restriction" "b" n.Profile.name
  | l -> Alcotest.failf "expected 1 node under root/b, got %d" (List.length l));
  Alcotest.(check bool) "unknown subtree -> empty" true
    (Profile.top_self ~under:[ "nope" ] prof = [])

let parse_folded text =
  List.filter_map
    (fun line ->
      if String.trim line = "" then None
      else
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "folded line without value: %S" line
        | Some i ->
          let path = String.sub line 0 i in
          let v =
            float_of_string (String.sub line (i + 1) (String.length line - i - 1))
          in
          Some (path, v))
    (String.split_on_char '\n' text)

let test_profile_folded () =
  let prof = Profile.of_spans sample_spans in
  let lines = parse_folded (Profile.folded prof) in
  List.iter
    (fun (path, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "non-negative value for %s" path)
        true (v >= 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "semicolon-joined path %S" path)
        true
        (String.split_on_char ';' path <> []))
    lines;
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0.0 lines in
  close "folded values sum to total model" (Profile.total_model prof) sum;
  Alcotest.(check bool) "root self line present" true
    (List.mem_assoc "root" lines);
  close "leaf line value" 3.0 (List.assoc "root;b" lines)

let test_profile_json_validates () =
  let prof = Profile.of_spans sample_spans in
  let j = Profile.to_json prof in
  (match Sink.validate_profile j with
  | Ok nodes -> Alcotest.(check int) "validated node count" 3 nodes
  | Error e -> Alcotest.failf "profile json invalid: %s" e);
  (* And survives serialization. *)
  match Json.parse (Json.to_string j) with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok j' -> (
    match Sink.validate_profile j' with
    | Ok nodes -> Alcotest.(check int) "reparsed node count" 3 nodes
    | Error e -> Alcotest.failf "reparsed invalid: %s" e)

let test_profile_json_rejects_malformed () =
  let bad =
    Json.Obj
      [
        ("schema", Json.Str Sink.profile_schema);
        ("unit", Json.Str "model-seconds");
        ("total_model_s", Json.Num 1.0);
        ( "roots",
          Json.Arr
            [
              Json.Obj
                [
                  ("name", Json.Str "x");
                  ("calls", Json.int 1);
                  ("total_model_s", Json.Num (-1.0));
                ];
            ] );
      ]
  in
  match Sink.validate_profile bad with
  | Ok _ -> Alcotest.fail "validator accepted a negative total"
  | Error e ->
    Alcotest.(check bool)
      "error names the node" true
      (contains e "/x")

(* ------------------------------------------------------------------ *)
(* Conservation: profile totals == runner day metrics                 *)
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

let traced_run ?(alerts = []) scheme technique =
  with_clean_tracer @@ fun () ->
  Trace.enable ();
  let r =
    Wave_sim.Runner.run
      {
        (Wave_sim.Runner.default_config ~scheme ~store:small_store ~w:5 ~n:3) with
        Wave_sim.Runner.technique;
        run_days = 8;
        queries = Some small_queries;
        alerts;
      }
  in
  (r, Trace.spans ())

let check_conservation scheme technique =
  let r, spans = traced_run scheme technique in
  let prof = Profile.of_spans spans in
  let expected =
    r.Wave_sim.Runner.total_maintenance_seconds
    +. r.Wave_sim.Runner.total_query_seconds
  in
  let day =
    match Profile.find prof [ "day" ] with
    | Some n -> n
    | None -> Alcotest.fail "no day node"
  in
  let ctx s =
    Printf.sprintf "%s/%s %s" (Scheme.name scheme)
      (Env.technique_name technique) s
  in
  Alcotest.(check (float 1e-6))
    (ctx "day tree total == day_metrics total")
    expected day.Profile.total_model;
  (* The folded rendering preserves it: self values under "day" sum
     back to the day node's inclusive total. *)
  let folded_day =
    List.fold_left
      (fun acc (path, v) ->
        if path = "day" || String.starts_with ~prefix:"day;" path
        then acc +. v
        else acc)
      0.0
      (parse_folded (Profile.folded prof))
  in
  Alcotest.(check (float 1e-6)) (ctx "folded day lines sum") expected folded_day;
  (* Integer counters are exactly inclusive, so self >= 0 everywhere
     and the day subtree's seeks match the metrics' per-day deltas. *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (ctx (Printf.sprintf "self seeks >= 0 at %s" (Profile.path_string n)))
        true
        (n.Profile.self_seeks >= 0))
    (Profile.nodes prof);
  let metric_seeks =
    List.fold_left
      (fun a d -> a + d.Wave_sim.Runner.seeks)
      0 r.Wave_sim.Runner.days
  in
  Alcotest.(check int) (ctx "day tree seeks") metric_seeks day.Profile.seeks

let test_conservation_del_inplace () =
  check_conservation Scheme.Del Env.In_place

let test_conservation_wata_packed () =
  check_conservation Scheme.Wata_star Env.Packed_shadow

(* ------------------------------------------------------------------ *)
(* Alert engine                                                       *)
(* ------------------------------------------------------------------ *)

let test_alert_immediate_fire () =
  let reg = Metrics.create () in
  let g = Metrics.gauge ~registry:reg "m.level" in
  let eng =
    Alert.create
      [ Alert.rule ~name:"high" ~metric:"m.level" Alert.Gt 10.0 ]
  in
  Metrics.set g 5.0;
  Alcotest.(check int) "below threshold: nothing" 0
    (List.length (Alert.eval ~registry:reg eng ~day:1));
  Metrics.set g 11.0;
  (match Alert.eval ~registry:reg eng ~day:2 with
  | [ (r, v) ] ->
    Alcotest.(check string) "fired rule" "high" r.Alert.name;
    exact "fired value" 11.0 v
  | l -> Alcotest.failf "expected 1 active, got %d" (List.length l));
  (match Alert.active eng with
  | [ e ] ->
    Alcotest.(check int) "fired day" 2 e.Alert.fired_day;
    Alcotest.(check bool) "unresolved" true (e.Alert.resolved_day = None)
  | l -> Alcotest.failf "expected 1 active event, got %d" (List.length l));
  Metrics.set g 3.0;
  Alcotest.(check int) "recovery: nothing active" 0
    (List.length (Alert.eval ~registry:reg eng ~day:3));
  match Alert.events eng with
  | [ e ] ->
    Alcotest.(check (option int)) "resolved day" (Some 3) e.Alert.resolved_day;
    Alcotest.(check int) "last satisfied day" 2 e.Alert.last_day
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l)

let test_alert_debounce () =
  let reg = Metrics.create () in
  let g = Metrics.gauge ~registry:reg "m.level" in
  let eng =
    Alert.create
      [ Alert.rule ~for_days:3 ~name:"sustained" ~metric:"m.level" Alert.Ge 1.0 ]
  in
  Metrics.set g 2.0;
  Alcotest.(check int) "day 1: debouncing" 0
    (List.length (Alert.eval ~registry:reg eng ~day:1));
  Alcotest.(check int) "day 2: debouncing" 0
    (List.length (Alert.eval ~registry:reg eng ~day:2));
  Alcotest.(check int) "day 3: fires" 1
    (List.length (Alert.eval ~registry:reg eng ~day:3));
  (* A single quiet day re-arms the debounce entirely. *)
  Metrics.set g 0.0;
  ignore (Alert.eval ~registry:reg eng ~day:4);
  Metrics.set g 2.0;
  Alcotest.(check int) "day 5: debounce restarted" 0
    (List.length (Alert.eval ~registry:reg eng ~day:5));
  ignore (Alert.eval ~registry:reg eng ~day:6);
  Alcotest.(check int) "day 7: second event" 1
    (List.length (Alert.eval ~registry:reg eng ~day:7));
  Alcotest.(check int) "two events total" 2 (List.length (Alert.events eng));
  match Alert.events eng with
  | [ e1; e2 ] ->
    Alcotest.(check int) "first fired day" 3 e1.Alert.fired_day;
    Alcotest.(check (option int)) "first resolved" (Some 4) e1.Alert.resolved_day;
    Alcotest.(check int) "second fired day" 7 e2.Alert.fired_day;
    Alcotest.(check bool) "second active" true (e2.Alert.resolved_day = None)
  | _ -> Alcotest.fail "event history shape"

let test_alert_histogram_stats () =
  let reg = Metrics.create () in
  let h = Metrics.histogram ~registry:reg "m.lat" in
  Array.iter (Metrics.observe h) (Array.init 100 (fun i -> float_of_int (i + 1)));
  let eval rule =
    let eng = Alert.create [ rule ] in
    Alert.eval ~registry:reg eng ~day:1
  in
  Alcotest.(check int) "p95 above 90 fires" 1
    (List.length (eval (Alert.rule ~stat:Alert.P95 ~name:"p95" ~metric:"m.lat" Alert.Gt 90.0)));
  Alcotest.(check int) "p50 above 90 does not" 0
    (List.length (eval (Alert.rule ~stat:Alert.P50 ~name:"p50" ~metric:"m.lat" Alert.Gt 90.0)));
  Alcotest.(check int) "count >= 100 fires" 1
    (List.length (eval (Alert.rule ~stat:Alert.Count ~name:"n" ~metric:"m.lat" Alert.Ge 100.0)));
  Alcotest.(check int) "max" 1
    (List.length (eval (Alert.rule ~stat:Alert.Max ~name:"max" ~metric:"m.lat" Alert.Ge 100.0)));
  (* Value on a histogram reads the exact mean. *)
  Alcotest.(check int) "value = mean (50.5)" 1
    (List.length (eval (Alert.rule ~name:"mean" ~metric:"m.lat" Alert.Gt 50.0)))

let test_alert_unresolvable_never_fires () =
  let reg = Metrics.create () in
  let c = Metrics.counter ~registry:reg "m.count" in
  Metrics.inc ~by:5.0 c;
  let eng =
    Alert.create
      [
        (* metric never registered *)
        Alert.rule ~name:"ghost" ~metric:"m.ghost" Alert.Gt 0.0;
        (* percentile stat on a counter is unresolvable *)
        Alert.rule ~stat:Alert.P95 ~name:"badstat" ~metric:"m.count" Alert.Gt 0.0;
        (* empty histogram *)
        Alert.rule ~name:"empty" ~metric:"m.empty" Alert.Gt 0.0;
      ]
  in
  ignore (Metrics.histogram ~registry:reg "m.empty");
  for day = 1 to 3 do
    Alcotest.(check int)
      (Printf.sprintf "day %d: nothing fires" day)
      0
      (List.length (Alert.eval ~registry:reg eng ~day))
  done;
  Alcotest.(check int) "no events" 0 (List.length (Alert.events eng))

let test_alert_trace_instant_on_fire () =
  with_clean_tracer @@ fun () ->
  Trace.enable ();
  let reg = Metrics.create () in
  let g = Metrics.gauge ~registry:reg "m.level" in
  Metrics.set g 9.0;
  (* A burn-rate rule fires in the same evaluation, as an "slo"
     instant with its own tags. *)
  let series = Series.create () in
  Series.record series ~name:"m.level" ~day:4 9.0;
  let eng =
    Alert.create
      [
        Alert.rule ~name:"hot" ~metric:"m.level" Alert.Gt 1.0;
        Alert.burn ~goal:0.5 ~fast_days:1 ~slow_days:1 ~name:"burning"
          ~metric:"m.level" ~window_days:1 Alert.Gt 1.0;
      ]
  in
  ignore (Alert.eval ~registry:reg ~series eng ~day:4);
  ignore (Alert.eval ~registry:reg ~series eng ~day:5);
  let tag i k = List.assoc_opt k i.Trace.i_tags in
  (* one instant per firing, not per continuing day *)
  match Trace.instants () with
  | [ i; j ] ->
    Alcotest.(check string) "instant name" "alert" i.Trace.i_name;
    Alcotest.(check (option string)) "rule tag" (Some "hot") (tag i "rule");
    Alcotest.(check (option string)) "day tag" (Some "4") (tag i "day");
    Alcotest.(check string) "burn-rate instant name" "slo" j.Trace.i_name;
    Alcotest.(check (list string))
      "burn-rate tags"
      [ "slo"; "objective"; "burn"; "fast_days"; "slow_days"; "day" ]
      (List.map fst j.Trace.i_tags);
    Alcotest.(check (option string)) "burn tag" (Some "2") (tag j "burn")
  | l -> Alcotest.failf "expected 2 instants, got %d" (List.length l)

let test_alert_rules_json_roundtrip () =
  let text =
    {|{"rules": [
        {"name": "p95-ceiling", "metric": "runner.query_seconds",
         "stat": "p95", "op": ">", "threshold": 0.25, "for_days": 2},
        {"name": "hit-floor", "metric": "cache.hit_ratio",
         "op": "<", "threshold": 0.9}
      ]}|}
  in
  let rules =
    match Result.bind (Json.parse text) Alert.rules_of_json with
    | Ok rules -> rules
    | Error e -> Alcotest.failf "rules parse failed: %s" e
  in
  (match rules with
  | [ r1; r2 ] ->
    Alcotest.(check string) "rule 1 name" "p95-ceiling" r1.Alert.name;
    let d1 = debounce r1 and d2 = debounce r2 in
    Alcotest.(check bool) "rule 1 stat" true (d1.Alert.stat = Alert.P95);
    Alcotest.(check bool) "rule 1 op" true (r1.Alert.comparator = Alert.Gt);
    Alcotest.(check int) "rule 1 for_days" 2 d1.Alert.for_days;
    Alcotest.(check bool) "rule 2 defaults stat" true (d2.Alert.stat = Alert.Value);
    Alcotest.(check int) "rule 2 defaults for_days" 1 d2.Alert.for_days
  | l -> Alcotest.failf "expected 2 rules, got %d" (List.length l));
  (* A bare top-level array parses too. *)
  match
    Result.bind
      (Json.parse
         {|[{"name": "x", "metric": "m", "op": ">=", "threshold": 1}]|})
      Alert.rules_of_json
  with
  | Ok [ r ] -> Alcotest.(check string) "bare array rule" "x" r.Alert.name
  | Ok l -> Alcotest.failf "expected 1 rule, got %d" (List.length l)
  | Error e -> Alcotest.failf "bare array failed: %s" e

let test_alert_rules_json_errors () =
  let expect_err ~needle text =
    match Result.bind (Json.parse text) Alert.rules_of_json with
    | Ok _ -> Alcotest.failf "accepted bad rules: %s" text
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S mentions %S" e needle)
        true
        (contains e needle)
  in
  expect_err ~needle:"\"bad-op\"" {|[{"name": "bad-op", "metric": "m", "op": "!=", "threshold": 1}]|};
  expect_err ~needle:"metric" {|[{"name": "no-metric", "op": ">", "threshold": 1}]|};
  expect_err ~needle:"threshold" {|[{"name": "no-thresh", "metric": "m", "op": ">"}]|};
  expect_err ~needle:"for_days" {|[{"name": "bad-days", "metric": "m", "op": ">", "threshold": 1, "for_days": 0}]|};
  expect_err ~needle:"stat" {|[{"name": "bad-stat", "metric": "m", "op": ">", "threshold": 1, "stat": "p42"}]|};
  expect_err ~needle:"rule 1" {|[{"name": "ok", "metric": "m", "op": ">", "threshold": 1}, 42]|};
  expect_err ~needle:"no rules" {|{"rules": []}|};
  expect_err ~needle:"rules" {|{"other": 1}|}

let test_alert_events_json () =
  let reg = Metrics.create () in
  let g = Metrics.gauge ~registry:reg "m.level" in
  Metrics.set g 2.0;
  let eng = Alert.create [ Alert.rule ~name:"r" ~metric:"m.level" Alert.Gt 1.0 ] in
  ignore (Alert.eval ~registry:reg eng ~day:1);
  Metrics.set g 0.0;
  ignore (Alert.eval ~registry:reg eng ~day:2);
  let j = Alert.events_json (Alert.events eng) in
  (match Json.member "count" j with
  | Some (Json.Num n) -> exact "count" 1.0 n
  | _ -> Alcotest.fail "count shape");
  match Option.bind (Json.member "alerts" j) Json.to_list with
  | Some [ a ] ->
    Alcotest.(check (option string))
      "rule name"
      (Some "r")
      (Option.bind (Json.member "rule" a) Json.to_str);
    (match Json.member "resolved_day" a with
    | Some (Json.Num d) -> exact "resolved day" 2.0 d
    | _ -> Alcotest.fail "resolved_day shape");
    (* The whole document survives serialization. *)
    (match Json.parse (Json.to_string j) with
    | Ok j' -> Alcotest.(check bool) "roundtrip" true (Json.equal j j')
    | Error e -> Alcotest.failf "reparse: %s" e)
  | _ -> Alcotest.fail "alerts shape"

(* ------------------------------------------------------------------ *)
(* Alert engine driven by the runner                                  *)
(* ------------------------------------------------------------------ *)

let test_runner_alerts () =
  let rules =
    [
      (* Always true once a wave exists: fires on the second day. *)
      Alert.rule ~for_days:2 ~name:"wave-exists"
        ~metric:"runner.day.wave_length" Alert.Ge 1.0;
      (* Impossible: query seconds are never negative. *)
      Alert.rule ~name:"impossible" ~metric:"runner.day.query_seconds"
        Alert.Lt (-1.0);
    ]
  in
  let r, _ = traced_run ~alerts:rules Scheme.Del Env.In_place in
  (match r.Wave_sim.Runner.alerts with
  | [ e ] ->
    Alcotest.(check string) "rule fired" "wave-exists" e.Alert.e_rule.Alert.name;
    (* First simulated day is w+1 = 6; for_days 2 -> fires day 7. *)
    Alcotest.(check int) "fired on second day" 7 e.Alert.fired_day;
    Alcotest.(check int) "held through the run" 13 e.Alert.last_day;
    Alcotest.(check bool) "still active at end" true (e.Alert.resolved_day = None)
  | l -> Alcotest.failf "expected 1 alert event, got %d" (List.length l));
  (* An unconfigured run reports no alerts. *)
  let r2, _ = traced_run Scheme.Del Env.In_place in
  Alcotest.(check int) "no rules -> no events" 0
    (List.length r2.Wave_sim.Runner.alerts)

(* ------------------------------------------------------------------ *)
(* Bench regression gate                                              *)
(* ------------------------------------------------------------------ *)

let series name p50 p95 =
  { Sink.series_name = name; series_p50 = p50; series_p95 = p95 }

let test_gate_passes_within_threshold () =
  let baseline = [ series "probe/DEL" 1.0 2.0; series "scan/DEL" 3.0 4.0 ] in
  let current = [ series "probe/DEL" 1.05 2.0; series "scan/DEL" 2.9 4.3 ] in
  let cmp = Sink.compare_bench ~threshold_pct:10.0 ~baseline ~current in
  Alcotest.(check bool) "within threshold passes" true (Sink.bench_ok cmp);
  Alcotest.(check int) "compared both" 2 cmp.Sink.compared;
  Alcotest.(check int) "no regressions" 0 (List.length cmp.Sink.regressions)

let test_gate_fails_on_regression () =
  let baseline = [ series "probe/DEL" 1.0 2.0 ] in
  let current = [ series "probe/DEL" 1.12 2.0 ] in
  let cmp = Sink.compare_bench ~threshold_pct:10.0 ~baseline ~current in
  Alcotest.(check bool) "12% p50 growth fails at 10%" false (Sink.bench_ok cmp);
  (match cmp.Sink.regressions with
  | [ d ] ->
    Alcotest.(check string) "series" "probe/DEL" d.Sink.delta_name;
    Alcotest.(check string) "field" "p50" d.Sink.delta_field;
    Alcotest.(check (float 1e-9)) "delta pct" 12.0 d.Sink.delta_pct
  | l -> Alcotest.failf "expected 1 regression, got %d" (List.length l));
  (* The same drift passes a looser gate. *)
  Alcotest.(check bool) "passes at 15%" true
    (Sink.bench_ok (Sink.compare_bench ~threshold_pct:15.0 ~baseline ~current));
  let report = Sink.comparison_report cmp in
  Alcotest.(check bool) "report flags the series" true
    (contains report "REGRESSION probe/DEL")

let test_gate_fails_on_vanished_series () =
  let baseline = [ series "probe/DEL" 1.0 2.0; series "gone/X" 1.0 1.0 ] in
  let current = [ series "probe/DEL" 1.0 2.0; series "brand/new" 1.0 1.0 ] in
  let cmp = Sink.compare_bench ~threshold_pct:10.0 ~baseline ~current in
  Alcotest.(check bool) "vanished series fails" false (Sink.bench_ok cmp);
  Alcotest.(check (list string)) "missing names" [ "gone/X" ] cmp.Sink.missing;
  Alcotest.(check (list string)) "added names" [ "brand/new" ] cmp.Sink.added

let test_gate_reports_improvements () =
  let baseline = [ series "probe/DEL" 2.0 4.0 ] in
  let current = [ series "probe/DEL" 1.0 4.0 ] in
  let cmp = Sink.compare_bench ~threshold_pct:10.0 ~baseline ~current in
  Alcotest.(check bool) "improvement still passes" true (Sink.bench_ok cmp);
  match cmp.Sink.improvements with
  | [ d ] ->
    Alcotest.(check string) "field" "p50" d.Sink.delta_field;
    Alcotest.(check (float 1e-9)) "delta pct" (-50.0) d.Sink.delta_pct
  | l -> Alcotest.failf "expected 1 improvement, got %d" (List.length l)

let test_gate_exact_rerun_is_clean () =
  (* Bit-identical model-second reruns must never trip the gate, even
     at threshold 0. *)
  let xs = [ series "a" 0.1 0.2; series "b" 0.0 0.0 ] in
  let cmp = Sink.compare_bench ~threshold_pct:0.0 ~baseline:xs ~current:xs in
  Alcotest.(check bool) "identical passes at 0%" true (Sink.bench_ok cmp);
  Alcotest.(check int) "no improvements either" 0
    (List.length cmp.Sink.improvements)

let test_gate_series_extraction () =
  let j =
    Json.Obj
      [
        ("schema", Json.Str "waveidx-bench/1");
        ( "benchmarks",
          Json.Arr
            [
              Json.Obj
                [
                  ("name", Json.Str "probe/DEL");
                  ("p50", Json.Num 0.5);
                  ("p95", Json.Num 0.7);
                  ("runs", Json.int 10);
                ];
            ] );
      ]
  in
  (match Sink.bench_series j with
  | Ok [ s ] ->
    Alcotest.(check string) "name" "probe/DEL" s.Sink.series_name;
    exact "p50" 0.5 s.Sink.series_p50
  | Ok l -> Alcotest.failf "expected 1 series, got %d" (List.length l)
  | Error e -> Alcotest.failf "extraction failed: %s" e);
  match
    Sink.bench_series
      (Json.Obj
         [
           ( "benchmarks",
             Json.Arr [ Json.Obj [ ("name", Json.Str "half/series"); ("p50", Json.Num 1.0) ] ]
           );
         ])
  with
  | Ok _ -> Alcotest.fail "accepted a series without p95"
  | Error e ->
    Alcotest.(check bool)
      "error names the series" true
      (contains e "half/series")

(* ------------------------------------------------------------------ *)
(* Differential profiles                                              *)
(* ------------------------------------------------------------------ *)

let test_diff_identical_exact_zero () =
  let prof = Profile.of_spans sample_spans in
  let d = Profile.diff ~baseline:prof ~current:(Profile.of_spans sample_spans) in
  exact "base total" 12.0 d.Profile.base_total;
  exact "cur total" 12.0 d.Profile.cur_total;
  Alcotest.(check int) "one entry per node" 3 (List.length d.Profile.entries);
  List.iter
    (fun (e : Profile.diff_entry) ->
      let p = String.concat "/" e.Profile.d_path in
      Alcotest.(check bool) (p ^ " common") true
        (e.Profile.d_status = Profile.Common);
      (* Identical trees come from identical float arithmetic: the
         deltas are bitwise zero, not epsilon-close. *)
      exact (p ^ " dself") 0.0 e.Profile.d_self;
      exact (p ^ " dtotal") 0.0 e.Profile.d_total;
      Alcotest.(check int) (p ^ " dcalls") 0 e.Profile.d_calls;
      Alcotest.(check int) (p ^ " dseeks") 0 e.Profile.d_seeks;
      Alcotest.(check int) (p ^ " dblocks") 0 e.Profile.d_blocks;
      Alcotest.(check int) (p ^ " dbytes") 0 e.Profile.d_bytes)
    d.Profile.entries

let diff_find d path =
  match List.find_opt (fun e -> e.Profile.d_path = path) d.Profile.entries with
  | Some e -> e
  | None -> Alcotest.failf "no diff entry for %s" (String.concat "/" path)

let diff_baseline_spans =
  [
    mk ~id:1 ~parent:0 ~name:"root" ~m:10.0 ();
    mk ~id:2 ~parent:1 ~name:"a" ~m:4.0 ~seeks:2 ();
    mk ~id:3 ~parent:1 ~name:"b" ~m:3.0 ();
  ]

(* Sibling order flipped and span ids shifted relative to the baseline:
   alignment is by span-stack path, nothing else. *)
let diff_current_spans =
  [
    mk ~id:5 ~parent:4 ~name:"c" ~m:1.0 ();
    mk ~id:6 ~parent:4 ~name:"b" ~m:6.0 ~seeks:1 ();
    mk ~id:4 ~parent:0 ~name:"root" ~m:12.0 ();
  ]

let test_diff_added_removed_reordered () =
  let baseline = Profile.of_spans diff_baseline_spans in
  let current = Profile.of_spans diff_current_spans in
  let d = Profile.diff ~baseline ~current in
  exact "base total" 10.0 d.Profile.base_total;
  exact "cur total" 12.0 d.Profile.cur_total;
  Alcotest.(check int) "union of both trees" 4 (List.length d.Profile.entries);
  let a = diff_find d [ "root"; "a" ] in
  Alcotest.(check bool) "a removed" true (a.Profile.d_status = Profile.Removed);
  Alcotest.(check bool) "a has no current side" true (a.Profile.d_cur = None);
  exact "a dself" (-4.0) a.Profile.d_self;
  Alcotest.(check int) "a dcalls" (-1) a.Profile.d_calls;
  Alcotest.(check int) "a dseeks" (-2) a.Profile.d_seeks;
  let c = diff_find d [ "root"; "c" ] in
  Alcotest.(check bool) "c added" true (c.Profile.d_status = Profile.Added);
  Alcotest.(check bool) "c has no baseline side" true (c.Profile.d_base = None);
  exact "c dself" 1.0 c.Profile.d_self;
  Alcotest.(check int) "c dcalls" 1 c.Profile.d_calls;
  let b = diff_find d [ "root"; "b" ] in
  Alcotest.(check bool) "b common despite reorder" true
    (b.Profile.d_status = Profile.Common);
  exact "b dself" 3.0 b.Profile.d_self;
  Alcotest.(check int) "b dseeks" 1 b.Profile.d_seeks;
  let root = diff_find d [ "root" ] in
  (* baseline self 10 - 7 = 3, current self 12 - 7 = 5 *)
  exact "root dself" 2.0 root.Profile.d_self;
  exact "root dtotal" 2.0 root.Profile.d_total;
  (* Entries sorted by |self delta|, largest first. *)
  (match d.Profile.entries with
  | e :: _ ->
    Alcotest.(check (list string))
      "largest |dself| first" [ "root"; "a" ] e.Profile.d_path
  | [] -> Alcotest.fail "empty diff");
  Alcotest.(check int) "diff_top truncates" 2
    (List.length (Profile.diff_top ~k:2 d))

let test_diff_of_json_roundtrip () =
  let prof = Profile.of_spans sample_spans in
  match Profile.of_json (Profile.to_json prof) with
  | Error e -> Alcotest.failf "of_json failed: %s" e
  | Ok reparsed ->
    let d = Profile.diff ~baseline:reparsed ~current:prof in
    exact "totals agree" d.Profile.base_total d.Profile.cur_total;
    List.iter
      (fun (e : Profile.diff_entry) ->
        Alcotest.(check bool) "all common" true
          (e.Profile.d_status = Profile.Common);
        exact "dself zero" 0.0 e.Profile.d_self;
        exact "dtotal zero" 0.0 e.Profile.d_total)
      d.Profile.entries

let test_diff_report_and_json () =
  let d =
    Profile.diff
      ~baseline:(Profile.of_spans diff_baseline_spans)
      ~current:(Profile.of_spans diff_current_spans)
  in
  let rep = Profile.diff_report ~k:10 d in
  Alcotest.(check bool) "header present" true (contains rep "profile diff:");
  Alcotest.(check bool) "removed node listed" true (contains rep "root/a");
  Alcotest.(check bool) "removed flagged" true (contains rep "removed");
  Alcotest.(check bool) "added flagged" true (contains rep "added");
  let j = Profile.diff_json d in
  Alcotest.(check (option string))
    "schema" (Some "waveidx-profile-diff/1")
    (Option.bind (Json.member "schema" j) Json.to_str);
  (match Option.bind (Json.member "entries" j) Json.to_list with
  | Some es -> Alcotest.(check int) "entry per union node" 4 (List.length es)
  | None -> Alcotest.fail "entries shape");
  (* The whole document survives serialization. *)
  match Json.parse (Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (Json.equal j j')
  | Error e -> Alcotest.failf "reparse: %s" e

(* ------------------------------------------------------------------ *)
(* Profile-node gate                                                  *)
(* ------------------------------------------------------------------ *)

let topn path calls self total =
  { Sink.top_path = path; top_calls = calls; top_self = self; top_total = total }

let test_profile_gate_passes () =
  let current = Profile.of_spans sample_spans in
  (* Exactly the current tree's own numbers: a bit-identical rerun must
     pass even at threshold 0. *)
  let baseline = [ topn "root" 2 4.0 12.0; topn "root/a" 2 5.0 5.0 ] in
  let g = Sink.compare_profile_top ~threshold_pct:0.0 ~baseline ~current in
  Alcotest.(check bool) "identical passes at 0%" true (Sink.profile_gate_ok g);
  Alcotest.(check int) "compared both" 2 g.Sink.pg_compared;
  Alcotest.(check int) "no regressions" 0 (List.length g.Sink.pg_regressions);
  Alcotest.(check int) "no improvements" 0 (List.length g.Sink.pg_improvements)

let test_profile_gate_regression () =
  let current = Profile.of_spans sample_spans in
  (* root/a's self is 5.0; a baseline of 4.0 makes this a +25% cost
     migration into the node. *)
  let baseline = [ topn "root/a" 2 4.0 4.0 ] in
  let g = Sink.compare_profile_top ~threshold_pct:10.0 ~baseline ~current in
  Alcotest.(check bool) "25% self growth fails at 10%" false
    (Sink.profile_gate_ok g);
  Alcotest.(check bool) "self field reported" true
    (List.exists
       (fun r ->
         r.Sink.delta_name = "root/a" && r.Sink.delta_field = "self_model_s")
       g.Sink.pg_regressions);
  let report = Sink.profile_gate_report g in
  Alcotest.(check bool) "report flags it" true (contains report "REGRESSION");
  Alcotest.(check bool) "report names the node" true (contains report "root/a");
  (* The same drift passes a looser gate. *)
  Alcotest.(check bool) "passes at 30%" true
    (Sink.profile_gate_ok
       (Sink.compare_profile_top ~threshold_pct:30.0 ~baseline ~current))

let test_profile_gate_missing_node () =
  let current = Profile.of_spans sample_spans in
  let baseline = [ topn "root" 2 4.0 12.0; topn "root/zzz" 1 1.0 1.0 ] in
  let g = Sink.compare_profile_top ~threshold_pct:10.0 ~baseline ~current in
  Alcotest.(check bool) "vanished hot node fails" false
    (Sink.profile_gate_ok g);
  Alcotest.(check (list string)) "missing names" [ "root/zzz" ] g.Sink.pg_missing;
  Alcotest.(check int) "the resolvable node still compared" 1 g.Sink.pg_compared;
  Alcotest.(check bool) "report flags it" true
    (contains (Sink.profile_gate_report g) "MISSING")

let test_profile_gate_epsilon_absorbs_noise () =
  (* Self = total - children carries float-subtraction dust, so the
     gate uses an absolute 1e-6 epsilon on top of the percentage
     threshold.  Sub-epsilon drift must not trip even a 0% gate... *)
  let current = Profile.of_spans sample_spans in
  let baseline = [ topn "root" 2 (4.0 -. 1e-8) (12.0 -. 1e-8) ] in
  let g = Sink.compare_profile_top ~threshold_pct:0.0 ~baseline ~current in
  Alcotest.(check bool) "sub-epsilon drift passes at 0%" true
    (Sink.profile_gate_ok g);
  (* ...and in particular a baseline node with self 0.0, where any
     percentage threshold is vacuous, must tolerate rounding dust in
     the fresh run's subtraction. *)
  let dusty =
    Profile.of_spans
      [
        mk ~id:1 ~parent:0 ~name:"r" ~m:5.0 ();
        mk ~id:2 ~parent:1 ~name:"k" ~m:(5.0 -. 1e-9) ();
      ]
  in
  let g2 =
    Sink.compare_profile_top ~threshold_pct:0.0
      ~baseline:[ topn "r" 1 0.0 5.0 ]
      ~current:dusty
  in
  Alcotest.(check bool) "zero-self baseline ignores dust" true
    (Sink.profile_gate_ok g2)

let test_profile_gate_reports_improvements () =
  let current = Profile.of_spans sample_spans in
  let baseline = [ topn "root/a" 2 8.0 8.0 ] in
  let g = Sink.compare_profile_top ~threshold_pct:10.0 ~baseline ~current in
  Alcotest.(check bool) "improvement still passes" true
    (Sink.profile_gate_ok g);
  Alcotest.(check bool) "self improvement reported" true
    (List.exists
       (fun r -> r.Sink.delta_field = "self_model_s")
       g.Sink.pg_improvements)

let test_profile_gate_extraction () =
  let node path calls self total =
    Json.Obj
      [
        ("path", Json.Str path);
        ("calls", Json.int calls);
        ("self_model_s", Json.Num self);
        ("total_model_s", Json.Num total);
      ]
  in
  let j =
    Json.Obj
      [
        ("schema", Json.Str "waveidx-bench/1");
        ( "profile",
          Json.Obj [ ("top", Json.Arr [ node "day/phase.query" 8 1.5 2.0 ]) ] );
      ]
  in
  (match Sink.bench_profile_top j with
  | Ok [ n ] ->
    Alcotest.(check string) "path" "day/phase.query" n.Sink.top_path;
    Alcotest.(check int) "calls" 8 n.Sink.top_calls;
    exact "self" 1.5 n.Sink.top_self;
    exact "total" 2.0 n.Sink.top_total
  | Ok l -> Alcotest.failf "expected 1 node, got %d" (List.length l)
  | Error e -> Alcotest.failf "extraction failed: %s" e);
  (* A baseline without a profile block is an error the caller turns
     into a gate skip, not a crash. *)
  (match Sink.bench_profile_top (Json.Obj [ ("schema", Json.Str "x") ]) with
  | Ok _ -> Alcotest.fail "accepted a baseline without profile"
  | Error e ->
    Alcotest.(check bool) "error names the block" true (contains e "profile"));
  (* A half-written node errors with its index and path. *)
  match
    Sink.bench_profile_top
      (Json.Obj
         [
           ( "profile",
             Json.Obj
               [
                 ( "top",
                   Json.Arr
                     [
                       Json.Obj
                         [ ("path", Json.Str "day"); ("calls", Json.int 1) ];
                     ] );
               ] );
         ])
  with
  | Ok _ -> Alcotest.fail "accepted a node without self/total"
  | Error e ->
    Alcotest.(check bool) "error names the node" true (contains e "\"day\"")

(* ------------------------------------------------------------------ *)
(* Alert scopes                                                       *)
(* ------------------------------------------------------------------ *)

let test_alert_scope_filtering () =
  let reg = Metrics.create () in
  let g = Metrics.gauge ~registry:reg "t.step_cost" in
  let eng =
    Alert.create
      [
        Alert.rule ~scope:Alert.Transition ~for_days:2 ~name:"step-spike"
          ~metric:"t.step_cost" Alert.Gt 1.0;
        Alert.rule ~name:"daily" ~metric:"t.step_cost" Alert.Gt 1.0;
      ]
  in
  Metrics.set g 5.0;
  (* First transition-scoped eval: streak 1/2, nothing fires, and the
     day rule is not even looked at. *)
  Alcotest.(check int) "transition eval sees only its rule" 0
    (List.length (Alert.eval ~registry:reg ~scope:Alert.Transition eng ~day:6));
  (* A day-scoped eval in between fires the day rule without advancing
     (or resetting) the transition rule's streak. *)
  (match Alert.eval ~registry:reg ~scope:Alert.Day eng ~day:6 with
  | [ (r, v) ] ->
    Alcotest.(check string) "day rule fired" "daily" r.Alert.name;
    exact "observed value" 5.0 v
  | l -> Alcotest.failf "expected 1 active day rule, got %d" (List.length l));
  (* Second transition eval, on the next day: the streak spans the day
     boundary and crosses the debounce. *)
  (match Alert.eval ~registry:reg ~scope:Alert.Transition eng ~day:7 with
  | [ (r, _) ] ->
    Alcotest.(check string) "transition rule fired" "step-spike" r.Alert.name
  | l ->
    Alcotest.failf "expected 1 active transition rule, got %d" (List.length l));
  Alcotest.(check int) "two firings total" 2 (List.length (Alert.events eng));
  (match
     List.find_opt
       (fun e -> e.Alert.e_rule.Alert.name = "step-spike")
       (Alert.events eng)
   with
  | Some e ->
    Alcotest.(check int) "fired when the streak crossed" 7 e.Alert.fired_day
  | None -> Alcotest.fail "no step-spike event");
  (* Recovery seen by a day-scoped eval resolves only the day episode;
     the transition episode stays open until its own scope looks. *)
  Metrics.set g 0.0;
  Alcotest.(check int) "day eval resolves the day rule" 0
    (List.length (Alert.eval ~registry:reg ~scope:Alert.Day eng ~day:8));
  (match Alert.active eng with
  | [ e ] ->
    Alcotest.(check string) "transition episode still open" "step-spike"
      e.Alert.e_rule.Alert.name
  | l -> Alcotest.failf "expected 1 open episode, got %d" (List.length l));
  ignore (Alert.eval ~registry:reg ~scope:Alert.Transition eng ~day:8);
  Alcotest.(check int) "transition eval closes it" 0
    (List.length (Alert.active eng))

let test_alert_scope_json () =
  (match
     Result.bind
       (Json.parse
          {|[{"name": "step", "metric": "m.step", "op": ">", "threshold": 1,
              "scope": "transition"},
             {"name": "daily", "metric": "m.day", "op": ">", "threshold": 1}]|})
       Alert.rules_of_json
   with
  | Ok [ r1; r2 ] ->
    Alcotest.(check bool) "explicit scope" true
      ((debounce r1).Alert.scope = Alert.Transition);
    Alcotest.(check bool) "default scope is day" true
      ((debounce r2).Alert.scope = Alert.Day)
  | Ok l -> Alcotest.failf "expected 2 rules, got %d" (List.length l)
  | Error e -> Alcotest.failf "scope parse failed: %s" e);
  (match
     Result.bind
       (Json.parse
          {|[{"name": "x", "metric": "m", "op": ">", "threshold": 1,
              "scope": "hourly"}]|})
       Alert.rules_of_json
   with
  | Ok _ -> Alcotest.fail "accepted a bogus scope"
  | Error e ->
    Alcotest.(check bool) "error mentions scope" true (contains e "scope"));
  (* event_json carries the firing rule's scope. *)
  let reg = Metrics.create () in
  let g = Metrics.gauge ~registry:reg "m.step" in
  Metrics.set g 5.0;
  let eng =
    Alert.create
      [
        Alert.rule ~scope:Alert.Transition ~name:"step" ~metric:"m.step"
          Alert.Gt 1.0;
      ]
  in
  ignore (Alert.eval ~registry:reg ~scope:Alert.Transition eng ~day:3);
  match Alert.events eng with
  | [ e ] ->
    Alcotest.(check (option string))
      "scope in json" (Some "transition")
      (Option.bind (Json.member "scope" (Alert.event_json e)) Json.to_str)
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l)

let test_runner_transition_alerts () =
  let rules =
    [
      (* Every DEL maintenance step does real work: fires from inside
         the first simulated day. *)
      Alert.rule ~scope:Alert.Transition ~name:"step-work"
        ~metric:"runner.transition.seconds" Alert.Gt 0.0;
      (* The same condition at day scope, debounced past the run's
         length: the day-level rule stays silent while the
         transition-scoped one fires. *)
      Alert.rule ~for_days:100 ~name:"day-sustained"
        ~metric:"runner.day.transition_seconds" Alert.Gt 0.0;
    ]
  in
  let r, _ = traced_run ~alerts:rules Scheme.Del Env.In_place in
  (match r.Wave_sim.Runner.alerts with
  | [ e ] ->
    Alcotest.(check string) "transition rule fired" "step-work"
      e.Alert.e_rule.Alert.name;
    Alcotest.(check bool) "scope" true
      ((debounce e.Alert.e_rule).Alert.scope = Alert.Transition);
    (* First simulated day is w+1 = 6; the step rule fires inside it,
       before the first day boundary. *)
    Alcotest.(check int) "fired on the first step" 6 e.Alert.fired_day;
    Alcotest.(check bool) "still active at end" true
      (e.Alert.resolved_day = None)
  | l -> Alcotest.failf "expected 1 alert event, got %d" (List.length l));
  (* The per-transition gauges are published to the default registry
     with the last step's values. *)
  match Metrics.lookup "runner.transition.seconds" with
  | Some (`Gauge v) ->
    Alcotest.(check bool) "last step cost published" true (v > 0.0)
  | _ -> Alcotest.fail "runner.transition.seconds gauge missing"

let suites =
  [
    ( "profile.tree",
      [
        Alcotest.test_case "aggregation and self/total" `Quick test_profile_tree;
        Alcotest.test_case "orphans become roots" `Quick
          test_profile_orphans_are_roots;
        Alcotest.test_case "top_self" `Quick test_profile_top_self;
      ] );
    ( "profile.render",
      [
        Alcotest.test_case "folded stacks" `Quick test_profile_folded;
        Alcotest.test_case "json validates" `Quick test_profile_json_validates;
        Alcotest.test_case "json rejects malformed" `Quick
          test_profile_json_rejects_malformed;
      ] );
    ( "profile.conservation",
      [
        Alcotest.test_case "DEL/in-place" `Quick test_conservation_del_inplace;
        Alcotest.test_case "WATA*/packed-shadow" `Quick
          test_conservation_wata_packed;
      ] );
    ( "profile.alert",
      [
        Alcotest.test_case "immediate fire and resolve" `Quick
          test_alert_immediate_fire;
        Alcotest.test_case "for_days debounce" `Quick test_alert_debounce;
        Alcotest.test_case "histogram stats" `Quick test_alert_histogram_stats;
        Alcotest.test_case "unresolvable never fires" `Quick
          test_alert_unresolvable_never_fires;
        Alcotest.test_case "trace instant on fire" `Quick
          test_alert_trace_instant_on_fire;
        Alcotest.test_case "rules json roundtrip" `Quick
          test_alert_rules_json_roundtrip;
        Alcotest.test_case "rules json errors" `Quick
          test_alert_rules_json_errors;
        Alcotest.test_case "events json" `Quick test_alert_events_json;
      ] );
    ( "profile.alert_runner",
      [
        Alcotest.test_case "rules over a run" `Quick test_runner_alerts;
        Alcotest.test_case "transition scope over a run" `Quick
          test_runner_transition_alerts;
      ] );
    ( "profile.alert_scope",
      [
        Alcotest.test_case "scoped eval and debounce" `Quick
          test_alert_scope_filtering;
        Alcotest.test_case "scope json" `Quick test_alert_scope_json;
      ] );
    ( "profile.diff",
      [
        Alcotest.test_case "identical trees diff to zero" `Quick
          test_diff_identical_exact_zero;
        Alcotest.test_case "added/removed/reordered" `Quick
          test_diff_added_removed_reordered;
        Alcotest.test_case "of_json roundtrip" `Quick test_diff_of_json_roundtrip;
        Alcotest.test_case "report and json" `Quick test_diff_report_and_json;
      ] );
    ( "profile.node_gate",
      [
        Alcotest.test_case "passes on identical tree" `Quick
          test_profile_gate_passes;
        Alcotest.test_case "fails on self regression" `Quick
          test_profile_gate_regression;
        Alcotest.test_case "fails on missing node" `Quick
          test_profile_gate_missing_node;
        Alcotest.test_case "epsilon absorbs noise" `Quick
          test_profile_gate_epsilon_absorbs_noise;
        Alcotest.test_case "reports improvements" `Quick
          test_profile_gate_reports_improvements;
        Alcotest.test_case "baseline extraction" `Quick
          test_profile_gate_extraction;
      ] );
    ( "profile.gate",
      [
        Alcotest.test_case "passes within threshold" `Quick
          test_gate_passes_within_threshold;
        Alcotest.test_case "fails on regression" `Quick
          test_gate_fails_on_regression;
        Alcotest.test_case "fails on vanished series" `Quick
          test_gate_fails_on_vanished_series;
        Alcotest.test_case "reports improvements" `Quick
          test_gate_reports_improvements;
        Alcotest.test_case "exact rerun is clean" `Quick
          test_gate_exact_rerun_is_clean;
        Alcotest.test_case "series extraction" `Quick
          test_gate_series_extraction;
      ] );
  ]
