(* Tests for metric time-series (ring-buffer histories, window stats,
   trends), SLO multi-window burn-rate alerting (unit and
   end-to-end through the runner and flight recorder), the OpenMetrics
   exposition and its validator, the waveidx-series/1 dump validator,
   and the Metrics snapshot/reservoir guarantees they build on. *)

open Wave_obs

(* --- Series ring buffers ------------------------------------------- *)

let test_ring_basics () =
  let st = Series.create () in
  Alcotest.(check int) "default cap" 2048 (Series.cap st);
  Alcotest.(check int) "no ticks yet" 0 (Series.tick st);
  Series.record st ~name:"a" ~day:1 1.0;
  Series.record st ~name:"a" ~day:1 2.0;
  Series.record st ~name:"b" ~day:2 5.0;
  Alcotest.(check (list string)) "names sorted" [ "a"; "b" ] (Series.names st);
  Alcotest.(check int) "a holds 2" 2 (Series.length st "a");
  Alcotest.(check int) "unknown holds 0" 0 (Series.length st "nope");
  (match Series.points st "a" with
  | [ p1; p2 ] ->
    Alcotest.(check (float 0.0)) "oldest first" 1.0 p1.Series.value;
    Alcotest.(check (float 0.0)) "newest last" 2.0 p2.Series.value;
    Alcotest.(check int) "day stamped" 1 p2.Series.day
  | ps -> Alcotest.failf "expected 2 points, got %d" (List.length ps));
  (* Non-finite samples are dropped, never stored. *)
  Series.record st ~name:"a" ~day:1 Float.nan;
  Series.record st ~name:"a" ~day:1 Float.infinity;
  Alcotest.(check int) "non-finite dropped" 2 (Series.length st "a")

let test_ring_cap_evicts_oldest () =
  let st = Series.create ~cap:4 () in
  for i = 1 to 7 do
    Series.record st ~name:"x" ~day:i (float_of_int i)
  done;
  Alcotest.(check int) "bounded at cap" 4 (Series.length st "x");
  Alcotest.(check (list (float 0.0)))
    "oldest three evicted" [ 4.0; 5.0; 6.0; 7.0 ]
    (List.map (fun p -> p.Series.value) (Series.points st "x"));
  Alcotest.check_raises "cap < 1 rejected"
    (Invalid_argument "Series.create: cap < 1") (fun () ->
      ignore (Series.create ~cap:0 ()))

let test_ring_sample_registry () =
  let registry = Metrics.create () in
  let c = Metrics.counter ~registry "jobs" in
  let g = Metrics.gauge ~registry "depth" in
  let h = Metrics.histogram ~registry "lat" in
  Metrics.inc ~by:3.0 c;
  Metrics.set g 7.0;
  List.iter (Metrics.observe h) [ 1.0; 2.0; 3.0; 4.0 ];
  let st = Series.create () in
  Series.sample ~registry st ~day:1;
  Alcotest.(check int) "tick advanced" 1 (Series.tick st);
  (* Histograms expand into summary sub-series. *)
  Alcotest.(check (list string))
    "expanded names"
    [ "depth"; "jobs"; "lat.mean"; "lat.p50"; "lat.p95"; "lat.p99" ]
    (Series.names st);
  (match Series.points st "jobs" with
  | [ p ] -> Alcotest.(check (float 0.0)) "counter value" 3.0 p.Series.value
  | _ -> Alcotest.fail "one point expected");
  Metrics.inc ~by:1.0 c;
  Series.sample ~registry st ~day:2;
  Alcotest.(check int) "second tick" 2 (Series.tick st);
  Alcotest.(check int) "two points" 2 (Series.length st "jobs")

let test_last_n_and_daily () =
  let st = Series.create () in
  (* Two ticks per day, like a transition sample plus a day-boundary
     sample: daily must keep only the last of each day. *)
  List.iter
    (fun (day, v) -> Series.record st ~name:"m" ~day v)
    [ (1, 10.0); (1, 11.0); (2, 20.0); (2, 21.0); (3, 30.0) ];
  Alcotest.(check (list (float 0.0)))
    "last_n tail" [ 21.0; 30.0 ]
    (List.map (fun p -> p.Series.value) (Series.last_n st "m" 2));
  Alcotest.(check (list (float 0.0)))
    "daily keeps last per day" [ 11.0; 21.0; 30.0 ]
    (List.map (fun p -> p.Series.value) (Series.daily st "m"));
  Alcotest.(check (list int))
    "daily days" [ 1; 2; 3 ]
    (List.map (fun p -> p.Series.day) (Series.daily st "m"))

(* --- window stats and trend ----------------------------------------- *)

let test_window_stats () =
  let st = Series.create () in
  for i = 1 to 10 do
    Series.record st ~name:"w" ~day:i (float_of_int i)
  done;
  (match Series.window_stats st "w" ~n:4 with
  | None -> Alcotest.fail "stats expected"
  | Some ws ->
    Alcotest.(check int) "count" 4 ws.Series.w_count;
    Alcotest.(check (float 1e-9)) "mean" 8.5 ws.Series.w_mean;
    Alcotest.(check (float 1e-9)) "min" 7.0 ws.Series.w_min;
    Alcotest.(check (float 1e-9)) "max" 10.0 ws.Series.w_max;
    Alcotest.(check (float 1e-9))
      "p50 matches Stats.percentile"
      (Wave_util.Stats.percentile [| 7.0; 8.0; 9.0; 10.0 |] 50.0)
      ws.Series.w_p50);
  Alcotest.(check bool)
    "empty name yields None" true
    (Series.window_stats st "nope" ~n:4 = None)

let test_trend () =
  let st = Series.create () in
  for i = 0 to 9 do
    Series.record st ~name:"up" ~day:i (3.0 +. (2.0 *. float_of_int i));
    Series.record st ~name:"flat" ~day:i 5.0
  done;
  (match Series.trend st "up" ~n:10 with
  | Some slope -> Alcotest.(check (float 1e-9)) "slope 2/sample" 2.0 slope
  | None -> Alcotest.fail "slope expected");
  (match Series.trend st "flat" ~n:10 with
  | Some slope -> Alcotest.(check (float 1e-9)) "flat slope" 0.0 slope
  | None -> Alcotest.fail "slope expected");
  Series.record st ~name:"one" ~day:1 1.0;
  Alcotest.(check bool)
    "single point has no trend" true
    (Series.trend st "one" ~n:10 = None)

(* --- waveidx-series/1 dumps ---------------------------------------- *)

let test_series_json_validates () =
  let st = Series.create ~cap:8 () in
  for i = 1 to 5 do
    Series.record st ~name:"a" ~day:i (float_of_int i);
    Series.record st ~name:"b" ~day:i (10.0 *. float_of_int i)
  done;
  let j = Series.to_json st in
  (match Sink.validate_series j with
  | Ok points -> Alcotest.(check int) "10 points counted" 10 points
  | Error e -> Alcotest.failf "dump failed validation: %s" e);
  (* Roundtrip through text stays valid. *)
  match Json.parse (Json.to_string ~pretty:true j) with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok j' -> (
    match Sink.validate_series j' with
    | Ok points -> Alcotest.(check int) "roundtrip points" 10 points
    | Error e -> Alcotest.failf "roundtrip validation: %s" e)

let test_series_validator_rejects () =
  let open Json in
  let point tick day value =
    Obj [ ("tick", int tick); ("day", int day); ("value", Num value) ]
  in
  let doc ?(schema = Series.schema) ?(cap = 8) points =
    Obj
      [
        ("schema", Str schema);
        ("cap", int cap);
        ("ticks", int 3);
        ( "series",
          Arr [ Obj [ ("name", Str "m"); ("points", Arr points) ] ] );
      ]
  in
  let expect_err label j =
    match Sink.validate_series j with
    | Ok _ -> Alcotest.failf "%s: validator accepted a bad document" label
    | Error _ -> ()
  in
  (match Sink.validate_series (doc [ point 1 1 1.0 ]) with
  | Ok n -> Alcotest.(check int) "baseline good" 1 n
  | Error e -> Alcotest.failf "baseline: %s" e);
  expect_err "wrong schema" (doc ~schema:"waveidx-series/0" [ point 1 1 1.0 ]);
  expect_err "cap below 1" (doc ~cap:0 [ point 1 1 1.0 ]);
  expect_err "decreasing tick" (doc [ point 2 1 1.0; point 1 1 2.0 ]);
  expect_err "negative tick" (doc [ point (-1) 1 1.0 ]);
  expect_err "non-finite value" (doc [ point 1 1 Float.nan ]);
  expect_err "points exceed cap"
    (doc ~cap:1 [ point 1 1 1.0; point 2 1 2.0 ]);
  expect_err "missing series array"
    (Obj [ ("schema", Str Series.schema); ("cap", int 8); ("ticks", int 0) ])

(* --- Burn-rate rules: burn rates and episodes ------------------------ *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let burn_rule ?goal ?fast_days ?slow_days ?burn_threshold ?(threshold = 0.5)
    ~window_days () =
  Alert.burn ?goal ?fast_days ?slow_days ?burn_threshold ~name:"t" ~metric:"m"
    ~window_days Alert.Gt threshold

let burn_window (r : Alert.rule) =
  match r.Alert.window with
  | Alert.Burn b -> b
  | Alert.Debounce _ -> Alcotest.failf "rule %S: expected a burn-rate rule" r.Alert.name

let test_slo_spec_validation () =
  let r = burn_rule ~window_days:28 () in
  let b = burn_window r in
  Alcotest.(check int) "default fast w/8" 3 b.Alert.fast_days;
  Alcotest.(check int) "default slow w/2" 14 b.Alert.slow_days;
  Alcotest.(check (float 0.0)) "default goal" 0.99 b.Alert.goal;
  Alcotest.(check (float 0.0)) "default burn threshold" 1.0 b.Alert.burn_threshold;
  let expect_invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  expect_invalid "window < 1" (fun () -> burn_rule ~window_days:0 ());
  expect_invalid "goal 1.0" (fun () -> burn_rule ~goal:1.0 ~window_days:7 ());
  expect_invalid "fast > slow" (fun () ->
      burn_rule ~fast_days:5 ~slow_days:2 ~window_days:7 ());
  expect_invalid "slow > window" (fun () ->
      burn_rule ~slow_days:9 ~window_days:7 ());
  expect_invalid "burn_threshold 0" (fun () ->
      burn_rule ~burn_threshold:0.0 ~window_days:7 ());
  Alcotest.(check string) "rule carries the objective" "m" r.Alert.metric;
  Alcotest.(check string) "firings recorded under scope slo" "slo"
    (Alert.kind_name r)

let test_slo_burn_rate () =
  let st = Series.create () in
  let s = burn_rule ~goal:0.5 ~fast_days:2 ~slow_days:4 ~window_days:4 () in
  (* Days 1-2 bad (1.0 > 0.5), days 3-4 good. *)
  List.iter
    (fun (d, v) -> Series.record st ~name:"m" ~day:d v)
    [ (1, 1.0); (2, 1.0) ];
  Alcotest.(check bool)
    "insufficient history" true
    (Alert.burn_rate st s ~window:4 = None);
  List.iter
    (fun (d, v) -> Series.record st ~name:"m" ~day:d v)
    [ (3, 0.0); (4, 0.0) ];
  (match Alert.burn_rate st s ~window:4 with
  | Some b ->
    (* 2 bad of 4 days = 0.5 bad fraction / 0.5 budget = 1.0. *)
    Alcotest.(check (float 1e-9)) "burn over 4 days" 1.0 b
  | None -> Alcotest.fail "burn expected");
  match Alert.burn_rate st s ~window:2 with
  | Some b -> Alcotest.(check (float 1e-9)) "recent window all good" 0.0 b
  | None -> Alcotest.fail "burn expected"

(* Feed one daily sample per day and evaluate after each. *)
let run_days eng st samples =
  List.iter
    (fun (day, v) ->
      Series.record st ~name:"m" ~day v;
      ignore (Alert.eval ~series:st eng ~day))
    samples

let test_slo_episode_lifecycle () =
  let st = Series.create () in
  let s =
    burn_rule ~goal:0.5 ~fast_days:1 ~slow_days:2 ~window_days:4
      ~burn_threshold:2.0 ()
  in
  let eng = Alert.create [ s ] in
  (* Bad days 1-4, good 5-8, bad 9-12: exactly two breach episodes. *)
  run_days eng st
    (List.init 12 (fun i ->
         let day = i + 1 in
         (day, if day <= 4 || day >= 9 then 1.0 else 0.0)));
  (match Alert.events eng with
  | [ e1; e2 ] ->
    Alcotest.(check int) "episode 1 fires when slow window fills" 2
      e1.Alert.fired_day;
    Alcotest.(check int) "episode 1 burns through day 4" 4 e1.Alert.last_day;
    Alcotest.(check (option int))
      "episode 1 resolves on the first quiet day" (Some 5)
      e1.Alert.resolved_day;
    Alcotest.(check int) "episode 2 re-fires after re-arm" 10
      e2.Alert.fired_day;
    Alcotest.(check (option int)) "episode 2 still active" None
      e2.Alert.resolved_day;
    Alcotest.(check (float 1e-9)) "event carries fast burn" 2.0 e2.Alert.value;
    Alcotest.(check int) "one active episode" 1 (List.length (Alert.active eng))
  | evs -> Alcotest.failf "expected exactly 2 episodes, got %d" (List.length evs));
  (* Both windows must burn: on day 4 the fast window has recovered
     (burn 0) while the slow one still burns 4/3, and the episode
     ends there. *)
  let st = Series.create () in
  let eng =
    Alert.create [ burn_rule ~goal:0.5 ~fast_days:1 ~slow_days:3 ~window_days:4 () ]
  in
  run_days eng st [ (1, 1.0); (2, 1.0); (3, 1.0); (4, 0.0) ];
  match Alert.events eng with
  | [ e ] ->
    Alcotest.(check int) "fires when the slow window fills" 3 e.Alert.fired_day;
    Alcotest.(check (option int)) "resolves when the fast window recovers"
      (Some 4) e.Alert.resolved_day
  | evs -> Alcotest.failf "expected exactly 1 episode, got %d" (List.length evs)

let test_slo_specs_of_json () =
  let parse s =
    match Json.parse s with
    | Ok j -> Alert.rules_of_json j
    | Error e -> Error e
  in
  (match
     parse
       {|{"rules": [{"name": "q", "metric": "runner.day.query_p95",
          "op": ">", "threshold": 0.25, "goal": 0.9, "window_days": 8,
          "fast_days": 1, "slow_days": 4, "burn_threshold": 2.0}]}|}
  with
  | Ok [ r ] ->
    let b = burn_window r in
    Alcotest.(check string) "objective" "runner.day.query_p95" r.Alert.metric;
    Alcotest.(check int) "slow days" 4 b.Alert.slow_days;
    Alcotest.(check (float 0.0)) "burn threshold" 2.0 b.Alert.burn_threshold
  | Ok l -> Alcotest.failf "expected 1 rule, got %d" (List.length l)
  | Error e -> Alcotest.failf "parse: %s" e);
  (* Bare top-level arrays parse; defaults fill in. *)
  (match
     parse
       {|[{"name": "q", "metric": "m", "op": "<=", "threshold": 3,
           "window_days": 16}]|}
  with
  | Ok [ r ] ->
    Alcotest.(check bool) "comparator le" true (r.Alert.comparator = Alert.Le);
    Alcotest.(check int) "default fast" 2 (burn_window r).Alert.fast_days
  | Ok _ | Error _ -> Alcotest.fail "bare array should parse");
  (* One file mixes both kinds; the rules keep the file's order. *)
  (match
     parse
       {|[{"name": "a", "metric": "m", "op": ">", "threshold": 1, "for_days": 2},
          {"name": "b", "metric": "m", "op": ">", "threshold": 1, "window_days": 4},
          {"name": "c", "metric": "m", "op": ">", "threshold": 1, "scope": "transition"}]|}
  with
  | Ok rules ->
    Alcotest.(check (list string)) "file order" [ "a"; "b"; "c" ]
      (List.map (fun r -> r.Alert.name) rules);
    Alcotest.(check (list string)) "kinds" [ "day"; "slo"; "transition" ]
      (List.map Alert.kind_name rules)
  | Error e -> Alcotest.failf "mixed kinds: %s" e);
  let expect_err ?(needles = []) label s =
    match parse s with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e ->
      List.iter
        (fun needle ->
          if not (contains ~sub:needle e) then
            Alcotest.failf "%s: error %S does not mention %S" label e needle)
        needles
  in
  expect_err "empty list" {|{"rules": []}|};
  expect_err "bad op"
    {|[{"name": "q", "metric": "m", "op": "!!", "threshold": 1, "window_days": 4}]|};
  expect_err "missing threshold"
    {|[{"name": "q", "metric": "m", "op": ">", "window_days": 4}]|};
  expect_err "windows inverted"
    {|[{"name": "q", "metric": "m", "op": ">", "threshold": 1,
        "window_days": 4, "fast_days": 3, "slow_days": 2}]|};
  (* A burn-rate rule has no debounce: its fields are refused, naming
     the rule and the field; and the reverse. *)
  List.iter
    (fun (key, field) ->
      expect_err ~needles:[ {|rule 1 ("burnt")|}; key ] field
        (Printf.sprintf
           {|[{"name": "ok", "metric": "m", "op": ">", "threshold": 1},
              {"name": "burnt", "metric": "m", "op": ">", "threshold": 1,
               "window_days": 4, %s}]|}
           field))
    [ ("stat", {|"stat": "p95"|}); ("for_days", {|"for_days": 2|});
      ("scope", {|"scope": "day"|}) ];
  expect_err ~needles:[ {|rule 0 ("q")|}; "goal" ] "burn field on a debounce rule"
    {|[{"name": "q", "metric": "m", "op": ">", "threshold": 1, "goal": 0.9}]|}

(* --- SLO end-to-end through the runner ------------------------------ *)

let e2e_store =
  Wave_workload.Netnews.store
    {
      Wave_workload.Netnews.default_config with
      Wave_workload.Netnews.mean_postings = 120;
    }

let e2e_queries =
  {
    Wave_workload.Query_gen.scam_spec with
    Wave_workload.Query_gen.probes_per_day = 10;
  }

let run_with_slo ~threshold =
  let rule =
    Alert.burn ~goal:0.5 ~fast_days:2 ~slow_days:3 ~burn_threshold:1.0
      ~name:"query-p95" ~metric:"runner.day.query_p95" ~window_days:6
      Alert.Gt threshold
  in
  Metrics.reset_all ();
  Recorder.set_enabled true;
  Recorder.clear ();
  Wave_sim.Runner.run
    {
      (Wave_sim.Runner.default_config ~scheme:Wave_core.Scheme.Del
         ~store:e2e_store ~w:5 ~n:2)
      with
      Wave_sim.Runner.run_days = 12;
      queries = Some e2e_queries;
      alerts = [ rule ];
    }

let test_slo_e2e_hostile_fires_once () =
  (* Hostile: the day query p95 is always above a zero threshold, so
     the burn is continuous — exactly one episode for the whole run,
     opening as soon as the slow window has history. *)
  let r = run_with_slo ~threshold:0.0 in
  (match r.Wave_sim.Runner.alerts with
  | [ e ] ->
    Alcotest.(check string) "slo episode in result.alerts" "query-p95"
      e.Alert.e_rule.Alert.name;
    (* Measured days run w+1 .. w+run_days = 6..17; the slow window
       (3 days) fills on the third measured day. *)
    Alcotest.(check int) "fires when the slow window fills" 8
      e.Alert.fired_day;
    Alcotest.(check int) "burns to the end of the run" 17 e.Alert.last_day;
    Alcotest.(check (option int)) "never resolves" None e.Alert.resolved_day;
    Alcotest.(check (float 1e-9)) "burn = 1 / (1 - goal)" 2.0 e.Alert.value
  | evs ->
    Alcotest.failf "expected exactly 1 slo episode, got %d" (List.length evs));
  (* The firing also landed in the flight recorder, scope "slo". *)
  let slo_fires =
    List.filter
      (fun (ev : Recorder.event) ->
        match ev.Recorder.kind with
        | Recorder.Alert_fire { a_scope = "slo"; a_rule = "query-p95"; _ } ->
          true
        | _ -> false)
      (Recorder.events ())
  in
  Alcotest.(check int) "one flight-recorder firing" 1 (List.length slo_fires)

let test_slo_e2e_control_is_silent () =
  let r = run_with_slo ~threshold:1e9 in
  Alcotest.(check int) "no episodes on the control run" 0
    (List.length r.Wave_sim.Runner.alerts);
  let slo_fires =
    List.filter
      (fun (ev : Recorder.event) ->
        match ev.Recorder.kind with
        | Recorder.Alert_fire { a_scope = "slo"; _ } -> true
        | _ -> false)
      (Recorder.events ())
  in
  Alcotest.(check int) "flight recorder silent" 0 (List.length slo_fires)

(* Sampling must be invisible to the simulation: the same seeded run
   with series + SLOs enabled yields bit-identical day_metrics. *)
let test_series_sampling_zero_cost () =
  let base () =
    Metrics.reset_all ();
    {
      (Wave_sim.Runner.default_config ~scheme:Wave_core.Scheme.Del
         ~store:e2e_store ~w:5 ~n:2)
      with
      Wave_sim.Runner.run_days = 8;
      queries = Some e2e_queries;
    }
  in
  let plain = Wave_sim.Runner.run (base ()) in
  let rule =
    Alert.burn ~goal:0.5 ~name:"q" ~metric:"runner.day.query_p95"
      ~window_days:4 Alert.Gt 0.0
  in
  let observed =
    Wave_sim.Runner.run
      {
        (base ()) with
        Wave_sim.Runner.series = Some (Series.create ());
        alerts = [ rule ];
      }
  in
  Alcotest.(check bool)
    "day_metrics bit-identical" true
    (plain.Wave_sim.Runner.days = observed.Wave_sim.Runner.days)

(* --- OpenMetrics exposition ----------------------------------------- *)

let test_openmetrics_renders_valid () =
  let registry = Metrics.create () in
  Metrics.inc ~by:42.0 (Metrics.counter ~registry "reqs.total_served");
  Metrics.set (Metrics.gauge ~registry "depth") 7.5;
  let h = Metrics.histogram ~registry "lat" in
  for i = 1 to 100 do
    Metrics.observe h (float_of_int i)
  done;
  let st = Series.create () in
  for d = 1 to 5 do
    Series.record st ~name:"runner.day.query_p95" ~day:d (float_of_int d)
  done;
  let text = Sink.openmetrics ~registry ~series:st () in
  (match Sink.validate_openmetrics text with
  | Ok samples -> Alcotest.(check bool) "samples rendered" true (samples > 5)
  | Error e -> Alcotest.failf "self-render invalid: %s" e);
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i =
      i + nl <= tl && (String.sub text i nl = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "counter gets _total" true
    (has "reqs_total_served_total 42");
  Alcotest.(check bool) "gauge sample" true (has "\ndepth 7.5");
  Alcotest.(check bool) "summary quantile" true (has "lat{quantile=\"0.95\"}");
  Alcotest.(check bool) "series quantile family" true
    (has "waveidx_series_quantile{series=\"runner.day.query_p95\"");
  Alcotest.(check bool) "series trend family" true
    (has "waveidx_series_trend{series=\"runner.day.query_p95\"} 1");
  Alcotest.(check bool) "EOF terminator" true (has "# EOF\n")

let test_openmetrics_bad_corpus () =
  let expect_err label text =
    match Sink.validate_openmetrics text with
    | Ok _ -> Alcotest.failf "%s: validator accepted bad exposition" label
    | Error _ -> ()
  in
  (match
     Sink.validate_openmetrics
       "# TYPE a counter\n# HELP a Something.\na_total 1\n# EOF\n"
   with
  | Ok n -> Alcotest.(check int) "baseline good" 1 n
  | Error e -> Alcotest.failf "baseline: %s" e);
  expect_err "sample before any TYPE" "a_total 1\n# EOF\n";
  expect_err "counter without _total" "# TYPE a counter\na 1\n# EOF\n";
  expect_err "NaN value" "# TYPE g gauge\ng NaN\n# EOF\n";
  expect_err "Inf value" "# TYPE g gauge\ng +Inf\n# EOF\n";
  expect_err "duplicate family"
    "# TYPE a counter\na_total 1\n# TYPE a counter\na_total 2\n# EOF\n";
  expect_err "interleaved sample"
    "# TYPE a counter\n# TYPE b gauge\na_total 1\n# EOF\n";
  expect_err "missing EOF" "# TYPE g gauge\ng 1\n";
  expect_err "content after EOF" "# TYPE g gauge\ng 1\n# EOF\ng 2\n";
  expect_err "blank line" "# TYPE g gauge\n\ng 1\n# EOF\n";
  expect_err "bad metric name" "# TYPE 9bad gauge\n9bad 1\n# EOF\n";
  expect_err "unknown type" "# TYPE g sparkline\ng 1\n# EOF\n";
  expect_err "quantile out of range"
    "# TYPE s summary\ns{quantile=\"1.5\"} 1\n# EOF\n";
  expect_err "unterminated label"
    "# TYPE g gauge\ng{a=\"x 1\n# EOF\n";
  expect_err "bad sample value" "# TYPE g gauge\ng pancake\n# EOF\n"

(* --- Metrics: snapshots, reservoirs, removal ------------------------ *)

let test_metrics_snapshot_immutable () =
  let registry = Metrics.create () in
  let c = Metrics.counter ~registry "c" in
  let h = Metrics.histogram ~registry "h" in
  Metrics.inc ~by:5.0 c;
  Metrics.observe h 1.0;
  let snap = Metrics.snapshot ~registry () in
  Metrics.inc ~by:100.0 c;
  Metrics.observe h 99.0;
  (match List.assoc "c" snap with
  | `Counter v -> Alcotest.(check (float 0.0)) "counter frozen" 5.0 v
  | _ -> Alcotest.fail "counter expected");
  (match List.assoc "h" snap with
  | `Histogram (Some s) ->
    Alcotest.(check int) "histogram summary frozen" 1 s.Metrics.count;
    Alcotest.(check (float 0.0)) "max frozen" 1.0 s.Metrics.max
  | _ -> Alcotest.fail "histogram summary expected");
  Alcotest.(check bool)
    "registry moved on" true
    (match Metrics.lookup ~registry "c" with
    | Some (`Counter v) -> v = 105.0
    | _ -> false)

let test_metrics_reservoir_vs_series () =
  let registry = Metrics.create () in
  let h = Metrics.histogram ~registry ~cap:4096 "h" in
  let xs = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Array.iter (Metrics.observe h) xs;
  (* Under the cap the reservoir holds every observation, so summary
     quantiles equal exact percentiles, and a series sample of the
     registry reproduces them bit-for-bit. *)
  let st = Series.create () in
  Series.sample ~registry st ~day:1;
  (match (Metrics.hist_summary h, Series.points st "h.p95") with
  | Some s, [ p ] ->
    Alcotest.(check (float 0.0))
      "summary p95 is exact"
      (Wave_util.Stats.percentile xs 95.0)
      s.Metrics.p95;
    Alcotest.(check (float 0.0)) "series sample matches summary" s.Metrics.p95
      p.Series.value
  | _ -> Alcotest.fail "summary and sample expected");
  (* Over the cap the reservoir approximates: quantiles stay within a
     tolerance band of the exact value (cap 256 over uniform 1..4096
     keeps p50 well inside +/- 20%). *)
  let h2 = Metrics.histogram ~registry ~cap:256 "h2" in
  for i = 1 to 4096 do
    Metrics.observe h2 (float_of_int i)
  done;
  match Metrics.hist_summary h2 with
  | Some s ->
    Alcotest.(check int) "count exact beyond cap" 4096 s.Metrics.count;
    Alcotest.(check bool)
      (Printf.sprintf "reservoir p50 %.0f within band" s.Metrics.p50)
      true
      (s.Metrics.p50 > 2048.0 *. 0.8 && s.Metrics.p50 < 2048.0 *. 1.2)
  | None -> Alcotest.fail "summary expected"

let test_metrics_reset_and_remove () =
  let registry = Metrics.create () in
  let c = Metrics.counter ~registry "c" in
  let h = Metrics.histogram ~registry "h" in
  Metrics.inc ~by:9.0 c;
  Metrics.observe h 3.0;
  Metrics.reset registry;
  Alcotest.(check (float 0.0)) "counter zeroed" 0.0 (Metrics.counter_value c);
  Alcotest.(check bool)
    "histogram emptied" true
    (Metrics.hist_summary h = None);
  Alcotest.(check bool) "remove reports existence" true
    (Metrics.remove ~registry "c");
  Alcotest.(check bool) "second remove is false" false
    (Metrics.remove ~registry "c");
  Alcotest.(check bool)
    "removed name gone from lookup" true
    (Metrics.lookup ~registry "c" = None);
  (* The detached handle keeps working; re-registration is fresh. *)
  Metrics.inc ~by:2.0 c;
  Alcotest.(check (float 0.0)) "detached handle live" 2.0
    (Metrics.counter_value c);
  let c2 = Metrics.counter ~registry "c" in
  Alcotest.(check (float 0.0)) "re-registration fresh" 0.0
    (Metrics.counter_value c2)

let suites =
  [
    ( "series.ring",
      [
        Alcotest.test_case "record and read back" `Quick test_ring_basics;
        Alcotest.test_case "cap evicts oldest" `Quick test_ring_cap_evicts_oldest;
        Alcotest.test_case "sample expands a registry" `Quick
          test_ring_sample_registry;
        Alcotest.test_case "last_n and daily collapse" `Quick
          test_last_n_and_daily;
      ] );
    ( "series.windows",
      [
        Alcotest.test_case "window stats" `Quick test_window_stats;
        Alcotest.test_case "trend slope" `Quick test_trend;
      ] );
    ( "series.dump",
      [
        Alcotest.test_case "to_json self-validates" `Quick
          test_series_json_validates;
        Alcotest.test_case "validator rejects bad documents" `Quick
          test_series_validator_rejects;
      ] );
    ( "series.slo",
      [
        Alcotest.test_case "spec defaults and validation" `Quick
          test_slo_spec_validation;
        Alcotest.test_case "burn rate arithmetic" `Quick test_slo_burn_rate;
        Alcotest.test_case "one event per breach episode" `Quick
          test_slo_episode_lifecycle;
        Alcotest.test_case "specs_of_json" `Quick test_slo_specs_of_json;
      ] );
    ( "series.slo_e2e",
      [
        Alcotest.test_case "hostile run fires exactly once" `Quick
          test_slo_e2e_hostile_fires_once;
        Alcotest.test_case "control run stays silent" `Quick
          test_slo_e2e_control_is_silent;
        Alcotest.test_case "sampling is zero-cost" `Quick
          test_series_sampling_zero_cost;
      ] );
    ( "series.openmetrics",
      [
        Alcotest.test_case "render passes own validator" `Quick
          test_openmetrics_renders_valid;
        Alcotest.test_case "validator rejects bad corpus" `Quick
          test_openmetrics_bad_corpus;
      ] );
    ( "series.metrics",
      [
        Alcotest.test_case "snapshot immutability" `Quick
          test_metrics_snapshot_immutable;
        Alcotest.test_case "reservoir quantiles vs series sample" `Quick
          test_metrics_reservoir_vs_series;
        Alcotest.test_case "reset and remove" `Quick
          test_metrics_reset_and_remove;
      ] );
  ]
