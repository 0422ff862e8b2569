(* Simulation-harness tests: end-to-end runs over realistic workloads,
   cross-scheme agreement of simulated trends with the analytic model's
   qualitative claims, the size-only WATA replay used by Figure 11
   and Theorem 3, and the query/update contention model. *)

open Wave_core
open Wave_sim

let small_netnews =
  Wave_workload.Netnews.store
    { Wave_workload.Netnews.default_config with Wave_workload.Netnews.mean_postings = 120 }

let run ?(technique = Env.In_place) ?queries ?(run_days = 21) scheme ~w ~n =
  Runner.run
    {
      (Runner.default_config ~scheme ~store:small_netnews ~w ~n) with
      Runner.technique;
      queries;
      run_days;
    }

let test_runner_basic () =
  let r = run Scheme.Del ~w:7 ~n:2 in
  Alcotest.(check int) "21 days recorded" 21 (List.length r.Runner.days);
  Alcotest.(check bool) "maintenance happened" true
    (r.Runner.total_maintenance_seconds > 0.0);
  List.iter
    (fun d ->
      if d.Runner.wave_length <> 7 then
        Alcotest.failf "hard window violated on day %d" d.Runner.day)
    r.Runner.days

let test_runner_all_schemes_all_techniques () =
  List.iter
    (fun scheme ->
      List.iter
        (fun technique ->
          let n = max 2 (Scheme.min_indexes scheme) in
          let r = run ~technique scheme ~w:7 ~n in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s ran" (Scheme.name scheme)
               (Env.technique_name technique))
            true
            (r.Runner.total_work_seconds > 0.0))
        [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ])
    Scheme.all

let test_runner_queries_charged () =
  let spec =
    { Wave_workload.Query_gen.scam_spec with Wave_workload.Query_gen.probes_per_day = 25 }
  in
  let r = run ~queries:spec Scheme.Del ~w:7 ~n:2 in
  Alcotest.(check bool) "query time recorded" true (r.Runner.total_query_seconds > 0.0);
  let some_hits =
    List.exists (fun d -> d.Runner.probe_entries > 0) r.Runner.days
  in
  Alcotest.(check bool) "probes return entries" true some_hits

(* Simulated trend: REINDEX++'s measured transition is far smaller than
   its full maintenance (the ladder runs after the swap), while
   REINDEX's transition IS its maintenance. *)
let test_sim_transition_vs_maintenance () =
  let rpp = run Scheme.Reindex_pp ~w:12 ~n:2 ~run_days:24 in
  let avg f rs =
    List.fold_left (fun a d -> a +. f d) 0.0 rs.Runner.days
    /. float_of_int (List.length rs.Runner.days)
  in
  let t_pp = avg (fun d -> d.Runner.transition_seconds) rpp in
  let m_pp = avg (fun d -> d.Runner.maintenance_seconds) rpp in
  Alcotest.(check bool)
    (Printf.sprintf "transition %.4f << maintenance %.4f" t_pp m_pp)
    true
    (t_pp < 0.5 *. m_pp);
  let r = run Scheme.Reindex ~w:12 ~n:2 ~run_days:24 in
  let t_r = avg (fun d -> d.Runner.transition_seconds) r in
  let m_r = avg (fun d -> d.Runner.maintenance_seconds) r in
  Alcotest.(check bool) "REINDEX transition ~ maintenance" true
    (t_r > 0.9 *. m_r)

(* Simulated trend: packed shadowing keeps constituents packed, so its
   steady-state space is below in-place updating's CONTIGUOUS slack. *)
let test_sim_packed_space_smaller () =
  let ip = run ~technique:Env.In_place Scheme.Del ~w:7 ~n:2 in
  let ps = run ~technique:Env.Packed_shadow Scheme.Del ~w:7 ~n:2 in
  Alcotest.(check bool)
    (Printf.sprintf "packed avg space %.0f < in-place %.0f" ps.Runner.avg_space_bytes
       ip.Runner.avg_space_bytes)
    true
    (ps.Runner.avg_space_bytes < ip.Runner.avg_space_bytes)

(* Simulated trend: WATA holds more than the window (soft), REINDEX
   exactly the window. *)
let test_sim_wata_length () =
  let wata = run Scheme.Wata_star ~w:7 ~n:3 ~run_days:30 in
  let exceeds = List.exists (fun d -> d.Runner.wave_length > 7) wata.Runner.days in
  Alcotest.(check bool) "soft window observed" true exceeds;
  let bound = Wata.length_bound ~w:7 ~n:3 in
  List.iter
    (fun d ->
      if d.Runner.wave_length > bound then
        Alcotest.failf "length %d beyond Theorem 2 bound" d.Runner.wave_length)
    wata.Runner.days

(* --- Wata_size (Figure 11 / Theorem 3) ---------------------------- *)

let test_window_max () =
  Alcotest.(check int) "sliding max" 9
    (Wata_size.window_max ~w:2 ~sizes:[| 1; 2; 4; 5; 3 |])

let test_replay_uniform_sizes () =
  (* Uniform volumes: size ratio equals length ratio = bound / w. *)
  let w = 7 and n = 4 in
  let sizes = Array.make 100 10 in
  let s = Wata_size.replay ~w ~n ~sizes in
  Alcotest.(check int) "length bound attained" (Wata.length_bound ~w ~n)
    s.Wata_size.wata_max_length;
  let expected = float_of_int (Wata.length_bound ~w ~n) /. float_of_int w in
  Alcotest.(check (float 1e-9)) "ratio = bound/w" expected s.Wata_size.ratio

let test_replay_matches_real_scheme () =
  (* The symbolic replay must agree with the real WATA* implementation
     on the days held. *)
  let cfg = { Wave_workload.Netnews.default_config with Wave_workload.Netnews.mean_postings = 60 } in
  let store = Wave_workload.Netnews.store cfg in
  let w = 7 and n = 3 in
  let env = Env.create ~store ~w ~n () in
  let s = Scheme.start Scheme.Wata_star env in
  let sizes = Array.init 40 (fun i -> Wave_workload.Netnews.daily_volume cfg (i + 1)) in
  let replay_max = (Wata_size.replay ~w ~n ~sizes).Wata_size.wata_max_length in
  let real_max = ref (Frame.length (Scheme.frame s)) in
  for _ = 1 to 40 - w do
    Scheme.transition s;
    real_max := max !real_max (Frame.length (Scheme.frame s))
  done;
  Alcotest.(check int) "same max length" replay_max !real_max

let test_theorem3_competitive_ratio () =
  (* Ratio <= 2 on seasonal and adversarial traces (Theorem 3). *)
  let check name sizes =
    List.iter
      (fun (w, n) ->
        if Array.length sizes >= w then begin
          let s = Wata_size.replay ~w ~n ~sizes in
          if s.Wata_size.ratio > 2.0 +. 1e-9 then
            Alcotest.failf "%s: ratio %.3f > 2 at w=%d n=%d" name s.Wata_size.ratio w n
        end)
      [ (7, 2); (7, 4); (14, 3); (30, 5); (10, 10) ]
  in
  let cfg = { Wave_workload.Netnews.default_config with Wave_workload.Netnews.mean_postings = 1000 } in
  check "seasonal"
    (Array.init 200 (fun i -> Wave_workload.Netnews.daily_volume cfg (i + 1)));
  (* Adversarial: one giant day inside tiny ones. *)
  check "spike" (Array.init 120 (fun i -> if i mod 37 = 0 then 100_000 else 10));
  check "ramp" (Array.init 120 (fun i -> 1 + (i * i)));
  check "alternating" (Array.init 120 (fun i -> if i mod 2 = 0 then 1 else 1000))

let prop_theorem3_random_traces =
  QCheck2.Test.make ~name:"Theorem 3: ratio <= 2 on random traces" ~count:100
    QCheck2.Gen.(
      triple (int_range 4 16) (int_range 2 6)
        (array_size (int_range 30 80) (int_range 1 10_000)))
    (fun (w, n, sizes) ->
      QCheck2.assume (n <= w && Array.length sizes >= w);
      let s = Wata_size.replay ~w ~n ~sizes in
      s.Wata_size.ratio <= 2.0 +. 1e-9)

let test_figure11_shape () =
  (* W = 7 over 200 days of seasonal Usenet volumes: ratio tolerable
     (<= 1.6) and broadly decreasing in n — the paper's Figure 11. *)
  let cfg = { Wave_workload.Netnews.default_config with Wave_workload.Netnews.mean_postings = 70_000 } in
  let sizes = Array.init 200 (fun i -> Wave_workload.Netnews.daily_volume cfg (i + 1)) in
  let ratio n = (Wata_size.replay ~w:7 ~n ~sizes).Wata_size.ratio in
  let r2 = ratio 2 and r4 = ratio 4 and r7 = ratio 7 in
  (* The paper reports <= 1.6 on its 1997 trace with 1.24 at n = 4; on
     our synthetic trace the exact values differ slightly but must stay
     within Theorem 3's bound, sit near the paper's at n = 4, and
     decrease with n. *)
  Alcotest.(check bool)
    (Printf.sprintf "ratios (%.2f, %.2f, %.2f) <= 2" r2 r4 r7)
    true
    (r2 <= 2.0 && r4 <= 2.0 && r7 <= 2.0);
  Alcotest.(check bool)
    (Printf.sprintf "n=4 ratio %.2f near paper's 1.24" r4)
    true
    (r4 >= 1.05 && r4 <= 1.45);
  Alcotest.(check bool) "decreasing in n" true (r7 <= r4 && r4 <= r2);
  Alcotest.(check bool) "overhead exists" true (r2 > 1.0)

(* --- Soak tests ----------------------------------------------------- *)

(* Long runs with continuous validation: 150 days for every scheme on
   the seasonal Netnews workload. *)
let soak kind () =
  let r =
    Runner.run
      {
        (Runner.default_config ~scheme:kind ~store:small_netnews ~w:14
           ~n:(max 3 (Scheme.min_indexes kind))) with
        Runner.run_days = 150;
        technique = Env.Packed_shadow;
      }
  in
  Alcotest.(check int) "150 days" 150 (List.length r.Runner.days)

let soak_cases =
  List.map
    (fun kind ->
      Alcotest.test_case (Printf.sprintf "soak %s" (Scheme.name kind)) `Slow
        (soak kind))
    Scheme.all

(* --- Contention ------------------------------------------------------ *)

let cstore day =
  Wave_storage.Entry.batch_create ~day
    (Array.init 40 (fun i ->
         {
           Wave_storage.Entry.value = 1 + (i mod 10);
           entry = { Wave_storage.Entry.rid = (day * 100) + i; day; info = 0 };
         }))

let test_contention_shadow_beats_inplace () =
  let measure technique =
    Wave_sim.Contention.measure ~day_seconds:10.0 ~scheme:Scheme.Del ~technique
      ~store:cstore ~w:6 ~n:2 ~days:12 ~queries_per_day:50 ()
  in
  let ip = measure Env.In_place in
  let ss = measure Env.Simple_shadow in
  Alcotest.(check bool)
    (Printf.sprintf "in-place wait %.4f > shadow wait %.4f"
       ip.Wave_sim.Contention.avg_wait_seconds ss.Wave_sim.Contention.avg_wait_seconds)
    true
    (ip.Wave_sim.Contention.avg_wait_seconds
    > ss.Wave_sim.Contention.avg_wait_seconds);
  Alcotest.(check bool) "in-place blocks someone" true
    (ip.Wave_sim.Contention.blocked_fraction > 0.0)

let test_contention_table () =
  let out =
    Wave_sim.Contention.compare_table ~day_seconds:10.0 ~scheme:Scheme.Del
      ~store:cstore ~w:6 ~n:2 ~days:6 ~queries_per_day:20 ()
  in
  Alcotest.(check bool) "renders" true (String.length out > 100)

let test_contention_validation () =
  Alcotest.check_raises "bad days"
    (Invalid_argument "Contention.measure: need positive days and queries")
    (fun () ->
      ignore
        (Wave_sim.Contention.measure ~scheme:Scheme.Del ~technique:Env.In_place
           ~store:cstore ~w:4 ~n:2 ~days:0 ~queries_per_day:1 ()))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "sim.runner",
      [
        Alcotest.test_case "basic run" `Quick test_runner_basic;
        Alcotest.test_case "all schemes x techniques" `Slow
          test_runner_all_schemes_all_techniques;
        Alcotest.test_case "queries charged" `Quick test_runner_queries_charged;
        Alcotest.test_case "transition vs maintenance" `Quick
          test_sim_transition_vs_maintenance;
        Alcotest.test_case "packed space smaller" `Quick test_sim_packed_space_smaller;
        Alcotest.test_case "wata length" `Quick test_sim_wata_length;
      ] );
    ( "sim.wata_size",
      [
        Alcotest.test_case "window max" `Quick test_window_max;
        Alcotest.test_case "uniform sizes" `Quick test_replay_uniform_sizes;
        Alcotest.test_case "replay matches real scheme" `Quick
          test_replay_matches_real_scheme;
        Alcotest.test_case "theorem 3 traces" `Quick test_theorem3_competitive_ratio;
        Alcotest.test_case "figure 11 shape" `Quick test_figure11_shape;
      ]
      @ qcheck [ prop_theorem3_random_traces ] );
    ("sim.soak", soak_cases);
    ( "sim.contention",
      [
        Alcotest.test_case "shadow beats in-place" `Quick
          test_contention_shadow_beats_inplace;
        Alcotest.test_case "table renders" `Quick test_contention_table;
        Alcotest.test_case "validation" `Quick test_contention_validation;
      ] );
  ]

