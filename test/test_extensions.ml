(* Tests for the WATA extensions: the offline-optimal scheduler and the
   size-bounded online (KMRV97-style) variant. *)

open Wave_sim

(* Brute-force reference: enumerate every boundary subset of a small
   trace, keep the feasible ones (at most n live clusters on any day),
   and minimise peak storage. *)
let brute_force ~w ~n ~sizes =
  let t = Array.length sizes in
  let feasible boundaries =
    List.for_all
      (fun d ->
        let live =
          1 + List.length (List.filter (fun b -> b > d - w && b < d) boundaries)
        in
        live <= n)
      (List.init t (fun i -> i + 1))
  in
  let best = ref max_int in
  let rec go day boundaries =
    if day > t then begin
      if feasible boundaries then
        let cost =
          Wata_offline.size_of_schedule ~w ~sizes ~boundaries:(List.rev boundaries)
        in
        if cost < !best then best := cost
    end
    else begin
      go (day + 1) boundaries;
      go (day + 1) (day :: boundaries)
    end
  in
  go 1 [];
  !best

let test_offline_matches_brute_force () =
  let cases =
    [
      (3, 2, [| 5; 1; 1; 9; 1; 1; 5; 2 |]);
      (4, 2, [| 1; 2; 3; 4; 5; 6; 7; 8 |]);
      (3, 3, [| 10; 1; 10; 1; 10; 1; 10 |]);
      (5, 2, [| 2; 2; 2; 2; 2; 2; 2; 2; 2 |]);
      (4, 3, [| 7; 1; 1; 1; 7; 1; 1; 1; 7 |]);
    ]
  in
  List.iter
    (fun (w, n, sizes) ->
      let opt = Wata_offline.optimal ~w ~n ~sizes in
      let bf = brute_force ~w ~n ~sizes in
      Alcotest.(check int)
        (Printf.sprintf "w=%d n=%d optimal matches brute force" w n)
        bf opt.Wata_offline.max_size)
    cases

let prop_offline_matches_brute_force =
  QCheck2.Test.make ~name:"offline optimum = brute force (small traces)"
    ~count:60
    QCheck2.Gen.(
      triple (int_range 2 5) (int_range 2 4)
        (array_size (int_range 6 10) (int_range 1 20)))
    (fun (w, n, sizes) ->
      QCheck2.assume (Array.length sizes >= w && n <= w);
      let opt = Wata_offline.optimal ~w ~n ~sizes in
      opt.Wata_offline.max_size = brute_force ~w ~n ~sizes)

let test_offline_bounds () =
  let sizes =
    Array.init 120 (fun i ->
        Wave_workload.Netnews.daily_volume
          { Wave_workload.Netnews.default_config with Wave_workload.Netnews.mean_postings = 1000 }
          (i + 1))
  in
  List.iter
    (fun (w, n) ->
      let opt = Wata_offline.optimal ~w ~n ~sizes in
      let star = Wata_size.replay ~w ~n ~sizes in
      let wmax = Wata_size.window_max ~w ~sizes in
      (* OPT is sandwiched: window_max <= OPT <= WATA*. *)
      Alcotest.(check bool) "OPT >= window max" true
        (opt.Wata_offline.max_size >= wmax);
      Alcotest.(check bool) "OPT <= WATA*" true
        (opt.Wata_offline.max_size <= star.Wata_size.wata_max_size);
      (* And Theorem 3 in its strong form: WATA* <= 2 OPT. *)
      Alcotest.(check bool) "WATA* <= 2 OPT" true
        (star.Wata_size.wata_max_size <= 2 * opt.Wata_offline.max_size))
    [ (7, 2); (7, 4); (14, 3); (21, 5) ]

let test_offline_schedule_valid () =
  let sizes = Array.init 50 (fun i -> 1 + ((i * 13) mod 31)) in
  let opt = Wata_offline.optimal ~w:6 ~n:3 ~sizes in
  (* The reported max must equal an independent evaluation. *)
  Alcotest.(check int) "self-consistent"
    opt.Wata_offline.max_size
    (Wata_offline.size_of_schedule ~w:6 ~sizes
       ~boundaries:opt.Wata_offline.boundaries)

let test_feasibility_monotone () =
  let sizes = Array.init 40 (fun i -> 1 + (i mod 9)) in
  let opt = Wata_offline.optimal ~w:5 ~n:2 ~sizes in
  let m = opt.Wata_offline.max_size in
  Alcotest.(check bool) "feasible at optimum" true
    (Wata_offline.feasible_with ~w:5 ~n:2 ~sizes ~budget:m <> None);
  Alcotest.(check bool) "infeasible below optimum" true
    (Wata_offline.feasible_with ~w:5 ~n:2 ~sizes ~budget:(m - 1) = None)

let test_size_of_schedule_validation () =
  Alcotest.check_raises "unsorted boundaries"
    (Invalid_argument "Wata_offline.size_of_schedule: bad boundary list")
    (fun () ->
      ignore
        (Wata_offline.size_of_schedule ~w:3 ~sizes:[| 1; 1; 1; 1 |]
           ~boundaries:[ 3; 2 ]))

(* --- Wata_bounded -------------------------------------------------- *)

let test_bounded_beats_guarantee_on_smooth_traces () =
  let sizes = Array.make 150 100 in
  List.iter
    (fun n ->
      let m = Wata_size.window_max ~w:10 ~sizes in
      let b = Wata_bounded.replay ~w:10 ~n ~m ~sizes in
      let bound = Wata_bounded.guaranteed_ratio ~n in
      (* one cluster cap of slack plus one day of rounding *)
      let slack = (float_of_int m /. float_of_int (n - 1)) +. 100.0 in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: size %d within n/(n-1) bound" n b.Wata_bounded.max_size)
        true
        (float_of_int b.Wata_bounded.max_size
        <= (bound *. float_of_int m) +. slack))
    [ 2; 3; 5 ]

let test_bounded_meets_its_guarantee () =
  (* The KMRV97 point is the GUARANTEE n/(n-1), better than WATA*'s 2.0
     (pointwise either can win on a friendly trace).  On the seasonal
     trace the bounded policy must stay within its own bound (plus one
     cluster-cap of discretisation slack), including at n = 2 where
     WATA* measurably exceeds it. *)
  let sizes =
    Array.init 200 (fun i ->
        Wave_workload.Netnews.daily_volume
          { Wave_workload.Netnews.default_config with Wave_workload.Netnews.mean_postings = 70_000 }
          (i + 1))
  in
  let m = Wata_size.window_max ~w:7 ~sizes in
  let max_day = Array.fold_left max 0 sizes in
  List.iter
    (fun n ->
      let b = Wata_bounded.replay ~w:7 ~n ~m ~sizes in
      let cap = (m + n - 2) / (n - 1) in
      let limit =
        (Wata_bounded.guaranteed_ratio ~n *. float_of_int m)
        +. float_of_int max_day
      in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d bounded size %d within %.0f (cap %d)" n
           b.Wata_bounded.max_size limit cap)
        true
        (float_of_int b.Wata_bounded.max_size <= limit))
    [ 2; 3; 4; 5 ];
  (* For n >= 3 the guarantee n/(n-1) is strictly better than WATA*'s
     2.0, and the measured ratio must honour it (max_day slack covers
     cap rounding on a discrete trace). *)
  let b3 = Wata_bounded.replay ~w:7 ~n:3 ~m ~sizes in
  Alcotest.(check bool)
    (Printf.sprintf "n=3 ratio %.3f within 1.5 + slack" b3.Wata_bounded.ratio)
    true
    (b3.Wata_bounded.ratio
    <= Wata_bounded.guaranteed_ratio ~n:3
       +. (float_of_int max_day /. float_of_int m))

let test_bounded_validation () =
  Alcotest.check_raises "n=1" (Invalid_argument "Wata_bounded.replay: need n >= 2")
    (fun () -> ignore (Wata_bounded.replay ~w:3 ~n:1 ~m:10 ~sizes:[| 1; 1; 1 |]));
  Alcotest.check_raises "m=0" (Invalid_argument "Wata_bounded.replay: need m > 0")
    (fun () -> ignore (Wata_bounded.replay ~w:3 ~n:2 ~m:0 ~sizes:[| 1; 1; 1 |]))

(* The envelope [Wata_bounded] states: the window's volume, one cluster
   cap and one day. *)
let envelope ~w ~n ~sizes =
  let m = Wata_size.window_max ~w ~sizes in
  let cap = (m + n - 2) / (n - 1) in
  (m, m + cap + Array.fold_left max 0 sizes)

(* Closing a cluster only when today's day would push it past the cap
   spent three slots on 1-unit clusters (days 1, 3, 5), so day 7's 827
   arrived with every slot live and joined day 6's cluster (1,246): on
   day 17 its expired days 6-7 sat beside a full window, 3,334 against
   an envelope of 3,333.  Closing at the cap pairs each 1-unit day with
   its neighbour, and day 7 opens a cluster of its own. *)
let test_bounded_spiky_counterexample () =
  let w = 10 and n = 6 in
  let sizes = [| 1; 418; 1; 418; 1; 419; 827; 1; 1; 1; 1; 1; 1; 1; 427; 827; 827 |] in
  let m, limit = envelope ~w ~n ~sizes in
  Alcotest.(check int) "m" 2_088 m;
  Alcotest.(check int) "envelope" 3_333 limit;
  let b = Wata_bounded.replay ~w ~n ~m ~sizes in
  Alcotest.(check int) "peak" 2_089 b.Wata_bounded.max_size

(* [QCHECK_LONG=1] (the @model alias) runs 20x the traces. *)
let prop_bounded_within_two_of_window =
  QCheck2.Test.make ~name:"bounded policy residue bounded" ~count:100
    ~long_factor:20
    ~print:QCheck2.Print.(triple int int (array int))
    QCheck2.Gen.(
      triple (int_range 4 12) (int_range 2 6)
        (array_size (int_range 20 60) (int_range 1 1000)))
    (fun (w, n, sizes) ->
      QCheck2.assume (Array.length sizes >= w && n <= w);
      let m, limit = envelope ~w ~n ~sizes in
      (Wata_bounded.replay ~w ~n ~m ~sizes).Wata_bounded.max_size <= limit)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "ext.wata_offline",
      [
        Alcotest.test_case "matches brute force" `Quick test_offline_matches_brute_force;
        Alcotest.test_case "bounds sandwich" `Quick test_offline_bounds;
        Alcotest.test_case "schedule self-consistent" `Quick test_offline_schedule_valid;
        Alcotest.test_case "feasibility monotone" `Quick test_feasibility_monotone;
        Alcotest.test_case "boundary validation" `Quick test_size_of_schedule_validation;
      ]
      @ qcheck [ prop_offline_matches_brute_force ] );
    ( "ext.wata_bounded",
      [
        Alcotest.test_case "guarantee on smooth traces" `Quick
          test_bounded_beats_guarantee_on_smooth_traces;
        Alcotest.test_case "meets its guarantee" `Quick test_bounded_meets_its_guarantee;
        Alcotest.test_case "validation" `Quick test_bounded_validation;
        Alcotest.test_case "spiky counterexample" `Quick
          test_bounded_spiky_counterexample;
      ]
      @ qcheck [ prop_bounded_within_two_of_window ] );
  ]
