(* Self-tests of the benchmark's own rules: the percentile rule, the
   reference oracle on a hand-checked 3-day window, and the failure
   accounting that turns a wrong answer into a non-zero error rate. *)

open Perfbench
open Wave_storage
open Wave_core

let floats l = Array.of_list (List.map float_of_int l)
let range a b = List.init (b - a + 1) (fun i -> a + i)

let test_percentiles () =
  let ten = floats (range 1 10) and hundred = floats (range 1 100) in
  let p a pm = Pctl.percentile a ~per_mille:pm in
  Alcotest.(check (float 0.0)) "p50 of 1..10" 5.0 (p ten 500);
  Alcotest.(check (float 0.0)) "p90 of 1..10" 9.0 (p ten 900);
  Alcotest.(check (float 0.0)) "p99 of 1..10" 10.0 (p ten 990);
  Alcotest.(check (float 0.0)) "p10 of 1..10" 1.0 (p ten 100);
  Alcotest.(check (float 0.0)) "p50 of 1..100" 50.0 (p hundred 500);
  Alcotest.(check (float 0.0)) "p99 of 1..100" 99.0 (p hundred 990);
  Alcotest.(check (float 0.0)) "p99.9 of 1..100" 100.0 (p hundred 999);
  Alcotest.(check (float 0.0)) "median of one" 7.0 (Pctl.median [| 7.0 |]);
  Alcotest.check_raises "no samples" (Invalid_argument "Pctl.percentile: no samples")
    (fun () -> ignore (Pctl.median [||]));
  let s = Pctl.samples () in
  List.iter (fun x -> Pctl.add s (float_of_int x)) [ 3; 1; 2 ];
  Alcotest.(check (array (float 0.0))) "samples sort" [| 1.0; 2.0; 3.0 |] (Pctl.sorted s)

(* Three repetitions of the same three operations: 10, 30, 20; 12, 25,
   21; 11, 40, 19.  Each operation's fastest is 10, 25, 19. *)
let test_best_of_repetitions () =
  let b = Pctl.best () in
  List.iter
    (fun rep ->
      Pctl.restart b;
      List.iter (Pctl.offer b) rep)
    [ [ 10.0; 30.0; 20.0 ]; [ 12.0; 25.0; 21.0 ]; [ 11.0; 40.0; 19.0 ] ];
  Alcotest.(check int) "one minimum per operation" 3 (Pctl.best_count b);
  Alcotest.(check (float 0.0)) "sum of the minima" 54.0 (Pctl.best_sum b);
  Alcotest.(check (float 1e-12)) "mean of the minima" 18.0 (Workloads.best_mean b)

let test_supported_tail () =
  let tail n = Pctl.supported_tail n in
  Alcotest.(check (option int)) "1000 samples: p99" (Some 990) (tail 1000);
  Alcotest.(check (option int)) "100 samples: p90" (Some 900) (tail 100);
  Alcotest.(check (option int)) "30 samples: p50" (Some 500) (tail 30);
  Alcotest.(check (option int)) "10 samples: none" None (tail 10);
  Alcotest.(check string) "label" "p99.9" (Pctl.label 999)

(* Day 1: values 5, 7, 5; day 2: 7, 9; day 3: 5, 9, 9. No probes drawn. *)
let posting day rid value info = { Entry.value; entry = { Entry.rid; day; info } }

let three_days =
  let b day ps = Entry.batch_create ~day (Array.of_list ps) in
  {
    Inputs.batches =
      [|
        b 0 [];
        b 1 [ posting 1 101 5 10; posting 1 102 7 20; posting 1 103 5 30 ];
        b 2 [ posting 2 201 7 1; posting 2 202 9 2 ];
        b 3 [ posting 3 301 5 100; posting 3 302 9 200; posting 3 303 9 300 ];
      |];
    probe_values = Array.make 4 [||];
    last_day = 3;
  }

let entries l = List.map (fun (day, rid, info) -> { Entry.rid; day; info }) l

let digest =
  Alcotest.testable (fun ppf d -> Fmt.pf ppf "{n=%d; fp=%d}" d.Oracle.n d.Oracle.fp) ( = )

let test_oracle () =
  let o = Oracle.build three_days in
  Alcotest.check digest "probe 5 over 1..3"
    (Oracle.digest (entries [ (1, 101, 10); (1, 103, 30); (3, 301, 100) ]))
    (Oracle.probe o ~value:5 ~t1:1 ~t2:3);
  Alcotest.check digest "probe 9 over 2..3"
    (Oracle.digest (entries [ (2, 202, 2); (3, 302, 200); (3, 303, 300) ]))
    (Oracle.probe o ~value:9 ~t1:2 ~t2:3);
  Alcotest.check digest "probe 7 on day 3 is empty" Oracle.empty
    (Oracle.probe o ~value:7 ~t1:3 ~t2:3);
  Alcotest.(check int) "scan 1..3 counts 8" 8 (Oracle.scan o ~t1:1 ~t2:3).Oracle.n;
  Alcotest.(check int) "sum 1..3" 663 (Oracle.sum_info o ~t1:1 ~t2:3);
  Alcotest.(check int) "sum of day 2" 3 (Oracle.sum_info o ~t1:2 ~t2:2);
  Alcotest.(check int) "held for 9 on days 2, 3" 3
    (Oracle.held o ~value:9 (Dayset.range 2 3));
  Alcotest.check digest "digest ignores order"
    (Oracle.digest (entries [ (3, 301, 100); (1, 101, 10) ]))
    (Oracle.digest (entries [ (1, 101, 10); (3, 301, 100) ]))

(* The library's wave over the same three days agrees with the oracle. *)
let test_oracle_matches_wave () =
  let o = Oracle.build three_days in
  let env = Env.create ~store:(Inputs.store three_days) ~w:3 ~n:3 () in
  let frame = Scheme.frame (Scheme.start Scheme.Reindex env) in
  List.iter
    (fun (value, t1, t2) ->
      Alcotest.check digest
        (Printf.sprintf "probe %d over %d..%d" value t1 t2)
        (Oracle.probe o ~value ~t1 ~t2)
        (Oracle.digest (Frame.timed_index_probe frame ~t1 ~t2 ~value)))
    [ (5, 1, 3); (7, 1, 2); (9, 2, 3); (9, 1, 1) ];
  Alcotest.check digest "scan 2..3" (Oracle.scan o ~t1:2 ~t2:3)
    (Oracle.digest (Frame.timed_segment_scan frame ~t1:2 ~t2:3));
  Alcotest.(check (option int)) "Sum_info 1..3" (Some (Oracle.sum_info o ~t1:1 ~t2:3))
    (Frame.timed_aggregate frame ~t1:1 ~t2:3 ~op:Frame.Sum_info)

let test_planted_wrong_answer () =
  let o = Oracle.build three_days in
  let t = Oracle.tally () in
  let expected = Oracle.probe o ~value:5 ~t1:1 ~t2:3 in
  Oracle.check t ~expected ~actual:expected;
  Alcotest.(check (float 0.0)) "right answer: no errors" 0.0 (Oracle.error_rate t);
  (* planted: one entry of the answer dropped *)
  Oracle.check t ~expected ~actual:(Oracle.digest (entries [ (1, 101, 10); (1, 103, 30) ]));
  Alcotest.(check int) "one failure" 1 (Oracle.failed t);
  Alcotest.(check bool) "error_rate above 0" true (Oracle.error_rate t > 0.0)

let test_planted_exception () =
  let r = Workloads.make_run ~days:three_days ~work_dir:"." in
  Alcotest.(check (option int)) "raising query yields no answer" None
    (Workloads.guarded r (fun () -> failwith "planted"));
  let t = r.Workloads.e2e.Workloads.tally in
  Alcotest.(check int) "counted as an exception" 1 t.Oracle.exceptions;
  Alcotest.(check bool) "error_rate above 0" true (Oracle.error_rate t > 0.0)

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "nearest rank" `Quick test_percentiles;
          Alcotest.test_case "supported tail" `Quick test_supported_tail;
          Alcotest.test_case "best of repetitions" `Quick test_best_of_repetitions;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "hand-checked 3-day window" `Quick test_oracle;
          Alcotest.test_case "agrees with the wave" `Quick test_oracle_matches_wave;
        ] );
      ( "failures",
        [
          Alcotest.test_case "planted wrong answer" `Quick test_planted_wrong_answer;
          Alcotest.test_case "planted exception" `Quick test_planted_exception;
        ] );
    ]
