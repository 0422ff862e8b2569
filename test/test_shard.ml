(* Tests for the sharded wave index: key-space partitioning, the
   router's transparency against a single-disk run, parallel cost
   semantics, the snapshot-isolated shard split with its crash sweep,
   and the throughput scaling the bench series gates. *)

open Wave_core
open Wave_shard
module Crash_harness = Wave_sim.Crash_harness
module Parallel = Wave_model.Parallel

let store ?(vocab = 6) ?(postings = 8) day =
  Wave_storage.Entry.batch_create ~day
    (Array.init postings (fun i ->
         {
           Wave_storage.Entry.value = 1 + (((day * 37) + (i * 13)) mod vocab);
           entry = { Wave_storage.Entry.rid = (day * 1000) + i; day; info = i };
         }))

(* --- Partition ----------------------------------------------------- *)

let test_partition_total_and_deterministic () =
  List.iter
    (fun kind ->
      let p = Partition.create kind ~arms:4 ~vocab:500 in
      for v = 1 to 500 do
        let a = Partition.arm_of_value p v in
        Alcotest.(check bool)
          (Printf.sprintf "%s: value %d in range" (Partition.kind_name kind) v)
          true
          (a >= 0 && a < 4);
        Alcotest.(check int) "deterministic" a (Partition.arm_of_value p v)
      done)
    [ Partition.Hash; Partition.Range ]

let test_partition_range_contiguous () =
  let p = Partition.create Partition.Range ~arms:3 ~vocab:30 in
  (* Arm of a range partition never decreases... it is contiguous: the
     set of values owned by each arm forms one run. *)
  let owners = List.init 30 (fun i -> Partition.arm_of_value p (i + 1)) in
  let runs =
    List.fold_left
      (fun acc o -> match acc with x :: _ when x = o -> acc | _ -> o :: acc)
      [] owners
  in
  Alcotest.(check int) "three contiguous runs" 3 (List.length runs);
  (* Out-of-domain values clamp to the edge arms. *)
  Alcotest.(check int) "clamp low" (Partition.arm_of_value p 1)
    (Partition.arm_of_value p (-5));
  Alcotest.(check int) "clamp high" (Partition.arm_of_value p 30)
    (Partition.arm_of_value p 99)

let test_partition_split_moves_only_victim_keys () =
  List.iter
    (fun kind ->
      let p = Partition.create kind ~arms:3 ~vocab:300 in
      let q = Partition.split p ~arm:1 in
      Alcotest.(check int) "one more arm" 4 (Partition.arms q);
      Alcotest.(check int) "generation bumped" 2 (Partition.generation q);
      let moved = ref 0 in
      for v = 1 to 300 do
        let before = Partition.arm_of_value p v in
        let after = Partition.arm_of_value q v in
        if before <> 1 then
          Alcotest.(check int)
            (Printf.sprintf "%s: untouched arm keeps value %d"
               (Partition.kind_name kind) v)
            before after
        else begin
          Alcotest.(check bool) "victim value stays or moves to the new arm"
            true
            (after = 1 || after = 3);
          if after = 3 then incr moved
        end
      done;
      Alcotest.(check bool) "some keys moved" true (!moved > 0))
    [ Partition.Hash; Partition.Range ]

let test_partition_can_split_exhausted () =
  (* 64 hash arms own one bucket each: no arm is divisible. *)
  let p = Partition.create Partition.Hash ~arms:Partition.buckets ~vocab:100 in
  for a = 0 to Partition.buckets - 1 do
    Alcotest.(check bool) "singleton bucket" false (Partition.can_split p ~arm:a)
  done;
  let r = Partition.create Partition.Range ~arms:5 ~vocab:5 in
  Alcotest.(check bool) "singleton slice" false (Partition.can_split r ~arm:0)

let test_partition_place_lpt () =
  (* Split.contiguous over W=7, n=3 gives day counts [3; 2; 2]: round
     robin onto 2 disks piled 3+2 days on disk 0 (2.5x skew); LPT lands
     3 vs 2+2. *)
  let placement = Partition.place ~weights:[| 3.0; 2.0; 2.0 |] ~arms:2 in
  Alcotest.(check (array int)) "heaviest alone" [| 0; 1; 1 |] placement;
  let loads = Array.make 2 0.0 in
  Array.iteri
    (fun i a -> loads.(a) <- loads.(a) +. [| 3.0; 2.0; 2.0 |].(i))
    placement;
  Alcotest.(check bool) "within 2x" true
    (Array.fold_left Float.max 0.0 loads
    <= 2.0 *. Array.fold_left Float.min infinity loads)

(* --- Parallel cost clock ------------------------------------------- *)

let test_parallel_max_not_sum () =
  let c = Parallel.create ~arms:3 in
  let mk = Parallel.record c [ (0, 2.0); (1, 5.0); (2, 1.0) ] in
  Alcotest.(check (float 1e-9)) "makespan is the max" 5.0 mk;
  Alcotest.(check (float 1e-9)) "elapsed advances by the max" 5.0
    (Parallel.elapsed c);
  Alcotest.(check (float 1e-9)) "serial is the sum" 8.0 (Parallel.serial c);
  ignore (Parallel.record c [ (0, 3.0) ]);
  Alcotest.(check (float 1e-9)) "busy per arm" 5.0 (Parallel.busy_arm c 0);
  Alcotest.(check (float 1e-9)) "speedup = serial/elapsed" (11.0 /. 8.0)
    (Parallel.speedup c);
  Alcotest.(check (float 1e-9)) "skew = max/mean" (5.0 /. (11.0 /. 3.0))
    (Parallel.skew_ratio c);
  Parallel.grow c ~arms:5;
  Alcotest.(check int) "grown" 5 (Parallel.arms c);
  Alcotest.(check (float 1e-9)) "new arms idle" 0.0 (Parallel.busy_arm c 4);
  Alcotest.check_raises "negative delta"
    (Invalid_argument "Parallel.record: negative delta") (fun () ->
      ignore (Parallel.record c [ (0, -1.0) ]));
  Alcotest.(check (float 1e-9)) "empty fan-out costs nothing" 0.0
    (Parallel.record c [])

(* --- Entry.batch_filter --------------------------------------------- *)

let test_batch_filter () =
  let b = store 3 in
  let f = Wave_storage.Entry.batch_filter b ~keep:(fun v -> v mod 2 = 0) in
  Alcotest.(check bool) "only kept values" true
    (Array.for_all
       (fun p -> p.Wave_storage.Entry.value mod 2 = 0)
       f.Wave_storage.Entry.postings);
  let total =
    Wave_storage.Entry.batch_size f
    + Array.length
        (Wave_storage.Entry.batch_filter b ~keep:(fun v -> v mod 2 = 1))
          .Wave_storage.Entry.postings
  in
  Alcotest.(check int) "partition covers the batch"
    (Wave_storage.Entry.batch_size b)
    total

(* For random batches and arm counts, the arms' batches partition the
   batch, each in input order; one arm keeps the batch itself. *)
let prop_batch_filter_partitions =
  QCheck2.Test.make ~name:"batch_filter arms partition a batch in order" ~count:200
    QCheck2.Gen.(pair (int_range 1 6) (list_size (int_range 0 100) (int_range (-40) 40)))
    (fun (arms, values) ->
      let module E = Wave_storage.Entry in
      let b =
        E.batch_create ~day:1
          (Array.of_list
             (List.mapi
                (fun rid value -> { E.value; entry = { E.rid; day = 1; info = 0 } })
                values))
      in
      let arm v = ((v mod arms) + arms) mod arms in
      let parts = List.init arms (fun a -> E.batch_filter b ~keep:(fun v -> arm v = a)) in
      List.for_all
        (fun a ->
          Array.to_list (List.nth parts a).E.postings
          = List.filter (fun (p : E.posting) -> arm p.E.value = a) (Array.to_list b.E.postings))
        (List.init arms Fun.id)
      && List.fold_left (fun n p -> n + E.batch_size p) 0 parts = E.batch_size b
      && (arms > 1 || List.hd parts == b))

(* --- Router transparency ------------------------------------------- *)

let vocab = 24

let single_ref ~kind ~technique ~w ~n ~day =
  let env =
    Env.create ~technique ~store:(store ~vocab ~postings:12) ~w ~n ()
  in
  let s = Scheme.start kind env in
  Scheme.advance_to s day;
  Scheme.frame s

let router_for ~kind ~technique ~partition ~shards ~w ~n ~day =
  let r =
    Router.create ~technique ~kind ~partition ~shards ~vocab
      ~store:(store ~vocab ~postings:12) ~w ~n ()
  in
  while Router.current_day r < day do
    ignore (Router.advance r)
  done;
  r

(* PRNG property: hash- (and range-) partitioned probe and scan
   results are bit-identical, in order, to the single-disk run, over
   random arm counts, schemes and query ranges inside the window — the
   router is invisible to queries.  [QCHECK_LONG=1] (the @shard alias)
   runs 20x the cases. *)
let prop_router_transparent =
  QCheck2.Test.make ~name:"sharded probe/scan equal single-disk run" ~count:12
    ~long_factor:20
    ~print:QCheck2.Print.(pair (quad int bool int int) (pair int int))
    QCheck2.Gen.(
      pair
        (quad (int_range 1 6) bool (int_range 0 5) (int_range 0 3))
        (pair (int_range 0 5) (int_range 0 5)))
    (fun ((shards, hash, scheme_i, extra_days), (skip, span)) ->
      let kind = List.nth Scheme.all scheme_i in
      let technique =
        if scheme_i mod 2 = 0 then Env.Packed_shadow else Env.Simple_shadow
      in
      let partition = if hash then Partition.Hash else Partition.Range in
      let w = 6 and n = 3 in
      let day = w + extra_days in
      let frame = single_ref ~kind ~technique ~w ~n ~day in
      let r = router_for ~kind ~technique ~partition ~shards ~w ~n ~day in
      let t1 = day - w + 1 + skip in
      let t2 = min day (t1 + span) in
      let probes_equal =
        List.for_all
          (fun v ->
            fst (Router.probe r ~value:v ~t1 ~t2)
            = Frame.timed_index_probe frame ~t1 ~t2 ~value:v)
          (List.init vocab (fun i -> i + 1))
      in
      let scans_equal =
        fst (Router.scan r ~t1 ~t2) = Frame.timed_segment_scan frame ~t1 ~t2
      in
      probes_equal && scans_equal)

let test_router_fanout_costs () =
  let r =
    router_for ~kind:Scheme.Del ~technique:Env.In_place ~partition:Partition.Hash
      ~shards:4 ~w:6 ~n:3 ~day:8
  in
  let clock = Router.clock r in
  let e0 = Parallel.elapsed clock in
  let s0 = Parallel.serial clock in
  let _, mk = Router.scan r ~t1:3 ~t2:8 in
  Alcotest.(check (float 1e-9)) "scan charged its makespan"
    (Parallel.elapsed clock -. e0)
    mk;
  Alcotest.(check bool) "fan-out makespan below the serial sum" true
    (mk < Parallel.serial clock -. s0);
  let pmk =
    List.fold_left
      (fun acc v -> acc +. snd (Router.probe r ~value:v ~t1:3 ~t2:8))
      0.0
      (List.init vocab (fun i -> i + 1))
  in
  Alcotest.(check bool) "probes cost model time" true (pmk > 0.0)

(* Probes and scans bump their registry counters by exactly one per
   query, however the counters are bound. *)
let test_router_query_counters () =
  let count name =
    match Wave_obs.Metrics.lookup name with
    | Some (`Counter c) -> c
    | _ -> 0.0
  in
  let r =
    router_for ~kind:Scheme.Del ~technique:Env.In_place ~partition:Partition.Hash
      ~shards:2 ~w:6 ~n:3 ~day:7
  in
  let p0 = count "shard.probes" and s0 = count "shard.scans" in
  for v = 1 to vocab do
    ignore (Router.probe r ~value:v ~t1:2 ~t2:7)
  done;
  for _ = 1 to 3 do
    ignore (Router.scan r ~t1:2 ~t2:7)
  done;
  Alcotest.(check (float 0.0)) "one count per probe"
    (p0 +. float_of_int vocab) (count "shard.probes");
  Alcotest.(check (float 0.0)) "one count per scan" (s0 +. 3.0)
    (count "shard.scans")

(* --- Fan-out scan merge ---------------------------------------------- *)

module Index = Wave_storage.Index
module Entry = Wave_storage.Entry

(* A day's batch of [(value, rid)] postings; distinct rids let the
   tests read the answer's order straight off them. *)
let postings ~day vrs =
  Entry.batch_create ~day
    (Array.of_list
       (List.map
          (fun (value, rid) ->
            { Entry.value; entry = { Entry.rid; day; info = 0 } })
          vrs))

(* A frame on its own disk, one [(time-set, batches)] pair per slot:
   slot [j]'s index is built from the batches and given the time-set as
   it stands, so a test may declare one that does not match. *)
let frame_of ?(icfg = Index.default_config) slots =
  let n = List.length slots in
  let env = Env.create ~icfg ~store:(store ~vocab) ~w:n ~n () in
  let f = Frame.create env in
  List.iteri
    (fun j (days, batches) ->
      Frame.set_slot f (j + 1)
        (Index.build env.Env.disk icfg batches)
        (Dayset.of_int_list days))
    slots;
  f

let rids es = List.map (fun (e : Entry.t) -> e.Entry.rid) es

let merged_rids frames ~t1 ~t2 =
  rids (Frame.merged_segment_scan frames ~t1 ~t2)

(* Value 5 is in both frames' slot 1 and slot 2: each slot's buckets
   ascend by value, a shared value keeps the frames' array order, and
   slot 1 comes before slot 2 whatever the values. *)
let test_merge_shared_value () =
  let a =
    frame_of
      [
        ([ 1 ], [ postings ~day:1 [ (5, 1); (7, 2); (5, 3) ] ]);
        ([ 2 ], [ postings ~day:2 [ (5, 4) ] ]);
      ]
  in
  let b =
    frame_of
      [
        ([ 1 ], [ postings ~day:1 [ (6, 11); (5, 12) ] ]);
        ([ 2 ], [ postings ~day:2 [ (4, 13); (5, 14) ] ]);
      ]
  in
  Alcotest.(check (list int)) "a before b on value 5"
    [ 1; 3; 12; 11; 2; 13; 4; 14 ]
    (merged_rids [| a; b |] ~t1:1 ~t2:2);
  Alcotest.(check (list int)) "b before a on value 5"
    [ 12; 1; 3; 11; 2; 13; 14; 4 ]
    (merged_rids [| b; a |] ~t1:1 ~t2:2);
  Alcotest.(check (list int)) "entries out of range dropped" [ 13; 4; 14 ]
    (merged_rids [| a; b |] ~t1:2 ~t2:9);
  Alcotest.(check (list int)) "one frame is its own scan"
    (rids (Frame.timed_segment_scan a ~t1:1 ~t2:2))
    (merged_rids [| a |] ~t1:1 ~t2:2)


(* An empty constituent in range, an arm whose constituents are all
   empty and an arm with no time-sets at all add nothing and charge
   nothing; with no frames at all the scan is empty. *)
let test_merge_empty_parts () =
  let slot2 = [ postings ~day:2 [ (3, 1); (1, 2) ] ] in
  let a = frame_of [ ([ 1 ], []); ([ 2 ], slot2) ] in
  let empty_arm = frame_of [ ([ 1 ], []); ([ 2 ], []) ] in
  let bare = frame_of [ ([], []); ([], []) ] in
  let b = frame_of [ ([ 1 ], [ postings ~day:1 [ (2, 11) ] ]); ([ 2 ], []) ] in
  Alcotest.(check (list int)) "empties add nothing" [ 11; 2; 1 ]
    (merged_rids [| empty_arm; a; bare; b |] ~t1:1 ~t2:2);
  Alcotest.(check (list int)) "an empty arm alone" []
    (merged_rids [| empty_arm |] ~t1:1 ~t2:2);
  Alcotest.(check (list int)) "no arms" [] (merged_rids [||] ~t1:1 ~t2:2);
  let clock f = Wave_disk.Disk.elapsed (Frame.env f).Env.disk in
  let before = List.map clock [ empty_arm; bare ] in
  ignore (Frame.merged_segment_scan [| empty_arm; bare |] ~t1:1 ~t2:2);
  Alcotest.(check (list (float 0.0))) "empty arms cost nothing" before
    (List.map clock [ empty_arm; bare ]);
  Alcotest.check_raises "slot counts must agree"
    (Invalid_argument "Frame.merged_segment_scan: frames differ in slot count")
    (fun () ->
      let one_slot = frame_of [ ([ 1 ], []) ] in
      ignore (Frame.merged_segment_scan [| a; one_slot |] ~t1:1 ~t2:2))

(* The time-set decides whether a slot is read, as in TimedSegmentScan:
   b's slot 1 declares day 3, so its day-1 entries stay out of a scan
   of days 1..2 even though their days are in range, and it is not
   charged. *)
let test_merge_slot_range () =
  let a = frame_of [ ([ 1 ], [ postings ~day:1 [ (4, 1) ] ]); ([ 2 ], []) ] in
  let b =
    frame_of
      [
        ([ 3 ], [ postings ~day:1 [ (2, 11) ] ]);
        ([ 2 ], [ postings ~day:2 [ (1, 12) ] ]);
      ]
  in
  Alcotest.(check (list int)) "b's slot 1 skipped" [ 1; 12 ]
    (merged_rids [| a; b |] ~t1:1 ~t2:2);
  Alcotest.(check (list int)) "b alone agrees" [ 12 ]
    (rids (Frame.timed_segment_scan b ~t1:1 ~t2:2))

(* The one-frame scan is the slot-by-slot concatenation of each
   in-range constituent's own timed scan, charged the same, for every
   scheme and a spread of ranges. *)
let test_merge_one_frame_is_slot_scan () =
  List.iter
    (fun kind ->
      let w = 6 and n = 3 in
      let day = w + 2 in
      let frame = single_ref ~kind ~technique:Env.In_place ~w ~n ~day in
      let disk = (Frame.env frame).Env.disk in
      List.iter
        (fun (t1, t2) ->
          let c0 = Wave_disk.Disk.elapsed disk in
          let expected =
            List.concat_map
              (fun j ->
                let days = Frame.slot_days frame j in
                if Dayset.exists (fun d -> d >= t1 && d <= t2) days then
                  Index.scan_timed (Frame.slot_index frame j) ~t1 ~t2
                else [])
              (List.init n (fun j -> j + 1))
          in
          let c1 = Wave_disk.Disk.elapsed disk in
          let got = Frame.timed_segment_scan frame ~t1 ~t2 in
          let c2 = Wave_disk.Disk.elapsed disk in
          let name = Printf.sprintf "%s %d..%d" (Scheme.name kind) t1 t2 in
          Alcotest.(check bool) (name ^ " answer") true (got = expected);
          Alcotest.(check (float 1e-12)) (name ^ " charge") (c1 -. c0) (c2 -. c1))
        [ (day - w + 1, day); (day - 3, day - 1); (day, day); (1, max_int) ])
    Scheme.all

(* --- Multi_disk placement regression ------------------------------- *)

let test_multidisk_balanced_arms () =
  (* W=7 days over n=3 constituents on 2 disks: contiguous slot sizes
     are [3; 2; 2], so the old round-robin put 5 of 7 days on disk 0
     (2.5x skew).  With LPT placement each disk's scan work stays
     within 2x of the other's.  Per-disk load is read off the scan
     timing: parallel = busiest disk, serial - parallel = the other. *)
  let m =
    Wave_sim.Multi_disk.create ~store:(store ~vocab:6 ~postings:8) ~w:7 ~n:3
      ~disks:2 ()
  in
  let _, t = Wave_sim.Multi_disk.scan m in
  let busy = Parallel.elapsed t in
  let other = Parallel.serial t -. busy in
  Alcotest.(check bool)
    (Printf.sprintf "disk loads %.4f vs %.4f within 2x" busy other)
    true
    (busy <= 2.0 *. other)

(* --- Shard split --------------------------------------------------- *)

module Runner = Wave_sim.Runner

let zipf_spec ~probes =
  {
    Wave_workload.Query_gen.seed = 7;
    probes_per_day = probes;
    probe_range = Wave_workload.Query_gen.Whole_window;
    scans_per_day = 1;
    scan_range = Wave_workload.Query_gen.Whole_window;
    value_dist = Wave_workload.Query_gen.Zipfian { vocab; s = 1.2 };
  }

let split_probes r ~w =
  let day = Router.current_day r in
  List.init vocab (fun i ->
      fst (Router.probe r ~value:(i + 1) ~t1:(day - w + 1) ~t2:day))

let test_split_preserves_answers () =
  let w = 5 and n = 2 in
  let r =
    router_for ~kind:Scheme.Rata_star ~technique:Env.Packed_shadow
      ~partition:Partition.Hash ~shards:2 ~w ~n ~day:(w + 1)
  in
  let before = split_probes r ~w in
  let day = Router.current_day r in
  let serve = [ (1, day - w + 1, day); (2, day - w + 1, day) ] in
  let mk = Router.split r ~arm:0 ~serve in
  Alcotest.(check bool) "split charged the clock" true (mk > 0.0);
  Alcotest.(check int) "one more arm" 3 (Router.arms r);
  Alcotest.(check int) "generation bumped" 2
    (Partition.generation (Router.partition r));
  Alcotest.(check int) "split counted" 1 (Router.splits r);
  Alcotest.(check bool) "answers unchanged" true (split_probes r ~w = before);
  (* Probes served mid-split resolved against the pre-split snapshot:
     for a value the victim owned that is its full answer, for any
     other value the victim's slice is empty. *)
  List.iteri
    (fun i got ->
      let v, _, _ = List.nth serve i in
      let expected =
        if Partition.arm_of_value (Router.partition r) v = 0 then
          List.nth before (v - 1)
        else []
      in
      ignore expected;
      (* The pre-split partition owned both served values on some arm;
         mid-split answers must be a subset of the full answer. *)
      List.iter
        (fun e ->
          Alcotest.(check bool) "served entry is real" true
            (List.mem e (List.nth before (v - 1))))
        got)
    (Router.last_served r);
  Router.check_no_leaks r;
  (* Splitting again on the new partition keeps working. *)
  ignore (Router.split r ~arm:1);
  Alcotest.(check int) "four arms" 4 (Router.arms r);
  Alcotest.(check bool) "still transparent" true (split_probes r ~w = before)

let test_recover_without_split_is_noop () =
  let r =
    router_for ~kind:Scheme.Del ~technique:Env.In_place
      ~partition:Partition.Range ~shards:2 ~w:4 ~n:2 ~day:5
  in
  let before = split_probes r ~w:4 in
  Router.recover r;
  Router.recover r;
  Alcotest.(check int) "arms unchanged" 2 (Router.arms r);
  Alcotest.(check bool) "answers unchanged" true (split_probes r ~w:4 = before)

(* The runner's skew trigger: a Zipf probe stream loads the arms that
   own the hottest values, the busy skew crosses the threshold after a
   day's advance, and the run splits the busiest splittable arm.
   Afterwards the router still answers exactly like a 1-arm router over
   the same store. *)
let test_run_skew_triggers_split () =
  let w = 6 and n = 3 in
  let res =
    Runner.run
      {
        (Runner.default_config ~scheme:Scheme.Rata_star
           ~store:(store ~vocab ~postings:12) ~w ~n)
        with
        Runner.technique = Env.Packed_shadow;
        run_days = 4;
        queries = Some (zipf_spec ~probes:60);
        shards = 4;
        split_threshold = Some 1.3;
      }
  in
  let r = res.Runner.router in
  Alcotest.(check bool)
    (Printf.sprintf "%d split(s) committed" (Router.splits r))
    true
    (Router.splits r >= 1 && Router.arms r > 4);
  let one =
    Router.create ~kind:Scheme.Rata_star ~technique:Env.Packed_shadow
      ~partition:Partition.Hash ~shards:1 ~vocab
      ~store:(store ~vocab ~postings:12) ~w ~n ()
  in
  while Router.current_day one < Router.current_day r do
    ignore (Router.advance one)
  done;
  let day = Router.current_day r in
  let t1 = day - w + 1 and t2 = day in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Printf.sprintf "probe %d equals the 1-arm router" v)
        true
        (fst (Router.probe r ~value:v ~t1 ~t2)
        = fst (Router.probe one ~value:v ~t1 ~t2)))
    (List.init vocab (fun i -> i + 1));
  Alcotest.(check bool) "scan equals the 1-arm router" true
    (fst (Router.scan r ~t1 ~t2) = fst (Router.scan one ~t1 ~t2))

(* One cell of the rebalance-under-fault sweep per partition kind (the
   full 6x3 matrix runs under @shard via `waveidx shardtest`): the
   split killed at every fault point — victim and sibling disks — must
   recover to exactly one committed shard map. *)
let test_split_fault_sweep_hash () =
  let r =
    Crash_harness.sweep
      ~op:(Crash_harness.Split { partition = Partition.Hash; shards = 2 })
      ~scheme:Scheme.Del ~technique:Env.Simple_shadow ~w:4 ~n:2 ~day:5 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d points all recover" (List.length r.Crash_harness.points))
    true r.Crash_harness.passed

let test_split_fault_sweep_range () =
  let r =
    Crash_harness.sweep
      ~op:(Crash_harness.Split { partition = Partition.Range; shards = 2 })
      ~scheme:Scheme.Rata_star ~technique:Env.Packed_shadow ~w:4 ~n:2 ~day:5 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d points all recover" (List.length r.Crash_harness.points))
    true r.Crash_harness.passed

(* --- Throughput scaling -------------------------------------------- *)

let scaling_store day =
  Wave_storage.Entry.batch_create ~day
    (Array.init 100 (fun i ->
         {
           Wave_storage.Entry.value = 1 + (((day * 131) + (i * 17)) mod 5_000);
           entry = { Wave_storage.Entry.rid = (day * 1000) + i; day; info = i };
         }))

let chunk_latency ~shards =
  let w = 7 and n = 3 in
  let r =
    Router.create ~kind:Scheme.Del ~partition:Partition.Hash ~shards
      ~vocab:5_000 ~store:scaling_store ~w ~n ()
  in
  while Router.current_day r < 2 * w do
    ignore (Router.advance r)
  done;
  let d = Router.current_day r in
  let prng = Wave_util.Prng.create 17 in
  let zipf = Wave_util.Zipf.create ~n:5_000 ~s:1.0 in
  let chunk = 32 and runs = 6 in
  let samples =
    Array.init runs (fun _ ->
        let before =
          Array.init (Router.arms r) (fun i ->
              Wave_disk.Disk.elapsed (Router.arm_disk r i))
        in
        for _ = 1 to chunk do
          let value = Wave_util.Zipf.sample zipf prng in
          ignore (Router.probe r ~value ~t1:(d - w + 1) ~t2:d)
        done;
        Array.fold_left Float.max 0.0
          (Array.mapi
             (fun i b -> Wave_disk.Disk.elapsed (Router.arm_disk r i) -. b)
             before)
        /. float_of_int chunk)
  in
  Wave_util.Stats.percentile samples 50.0

(* The bench acceptance bar: the Zipf probe stream's effective
   per-probe latency falls monotonically with the arm count, and four
   arms at least double the single-arm throughput. *)
let test_throughput_scaling () =
  let l1 = chunk_latency ~shards:1 in
  let l2 = chunk_latency ~shards:2 in
  let l4 = chunk_latency ~shards:4 in
  let l8 = chunk_latency ~shards:8 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone: %.5f >= %.5f >= %.5f >= %.5f" l1 l2 l4 l8)
    true
    (l1 >= l2 *. 0.999 && l2 >= l4 *. 0.999 && l4 >= l8 *. 0.999);
  Alcotest.(check bool)
    (Printf.sprintf "4 arms >= 2x 1 arm (%.2fx)" (l1 /. l4))
    true
    (l1 >= 2.0 *. l4)

(* --- The runner's one loop on two arms -------------------------------- *)

let two_arm_run ?(icfg = Wave_storage.Index.default_config) ?series rules =
  Runner.run
    {
      (Runner.default_config ~scheme:Scheme.Del
         ~store:(store ~vocab ~postings:12) ~w:6 ~n:3)
      with
      Runner.run_days = 10;
      queries = Some (zipf_spec ~probes:20);
      icfg;
      alerts = rules;
      series;
      shards = 2;
    }

(* Router.advance is each arm's write-back durability boundary: every
   day ends with no dirty frame in either arm's pool, and the deferred
   writes left through coalescing flushes. *)
let test_runner_write_back_flushed () =
  let series = Wave_obs.Series.create () in
  let icfg =
    {
      Wave_storage.Index.default_config with
      Wave_storage.Index.cache_blocks = Some 512;
      cache_write_back = true;
    }
  in
  let r = two_arm_run ~icfg ~series [] in
  let dirty = Wave_obs.Series.daily series "cache.dirty_frames" in
  Alcotest.(check int) "a day-end sample per day" 10 (List.length dirty);
  List.iter
    (fun (p : Wave_obs.Series.point) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "day %d ends clean" p.Wave_obs.Series.day)
        0.0 p.Wave_obs.Series.value)
    dirty;
  match r.Runner.cache_stats with
  | None -> Alcotest.fail "the write-back run lost its pool stats"
  | Some cs ->
    Alcotest.(check bool)
      (Printf.sprintf "%d flushes" cs.Wave_cache.Cache.flushes)
      true
      (cs.Wave_cache.Cache.flushes > 0)

let fired name (r : Runner.result) =
  List.exists
    (fun (e : Wave_obs.Alert.event) ->
      e.Wave_obs.Alert.e_rule.Wave_obs.Alert.name = name)
    r.Runner.alerts

(* The runner publishes runner.day.* on every arm count, so a burn-rate
   rule written for single-disk runs judges a sharded one too. *)
let test_runner_burn_rule_fires () =
  let rule =
    Wave_obs.Alert.burn ~name:"query-burn" ~metric:"runner.day.query_seconds"
      ~window_days:4 Wave_obs.Alert.Gt 0.0
  in
  Alcotest.(check bool) "burn-rate rule fired" true
    (fired "query-burn" (two_arm_run [ rule ]))

let test_runner_transition_rule_fires () =
  let rule =
    Wave_obs.Alert.rule ~scope:Wave_obs.Alert.Transition ~name:"step-cost"
      ~metric:"runner.transition.seconds" Wave_obs.Alert.Gt 0.0
  in
  Alcotest.(check bool) "transition-scoped rule fired" true
    (fired "step-cost" (two_arm_run [ rule ]))

(* Epochs serve one disk and one block file backs one arm. *)
let test_runner_one_arm_features () =
  let base =
    {
      (Runner.default_config ~scheme:Scheme.Del
         ~store:(store ~vocab ~postings:12) ~w:6 ~n:3)
      with
      Runner.queries = Some (zipf_spec ~probes:4);
      shards = 2;
    }
  in
  let refused what cfg =
    Alcotest.(check bool) (what ^ " refused on 2 arms") true
      (match Runner.run cfg with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  refused "concurrent" { base with Runner.concurrent = true };
  refused "file backend"
    {
      base with
      Runner.icfg =
        {
          Wave_storage.Index.default_config with
          Wave_storage.Index.disk_backend = Wave_disk.Disk.File "unused.blk";
        };
    }

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

(* The metrics registry is process-global: a router with fewer arms
   than a predecessor must retire the predecessor's per-arm gauges, or
   every snapshot/export mixes live arms with fossils. *)
let test_stale_arm_gauges_retired () =
  let shard_names snapshot =
    List.filter
      (fun (name, _) ->
        String.length name > 6 && String.sub name 0 6 = "shard.")
      snapshot
    |> List.map fst
  in
  let has name = List.mem_assoc name (Wave_obs.Metrics.snapshot ()) in
  (* A 2-arm router that splits publishes shard.2.* gauges... *)
  let r =
    Router.create ~kind:Scheme.Del ~partition:Partition.Hash ~shards:2 ~vocab
      ~store:(store ~vocab ~postings:12) ~w:6 ~n:3 ()
  in
  ignore (Router.advance r);
  ignore (Router.split r ~arm:0);
  Alcotest.(check bool) "post-split arm gauge live" true
    (has "shard.2.busy_seconds");
  (* ...which a fresh, narrower router must retire on creation. *)
  let r2 =
    Router.create ~kind:Scheme.Del ~partition:Partition.Hash ~shards:2 ~vocab
      ~store:(store ~vocab ~postings:12) ~w:6 ~n:3 ()
  in
  Alcotest.(check int) "narrow router has 2 arms" 2 (Router.arms r2);
  List.iter
    (fun stale ->
      Alcotest.(check bool) (stale ^ " retired") false (has stale))
    [
      "shard.2.busy_seconds"; "shard.2.space_bytes"; "shard.2.wave_length";
    ];
  List.iter
    (fun live -> Alcotest.(check bool) (live ^ " still live") true (has live))
    [
      "shard.0.busy_seconds"; "shard.1.busy_seconds"; "shard.arms";
      "shard.skew_ratio";
    ];
  (* No per-arm gauge index at or past the live arm count survives. *)
  List.iter
    (fun name ->
      match String.split_on_char '.' name with
      | [ "shard"; i; _ ] -> (
        match int_of_string_opt i with
        | Some i ->
          Alcotest.(check bool)
            (Printf.sprintf "%s within %d arms" name (Router.arms r2))
            true (i < Router.arms r2)
        | None -> ())
      | _ -> ())
    (shard_names (Wave_obs.Metrics.snapshot ()));
  (* A one-arm router is a single-disk run: it retires every shard
     gauge the wider router left, and its advance, probe and scan move
     no shard counter or histogram that earlier routers registered. *)
  let before = Wave_obs.Metrics.snapshot () in
  let r1 =
    Router.create ~kind:Scheme.Del ~partition:Partition.Hash ~shards:1 ~vocab
      ~store:(store ~vocab ~postings:12) ~w:6 ~n:3 ()
  in
  ignore (Router.advance r1);
  ignore (Router.probe r1 ~value:1 ~t1:2 ~t2:7);
  ignore (Router.scan r1 ~t1:2 ~t2:7);
  let after = Wave_obs.Metrics.snapshot () in
  List.iter
    (fun name ->
      let v = List.assoc name after in
      Alcotest.(check bool)
        (name ^ " untouched by the one-arm run")
        true
        ((match v with `Gauge _ -> false | _ -> true)
        && List.assoc_opt name before = Some v))
    (shard_names after)

let suites =
  [
    ( "shard.partition",
      [
        Alcotest.test_case "total and deterministic" `Quick
          test_partition_total_and_deterministic;
        Alcotest.test_case "range slices contiguous, edges clamp" `Quick
          test_partition_range_contiguous;
        Alcotest.test_case "split moves only the victim's keys" `Quick
          test_partition_split_moves_only_victim_keys;
        Alcotest.test_case "exhausted arms refuse to split" `Quick
          test_partition_can_split_exhausted;
        Alcotest.test_case "LPT placement balances W=7 n=3 on 2 disks" `Quick
          test_partition_place_lpt;
      ] );
    ( "shard.router",
      [
        Alcotest.test_case "parallel clock: max not sum" `Quick
          test_parallel_max_not_sum;
        Alcotest.test_case "batch_filter partitions a day" `Quick
          test_batch_filter;
        Alcotest.test_case "fan-out cost semantics" `Quick
          test_router_fanout_costs;
        Alcotest.test_case "query counters count queries" `Quick
          test_router_query_counters;
        Alcotest.test_case "multi-disk arms balanced (LPT regression)" `Quick
          test_multidisk_balanced_arms;
        Alcotest.test_case "stale per-arm gauges retired" `Quick
          test_stale_arm_gauges_retired;
        Alcotest.test_case "runner: 2 arms flush write-back every day" `Quick
          test_runner_write_back_flushed;
        Alcotest.test_case "runner: 2 arms fire a burn-rate rule" `Quick
          test_runner_burn_rule_fires;
        Alcotest.test_case "runner: 2 arms fire a transition rule" `Quick
          test_runner_transition_rule_fires;
        Alcotest.test_case "runner: one-arm features refuse 2 arms" `Quick
          test_runner_one_arm_features;
      ]
      @ qcheck [ prop_router_transparent; prop_batch_filter_partitions ] );
    ( "shard.merge",
      [
        Alcotest.test_case "a value in two frames keeps frame order" `Quick
          test_merge_shared_value;
        Alcotest.test_case "empty constituents and arms" `Quick
          test_merge_empty_parts;
        Alcotest.test_case "a slot is read only when its time-set meets the range"
          `Quick test_merge_slot_range;
        Alcotest.test_case "one frame is the slot-by-slot scan" `Quick
          test_merge_one_frame_is_slot_scan;
      ] );
    ( "shard.split",
      [
        Alcotest.test_case "split preserves answers and serves mid-split"
          `Quick test_split_preserves_answers;
        Alcotest.test_case "recover without a split is a no-op" `Quick
          test_recover_without_split_is_noop;
        Alcotest.test_case "run splits the hottest arm on skew" `Quick
          test_run_skew_triggers_split;
        Alcotest.test_case "fault sweep: hash, DEL x simple-shadow" `Slow
          test_split_fault_sweep_hash;
        Alcotest.test_case "fault sweep: range, RATA* x packed-shadow" `Slow
          test_split_fault_sweep_range;
      ] );
    ( "shard.scaling",
      [ Alcotest.test_case "4 arms >= 2x 1 arm on Zipf probes" `Slow
          test_throughput_scaling ] );
  ]
