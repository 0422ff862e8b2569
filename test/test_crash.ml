(* Tests for crash consistency: the transition journal, checkpointed
   recovery, and the systematic fault-injection sweep. *)

open Wave_core
open Wave_disk
open Wave_storage
open Wave_sim

let store = Crash_harness.default_store

(* --- Journal -------------------------------------------------------- *)

let intent =
  {
    Journal.scheme = Scheme.Del;
    technique = Env.Packed_shadow;
    day_from = 8;
    day_to = 9;
    changes =
      [
        {
          Journal.slot = 2;
          old_days = Dayset.of_list [ 3; 4; 5 ];
          new_days = Dayset.of_list [ 4; 5; 9 ];
          old_extents = [ (0, 4, 7); (12, 2, 9) ];
        };
      ];
  }

let test_journal_roundtrip () =
  let j = Journal.create () in
  Journal.append j (Journal.Intent intent);
  Journal.append j (Journal.Commit { day_to = 9 });
  match Journal.of_string (Journal.to_string j) with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j' -> (
    match Journal.entries j' with
    | [ Journal.Intent i; Journal.Commit { day_to } ] ->
      Alcotest.(check bool) "scheme" true (i.Journal.scheme = Scheme.Del);
      Alcotest.(check bool) "technique" true
        (i.Journal.technique = Env.Packed_shadow);
      Alcotest.(check int) "day_from" 8 i.Journal.day_from;
      Alcotest.(check int) "day_to" 9 i.Journal.day_to;
      Alcotest.(check int) "commit day" 9 day_to;
      (match i.Journal.changes with
      | [ c ] ->
        Alcotest.(check int) "slot" 2 c.Journal.slot;
        Alcotest.(check bool) "old days" true
          (Dayset.equal c.Journal.old_days (Dayset.of_list [ 3; 4; 5 ]));
        Alcotest.(check bool) "new days" true
          (Dayset.equal c.Journal.new_days (Dayset.of_list [ 4; 5; 9 ]));
        Alcotest.(check (list (triple int int int))) "extents"
          [ (0, 4, 7); (12, 2, 9) ]
          c.Journal.old_extents
      | cs -> Alcotest.failf "expected 1 change, got %d" (List.length cs));
      Alcotest.(check bool) "nothing pending" true (Journal.pending j' = None)
    | _ -> Alcotest.fail "wrong entries")

let test_journal_pending () =
  let j = Journal.create () in
  Alcotest.(check bool) "empty journal: none" true (Journal.pending j = None);
  Journal.append j (Journal.Intent intent);
  (match Journal.pending j with
  | Some i -> Alcotest.(check int) "uncommitted intent pending" 9 i.Journal.day_to
  | None -> Alcotest.fail "expected a pending intent");
  Journal.append j (Journal.Commit { day_to = 9 });
  Alcotest.(check bool) "committed: none" true (Journal.pending j = None);
  Journal.truncate j;
  Alcotest.(check bool) "truncated: empty" true (Journal.is_empty j)

let test_journal_bad_corpus () =
  let check_err name s =
    match Journal.of_string s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: accepted" name
  in
  check_err "empty" "";
  check_err "bad header" "wave-journal v9\n";
  check_err "unknown scheme" "wave-journal v1\nintent BTREE in-place 8 9\n";
  check_err "unknown technique" "wave-journal v1\nintent DEL mmap 8 9\n";
  check_err "bad day" "wave-journal v1\nintent DEL in-place eight 9\n";
  check_err "orphan change" "wave-journal v1\nchange 1 1,2 2,3 0:4:1\n";
  check_err "garbled days"
    "wave-journal v1\nintent DEL in-place 8 9\nchange 1 1,,2 2,3 0:4:1\n";
  check_err "garbled extents"
    "wave-journal v1\nintent DEL in-place 8 9\nchange 1 1,2 2,3 0:4\n";
  check_err "bad slot"
    "wave-journal v1\nintent DEL in-place 8 9\nchange 0 1,2 2,3 -\n";
  check_err "unknown record" "wave-journal v1\nvacuum now\n";
  (* happy paths the corpus is near to *)
  (match Journal.of_string "wave-journal v1\n" with
  | Ok j -> Alcotest.(check bool) "empty journal parses" true (Journal.is_empty j)
  | Error e -> Alcotest.failf "empty journal rejected: %s" e);
  match
    Journal.of_string
      "wave-journal v1\nintent DEL in-place 8 9\nchange 1 1,2 2,3 0:4:1\ncommit 9\n"
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "baseline rejected: %s" e

(* --- Checkpoint: normal operation ----------------------------------- *)

let test_checkpoint_journalled_run () =
  let env = Env.create ~technique:Env.Packed_shadow ~store ~w:6 ~n:3 () in
  let cp = Checkpoint.start Scheme.Del env in
  Checkpoint.advance_to cp 10;
  Alcotest.(check int) "day" 10 (Checkpoint.current_day cp);
  Alcotest.(check bool) "not crashed" false (Checkpoint.crashed cp);
  (* after a committed transition the journal is truncated and the
     manifest matches the live frame *)
  Alcotest.(check bool) "journal truncated" true
    (Journal.is_empty (Checkpoint.journal cp));
  let m = Checkpoint.manifest cp in
  Alcotest.(check int) "manifest day" 10 m.Manifest.day;
  Alcotest.(check bool) "manifest slots current" true
    (List.for_all2 Dayset.equal m.Manifest.slots
       (List.init 3 (fun i ->
            Frame.slot_days (Checkpoint.frame cp) (i + 1))))

let test_recover_without_crash_rejected () =
  let env = Env.create ~store ~w:4 ~n:2 () in
  let cp = Checkpoint.start Scheme.Reindex env in
  Alcotest.(check bool) "recover on a live instance rejected" true
    (try
       ignore (Checkpoint.recover cp);
       false
     with Invalid_argument _ -> true)

(* --- Checkpoint: crash and recovery --------------------------------- *)

let sorted_scan frame = List.sort Entry.compare (Frame.segment_scan frame)

(* Crash DEL x packed-shadow late in the transition (after the journal
   intent; during index work), then recover and check the bounded-work
   guarantee: only the slot named in the intent is rebuilt. *)
let test_recovery_rebuilds_only_journalled_slot () =
  let env = Env.create ~technique:Env.Packed_shadow ~store ~w:6 ~n:3 () in
  let cp = Checkpoint.start Scheme.Del env in
  Checkpoint.advance_to cp 9;
  let disk = env.Env.disk in
  (* crash on the last write of day 10's transition, so the old slot is
     already gone and recovery must roll forward *)
  let twin_env = Env.create ~technique:Env.Packed_shadow ~store ~w:6 ~n:3 () in
  let twin = Checkpoint.start Scheme.Del twin_env in
  Checkpoint.advance_to twin 9;
  let before = Disk.counters twin_env.Env.disk in
  Checkpoint.transition twin;
  let after = Disk.counters twin_env.Env.disk in
  let seeks = after.Disk.seeks - before.Disk.seeks in
  Alcotest.(check bool) "transition performs several seeks" true (seeks > 2);
  (* the transition's second-to-last seek is the manifest checkpoint
     write: by then the old constituent has been dropped (packed
     shadowing drops it when the smart copy finishes), so recovery
     cannot roll back and must complete the transition *)
  Disk.arm_fault disk { Disk.target = Disk.On_seek; at = seeks - 1 };
  (try Checkpoint.transition cp with Disk.Disk_error _ -> ());
  Alcotest.(check bool) "crashed" true (Checkpoint.crashed cp);
  Disk.clear_fault disk;
  let c0 = Disk.counters disk in
  let r = Checkpoint.recover cp in
  let c1 = Disk.counters disk in
  (* the interrupted transition touched exactly one slot (DEL), and
     recovery rebuilt only that slot *)
  Alcotest.(check bool) "rolled forward" true r.Checkpoint.rolled_forward;
  Alcotest.(check int) "recovered at the interrupted day" 10
    r.Checkpoint.recovered_day;
  Alcotest.(check bool) "journal truncated after recovery" true
    (Journal.is_empty (Checkpoint.journal cp));
  Alcotest.(check int) "one slot rebuilt" 1
    (List.length r.Checkpoint.rebuilt_slots);
  (* bounded work, asserted via disk counters: recovery wrote no more
     blocks than the single rebuilt constituent occupies — never a full
     BuildIndex of every slot *)
  let rebuilt_blocks =
    List.fold_left
      (fun a j ->
        a + Index.allocated_blocks (Frame.slot_index (Checkpoint.frame cp) j))
      0 r.Checkpoint.rebuilt_slots
  in
  let recovery_writes = c1.Disk.blocks_written - c0.Disk.blocks_written in
  let full_rebuild_blocks =
    List.fold_left
      (fun a j ->
        a + Index.allocated_blocks (Frame.slot_index (Checkpoint.frame cp) j))
      0 [ 1; 2; 3 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "recovery wrote %d blocks <= rebuilt slot's %d"
       recovery_writes rebuilt_blocks)
    true
    (recovery_writes <= rebuilt_blocks);
  Alcotest.(check bool) "strictly less than a full rebuild" true
    (recovery_writes < full_rebuild_blocks);
  (* and the recovered wave answers like the twin *)
  Alcotest.(check bool) "query-identical to uncrashed twin" true
    (sorted_scan (Checkpoint.frame cp) = sorted_scan (Checkpoint.frame twin))

(* Crash a shadow transition on its very first metadata seek: nothing
   durable changed, so recovery rolls back to the previous day without
   rebuilding anything. *)
let test_recovery_rolls_back_when_old_wave_intact () =
  let env = Env.create ~technique:Env.Simple_shadow ~store ~w:6 ~n:3 () in
  let cp = Checkpoint.start Scheme.Reindex env in
  Checkpoint.advance_to cp 9;
  let reference = sorted_scan (Checkpoint.frame cp) in
  let disk = env.Env.disk in
  Disk.set_fault disk ~after_seeks:2;
  (try Checkpoint.transition cp with Disk.Disk_error _ -> ());
  Alcotest.(check bool) "crashed" true (Checkpoint.crashed cp);
  Disk.clear_fault disk;
  let c0 = Disk.counters disk in
  let r = Checkpoint.recover cp in
  let c1 = Disk.counters disk in
  Alcotest.(check bool) "rolled back" false r.Checkpoint.rolled_forward;
  Alcotest.(check int) "previous day" 9 r.Checkpoint.recovered_day;
  Alcotest.(check (list int)) "nothing rebuilt" [] r.Checkpoint.rebuilt_slots;
  Alcotest.(check int) "roll-back reads no data blocks" 0
    (c1.Disk.blocks_read - c0.Disk.blocks_read);
  Alcotest.(check bool) "wave unchanged" true
    (sorted_scan (Checkpoint.frame cp) = reference)

(* In-place updating mutates live extents, so even an early crash must
   roll forward — the old contents cannot be trusted. *)
let test_in_place_always_rolls_forward () =
  let env = Env.create ~technique:Env.In_place ~store ~w:6 ~n:3 () in
  let cp = Checkpoint.start Scheme.Del env in
  Checkpoint.advance_to cp 9;
  let disk = env.Env.disk in
  Disk.arm_fault disk { Disk.target = Disk.On_write; at = 1 };
  (try Checkpoint.transition cp with Disk.Disk_error _ -> ());
  Disk.clear_fault disk;
  let r = Checkpoint.recover cp in
  Alcotest.(check bool) "rolled forward" true r.Checkpoint.rolled_forward;
  Alcotest.(check int) "at the interrupted day" 10 r.Checkpoint.recovered_day

(* After any recovery the allocator owes nothing: live space is exactly
   the surviving constituents'. *)
let assert_no_leaks cp =
  let disk = (Checkpoint.env cp).Env.disk in
  let frame = Checkpoint.frame cp in
  let claimed = ref 0 in
  for j = 1 to Frame.n frame do
    claimed := !claimed + Index.allocated_blocks (Frame.slot_index frame j)
  done;
  Alcotest.(check int) "live blocks = constituents' blocks" !claimed
    (Disk.live_blocks disk);
  Alcotest.(check int) "no torn extents" 0 (Disk.torn_count disk)

let test_torn_write_swept_on_recovery () =
  let env = Env.create ~technique:Env.Packed_shadow ~store ~w:6 ~n:3 () in
  let cp = Checkpoint.start Scheme.Del env in
  Checkpoint.advance_to cp 9;
  let disk = env.Env.disk in
  Disk.arm_fault disk ~mode:Disk.Torn { Disk.target = Disk.On_write; at = 1 };
  (try Checkpoint.transition cp with Disk.Disk_error _ -> ());
  Disk.clear_fault disk;
  Alcotest.(check bool) "extent torn at crash" true (Disk.torn_count disk > 0);
  let r = Checkpoint.recover cp in
  Alcotest.(check bool) "torn debris swept" true (r.Checkpoint.freed_blocks > 0);
  assert_no_leaks cp

(* --- Harness sweeps (bounded samples of the full crashtest matrix) --- *)

let sweep_case scheme technique () =
  let r = Crash_harness.sweep ~scheme ~technique ~w:6 ~n:3 ~day:9 () in
  Alcotest.(check bool)
    (Format.asprintf "%a" Crash_harness.pp_report r)
    true r.Crash_harness.passed;
  Alcotest.(check bool) "sweep exercised several points" true
    (List.length r.Crash_harness.points >= 3)

(* PR 1's guarantee must survive PR 3's buffer pool: sweep every fault
   point of every scheme x technique with a pool attached.  Write-through
   keeps the write fault points identical; the capture replay keeps the
   seek schedule exact (see Crash_harness.crash_at). *)
let test_sweep_cache_enabled_all () =
  let icfg =
    {
      Index.default_config with
      Index.cache_blocks = Some 64;
      cache_readahead = 2;
    }
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun technique ->
          let r =
            Crash_harness.sweep ~icfg ~scheme ~technique ~w:6 ~n:3 ~day:8 ()
          in
          Alcotest.(check bool)
            (Format.asprintf "cached %a" Crash_harness.pp_report r)
            true r.Crash_harness.passed)
        [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ])
    Scheme.all

(* PR 4: write-back defers writes to flush drains at the durability
   barriers, adding On_flush points (crash with a fully dirty pool)
   and turning each drain's run writes into On_write points of their
   own.  Every scheme x technique must recover from every point with
   write-back enabled. *)
let wb_icfg =
  {
    Index.default_config with
    Index.cache_blocks = Some 64;
    cache_readahead = 2;
    cache_write_back = true;
  }

let test_sweep_write_back_all () =
  List.iter
    (fun scheme ->
      List.iter
        (fun technique ->
          let r =
            Crash_harness.sweep ~icfg:wb_icfg ~scheme ~technique ~w:6 ~n:3
              ~day:8 ()
          in
          Alcotest.(check bool)
            (Format.asprintf "write-back %a" Crash_harness.pp_report r)
            true r.Crash_harness.passed)
        [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ])
    Scheme.all

let test_sweep_write_back_has_flush_points () =
  let r =
    Crash_harness.sweep ~icfg:wb_icfg ~scheme:Scheme.Del
      ~technique:Env.Packed_shadow ~w:6 ~n:3 ~day:8 ()
  in
  Alcotest.(check bool) "sweep has On_flush points" true
    (List.exists
       (fun p -> p.Crash_harness.point.Disk.target = Disk.On_flush)
       r.Crash_harness.points);
  Alcotest.(check bool) "and passes them" true r.Crash_harness.passed

let test_sweep_counts_both_targets () =
  let r =
    Crash_harness.sweep ~scheme:Scheme.Reindex ~technique:Env.Packed_shadow
      ~w:6 ~n:3 ~day:9 ()
  in
  let seeks, writes =
    List.partition
      (fun p -> p.Crash_harness.point.Disk.target = Disk.On_seek)
      r.Crash_harness.points
  in
  Alcotest.(check bool) "has seek points" true (seeks <> []);
  Alcotest.(check bool) "has write points" true (writes <> []);
  (* every write point is swept in both modes *)
  Alcotest.(check bool) "torn mode swept" true
    (List.exists (fun p -> p.Crash_harness.mode = Disk.Torn) writes)

(* The sweep runs every operation under every kill mode except a split
   under a reopen or double kill and a concurrent transition under a
   double kill; those are refused up front rather than half run. *)
let test_sweep_rejects_unsupported_combinations () =
  let rejected op kill =
    match
      Crash_harness.sweep ~op ~kill ~scheme:Scheme.Del
        ~technique:Env.Simple_shadow ~w:4 ~n:2 ~day:5 ()
    with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  let split =
    Crash_harness.Split { partition = Wave_shard.Partition.Hash; shards = 2 }
  in
  Alcotest.(check bool) "split x reopen" true
    (rejected split (Crash_harness.Reopen "unused"));
  Alcotest.(check bool) "split x double" true
    (rejected split Crash_harness.Double);
  Alcotest.(check bool) "concurrent x double" true
    (rejected Crash_harness.Concurrent_transition Crash_harness.Double);
  Alcotest.(check bool) "nothing written" false (Sys.file_exists "unused")

(* --- Flight-recorder artifacts on sweep failure ---------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* A store that poisons [poison_day]'s batch for every instantiation
   after the first: the uncrashed twin sees the canonical data, every
   crashed replay sees an extra posting, so roll-forward recovery
   disagrees with the twin and the point fails — on purpose, to
   exercise the failure-artifact path.  An instantiation is counted when
   it fetches day 2, which only the initial build reads: a DEL
   transition also fetches its expiring day 1. *)
let divergent_store ~poison_day =
  let instances = ref 0 in
  fun day ->
    if day = 2 then incr instances;
    if day = poison_day && !instances > 1 then
      Entry.batch_create ~day
        (Array.init 9 (fun i ->
             {
               Entry.value = 1 + ((day + i) mod 6);
               entry = { Entry.rid = (day * 100) + i; day; info = i + 1 };
             }))
    else Crash_harness.default_store day

let point_failed (p : Crash_harness.point_result) =
  not (p.Crash_harness.fired && p.Crash_harness.consistent
      && p.Crash_harness.space_ok)

let test_sweep_failure_writes_flight_artifacts () =
  let adir = "crash_sweep_artifacts" in
  rm_rf adir;
  Fun.protect ~finally:(fun () -> rm_rf adir) @@ fun () ->
  (* A flat artifact directory, then a nested one whose parents do not
     exist yet. *)
  List.iter
    (fun dir ->
      (* In-place always rolls forward, so every point replays the
         poisoned day 7 batch into the recovered wave and fails
         consistency. *)
      let r =
        Crash_harness.sweep
          ~store:(divergent_store ~poison_day:7)
          ~artifact_dir:dir ~scheme:Scheme.Del ~technique:Env.In_place ~w:6
          ~n:3 ~day:7 ()
      in
      Alcotest.(check bool) "sweep fails by construction" false
        r.Crash_harness.passed;
      let failing = List.filter point_failed r.Crash_harness.points in
      Alcotest.(check bool) "has failing points" true (failing <> []);
      let dumps = Array.to_list (Sys.readdir dir) in
      Alcotest.(check int) "one dump per failing point" (List.length failing)
        (List.length dumps);
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " named *.flight.jsonl") true
            (Filename.check_suffix f ".flight.jsonl");
          match Wave_obs.Sink.validate_flight_file (Filename.concat dir f) with
          | Ok n ->
            (* The per-point ring was cleared at replay start, so the
               dump is that point's own tail — at minimum the injected
               fault. *)
            Alcotest.(check bool) (f ^ " holds the fatal event") true (n > 0)
          | Error e -> Alcotest.failf "%s invalid: %s" f e)
        dumps)
    [ adir; Filename.concat adir "nested/DEL_in-place_d7" ];
  (* A passing sweep with an artifact dir armed writes nothing — the
     directory is not even created. *)
  let clean = Filename.concat adir "clean" in
  let r2 =
    Crash_harness.sweep ~artifact_dir:clean ~scheme:Scheme.Del
      ~technique:Env.In_place ~w:6 ~n:3 ~day:7 ()
  in
  Alcotest.(check bool) "clean sweep passes" true r2.Crash_harness.passed;
  Alcotest.(check bool) "no artifacts from a clean sweep" true
    (not (Sys.file_exists clean))

let suites =
  [
    ( "core.journal",
      [
        Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
        Alcotest.test_case "pending" `Quick test_journal_pending;
        Alcotest.test_case "bad corpus" `Quick test_journal_bad_corpus;
      ] );
    ( "core.checkpoint",
      [
        Alcotest.test_case "journalled run" `Quick test_checkpoint_journalled_run;
        Alcotest.test_case "recover needs a crash" `Quick
          test_recover_without_crash_rejected;
        Alcotest.test_case "rebuilds only journalled slot" `Quick
          test_recovery_rebuilds_only_journalled_slot;
        Alcotest.test_case "rolls back intact shadow" `Quick
          test_recovery_rolls_back_when_old_wave_intact;
        Alcotest.test_case "in-place rolls forward" `Quick
          test_in_place_always_rolls_forward;
        Alcotest.test_case "torn write swept" `Quick
          test_torn_write_swept_on_recovery;
      ] );
    ( "sim.crash_harness",
      [
        Alcotest.test_case "DEL x packed sweep" `Quick
          (sweep_case Scheme.Del Env.Packed_shadow);
        Alcotest.test_case "RATA* x simple sweep" `Quick
          (sweep_case Scheme.Rata_star Env.Simple_shadow);
        Alcotest.test_case "WATA* x in-place sweep" `Quick
          (sweep_case Scheme.Wata_star Env.In_place);
        Alcotest.test_case "both fault targets swept" `Quick
          test_sweep_counts_both_targets;
        Alcotest.test_case "cache-enabled sweep, all combinations" `Quick
          test_sweep_cache_enabled_all;
        Alcotest.test_case "write-back sweep, all combinations" `Quick
          test_sweep_write_back_all;
        Alcotest.test_case "write-back sweep has flush points" `Quick
          test_sweep_write_back_has_flush_points;
        Alcotest.test_case "failing sweep writes flight artifacts" `Quick
          test_sweep_failure_writes_flight_artifacts;
        Alcotest.test_case "unsupported combinations rejected" `Quick
          test_sweep_rejects_unsupported_combinations;
      ] );
  ]
