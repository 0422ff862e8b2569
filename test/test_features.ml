(* Tests for the feature extensions: multi-disk parallelism (Section 8
   future work), the legacy no-delete constraint, aggregate scans. *)

open Wave_core
open Wave_sim
module Parallel = Wave_model.Parallel

let store day =
  Wave_storage.Entry.batch_create ~day
    (Array.init 8 (fun i ->
         {
           Wave_storage.Entry.value = 1 + ((day + i) mod 6);
           entry =
             { Wave_storage.Entry.rid = (day * 100) + i; day; info = i + 1 };
         }))

(* --- Multi-disk ---------------------------------------------------- *)

let test_multidisk_basic () =
  let m = Multi_disk.create ~store ~w:8 ~n:4 ~disks:4 () in
  Alcotest.(check int) "disks" 4 (Multi_disk.n_disks m);
  Alcotest.(check int) "constituents" 4 (Multi_disk.n_constituents m);
  let entries, _ = Multi_disk.scan m in
  Alcotest.(check int) "all window entries" (8 * 8) (List.length entries)

let test_multidisk_parallel_speedup () =
  let m = Multi_disk.create ~store ~w:8 ~n:4 ~disks:4 () in
  let _, t = Multi_disk.scan m in
  Alcotest.(check bool)
    (Printf.sprintf "scan speedup %.2f > 2" (Parallel.speedup t))
    true
    (Parallel.serial t > 2.0 *. Parallel.elapsed t);
  (* With a single disk, serial = parallel. *)
  let m1 = Multi_disk.create ~store ~w:8 ~n:4 ~disks:1 () in
  let _, t1 = Multi_disk.scan m1 in
  Alcotest.(check (float 1e-9)) "one disk: no speedup" (Parallel.serial t1)
    (Parallel.elapsed t1)

let test_multidisk_advance_isolated () =
  let m = Multi_disk.create ~store ~w:8 ~n:4 ~disks:4 () in
  let t = Multi_disk.advance m in
  (* Daily maintenance touches one constituent, hence one disk: the
     parallel elapsed equals the serial. *)
  Alcotest.(check (float 1e-9)) "maintenance on one disk" (Parallel.serial t)
    (Parallel.elapsed t);
  Alcotest.(check int) "day advanced" 9 (Multi_disk.current_day m)

let test_multidisk_window_maintained () =
  let m = Multi_disk.create ~store ~w:6 ~n:3 ~disks:2 () in
  for _ = 1 to 12 do
    ignore (Multi_disk.advance m)
  done;
  let entries, _ = Multi_disk.scan m in
  let days =
    List.sort_uniq compare
      (List.map (fun (e : Wave_storage.Entry.t) -> e.Wave_storage.Entry.day) entries)
  in
  Alcotest.(check (list int)) "last 6 days" [ 13; 14; 15; 16; 17; 18 ] days

let test_multidisk_validation () =
  Alcotest.check_raises "zero disks"
    (Invalid_argument "Multi_disk.create: need at least one disk") (fun () ->
      ignore (Multi_disk.create ~store ~w:4 ~n:2 ~disks:0 ()))

let test_multidisk_speedup_table () =
  let out = Multi_disk.speedup_table ~store ~w:8 ~n:4 ~disks:[ 1; 2; 4 ] in
  Alcotest.(check bool) "has rows" true (String.length out > 100)

(* --- Legacy no-delete constraint ----------------------------------- *)

let legacy_env technique =
  Env.create ~store ~technique ~allow_deletes:false ~w:6 ~n:2 ()

let test_legacy_del_rejected () =
  List.iter
    (fun technique ->
      let s = Scheme.start Scheme.Del (legacy_env technique) in
      Alcotest.(check bool)
        (Printf.sprintf "DEL %s raises" (Env.technique_name technique))
        true
        (try
           Scheme.transition s;
           false
         with Update.Deletes_not_supported _ -> true))
    [ Env.In_place; Env.Simple_shadow ]

let test_legacy_del_packed_ok () =
  (* Packed shadowing expires entries inside the smart copy: no
     deletion code needed, so DEL is legal. *)
  let s = Scheme.start Scheme.Del (legacy_env Env.Packed_shadow) in
  for _ = 1 to 8 do
    Scheme.transition s;
    Scheme.check_window_invariant s
  done

let test_legacy_other_schemes_ok () =
  (* REINDEX/REINDEX+/REINDEX++/WATA*/RATA* never call DeleteFromIndex:
     they rebuild or throw away. *)
  List.iter
    (fun kind ->
      List.iter
        (fun technique ->
          let s = Scheme.start kind (legacy_env technique) in
          for _ = 1 to 8 do
            Scheme.transition s;
            Scheme.check_window_invariant s
          done)
        [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ])
    [ Scheme.Reindex; Scheme.Reindex_plus; Scheme.Reindex_pp; Scheme.Wata_star;
      Scheme.Rata_star ]

(* --- Aggregates ----------------------------------------------------- *)

let test_aggregates () =
  let env = Env.create ~store ~w:6 ~n:2 () in
  let s = Scheme.start Scheme.Del env in
  Scheme.advance_to s 10;
  let frame = Scheme.frame s in
  (* each day contributes infos 1..8 (sum 36, min 1, max 8) *)
  Alcotest.(check (option int)) "count" (Some 48)
    (Frame.timed_aggregate frame ~t1:5 ~t2:10 ~op:Frame.Count);
  Alcotest.(check (option int)) "sum" (Some (36 * 6))
    (Frame.timed_aggregate frame ~t1:5 ~t2:10 ~op:Frame.Sum_info);
  Alcotest.(check (option int)) "min" (Some 1)
    (Frame.timed_aggregate frame ~t1:5 ~t2:10 ~op:Frame.Min_info);
  Alcotest.(check (option int)) "max" (Some 8)
    (Frame.timed_aggregate frame ~t1:5 ~t2:10 ~op:Frame.Max_info);
  (* empty range *)
  Alcotest.(check (option int)) "empty count" (Some 0)
    (Frame.timed_aggregate frame ~t1:100 ~t2:200 ~op:Frame.Count);
  Alcotest.(check (option int)) "empty min" None
    (Frame.timed_aggregate frame ~t1:100 ~t2:200 ~op:Frame.Min_info)

(* Each op against a fold of the scan's entry list, on two identical
   waves — one scanned, one aggregated — whose disks must then show the
   same counters and model time: the aggregate charges what the scan
   charges and only skips building the list.  The second wave reads
   through a buffer pool. *)
let test_aggregate_matches_scan () =
  let waves =
    [
      ("WATA* in place", Scheme.Wata_star, Env.In_place, None);
      ("DEL packed, pool", Scheme.Del, Env.Packed_shadow, Some 16);
    ]
  in
  (* Negative infos on odd days, so neither extreme is a fold's start
     value. *)
  let store day =
    let b = store day in
    if day mod 2 = 0 then b
    else
      Wave_storage.Entry.batch_create ~day
        (Array.map
           (fun (p : Wave_storage.Entry.posting) ->
             let e = p.Wave_storage.Entry.entry in
             { p with entry = { e with info = -e.Wave_storage.Entry.info } })
           b.Wave_storage.Entry.postings)
  in
  let ops =
    let fold f init infos = List.fold_left f init infos in
    [
      ("count", Frame.Count, fun infos -> Some (List.length infos));
      ("sum", Frame.Sum_info, fun infos -> Some (fold ( + ) 0 infos));
      ( "min",
        Frame.Min_info,
        fun infos -> if infos = [] then None else Some (fold Int.min max_int infos) );
      ( "max",
        Frame.Max_info,
        fun infos -> if infos = [] then None else Some (fold Int.max min_int infos) );
    ]
  in
  let counters = Alcotest.testable Wave_disk.Disk.pp_counters ( = ) in
  List.iter
    (fun (wave, kind, technique, cache_blocks) ->
      let fresh () =
        let icfg = { Wave_storage.Index.default_config with cache_blocks } in
        let env = Env.create ~icfg ~technique ~store ~w:6 ~n:3 () in
        let s = Scheme.start kind env in
        Scheme.advance_to s 12;
        (env.Env.disk, Scheme.frame s)
      in
      List.iter
        (fun (t1, t2) ->
          List.iter
            (fun (name, op, expect) ->
              let label = Printf.sprintf "%s [%d, %d] %s" wave t1 t2 name in
              let scan_disk, scanned = fresh () and agg_disk, aggregated = fresh () in
              let infos =
                List.map
                  (fun (e : Wave_storage.Entry.t) -> e.Wave_storage.Entry.info)
                  (Frame.timed_segment_scan scanned ~t1 ~t2)
              in
              Alcotest.(check (option int)) label (expect infos)
                (Frame.timed_aggregate aggregated ~t1 ~t2 ~op);
              Alcotest.check counters (label ^ ": counters")
                (Wave_disk.Disk.counters scan_disk)
                (Wave_disk.Disk.counters agg_disk);
              Alcotest.(check (float 0.0)) (label ^ ": elapsed")
                (Wave_disk.Disk.elapsed scan_disk)
                (Wave_disk.Disk.elapsed agg_disk))
            ops)
        [ (7, 12); (9, 9); (10, 10); (100, 200) ])
    waves

(* --- Crash consistency (failure injection) ------------------------- *)

(* A mid-transition disk fault under shadow techniques must leave the
   visible wave untouched (queries keep answering the old window) and a
   retry after recovery must succeed — the swap is atomic.  This is the
   paper's argument for shadowing made executable. *)
let sorted_scan frame =
  List.sort Wave_storage.Entry.compare (Frame.segment_scan frame)

let crash_consistency scheme technique () =
  let env = Env.create ~store ~technique ~w:6 ~n:2 () in
  let s = Scheme.start scheme env in
  for _ = 1 to 4 do
    Scheme.transition s
  done;
  let before_scan = sorted_scan (Scheme.frame s) in
  let before_day = Scheme.current_day s in
  (* Fault on the first seek of the next maintenance step. *)
  Wave_disk.Disk.set_fault env.Env.disk ~after_seeks:1;
  (try
     Scheme.transition s;
     Alcotest.fail "expected injected fault"
   with Wave_disk.Disk.Disk_error "injected fault" -> ());
  Wave_disk.Disk.clear_fault env.Env.disk;
  (* Old window still served, structures intact. *)
  Alcotest.(check int) "day unchanged" before_day (Scheme.current_day s);
  Frame.validate (Scheme.frame s);
  Scheme.check_window_invariant s;
  Alcotest.(check bool) "old window still answers" true
    (sorted_scan (Scheme.frame s) = before_scan);
  (* Recovery: the retry completes and advances the window. *)
  Scheme.transition s;
  Alcotest.(check int) "day advanced on retry" (before_day + 1)
    (Scheme.current_day s);
  Scheme.check_window_invariant s;
  Frame.validate (Scheme.frame s)

let crash_cases =
  [
    Alcotest.test_case "DEL / simple shadow" `Quick
      (crash_consistency Scheme.Del Env.Simple_shadow);
    Alcotest.test_case "DEL / packed shadow" `Quick
      (crash_consistency Scheme.Del Env.Packed_shadow);
    Alcotest.test_case "REINDEX (rebuild is naturally atomic)" `Quick
      (crash_consistency Scheme.Reindex Env.In_place);
    Alcotest.test_case "WATA* / simple shadow" `Quick
      (crash_consistency Scheme.Wata_star Env.Simple_shadow);
  ]

let test_fault_arming () =
  let d = Wave_disk.Disk.create () in
  Alcotest.(check bool) "disarmed" false (Wave_disk.Disk.fault_armed d);
  Wave_disk.Disk.set_fault d ~after_seeks:3;
  Alcotest.(check bool) "armed" true (Wave_disk.Disk.fault_armed d);
  Wave_disk.Disk.clear_fault d;
  Alcotest.(check bool) "cleared" false (Wave_disk.Disk.fault_armed d)

let suites =
  [
    ( "ext.multidisk",
      [
        Alcotest.test_case "basic" `Quick test_multidisk_basic;
        Alcotest.test_case "parallel speedup" `Quick test_multidisk_parallel_speedup;
        Alcotest.test_case "advance isolated" `Quick test_multidisk_advance_isolated;
        Alcotest.test_case "window maintained" `Quick test_multidisk_window_maintained;
        Alcotest.test_case "validation" `Quick test_multidisk_validation;
        Alcotest.test_case "speedup table" `Quick test_multidisk_speedup_table;
      ] );
    ( "ext.legacy",
      [
        Alcotest.test_case "DEL rejected" `Quick test_legacy_del_rejected;
        Alcotest.test_case "DEL packed shadow ok" `Quick test_legacy_del_packed_ok;
        Alcotest.test_case "other schemes ok" `Quick test_legacy_other_schemes_ok;
      ] );
    ( "ext.aggregates",
      [
        Alcotest.test_case "aggregates" `Quick test_aggregates;
        Alcotest.test_case "matches scan" `Quick test_aggregate_matches_scan;
      ] );
    ( "ext.crash",
      crash_cases
      @ [ Alcotest.test_case "fault arming" `Quick test_fault_arming ] );
  ]

