(* Tests for the conventional-index substrate: entries, directory,
   packed builds, CONTIGUOUS incremental updates, shadow copies, packed
   shadow updates, disk-space accounting. *)

open Wave_disk
open Wave_storage

let cfg = Index.default_config
let fresh_disk () = Index.make_disk cfg

let entry ~rid ~day ?(info = 0) () = { Entry.rid; day; info }

let posting value e = { Entry.value; entry = e }

(* A deterministic batch: [per_value] entries for each value in [values]. *)
let batch ~day ~values ~per_value =
  let postings =
    List.concat_map
      (fun v ->
        List.init per_value (fun i ->
            posting v (entry ~rid:((day * 1_000_000) + (v * 100) + i) ~day ())))
      values
    |> Array.of_list
  in
  Entry.batch_create ~day postings

let sorted_entries es = List.sort Entry.compare es

let check_entries msg expected actual =
  Alcotest.(check int) (msg ^ " (cardinality)") (List.length expected)
    (List.length actual);
  List.iter2
    (fun a b ->
      if not (Entry.equal a b) then Alcotest.failf "%s: entry mismatch" msg)
    (sorted_entries expected) (sorted_entries actual)

(* ------------------------------------------------------------------ *)
(* Entry                                                              *)
(* ------------------------------------------------------------------ *)

let test_batch_day_validation () =
  Alcotest.check_raises "wrong day"
    (Invalid_argument "Entry.batch_create: posting day mismatch") (fun () ->
      ignore
        (Entry.batch_create ~day:3 [| posting 1 (entry ~rid:1 ~day:4 ()) |]))

let test_group_by_value () =
  let b =
    Entry.batch_create ~day:1
      [|
        posting 5 (entry ~rid:10 ~day:1 ());
        posting 2 (entry ~rid:11 ~day:1 ());
        posting 5 (entry ~rid:12 ~day:1 ());
      |]
  in
  match Entry.group_by_value [ b ] with
  | [| 2; 5 |], [| [| e2 |]; [| e5a; e5b |] |] ->
    Alcotest.(check int) "value-2 rid" 11 e2.Entry.rid;
    Alcotest.(check int) "value-5 order a" 10 e5a.Entry.rid;
    Alcotest.(check int) "value-5 order b" 12 e5b.Entry.rid
  | _ -> Alcotest.fail "unexpected grouping"

(* The list grouping the two-pass one replaced, kept as the reference:
   a [Hashtbl] of reversed lists, then a sort of the values. *)
let reference_group_by_value postings =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (p : Entry.posting) ->
      match Hashtbl.find_opt tbl p.Entry.value with
      | None -> Hashtbl.add tbl p.Entry.value [ p.Entry.entry ]
      | Some es -> Hashtbl.replace tbl p.Entry.value (p.Entry.entry :: es))
    postings;
  Hashtbl.fold (fun v es acc -> (v, List.rev es) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* Random batches (some empty) whose values mix small ones that repeat,
   negative and extreme ones, and multiples of 1024, which share their
   low bits. *)
let gen_batches =
  let open QCheck2.Gen in
  let value =
    oneof
      [
        int_range (-5) 20;
        map (fun k -> k * 1024) (int_range (-64) 64);
        oneofl [ min_int; min_int + 1; max_int; max_int - 1; 1 lsl 40; -(1 lsl 40) ];
        int;
      ]
  in
  list_size (int_range 0 4) (list_size (int_range 0 60) value)

let prop_group_matches_reference =
  QCheck2.Test.make ~name:"grouping matches the list grouping" ~count:300
    gen_batches (fun values ->
      let rid = ref 0 in
      let batches =
        List.mapi
          (fun day vs ->
            Entry.batch_create ~day
              (Array.of_list
                 (List.map
                    (fun v ->
                      incr rid;
                      posting v (entry ~rid:!rid ~day ~info:v ()))
                    vs)))
          values
      in
      let want =
        reference_group_by_value
          (Array.concat (List.map (fun (b : Entry.batch) -> b.Entry.postings) batches))
      in
      let values, groups = Entry.group_by_value batches in
      List.combine (Array.to_list values) (List.map Array.to_list (Array.to_list groups))
      = want)

(* ------------------------------------------------------------------ *)
(* Directory                                                          *)
(* ------------------------------------------------------------------ *)

let directory_roundtrip kind () =
  let d : int Directory.t = Directory.create kind in
  List.iter (fun k -> Directory.set d k (k * 10)) [ 5; 1; 9; 3 ];
  Alcotest.(check int) "length" 4 (Directory.length d);
  Alcotest.(check (option int)) "find" (Some 30) (Directory.find d 3);
  Directory.remove d 3;
  Alcotest.(check (option int)) "removed" None (Directory.find d 3);
  Alcotest.(check (list int)) "ordered" [ 1; 5; 9 ]
    (Directory.fold_descending d ~init:[] ~f:(fun acc k _ -> k :: acc));
  Directory.clear d;
  Alcotest.(check int) "cleared" 0 (Directory.length d);
  Alcotest.(check (option int)) "nothing found" None (Directory.find d 5);
  Directory.set d 4 40;
  Alcotest.(check (list (pair int int))) "usable after clear" [ (4, 40) ]
    (Directory.fold_descending d ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

(* ------------------------------------------------------------------ *)
(* Index: packed build                                                *)
(* ------------------------------------------------------------------ *)

let test_build_empty () =
  let d = fresh_disk () in
  let idx = Index.build d cfg [] in
  Alcotest.(check int) "entries" 0 (Index.entry_count idx);
  Alcotest.(check bool) "packed" true (Index.is_packed idx);
  Alcotest.(check int) "no disk use" 0 (Disk.live_blocks d);
  Index.validate idx

let test_build_packed () =
  let d = fresh_disk () in
  let idx = Index.build d cfg [ batch ~day:1 ~values:[ 1; 2; 3 ] ~per_value:4 ] in
  Alcotest.(check int) "entries" 12 (Index.entry_count idx);
  Alcotest.(check bool) "packed" true (Index.is_packed idx);
  Alcotest.(check int) "minimal allocation" 12 (Index.allocated_blocks idx);
  Alcotest.(check int) "disk live matches" 12 (Disk.live_blocks d);
  Alcotest.(check (list int)) "days" [ 1 ] (Index.days idx);
  Alcotest.(check int) "distinct values" 3 (Index.distinct_values idx);
  Index.validate idx

let test_build_multi_day () =
  let d = fresh_disk () in
  let idx =
    Index.build d cfg
      [ batch ~day:1 ~values:[ 1; 2 ] ~per_value:2;
        batch ~day:2 ~values:[ 2; 3 ] ~per_value:3 ]
  in
  Alcotest.(check int) "entries" 10 (Index.entry_count idx);
  Alcotest.(check (list int)) "days" [ 1; 2 ] (Index.days idx);
  (* Value 2 holds entries from both days. *)
  let es = Index.probe idx 2 in
  Alcotest.(check int) "bucket size" 5 (List.length es);
  Index.validate idx

let test_build_write_cost () =
  let d = fresh_disk () in
  Disk.reset_counters d;
  let _idx = Index.build d cfg [ batch ~day:1 ~values:[ 1; 2 ] ~per_value:5 ] in
  let c = Disk.counters d in
  Alcotest.(check int) "one seek" 1 c.Disk.seeks;
  Alcotest.(check int) "ten blocks written" 10 c.Disk.blocks_written

let test_build_cpu_charge () =
  let cfg = { cfg with Index.build_cpu_per_entry = 0.5 } in
  let d = Index.make_disk cfg in
  Disk.reset_counters d;
  let _ = Index.build d cfg [ batch ~day:1 ~values:[ 7 ] ~per_value:4 ] in
  Alcotest.(check bool) "cpu charged (>= 2s)" true (Disk.elapsed d >= 2.0)

let test_disk_mismatch_raises () =
  let wrong = Disk.create () (* 4096-byte blocks <> 100-byte entries *) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Index.create_empty wrong cfg);
       false
     with Index.Index_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Index: probes and scans                                            *)
(* ------------------------------------------------------------------ *)

let test_probe_contents () =
  let d = fresh_disk () in
  let idx = Index.build d cfg [ batch ~day:3 ~values:[ 1; 2 ] ~per_value:3 ] in
  Alcotest.(check int) "hit" 3 (List.length (Index.probe idx 1));
  Alcotest.(check int) "miss" 0 (List.length (Index.probe idx 99))

let test_probe_cost () =
  let d = fresh_disk () in
  let idx = Index.build d cfg [ batch ~day:3 ~values:[ 1; 2 ] ~per_value:3 ] in
  Disk.reset_counters d;
  ignore (Index.probe idx 1);
  let c = Disk.counters d in
  Alcotest.(check int) "one seek" 1 c.Disk.seeks;
  Alcotest.(check int) "bucket blocks" 3 c.Disk.blocks_read;
  Disk.reset_counters d;
  ignore (Index.probe idx 99);
  Alcotest.(check int) "miss costs nothing" 0 (Disk.counters d).Disk.seeks

let test_probe_timed () =
  let d = fresh_disk () in
  let idx =
    Index.build d cfg
      [ batch ~day:1 ~values:[ 5 ] ~per_value:2;
        batch ~day:2 ~values:[ 5 ] ~per_value:2;
        batch ~day:3 ~values:[ 5 ] ~per_value:2 ]
  in
  Alcotest.(check int) "mid-range" 4
    (List.length (Index.probe_timed idx 5 ~t1:2 ~t2:3));
  Alcotest.(check int) "all" 6
    (List.length (Index.probe_timed idx 5 ~t1:min_int ~t2:max_int))

let test_scan_packed_cost () =
  let d = fresh_disk () in
  let idx = Index.build d cfg [ batch ~day:1 ~values:[ 1; 2; 3; 4 ] ~per_value:5 ] in
  Disk.reset_counters d;
  let es = Index.scan idx in
  Alcotest.(check int) "all entries" 20 (List.length es);
  let c = Disk.counters d in
  Alcotest.(check int) "single seek" 1 c.Disk.seeks;
  Alcotest.(check int) "minimal transfer" 20 c.Disk.blocks_read

let test_scan_unpacked_pays_slack () =
  let d = fresh_disk () in
  let idx = Index.create_empty d cfg in
  Index.add_batch idx (batch ~day:1 ~values:[ 1; 2 ] ~per_value:3);
  Alcotest.(check bool) "unpacked" false (Index.is_packed idx);
  Disk.reset_counters d;
  ignore (Index.scan idx);
  let c = Disk.counters d in
  Alcotest.(check bool)
    (Printf.sprintf "reads allocated (%d) > used (6)" c.Disk.blocks_read)
    true
    (c.Disk.blocks_read > 6);
  Alcotest.(check int) "allocated matches charge" (Index.allocated_blocks idx)
    c.Disk.blocks_read

let test_scan_timed () =
  let d = fresh_disk () in
  let idx =
    Index.build d cfg
      [ batch ~day:1 ~values:[ 1 ] ~per_value:2; batch ~day:5 ~values:[ 2 ] ~per_value:2 ]
  in
  Alcotest.(check int) "filtered" 2 (List.length (Index.scan_timed idx ~t1:4 ~t2:9))

(* ------------------------------------------------------------------ *)
(* Index: incremental add (CONTIGUOUS)                                *)
(* ------------------------------------------------------------------ *)

let test_add_to_empty () =
  let d = fresh_disk () in
  let idx = Index.create_empty d cfg in
  Index.add_batch idx (batch ~day:1 ~values:[ 1; 2 ] ~per_value:2);
  Alcotest.(check int) "entries" 4 (Index.entry_count idx);
  Alcotest.(check bool) "not packed" false (Index.is_packed idx);
  Alcotest.(check bool) "slack allocated" true (Index.allocated_blocks idx > 4);
  Index.validate idx

let test_add_growth_respects_g () =
  let d = fresh_disk () in
  let idx = Index.create_empty d cfg in
  (* First batch: 2 entries for value 7 -> capacity max(min_alloc, 4). *)
  Index.add_batch idx (batch ~day:1 ~values:[ 7 ] ~per_value:2);
  let a1 = Index.allocated_blocks idx in
  Alcotest.(check int) "initial cap = ceil(2g)" 4 a1;
  (* Second batch fits in the slack: no growth. *)
  Index.add_batch idx (batch ~day:2 ~values:[ 7 ] ~per_value:2);
  Alcotest.(check int) "no growth while fitting" 4 (Index.allocated_blocks idx);
  (* Third batch overflows: relocate to ceil(6g) = 12. *)
  Index.add_batch idx (batch ~day:3 ~values:[ 7 ] ~per_value:2);
  Alcotest.(check int) "grown by g" 12 (Index.allocated_blocks idx);
  Index.validate idx

let test_add_in_place_append_cost () =
  let d = fresh_disk () in
  let idx = Index.create_empty d cfg in
  Index.add_batch idx (batch ~day:1 ~values:[ 7 ] ~per_value:2);
  Disk.reset_counters d;
  Index.add_batch idx (batch ~day:2 ~values:[ 7 ] ~per_value:2);
  let c = Disk.counters d in
  (* Appending into existing slack: one seek, two blocks written, no copy. *)
  Alcotest.(check int) "one seek" 1 c.Disk.seeks;
  Alcotest.(check int) "tail write only" 2 c.Disk.blocks_written;
  Alcotest.(check int) "no read" 0 c.Disk.blocks_read

let test_add_relocation_cost () =
  let d = fresh_disk () in
  let idx = Index.create_empty d cfg in
  Index.add_batch idx (batch ~day:1 ~values:[ 7 ] ~per_value:4);
  (* cap = 8, used = 4 *)
  Disk.reset_counters d;
  Index.add_batch idx (batch ~day:2 ~values:[ 7 ] ~per_value:5);
  (* overflow: read 4, write 9 into new cap 18 *)
  let c = Disk.counters d in
  Alcotest.(check int) "read old" 4 c.Disk.blocks_read;
  Alcotest.(check int) "write new" 9 c.Disk.blocks_written;
  Index.validate idx

let test_add_to_packed_unpacks () =
  let d = fresh_disk () in
  let idx = Index.build d cfg [ batch ~day:1 ~values:[ 1 ] ~per_value:4 ] in
  Index.add_batch idx (batch ~day:2 ~values:[ 1 ] ~per_value:1);
  Alcotest.(check bool) "no longer packed" false (Index.is_packed idx);
  Alcotest.(check int) "entries" 5 (Index.entry_count idx);
  check_entries "contents preserved"
    (Index.probe idx 1)
    (Index.scan idx);
  Index.validate idx

(* ------------------------------------------------------------------ *)
(* Index: deletion                                                    *)
(* ------------------------------------------------------------------ *)

let test_delete_days () =
  let d = fresh_disk () in
  let idx =
    Index.build d cfg
      [ batch ~day:1 ~values:[ 1; 2 ] ~per_value:2;
        batch ~day:2 ~values:[ 2; 3 ] ~per_value:2 ]
  in
  let removed = Index.delete_days idx (fun day -> day = 1) in
  Alcotest.(check int) "removed" 4 removed;
  Alcotest.(check int) "left" 4 (Index.entry_count idx);
  Alcotest.(check (list int)) "days" [ 2 ] (Index.days idx);
  (* Value 1 existed only on day 1: bucket fully removed. *)
  Alcotest.(check int) "bucket gone" 0 (List.length (Index.probe idx 1));
  Alcotest.(check int) "directory shrunk" 2 (Index.distinct_values idx);
  Index.validate idx

let test_delete_nothing () =
  let d = fresh_disk () in
  let idx = Index.build d cfg [ batch ~day:1 ~values:[ 1 ] ~per_value:3 ] in
  Disk.reset_counters d;
  let removed = Index.delete_days idx (fun day -> day = 9) in
  Alcotest.(check int) "none removed" 0 removed;
  Alcotest.(check bool) "still packed" true (Index.is_packed idx);
  Alcotest.(check int) "no disk work" 0 (Disk.counters d).Disk.seeks

let test_delete_shrinks () =
  let d = fresh_disk () in
  let idx = Index.create_empty d cfg in
  (* Build a bucket with a large capacity, then delete most of it. *)
  Index.add_batch idx (batch ~day:1 ~values:[ 7 ] ~per_value:50);
  Index.add_batch idx (batch ~day:2 ~values:[ 7 ] ~per_value:50);
  let before = Index.allocated_blocks idx in
  let _ = Index.delete_days idx (fun day -> day = 2) in
  let _ = Index.delete_days idx (fun day -> day = 1) in
  Alcotest.(check int) "all gone" 0 (Index.entry_count idx);
  Alcotest.(check bool) "space reclaimed" true (Index.allocated_blocks idx < before);
  Alcotest.(check int) "fully reclaimed" 0 (Index.allocated_blocks idx);
  Index.validate idx

let test_delete_from_shared_keeps_dead_space () =
  let d = fresh_disk () in
  let idx =
    Index.build d cfg
      [ batch ~day:1 ~values:[ 1 ] ~per_value:4; batch ~day:2 ~values:[ 2 ] ~per_value:4 ]
  in
  (* Delete day 1: value 1's bucket drains, but value 2 still pins the
     shared extent, so its space stays allocated (dead space). *)
  let _ = Index.delete_days idx (fun day -> day = 1) in
  Alcotest.(check int) "entries" 4 (Index.entry_count idx);
  Alcotest.(check int) "dead space retained" 8 (Index.allocated_blocks idx);
  Alcotest.(check bool) "not packed" false (Index.is_packed idx);
  Index.validate idx;
  (* Deleting day 2 drains the shared extent entirely. *)
  let _ = Index.delete_days idx (fun day -> day = 2) in
  Alcotest.(check int) "all reclaimed" 0 (Index.allocated_blocks idx);
  Index.validate idx

(* ------------------------------------------------------------------ *)
(* Index: drop, copy, pack                                            *)
(* ------------------------------------------------------------------ *)

let test_drop_frees_everything () =
  let d = fresh_disk () in
  let idx = Index.build d cfg [ batch ~day:1 ~values:[ 1; 2; 3 ] ~per_value:10 ] in
  Index.add_batch idx (batch ~day:2 ~values:[ 4 ] ~per_value:3);
  Disk.reset_counters d;
  Index.drop idx;
  Alcotest.(check int) "disk empty" 0 (Disk.live_blocks d);
  Alcotest.(check int) "index empty" 0 (Index.entry_count idx);
  (* Dropping is a constant-time unlink: no data transfer. *)
  Alcotest.(check int) "no transfer" 0 (Disk.counters d).Disk.blocks_read;
  Index.validate idx

let test_copy_packed () =
  let d = fresh_disk () in
  let idx = Index.build d cfg [ batch ~day:1 ~values:[ 1; 2 ] ~per_value:3 ] in
  let dup = Index.copy idx in
  Alcotest.(check bool) "copy packed" true (Index.is_packed dup);
  check_entries "same contents" (Index.scan idx) (Index.scan dup);
  (* Mutating the copy must not affect the original. *)
  Index.add_batch dup (batch ~day:2 ~values:[ 1 ] ~per_value:1);
  Alcotest.(check int) "original untouched" 6 (Index.entry_count idx);
  Alcotest.(check int) "copy updated" 7 (Index.entry_count dup);
  Index.validate idx;
  Index.validate dup

(* A copy shares the source's entry arrays, and editing the copy in
   place (deleting days, adding a batch) leaves the source's scan and
   its arrays as they were, for both layouts. *)
let test_copy_edits_leave_source () =
  List.iter
    (fun (name, make) ->
      let d = fresh_disk () in
      let idx = make d in
      let values = [ 1; 2; 3 ] in
      let scan = Index.scan idx in
      let arrays = List.map (fun v -> (v, Index.probe_bucket idx v)) values in
      let contents = List.map (fun (v, es) -> (v, Array.copy es)) arrays in
      let dup = Index.copy idx in
      List.iter
        (fun (v, es) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: value %d shared" name v)
            true
            (Index.probe_bucket dup v == es))
        arrays;
      Alcotest.(check int) (name ^ ": day 1 deleted") 6
        (Index.delete_days dup (fun day -> day = 1));
      Index.add_batch dup (batch ~day:4 ~values:[ 1; 3; 7 ] ~per_value:2);
      Alcotest.(check bool) (name ^ ": source scan unchanged") true (Index.scan idx = scan);
      List.iter2
        (fun (v, es) (_, was) ->
          let now = Index.probe_bucket idx v in
          Alcotest.(check bool) (Printf.sprintf "%s: value %d same array" name v) true
            (now == es);
          Alcotest.(check bool) (Printf.sprintf "%s: value %d same entries" name v) true
            (now = was))
        arrays contents;
      Alcotest.(check bool) (name ^ ": copy edited") true
        (Index.probe_bucket dup 7 <> [||] && Index.probe_bucket dup 2 <> Index.probe_bucket idx 2);
      Index.validate idx;
      Index.validate dup)
    [
      ( "packed",
        fun d ->
          Index.build d cfg
            [ batch ~day:1 ~values:[ 1; 2; 3 ] ~per_value:2;
              batch ~day:2 ~values:[ 1; 2 ] ~per_value:3 ] );
      ( "unpacked",
        fun d ->
          let idx = Index.create_empty d cfg in
          Index.add_batch idx (batch ~day:1 ~values:[ 1; 2; 3 ] ~per_value:2);
          Index.add_batch idx (batch ~day:2 ~values:[ 1; 2 ] ~per_value:3);
          idx );
    ]

let test_copy_unpacked_preserves_slack () =
  let d = fresh_disk () in
  let idx = Index.create_empty d cfg in
  Index.add_batch idx (batch ~day:1 ~values:[ 1; 2 ] ~per_value:3);
  let dup = Index.copy idx in
  Alcotest.(check bool) "copy unpacked" false (Index.is_packed dup);
  Alcotest.(check int) "same slack" (Index.allocated_blocks idx)
    (Index.allocated_blocks dup);
  check_entries "same contents" (Index.scan idx) (Index.scan dup);
  Index.validate dup

let test_pack_drops_and_merges () =
  let d = fresh_disk () in
  let idx =
    Index.build d cfg
      [ batch ~day:1 ~values:[ 1; 2 ] ~per_value:2; batch ~day:2 ~values:[ 2 ] ~per_value:2 ]
  in
  let packed =
    Index.pack idx ~drop_days:(fun day -> day = 1)
      ~extra:[ batch ~day:3 ~values:[ 2; 9 ] ~per_value:1 ]
  in
  Alcotest.(check bool) "packed result" true (Index.is_packed packed);
  Alcotest.(check int) "entries" 4 (Index.entry_count packed);
  Alcotest.(check (list int)) "days" [ 2; 3 ] (Index.days packed);
  Alcotest.(check int) "minimal alloc" 4 (Index.allocated_blocks packed);
  (* Source untouched. *)
  Alcotest.(check int) "source intact" 6 (Index.entry_count idx);
  Index.validate packed;
  Index.validate idx

(* Within a bucket, pack keeps the survivors in their order and puts
   the new entries behind them; a bucket that lost nothing keeps its
   very array (entry arrays are never mutated in place). *)
let test_pack_order_and_sharing () =
  let d = fresh_disk () in
  let idx =
    Index.build d cfg
      [ batch ~day:1 ~values:[ 1; 2 ] ~per_value:2; batch ~day:2 ~values:[ 1; 3 ] ~per_value:2 ]
  in
  let packed =
    Index.pack idx ~drop_days:(fun day -> day = 1)
      ~extra:[ batch ~day:3 ~values:[ 1; 4 ] ~per_value:2 ]
  in
  let rids v = List.map (fun (e : Entry.t) -> e.Entry.rid) (Index.probe packed v) in
  let rid ~day v i = (day * 1_000_000) + (v * 100) + i in
  Alcotest.(check (list int)) "value 1: survivors, then new"
    [ rid ~day:2 1 0; rid ~day:2 1 1; rid ~day:3 1 0; rid ~day:3 1 1 ]
    (rids 1);
  Alcotest.(check (list int)) "value 2: all expired" [] (rids 2);
  Alcotest.(check (list int)) "value 4: new only" [ rid ~day:3 4 0; rid ~day:3 4 1 ] (rids 4);
  Alcotest.(check bool) "value 3 shares the source's array" true
    (Index.probe_bucket packed 3 == Index.probe_bucket idx 3);
  Alcotest.(check bool) "value 1 gets a new array" false
    (Index.probe_bucket packed 1 == Index.probe_bucket idx 1);
  Index.validate packed;
  Index.validate idx

let test_pack_all_expired () =
  let d = fresh_disk () in
  let idx = Index.build d cfg [ batch ~day:1 ~values:[ 1 ] ~per_value:5 ] in
  let packed = Index.pack idx ~drop_days:(fun _ -> true) ~extra:[] in
  Alcotest.(check int) "empty result" 0 (Index.entry_count packed);
  Alcotest.(check bool) "packed" true (Index.is_packed packed);
  Index.validate packed

(* ------------------------------------------------------------------ *)
(* Model-based property test                                          *)
(* ------------------------------------------------------------------ *)

(* Reference model: value -> entry list, mirroring adds/deletes/packs.
   After a random operation sequence, probes and scans must agree and
   the structural validator must pass. *)

type iop =
  | Add of int (* day seed *)
  | Delete of int (* day to expire *)
  | Pack_shadow of int
  | Copy_shadow

let gen_iops =
  QCheck2.Gen.(
    list_size (int_range 1 25)
      (frequency
         [
           (6, map (fun d -> Add d) (int_range 1 30));
           (3, map (fun d -> Delete d) (int_range 1 30));
           (1, map (fun d -> Pack_shadow d) (int_range 1 30));
           (1, return Copy_shadow);
         ]))

let prop_index_matches_model =
  QCheck2.Test.make ~name:"index matches reference model" ~count:120
    QCheck2.Gen.(pair small_int gen_iops)
    (fun (seed, ops) ->
      let prng = Wave_util.Prng.create seed in
      let d = fresh_disk () in
      let idx = ref (Index.create_empty d cfg) in
      let model : (int, Entry.t list) Hashtbl.t = Hashtbl.create 64 in
      let model_add (b : Entry.batch) =
        Array.iter
          (fun (p : Entry.posting) ->
            let old = Option.value ~default:[] (Hashtbl.find_opt model p.Entry.value) in
            Hashtbl.replace model p.Entry.value (old @ [ p.Entry.entry ]))
          b.Entry.postings
      in
      let model_delete pred =
        Hashtbl.iter
          (fun v es ->
            Hashtbl.replace model v
              (List.filter (fun (e : Entry.t) -> not (pred e.Entry.day)) es))
          (Hashtbl.copy model);
        Hashtbl.iter
          (fun v es -> if es = [] then Hashtbl.remove model v)
          (Hashtbl.copy model)
      in
      let mk_batch day =
        let values =
          List.init (1 + Wave_util.Prng.int prng 4) (fun _ ->
              1 + Wave_util.Prng.int prng 8)
          |> List.sort_uniq compare
        in
        batch ~day ~values ~per_value:(1 + Wave_util.Prng.int prng 3)
      in
      List.iter
        (fun op ->
          match op with
          | Add day ->
            let b = mk_batch day in
            Index.add_batch !idx b;
            model_add b
          | Delete day ->
            ignore (Index.delete_days !idx (fun d -> d = day));
            model_delete (fun d -> d = day)
          | Pack_shadow day ->
            let b = mk_batch day in
            let fresh = Index.pack !idx ~drop_days:(fun d -> d < day - 5) ~extra:[ b ] in
            Index.drop !idx;
            idx := fresh;
            model_delete (fun d -> d < day - 5);
            model_add b
          | Copy_shadow ->
            let dup = Index.copy !idx in
            Index.drop !idx;
            idx := dup)
        ops;
      Index.validate !idx;
      (* Compare every value's bucket. *)
      let ok = ref true in
      for v = 1 to 9 do
        let expect =
          Option.value ~default:[] (Hashtbl.find_opt model v) |> sorted_entries
        in
        let got = Index.probe !idx v |> sorted_entries in
        if not (List.equal Entry.equal expect got) then ok := false
      done;
      let model_total = Hashtbl.fold (fun _ es acc -> acc + List.length es) model 0 in
      if Index.entry_count !idx <> model_total then ok := false;
      if List.length (Index.scan !idx) <> model_total then ok := false;
      (* Disk accounting closes: the index is the only tenant. *)
      if Disk.live_blocks d <> Index.allocated_blocks !idx then ok := false;
      !ok)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "storage.entry",
      [
        Alcotest.test_case "batch day validation" `Quick test_batch_day_validation;
        Alcotest.test_case "group by value" `Quick test_group_by_value;
      ]
      @ qcheck [ prop_group_matches_reference ] );
    ( "storage.directory",
      [
        Alcotest.test_case "hash roundtrip" `Quick (directory_roundtrip Directory.Hash);
        Alcotest.test_case "bplus roundtrip" `Quick (directory_roundtrip Directory.Bplus);
      ] );
    ( "storage.index.build",
      [
        Alcotest.test_case "build empty" `Quick test_build_empty;
        Alcotest.test_case "build packed" `Quick test_build_packed;
        Alcotest.test_case "build multi day" `Quick test_build_multi_day;
        Alcotest.test_case "build write cost" `Quick test_build_write_cost;
        Alcotest.test_case "build cpu charge" `Quick test_build_cpu_charge;
        Alcotest.test_case "disk mismatch raises" `Quick test_disk_mismatch_raises;
      ] );
    ( "storage.index.query",
      [
        Alcotest.test_case "probe contents" `Quick test_probe_contents;
        Alcotest.test_case "probe cost" `Quick test_probe_cost;
        Alcotest.test_case "probe timed" `Quick test_probe_timed;
        Alcotest.test_case "scan packed cost" `Quick test_scan_packed_cost;
        Alcotest.test_case "scan unpacked pays slack" `Quick
          test_scan_unpacked_pays_slack;
        Alcotest.test_case "scan timed" `Quick test_scan_timed;
      ] );
    ( "storage.index.add",
      [
        Alcotest.test_case "add to empty" `Quick test_add_to_empty;
        Alcotest.test_case "growth respects g" `Quick test_add_growth_respects_g;
        Alcotest.test_case "append cost" `Quick test_add_in_place_append_cost;
        Alcotest.test_case "relocation cost" `Quick test_add_relocation_cost;
        Alcotest.test_case "add to packed unpacks" `Quick test_add_to_packed_unpacks;
      ] );
    ( "storage.index.delete",
      [
        Alcotest.test_case "delete days" `Quick test_delete_days;
        Alcotest.test_case "delete nothing" `Quick test_delete_nothing;
        Alcotest.test_case "delete shrinks" `Quick test_delete_shrinks;
        Alcotest.test_case "shared dead space" `Quick
          test_delete_from_shared_keeps_dead_space;
      ] );
    ( "storage.index.shadow",
      [
        Alcotest.test_case "drop frees everything" `Quick test_drop_frees_everything;
        Alcotest.test_case "copy packed" `Quick test_copy_packed;
        Alcotest.test_case "copy unpacked preserves slack" `Quick
          test_copy_unpacked_preserves_slack;
        Alcotest.test_case "copy edits leave the source" `Quick
          test_copy_edits_leave_source;
        Alcotest.test_case "pack drops and merges" `Quick test_pack_drops_and_merges;
        Alcotest.test_case "pack order and sharing" `Quick test_pack_order_and_sharing;
        Alcotest.test_case "pack all expired" `Quick test_pack_all_expired;
      ]
      @ qcheck [ prop_index_matches_model ] );
  ]
