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

(* One batch spanning the whole int range: [max_int - min_int] wraps to
   -1, so the radix order must read the span unsigned. *)
let test_group_extremes () =
  let vs = [ max_int; 0; min_int; 1; -1; 0; max_int; min_int ] in
  let b =
    Entry.batch_create ~day:1
      (Array.of_list (List.mapi (fun rid v -> posting v (entry ~rid ~day:1 ())) vs))
  in
  let values, groups = Entry.group_by_value [ b ] in
  Alcotest.(check (array int)) "values ascending" [| min_int; -1; 0; 1; max_int |] values;
  Alcotest.(check (list (list int))) "each value's rids in input order"
    [ [ 2; 7 ]; [ 4 ]; [ 1; 5 ]; [ 3 ]; [ 0; 6 ] ]
    (Array.to_list groups
    |> List.map (fun es -> Array.to_list es |> List.map (fun e -> e.Entry.rid)))

(* The list grouping [Entry.group_by_value] replaced, kept as the reference:
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

(* Large groupings: 1k-20k postings over a few hundred to several
   thousand distinct values, so the radix passes sort many values per
   digit bucket.  The values come from one of five draws: one 11-bit
   digit (every bucket, both ends), three digits with negatives, pairs
   straddling multiples of 2048 (the digit-bucket boundaries), the whole
   int range (six passes), and the extremes mixed into it (a span that
   wraps).  Built from a seed rather than generated whole, so a
   counterexample prints in one line. *)
let gen_large =
  QCheck2.Gen.(
    quad (int_range 1_000 20_000) (int_range 200 5_000) (int_range 0 4) int)

let large_batches (postings, distinct, draw, seed) =
  let rng = Random.State.make [| seed |] in
  let any () = Int64.to_int (Random.State.bits64 rng) in
  let value () =
    match draw with
    | 0 -> Random.State.int rng 2048
    | 1 -> Random.State.full_int rng (1 lsl 33) - (1 lsl 32)
    | 2 -> ((Random.State.int rng 1_000 - 500) * 2048) + Random.State.int rng 2 - 1
    | 3 -> any ()
    | _ ->
      if Random.State.int rng 4 = 0 then
        [| min_int; min_int + 1; max_int; max_int - 1; -1; 0 |].(Random.State.int rng 6)
      else any ()
  in
  let pool = Array.init distinct (fun _ -> value ()) in
  let days = 1 + Random.State.int rng 4 and rid = ref 0 in
  List.init days (fun day ->
      Entry.batch_create ~day
        (Array.init (postings / days) (fun _ ->
             incr rid;
             let v = pool.(Random.State.int rng distinct) in
             posting v (entry ~rid:!rid ~day ~info:v ()))))

let prop_group_large =
  QCheck2.Test.make ~name:"large groupings match the list grouping" ~count:20
    ~long_factor:10
    ~print:(fun (p, d, k, s) -> Printf.sprintf "postings %d, distinct %d, draw %d, seed %d" p d k s)
    gen_large (fun params ->
      let batches = large_batches params in
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

let test_directory_roundtrip () =
  let d : int Btree.t = Btree.create () in
  List.iter (fun k -> Btree.insert d k (k * 10)) [ 5; 1; 9; 3 ];
  Alcotest.(check int) "length" 4 (Btree.length d);
  Alcotest.(check (option int)) "find" (Some 30) (Btree.find d 3);
  ignore (Btree.remove d 3);
  Alcotest.(check (option int)) "removed" None (Btree.find d 3);
  Alcotest.(check (list int)) "ordered" [ 1; 5; 9 ]
    (Btree.fold_descending d ~init:[] ~f:(fun acc k _ -> k :: acc));
  Btree.clear d;
  Alcotest.(check int) "cleared" 0 (Btree.length d);
  Alcotest.(check (option int)) "nothing found" None (Btree.find d 5);
  Btree.insert d 4 40;
  Alcotest.(check (list (pair int int))) "usable after clear" [ (4, 40) ]
    (Btree.fold_descending d ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

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
  let removed = Index.delete_days idx [ batch ~day:1 ~values:[ 1; 2 ] ~per_value:2 ] in
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
  let removed = Index.delete_days idx [ batch ~day:9 ~values:[ 1 ] ~per_value:3 ] in
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
  let _ = Index.delete_days idx [ batch ~day:2 ~values:[ 7 ] ~per_value:50 ] in
  let _ = Index.delete_days idx [ batch ~day:1 ~values:[ 7 ] ~per_value:50 ] in
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
  let _ = Index.delete_days idx [ batch ~day:1 ~values:[ 1 ] ~per_value:4 ] in
  Alcotest.(check int) "entries" 4 (Index.entry_count idx);
  Alcotest.(check int) "dead space retained" 8 (Index.allocated_blocks idx);
  Alcotest.(check bool) "not packed" false (Index.is_packed idx);
  Index.validate idx;
  (* Deleting day 2 drains the shared extent entirely. *)
  let _ = Index.delete_days idx [ batch ~day:2 ~values:[ 2 ] ~per_value:4 ] in
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
        (Index.delete_days dup [ batch ~day:1 ~values:[ 1; 2; 3 ] ~per_value:2 ]);
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
    Index.pack idx ~expire:[ batch ~day:1 ~values:[ 1; 2 ] ~per_value:2 ]
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
    Index.pack idx ~expire:[ batch ~day:1 ~values:[ 1; 2 ] ~per_value:2 ]
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
  let packed =
    Index.pack idx ~expire:[ batch ~day:1 ~values:[ 1 ] ~per_value:5 ] ~extra:[]
  in
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
      (* The batches the index holds, once per add: what expiry passes. *)
      let live = ref [] in
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
            live := b :: !live;
            model_add b
          | Delete day ->
            let gone, kept = List.partition (fun (b : Entry.batch) -> b.Entry.day = day) !live in
            ignore (Index.delete_days !idx gone);
            live := kept;
            model_delete (fun d -> d = day)
          | Pack_shadow day ->
            let b = mk_batch day in
            let gone, kept =
              List.partition (fun (b : Entry.batch) -> b.Entry.day < day - 5) !live
            in
            let fresh = Index.pack !idx ~expire:gone ~extra:[ b ] in
            Index.drop !idx;
            idx := fresh;
            live := b :: kept;
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

(* ------------------------------------------------------------------ *)
(* Batch-directed expiry against the day filter                       *)
(* ------------------------------------------------------------------ *)

(* A random index over days 1..[days], each day a batch of a few
   postings on values 0..7, added ascending (DEL's order, so expiring
   entries lead their buckets), descending or shuffled, one day
   possibly added a second time.  The first [built] adds go through
   [Index.build], the rest through [add_batch]; the index may then be
   repacked or copied.  Some days expire: the oldest, a middle one, the
   newest, several, or an absent one.  Their batches are the very
   records the index was built from (a store that caches them) or
   fresh copies (a store that rebuilds them). *)
type expiry_case = {
  x_seed : int;
  x_days : int;
  x_order : [ `Ascending | `Descending | `Shuffled ];
  x_built : int;
  x_twice : bool;
  x_layout : [ `As_built | `Repacked | `Copied ];
  x_pick : [ `Oldest | `Middle | `Newest | `Several | `Absent ];
  x_fresh : bool;
  x_pack : bool;  (** [pack] with a new day's batch, else [delete_days] *)
}

let gen_expiry_case =
  QCheck2.Gen.(
    let* x_seed = int_bound 1_000_000 in
    let* x_days = int_range 1 6 in
    let* x_order = oneofl [ `Ascending; `Descending; `Shuffled ] in
    let* x_built = int_range 0 (x_days + 1) in
    let* x_twice = bool in
    let* x_layout = oneofl [ `As_built; `Repacked; `Copied ] in
    let* x_pick = oneofl [ `Oldest; `Middle; `Newest; `Several; `Absent ] in
    let* x_fresh = bool in
    let+ x_pack = bool in
    { x_seed; x_days; x_order; x_built; x_twice; x_layout; x_pick; x_fresh; x_pack })

let print_expiry_case c =
  Printf.sprintf "seed %d, %d days %s%s, %d built, %s, expire %s%s, %s" c.x_seed c.x_days
    (match c.x_order with
    | `Ascending -> "ascending"
    | `Descending -> "descending"
    | `Shuffled -> "shuffled")
    (if c.x_twice then " (one twice)" else "")
    c.x_built
    (match c.x_layout with
    | `As_built -> "as built"
    | `Repacked -> "repacked"
    | `Copied -> "copied")
    (match c.x_pick with
    | `Oldest -> "oldest"
    | `Middle -> "middle"
    | `Newest -> "newest"
    | `Several -> "several"
    | `Absent -> "absent")
    (if c.x_fresh then " (fresh records)" else "")
    (if c.x_pack then "pack" else "delete_days")

let expiry_values = 8

(* Deletion charges the CPU per entry, so [Disk.elapsed] also counts
   what was removed. *)
let expiry_cfg = { cfg with Index.build_cpu_per_entry = 1e-5; add_cpu_per_entry = 1e-4 }

(* The case's index, built from scratch on [disk]: the same calls give
   twins, and the batches' records are the ones [adds] holds. *)
let expiry_index c disk adds =
  let built = List.filteri (fun i _ -> i < c.x_built) adds
  and added = List.filteri (fun i _ -> i >= c.x_built) adds in
  let idx = Index.build disk expiry_cfg built in
  List.iter (Index.add_batch idx) added;
  match c.x_layout with
  | `As_built -> idx
  | `Repacked ->
    let fresh = Index.pack idx ~expire:[] ~extra:[] in
    Index.drop idx;
    fresh
  | `Copied ->
    let dup = Index.copy idx in
    Index.drop idx;
    dup

(* The same postings in new records, as a store that rebuilds its
   batches returns them. *)
let fresh_records (b : Entry.batch) =
  Entry.batch_create ~day:b.Entry.day
    (Array.map
       (fun (p : Entry.posting) ->
         let e = p.Entry.entry in
         posting p.Entry.value (entry ~rid:e.Entry.rid ~day:e.Entry.day ~info:e.Entry.info ()))
       b.Entry.postings)

(* Batches that expire [days] through the day filter: the first names
   one posting more than each of [buckets] holds, so no bucket is a
   prefix to cut. *)
let filter_batches days buckets =
  match days with
  | [] -> []
  | d0 :: rest ->
    let over v es =
      if es = [||] then [||]
      else Array.init (Array.length es + 1) (fun i -> posting v (entry ~rid:(-1 - i) ~day:d0 ()))
    in
    Entry.batch_create ~day:d0 (Array.concat (Array.to_list (Array.mapi over buckets)))
    :: List.map (fun d -> Entry.batch_create ~day:d [||]) rest

let prop_expiry_matches_day_filter =
  QCheck2.Test.make ~name:"batch-directed expiry matches the day filter" ~count:300
    ~long_factor:10 ~print:print_expiry_case gen_expiry_case (fun c ->
      let rng = Random.State.make [| c.x_seed |] in
      let day_batch day =
        Entry.batch_create ~day
          (Array.init (1 + Random.State.int rng 6) (fun i ->
               let info = Random.State.int rng 1000 in
               posting (Random.State.int rng expiry_values)
                 (entry ~rid:((day * 100) + i) ~day ~info ())))
      in
      let batches = List.init c.x_days (fun i -> day_batch (i + 1)) in
      let order =
        match c.x_order with
        | `Ascending -> batches
        | `Descending -> List.rev batches
        | `Shuffled ->
          List.map (fun b -> (Random.State.bits rng, b)) batches
          |> List.sort compare |> List.map snd
      in
      let adds =
        if c.x_twice then order @ [ List.nth order (Random.State.int rng c.x_days) ]
        else order
      in
      let days =
        match c.x_pick with
        | `Oldest -> [ 1 ]
        | `Middle -> [ (c.x_days + 1) / 2 ]
        | `Newest -> [ c.x_days ]
        | `Several -> List.filter (fun _ -> Random.State.bool rng) (List.init c.x_days succ)
        | `Absent -> [ c.x_days + 7 ]
      in
      let expired d = List.mem d days in
      (* Once per add, as the contract asks; an absent day's batch names
         postings the index does not hold. *)
      let expire =
        List.filter (fun (b : Entry.batch) -> expired b.Entry.day) adds
        @ (if c.x_pick = `Absent then [ day_batch (c.x_days + 7) ] else [])
        |> List.map (fun b -> if c.x_fresh then fresh_records b else b)
      in
      let extra = day_batch (c.x_days + 1) in
      let d = Index.make_disk expiry_cfg and d' = Index.make_disk expiry_cfg in
      let idx = expiry_index c d adds and twin = expiry_index c d' adds in
      let before = Array.init expiry_values (Index.probe_bucket idx) in
      let contents = Array.map Array.copy before in
      Array.iteri (fun v _ -> ignore (Index.probe_bucket twin v)) before;
      let by_filter = filter_batches days before in
      let result, result' =
        if c.x_pack then
          ( Index.pack idx ~expire ~extra:[ extra ],
            Index.pack twin ~expire:by_filter ~extra:[ extra ] )
        else begin
          let n = Index.delete_days idx expire and n' = Index.delete_days twin by_filter in
          let want =
            Array.fold_left
              (Array.fold_left (fun a (e : Entry.t) -> if expired e.Entry.day then a + 1 else a))
              0 before
          in
          if n <> want || n' <> want then
            QCheck2.Test.fail_reportf "removed %d, twin %d, want %d" n n' want;
          (idx, twin)
        end
      in
      if Disk.counters d <> Disk.counters d' then
        QCheck2.Test.fail_reportf "charges %a against the day filter's %a" Disk.pp_counters
          (Disk.counters d) Disk.pp_counters (Disk.counters d');
      if Disk.live_blocks d <> Disk.live_blocks d' then
        QCheck2.Test.fail_report "allocations differ";
      Index.validate result;
      Index.validate result';
      for v = 0 to expiry_values - 1 do
        let kept =
          List.filter (fun (e : Entry.t) -> not (expired e.Entry.day)) (Array.to_list contents.(v))
        in
        let added =
          if c.x_pack then
            Array.to_list extra.Entry.postings
            |> List.filter_map (fun (p : Entry.posting) ->
                   if p.Entry.value = v then Some p.Entry.entry else None)
          else []
        in
        let got = Index.probe_bucket result v in
        if Array.to_list got <> kept @ added
           || Array.to_list (Index.probe_bucket result' v) <> kept @ added
        then QCheck2.Test.fail_reportf "value %d: wrong entries or order" v;
        (* Entry arrays are never edited in place, and a bucket that
           neither loses nor gains an entry keeps its array. *)
        if before.(v) <> contents.(v) then QCheck2.Test.fail_reportf "value %d: array edited" v;
        if kept <> [] && List.length kept = Array.length before.(v) && added = []
           && got != before.(v)
        then QCheck2.Test.fail_reportf "value %d: array not shared" v;
        if c.x_pack && Index.probe_bucket idx v != before.(v) then
          QCheck2.Test.fail_reportf "value %d: source changed" v
      done;
      Index.scan result = Index.scan result')

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "storage.entry",
      [
        Alcotest.test_case "batch day validation" `Quick test_batch_day_validation;
        Alcotest.test_case "group by value" `Quick test_group_by_value;
        Alcotest.test_case "group the int range's extremes" `Quick test_group_extremes;
      ]
      @ qcheck [ prop_group_matches_reference; prop_group_large ] );
    ( "storage.directory",
      [
        Alcotest.test_case "bplus roundtrip" `Quick test_directory_roundtrip;
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
      @ qcheck [ prop_index_matches_model; prop_expiry_matches_day_filter ] );
  ]
