(* Edge-case coverage: frame operations, index corner cases,
   manifest-driven CLI-level flows. *)

open Wave_core
open Wave_storage

let store day =
  Entry.batch_create ~day
    (Array.init 6 (fun i ->
         {
           Entry.value = 1 + ((day * (i + 1)) mod 7);
           entry = { Entry.rid = (day * 100) + i; day; info = i };
         }))

(* --- Frame ---------------------------------------------------------- *)

let test_frame_find_slot_missing () =
  let env = Env.create ~store ~w:4 ~n:2 () in
  let s = Scheme.start Scheme.Del env in
  Alcotest.check_raises "missing day" Not_found (fun () ->
      ignore (Frame.find_slot_with_day (Scheme.frame s) 99))

let test_frame_covered_and_length () =
  let env = Env.create ~store ~w:6 ~n:3 () in
  let s = Scheme.start Scheme.Del env in
  let f = Scheme.frame s in
  Alcotest.(check int) "length" 6 (Frame.length f);
  Alcotest.(check bool) "covered = 1..6" true
    (Dayset.equal (Frame.covered_days f) (Dayset.range 1 6))

let test_frame_slot_bounds () =
  let env = Env.create ~store ~w:4 ~n:2 () in
  let s = Scheme.start Scheme.Del env in
  Alcotest.check_raises "slot 0" (Invalid_argument "Frame: slot 0 out of range")
    (fun () -> ignore (Frame.slot_index (Scheme.frame s) 0));
  Alcotest.check_raises "slot 3" (Invalid_argument "Frame: slot 3 out of range")
    (fun () -> ignore (Frame.slot_index (Scheme.frame s) 3))

let test_probe_outside_window_empty () =
  let env = Env.create ~store ~w:4 ~n:2 () in
  let s = Scheme.start Scheme.Del env in
  Alcotest.(check (list int)) "no hits before day 1" []
    (List.map
       (fun (e : Entry.t) -> e.Entry.rid)
       (Frame.timed_index_probe (Scheme.frame s) ~t1:(-5) ~t2:0 ~value:1))

(* --- Index corner cases --------------------------------------------- *)

let cfg = Index.default_config

let test_empty_index_queries () =
  let d = Index.make_disk cfg in
  let idx = Index.create_empty d cfg in
  Alcotest.(check (list int)) "probe empty" []
    (List.map (fun (e : Entry.t) -> e.Entry.rid) (Index.probe idx 1));
  Alcotest.(check int) "scan empty" 0 (List.length (Index.scan idx));
  Alcotest.(check (list int)) "days empty" [] (Index.days idx);
  Index.validate idx

let test_index_config_validation () =
  let bad g = { cfg with Index.growth_factor = g } in
  Alcotest.(check bool) "g = 1.0 rejected" true
    (try
       ignore (Index.create_empty (Index.make_disk cfg) (bad 1.0));
       false
     with Index.Index_error _ -> true);
  let bad_min = { cfg with Index.min_alloc_entries = 0 } in
  Alcotest.(check bool) "min_alloc 0 rejected" true
    (try
       ignore (Index.create_empty (Index.make_disk cfg) bad_min);
       false
     with Index.Index_error _ -> true)

let test_add_empty_batch () =
  let d = Index.make_disk cfg in
  let idx = Index.create_empty d cfg in
  Index.add_batch idx (Entry.batch_create ~day:1 [||]);
  Alcotest.(check int) "still empty" 0 (Index.entry_count idx);
  Alcotest.(check bool) "still packed" true (Index.is_packed idx);
  Index.validate idx

let test_copy_empty_index () =
  let d = Index.make_disk cfg in
  let idx = Index.create_empty d cfg in
  let dup = Index.copy idx in
  Alcotest.(check int) "copy empty" 0 (Index.entry_count dup);
  Index.validate dup

(* --- Scheme misc ----------------------------------------------------- *)

let test_last_total_seconds_positive () =
  let env = Env.create ~store ~w:6 ~n:2 () in
  let s = Scheme.start Scheme.Reindex env in
  Scheme.transition s;
  Alcotest.(check bool) "total > 0" true (Scheme.last_total_seconds s > 0.0);
  Alcotest.(check bool) "transition <= total" true
    (Scheme.last_transition_seconds s <= Scheme.last_total_seconds s +. 1e-9)

let test_window_function () =
  let env = Env.create ~store ~w:5 ~n:2 () in
  let s = Scheme.start Scheme.Del env in
  Scheme.advance_to s 12;
  Alcotest.(check (list int)) "window 8..12" [ 8; 9; 10; 11; 12 ]
    (Dayset.elements (Scheme.window s))

let suites =
  [
    ( "misc.frame",
      [
        Alcotest.test_case "find_slot missing" `Quick test_frame_find_slot_missing;
        Alcotest.test_case "covered and length" `Quick test_frame_covered_and_length;
        Alcotest.test_case "slot bounds" `Quick test_frame_slot_bounds;
        Alcotest.test_case "probe outside window" `Quick test_probe_outside_window_empty;
      ] );
    ( "misc.index",
      [
        Alcotest.test_case "empty index queries" `Quick test_empty_index_queries;
        Alcotest.test_case "config validation" `Quick test_index_config_validation;
        Alcotest.test_case "add empty batch" `Quick test_add_empty_batch;
        Alcotest.test_case "copy empty" `Quick test_copy_empty_index;
      ] );
    ( "misc.scheme",
      [
        Alcotest.test_case "total seconds" `Quick test_last_total_seconds_positive;
        Alcotest.test_case "window" `Quick test_window_function;
      ] );
  ]
