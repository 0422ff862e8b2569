(* B+tree directory tests: unit cases plus model-based property tests
   against Stdlib.Map as the reference implementation. *)

open Wave_storage

module IntMap = Map.Make (Int)

let test_empty () =
  let t : int Btree.t = Btree.create () in
  Alcotest.(check int) "length" 0 (Btree.length t);
  Alcotest.(check bool) "is_empty" true (Btree.is_empty t);
  Alcotest.(check (option int)) "find" None (Btree.find t 5);
  Alcotest.(check bool) "remove" false (Btree.remove t 5);
  Alcotest.(check int) "height" 0 (Btree.height t);
  Btree.check_invariants t

let test_single () =
  let t = Btree.create () in
  Btree.insert t 42 "x";
  Alcotest.(check (option string)) "found" (Some "x") (Btree.find t 42);
  Alcotest.(check (option string)) "absent" None (Btree.find t 41);
  Alcotest.(check int) "length" 1 (Btree.length t);
  Btree.check_invariants t

let test_overwrite () =
  let t = Btree.create () in
  Btree.insert t 1 "a";
  Btree.insert t 1 "b";
  Alcotest.(check (option string)) "overwritten" (Some "b") (Btree.find t 1);
  Alcotest.(check int) "length still 1" 1 (Btree.length t);
  Btree.check_invariants t

let test_ascending_inserts () =
  let t = Btree.create ~order:4 () in
  for k = 1 to 1000 do
    Btree.insert t k (k * 2)
  done;
  Btree.check_invariants t;
  Alcotest.(check int) "length" 1000 (Btree.length t);
  for k = 1 to 1000 do
    if Btree.find t k <> Some (k * 2) then Alcotest.failf "missing key %d" k
  done;
  Alcotest.(check bool) "height > 1" true (Btree.height t > 1)

let test_descending_inserts () =
  let t = Btree.create ~order:4 () in
  for k = 1000 downto 1 do
    Btree.insert t k k
  done;
  Btree.check_invariants t;
  Alcotest.(check int) "length" 1000 (Btree.length t)

let test_iter_ordered () =
  let t = Btree.create ~order:5 () in
  let prng = Wave_util.Prng.create 31 in
  for _ = 1 to 500 do
    let k = Wave_util.Prng.int prng 10_000 in
    Btree.insert t k k
  done;
  let prev = ref min_int in
  Btree.iter t (fun k _ ->
      if k <= !prev then Alcotest.fail "iter out of order";
      prev := k)

let test_min_max () =
  let t = Btree.create () in
  Btree.insert t 5 "five";
  Btree.insert t 1 "one";
  Btree.insert t 9 "nine";
  Alcotest.(check (option (pair int string))) "min" (Some (1, "one"))
    (Btree.min_binding t);
  Alcotest.(check (option (pair int string))) "max" (Some (9, "nine"))
    (Btree.max_binding t)

let test_range () =
  let t = Btree.create ~order:4 () in
  for k = 0 to 99 do
    Btree.insert t (k * 2) k (* even keys 0..198 *)
  done;
  let r = Btree.range t ~lo:10 ~hi:20 in
  Alcotest.(check (list (pair int int)))
    "range [10,20]"
    [ (10, 5); (12, 6); (14, 7); (16, 8); (18, 9); (20, 10) ]
    r;
  Alcotest.(check (list (pair int int))) "empty range" [] (Btree.range t ~lo:201 ~hi:300);
  Alcotest.(check int) "full range" 100 (List.length (Btree.range t ~lo:min_int ~hi:max_int))

let test_remove_then_structure () =
  let t = Btree.create ~order:4 () in
  for k = 1 to 200 do
    Btree.insert t k k
  done;
  (* Remove every third key and re-verify after each step. *)
  let removed = ref 0 in
  for k = 1 to 200 do
    if k mod 3 = 0 then begin
      Alcotest.(check bool) "removed" true (Btree.remove t k);
      incr removed;
      Btree.check_invariants t
    end
  done;
  Alcotest.(check int) "length" (200 - !removed) (Btree.length t);
  for k = 1 to 200 do
    let expect = k mod 3 <> 0 in
    if Btree.mem t k <> expect then Alcotest.failf "membership wrong at %d" k
  done

let test_remove_all () =
  let t = Btree.create ~order:4 () in
  let keys = Array.init 300 (fun i -> i * 7 mod 301) in
  Array.iter (fun k -> Btree.insert t k k) keys;
  Array.iter
    (fun k ->
      ignore (Btree.remove t k);
      Btree.check_invariants t)
    keys;
  Alcotest.(check int) "empty after removing all" 0 (Btree.length t);
  Alcotest.(check bool) "is_empty" true (Btree.is_empty t)

let test_remove_absent () =
  let t = Btree.create () in
  Btree.insert t 1 "a";
  Alcotest.(check bool) "absent remove" false (Btree.remove t 2);
  Alcotest.(check int) "unchanged" 1 (Btree.length t)

let test_order_validation () =
  Alcotest.check_raises "too small order"
    (Invalid_argument "Btree.create: order must be >= 4") (fun () ->
      ignore (Btree.create ~order:3 () : unit Btree.t))

(* Model-based random testing: apply a random operation sequence to both
   the B+tree and a Map, compare observable behaviour, and validate
   structural invariants at the end. *)
type op = Insert of int * int | Remove of int | Find of int

let gen_ops =
  QCheck2.Gen.(
    let op =
      frequency
        [
          (5, map2 (fun k v -> Insert (k, v)) (int_range 0 400) small_int);
          (3, map (fun k -> Remove k) (int_range 0 400));
          (2, map (fun k -> Find k) (int_range 0 400));
        ]
    in
    list_size (int_range 0 600) op)

let run_model order ops =
  let t = Btree.create ~order () in
  let m = ref IntMap.empty in
  let ok = ref true in
  List.iter
    (fun op ->
      match op with
      | Insert (k, v) ->
        Btree.insert t k v;
        m := IntMap.add k v !m
      | Remove k ->
        let was = Btree.remove t k in
        let expect = IntMap.mem k !m in
        if was <> expect then ok := false;
        m := IntMap.remove k !m
      | Find k ->
        if Btree.find t k <> IntMap.find_opt k !m then ok := false)
    ops;
  Btree.check_invariants t;
  if Btree.length t <> IntMap.cardinal !m then ok := false;
  if Btree.to_list t <> IntMap.bindings !m then ok := false;
  !ok

let prop_model_order4 =
  QCheck2.Test.make ~name:"btree matches Map (order 4)" ~count:300 gen_ops
    (run_model 4)

let prop_model_order5 =
  QCheck2.Test.make ~name:"btree matches Map (order 5)" ~count:300 gen_ops
    (run_model 5)

let prop_model_order32 =
  QCheck2.Test.make ~name:"btree matches Map (order 32)" ~count:200 gen_ops
    (run_model 32)

let prop_range_matches_filter =
  QCheck2.Test.make ~name:"range = filtered bindings" ~count:300
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 200) (int_range 0 300))
        (int_range 0 300) (int_range 0 300))
    (fun (keys, a, b) ->
      let lo = min a b and hi = max a b in
      let t = Btree.create ~order:6 () in
      List.iter (fun k -> Btree.insert t k (k * 3)) keys;
      let expect =
        List.sort_uniq compare keys
        |> List.filter (fun k -> k >= lo && k <= hi)
        |> List.map (fun k -> (k, k * 3))
      in
      Btree.range t ~lo ~hi = expect)

(* Ascending keys with random gaps, built once by [insert] and once by
   [add_last]: the same bindings, height and invariants, one
   [btree.inserts] per key, and the same search path (node ids
   included) for every key and for keys below, between and above
   them.  A key not above the maximum is refused and changes nothing. *)
let prop_add_last_matches_insert =
  QCheck2.Test.make ~name:"add_last builds the tree ascending inserts build"
    ~count:100
    ~print:QCheck2.Print.(triple int int (list int))
    QCheck2.Gen.(
      triple (int_range 4 64) (int_range (-1000) 1000)
        (list_size (int_range 0 3000) (int_range 1 4)))
    (fun (order, first, gaps) ->
      let keys =
        List.fold_left (fun (k, acc) g -> (k + g, (k + g) :: acc)) (first, []) gaps
        |> snd |> List.rev
      in
      let by_insert = Btree.create ~order () and by_add = Btree.create ~order () in
      List.iter (fun k -> Btree.insert by_insert k (k * 3)) keys;
      let inserts = Wave_obs.Metrics.counter "btree.inserts" in
      let before = Wave_obs.Metrics.counter_value inserts in
      List.iter (fun k -> Btree.add_last by_add k (k * 3)) keys;
      let counted = Wave_obs.Metrics.counter_value inserts -. before in
      Btree.check_invariants by_add;
      let top = List.fold_left max min_int keys in
      let refused k =
        match Btree.add_last by_add k 0 with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      let same_path k = Btree.search_path by_insert k = Btree.search_path by_add k in
      (* Called last in the chain below, after the refusals ran: a
         refused [add_last] changed neither the bindings nor the count. *)
      let unchanged_after_refusals () =
        Btree.to_list by_add = Btree.to_list by_insert
        && Wave_obs.Metrics.counter_value inserts -. before = counted
      in
      counted = float_of_int (List.length keys)
      && Btree.to_list by_add = Btree.to_list by_insert
      && Btree.height by_add = Btree.height by_insert
      && List.for_all (fun k -> same_path (k - 1) && same_path k && same_path (k + 1)) keys
      && same_path (first - 5) && same_path (top + 5)
      && (match keys with
         | [] -> true
         | least :: _ -> refused top && refused least && refused (least - 1))
      && unchanged_after_refusals ())

(* [clear] empties the tree at once, counts one removal per key, and
   nodes made afterwards get ids no earlier node had. *)
let test_clear () =
  let t = Btree.create ~order:4 () in
  for k = 1 to 500 do
    Btree.insert t (k * 7) k
  done;
  let max_id () =
    Btree.fold t ~init:0 ~f:(fun m k _ ->
        List.fold_left max m (Btree.search_path t k))
  in
  let old_max = max_id () in
  let removes = Wave_obs.Metrics.counter "btree.removes" in
  let before = Wave_obs.Metrics.counter_value removes in
  Btree.clear t;
  Alcotest.(check (float 0.)) "one removal per key" 500.0
    (Wave_obs.Metrics.counter_value removes -. before);
  Alcotest.(check int) "length" 0 (Btree.length t);
  Alcotest.(check bool) "is_empty" true (Btree.is_empty t);
  Alcotest.(check int) "height" 0 (Btree.height t);
  Alcotest.(check (option int)) "find" None (Btree.find t 7);
  Alcotest.(check (list (pair int int))) "no bindings" [] (Btree.to_list t);
  Btree.check_invariants t;
  for k = 1 to 200 do
    Btree.insert t k (k * 2)
  done;
  Btree.check_invariants t;
  Alcotest.(check int) "refilled" 200 (Btree.length t);
  Alcotest.(check (option int)) "new binding" (Some 14) (Btree.find t 7);
  Btree.iter t (fun k _ ->
      List.iter
        (fun id ->
          if id <= old_max then Alcotest.failf "key %d: node id %d reused" k id)
        (Btree.search_path t k))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "storage.btree",
      [
        Alcotest.test_case "empty" `Quick test_empty;
        Alcotest.test_case "single" `Quick test_single;
        Alcotest.test_case "overwrite" `Quick test_overwrite;
        Alcotest.test_case "ascending inserts" `Quick test_ascending_inserts;
        Alcotest.test_case "descending inserts" `Quick test_descending_inserts;
        Alcotest.test_case "iter ordered" `Quick test_iter_ordered;
        Alcotest.test_case "min/max" `Quick test_min_max;
        Alcotest.test_case "range" `Quick test_range;
        Alcotest.test_case "remove keeps structure" `Quick test_remove_then_structure;
        Alcotest.test_case "remove all" `Quick test_remove_all;
        Alcotest.test_case "remove absent" `Quick test_remove_absent;
        Alcotest.test_case "order validation" `Quick test_order_validation;
        Alcotest.test_case "clear" `Quick test_clear;
      ]
      @ qcheck
          [
            prop_model_order4;
            prop_model_order5;
            prop_model_order32;
            prop_range_matches_filter;
            prop_add_last_matches_insert;
          ] );
  ]
