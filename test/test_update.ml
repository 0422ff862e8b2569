(* Direct tests of the Update operations (the paper's BuildIndex /
   AddToIndex / DeleteFromIndex under each technique), plus consistency
   properties relating probes and scans, and multi-disk round-robin
   placement. *)

open Wave_core
open Wave_storage

let store day =
  Entry.batch_create ~day
    (Array.init 7 (fun i ->
         {
           Entry.value = 1 + ((day + (2 * i)) mod 5);
           entry = { Entry.rid = (day * 100) + i; day; info = i };
         }))

let env technique = Env.create ~technique ~store ~w:8 ~n:2 ()

let sorted es = List.sort Entry.compare es

(* All three techniques produce semantically identical indexes from the
   same operation sequence; only layout and cost differ. *)
let test_update_semantic_equivalence () =
  let run technique =
    let env = env technique in
    let idx = Update.build_days env [ 1; 2; 3 ] in
    let idx = Update.add_days env idx [ 4; 5 ] in
    let replace idx ~expire ~add =
      Update.complete_replace env (Update.prepare_replace env idx ~expire) ~add
    in
    let idx = replace idx ~expire:[ 1; 2 ] ~add:[] in
    let idx = replace idx ~expire:[ 3 ] ~add:[ 6 ] in
    Index.validate idx;
    (sorted (Index.scan idx), Index.days idx, Index.is_packed idx)
  in
  let ip, ip_days, ip_packed = run Env.In_place in
  let ss, ss_days, ss_packed = run Env.Simple_shadow in
  let ps, ps_days, ps_packed = run Env.Packed_shadow in
  Alcotest.(check (list int)) "days" [ 4; 5; 6 ] ip_days;
  Alcotest.(check bool) "ip = ss" true (List.equal Entry.equal ip ss);
  Alcotest.(check bool) "ip = ps" true (List.equal Entry.equal ip ps);
  Alcotest.(check bool) "same day sets" true (ip_days = ss_days && ss_days = ps_days);
  (* layouts differ exactly as the paper says *)
  Alcotest.(check bool) "in-place unpacked" false ip_packed;
  Alcotest.(check bool) "simple shadow unpacked" false ss_packed;
  Alcotest.(check bool) "packed shadow packed" true ps_packed

let test_update_build_always_packed () =
  List.iter
    (fun technique ->
      let idx = Update.build_days (env technique) [ 1; 2 ] in
      Alcotest.(check bool) "packed" true (Index.is_packed idx))
    [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ]

let test_prepare_add_no_deletes_needed () =
  (* prepare_add works even under the legacy constraint. *)
  let env =
    Env.create ~technique:Env.Simple_shadow ~allow_deletes:false ~store ~w:8
      ~n:2 ()
  in
  let idx = Update.build_days env [ 1 ] in
  let pending = Update.prepare_add env idx in
  let idx = Update.complete_replace env pending ~add:[ 2 ] in
  Alcotest.(check (list int)) "days" [ 1; 2 ] (Index.days idx)

let test_prepare_replace_respects_legacy () =
  let env =
    Env.create ~technique:Env.In_place ~allow_deletes:false ~store ~w:8 ~n:2 ()
  in
  let idx = Update.build_days env [ 1 ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Update.prepare_replace env idx ~expire:[ 1 ]);
       false
     with Update.Deletes_not_supported _ -> true)

(* Scan must equal the concatenation of probes over every live value. *)
let prop_scan_equals_probes =
  QCheck2.Test.make ~name:"scan = union of probes" ~count:60
    QCheck2.Gen.(pair (int_range 0 2) (int_range 8 16))
    (fun (tech_i, w) ->
      let technique =
        List.nth [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ] tech_i
      in
      let env = Env.create ~technique ~store ~w ~n:2 () in
      let s = Scheme.start Scheme.Del env in
      Scheme.advance_to s (w + 5);
      let frame = Scheme.frame s in
      let by_scan = sorted (Frame.segment_scan frame) in
      let by_probes =
        List.concat_map
          (fun v -> Frame.index_probe frame ~value:v)
          [ 1; 2; 3; 4; 5 ]
        |> sorted
      in
      List.equal Entry.equal by_scan by_probes)

(* Timed probes partition by day ranges. *)
let prop_timed_probe_partitions =
  QCheck2.Test.make ~name:"timed probes partition the window" ~count:60
    QCheck2.Gen.(pair (int_range 8 14) (int_range 1 5))
    (fun (w, v) ->
      let env = Env.create ~store ~w ~n:3 () in
      let s = Scheme.start Scheme.Wata_star env in
      Scheme.advance_to s (w + 6);
      let d = Scheme.current_day s in
      let frame = Scheme.frame s in
      let mid = d - (w / 2) in
      let left = Frame.timed_index_probe frame ~t1:(d - w + 1) ~t2:mid ~value:v in
      let right = Frame.timed_index_probe frame ~t1:(mid + 1) ~t2:d ~value:v in
      let whole = Frame.timed_index_probe frame ~t1:(d - w + 1) ~t2:d ~value:v in
      List.length left + List.length right = List.length whole
      && List.equal Entry.equal (sorted (left @ right)) (sorted whole))

(* Multi-disk: more constituents than disks -> round-robin placement
   still covers the window and still beats one disk. *)
let test_multidisk_round_robin () =
  let m = Wave_sim.Multi_disk.create ~store ~w:12 ~n:6 ~disks:2 () in
  Alcotest.(check int) "disks" 2 (Wave_sim.Multi_disk.n_disks m);
  Alcotest.(check int) "constituents" 6 (Wave_sim.Multi_disk.n_constituents m);
  for _ = 1 to 6 do
    ignore (Wave_sim.Multi_disk.advance m)
  done;
  let entries, t = Wave_sim.Multi_disk.scan m in
  let days =
    List.sort_uniq compare (List.map (fun (e : Entry.t) -> e.Entry.day) entries)
  in
  Alcotest.(check int) "12 days covered" 12 (List.length days);
  Alcotest.(check bool) "some parallelism" true
    (Wave_model.Parallel.serial t > 1.2 *. Wave_model.Parallel.elapsed t)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "core.update",
      [
        Alcotest.test_case "semantic equivalence" `Quick
          test_update_semantic_equivalence;
        Alcotest.test_case "build always packed" `Quick test_update_build_always_packed;
        Alcotest.test_case "prepare_add under legacy" `Quick
          test_prepare_add_no_deletes_needed;
        Alcotest.test_case "prepare_replace respects legacy" `Quick
          test_prepare_replace_respects_legacy;
      ]
      @ qcheck [ prop_scan_equals_probes; prop_timed_probe_partitions ] );
    ( "ext.multidisk_rr",
      [ Alcotest.test_case "round robin" `Quick test_multidisk_round_robin ] );
  ]
