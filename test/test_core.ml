(* Core wave-index tests: the paper's example tables reproduced
   transition-by-transition (golden traces), window invariants for all
   six schemes under all three update techniques, cross-scheme query
   equivalence, and disk-space accounting. *)

open Wave_core
open Wave_storage

(* Deterministic day store for tests: each day produces [per_day]
   postings over a small value universe, derived from the day number. *)
let make_store ?(values = 10) ?(per_day = 6) () =
  let cache = Hashtbl.create 64 in
  fun day ->
    match Hashtbl.find_opt cache day with
    | Some b -> b
    | None ->
      let prng = Wave_util.Prng.create ((day * 7919) + 17) in
      let postings =
        Array.init per_day (fun i ->
            {
              Entry.value = 1 + Wave_util.Prng.int prng values;
              entry = { Entry.rid = (day * 1000) + i; day; info = i };
            })
      in
      let b = Entry.batch_create ~day postings in
      Hashtbl.add cache day b;
      b

let make_env ?(technique = Env.In_place) ?per_day ~w ~n () =
  Env.create ~technique ~store:(make_store ?per_day ()) ~w ~n ()

(* ------------------------------------------------------------------ *)
(* Split                                                              *)
(* ------------------------------------------------------------------ *)

let test_split_even () =
  Alcotest.(check (list (pair int int)))
    "10 over 2"
    [ (1, 5); (6, 10) ]
    (Split.contiguous ~first_day:1 ~days:10 ~parts:2)

let test_split_uneven () =
  Alcotest.(check (list int)) "10 over 4" [ 3; 3; 2; 2 ] (Split.sizes ~days:10 ~parts:4);
  Alcotest.(check (list (pair int int)))
    "ranges"
    [ (1, 3); (4, 6); (7, 8); (9, 10) ]
    (Split.contiguous ~first_day:1 ~days:10 ~parts:4)

let test_split_singletons () =
  Alcotest.(check (list int)) "5 over 5" [ 1; 1; 1; 1; 1 ] (Split.sizes ~days:5 ~parts:5)

let prop_split_covers =
  QCheck2.Test.make ~name:"split covers range exactly" ~count:300
    QCheck2.Gen.(pair (int_range 1 60) (int_range 1 60))
    (fun (days, parts) ->
      QCheck2.assume (parts <= days);
      let ranges = Split.contiguous ~first_day:1 ~days ~parts in
      let covered =
        List.concat_map (fun (lo, hi) -> List.init (hi - lo + 1) (fun k -> lo + k)) ranges
      in
      covered = List.init days (fun i -> i + 1)
      && List.length ranges = parts
      &&
      let sizes = List.map (fun (lo, hi) -> hi - lo + 1) ranges in
      List.for_all (fun s -> abs (s - (days / parts)) <= 1) sizes)

(* ------------------------------------------------------------------ *)
(* Dayset                                                             *)
(* ------------------------------------------------------------------ *)

let test_dayset_range () =
  Alcotest.(check (list int)) "range" [ 3; 4; 5 ] (Dayset.elements (Dayset.range 3 5));
  Alcotest.(check bool) "empty" true (Dayset.is_empty (Dayset.range 5 3))

let test_dayset_contiguous () =
  Alcotest.(check bool) "contiguous" true (Dayset.is_contiguous (Dayset.range 2 7));
  Alcotest.(check bool) "gap" false
    (Dayset.is_contiguous (Dayset.of_int_list [ 1; 3 ]));
  Alcotest.(check bool) "empty contiguous" true (Dayset.is_contiguous Dayset.empty)

let test_dayset_pp () =
  Alcotest.(check string) "pp" "{d2, d3}" (Dayset.to_string (Dayset.range 2 3))

(* ------------------------------------------------------------------ *)
(* Golden traces (the paper's Tables 1-7)                             *)
(* ------------------------------------------------------------------ *)

let slots_of frame =
  List.init (Frame.n frame) (fun i ->
      Dayset.elements (Frame.slot_days frame (i + 1)))

let check_trace name scheme_kind ~w ~n expected =
  (* [expected] is a list of (day, slot day-lists). *)
  let env = make_env ~w ~n () in
  let s = Scheme.start scheme_kind env in
  List.iter
    (fun (day, slots) ->
      Scheme.advance_to s day;
      Alcotest.(check (list (list int)))
        (Printf.sprintf "%s day %d" name day)
        slots
        (slots_of (Scheme.frame s));
      Scheme.check_window_invariant s;
      Frame.validate (Scheme.frame s))
    expected

(* Table 1: DEL, W = 10, n = 2. *)
let test_table1_del () =
  check_trace "table1" Scheme.Del ~w:10 ~n:2
    [
      (10, [ [ 1; 2; 3; 4; 5 ]; [ 6; 7; 8; 9; 10 ] ]);
      (11, [ [ 2; 3; 4; 5; 11 ]; [ 6; 7; 8; 9; 10 ] ]);
      (12, [ [ 3; 4; 5; 11; 12 ]; [ 6; 7; 8; 9; 10 ] ]);
      (15, [ [ 11; 12; 13; 14; 15 ]; [ 6; 7; 8; 9; 10 ] ]);
      (16, [ [ 11; 12; 13; 14; 15 ]; [ 7; 8; 9; 10; 16 ] ]);
    ]

(* Table 2: REINDEX has the same time-set evolution as DEL. *)
let test_table2_reindex () =
  check_trace "table2" Scheme.Reindex ~w:10 ~n:2
    [
      (10, [ [ 1; 2; 3; 4; 5 ]; [ 6; 7; 8; 9; 10 ] ]);
      (11, [ [ 2; 3; 4; 5; 11 ]; [ 6; 7; 8; 9; 10 ] ]);
      (14, [ [ 5; 11; 12; 13; 14 ]; [ 6; 7; 8; 9; 10 ] ]);
      (16, [ [ 11; 12; 13; 14; 15 ]; [ 7; 8; 9; 10; 16 ] ]);
    ]

(* REINDEX rebuilds leave every constituent packed. *)
let test_reindex_stays_packed () =
  let env = make_env ~w:10 ~n:2 () in
  let s = Scheme.start Scheme.Reindex env in
  for _ = 1 to 12 do
    Scheme.transition s;
    for j = 1 to 2 do
      Alcotest.(check bool) "packed" true
        (Index.is_packed (Frame.slot_index (Scheme.frame s) j))
    done
  done

(* Table 3: WATA, W = 10, n = 4. *)
let test_table3_wata () =
  check_trace "table3" Scheme.Wata_star ~w:10 ~n:4
    [
      (10, [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ]; [ 10 ] ]);
      (11, [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ]; [ 10; 11 ] ]);
      (12, [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ]; [ 10; 11; 12 ] ]);
      (13, [ [ 13 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ]; [ 10; 11; 12 ] ]);
      (14, [ [ 13; 14 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ]; [ 10; 11; 12 ] ]);
    ]

(* Table 5: REINDEX+, W = 10, n = 2, including the Temp column. *)
let test_table5_reindex_plus () =
  let env = make_env ~w:10 ~n:2 () in
  let s = Reindex_plus.start env in
  let check day slots temp =
    while Reindex_plus.current_day s < day do
      Reindex_plus.transition s
    done;
    Alcotest.(check (list (list int)))
      (Printf.sprintf "slots day %d" day)
      slots
      (slots_of (Reindex_plus.frame s));
    Alcotest.(check (list int))
      (Printf.sprintf "temp day %d" day)
      temp
      (Dayset.elements (Reindex_plus.temp_days s))
  in
  check 10 [ [ 1; 2; 3; 4; 5 ]; [ 6; 7; 8; 9; 10 ] ] [];
  check 11 [ [ 2; 3; 4; 5; 11 ]; [ 6; 7; 8; 9; 10 ] ] [ 11 ];
  check 12 [ [ 3; 4; 5; 11; 12 ]; [ 6; 7; 8; 9; 10 ] ] [ 11; 12 ];
  check 13 [ [ 4; 5; 11; 12; 13 ]; [ 6; 7; 8; 9; 10 ] ] [ 11; 12; 13 ];
  check 14 [ [ 5; 11; 12; 13; 14 ]; [ 6; 7; 8; 9; 10 ] ] [ 11; 12; 13; 14 ];
  check 15 [ [ 11; 12; 13; 14; 15 ]; [ 6; 7; 8; 9; 10 ] ] [];
  check 16 [ [ 11; 12; 13; 14; 15 ]; [ 7; 8; 9; 10; 16 ] ] [ 16 ]

(* Table 6: REINDEX++, W = 10, n = 2, including the temporaries. *)
let test_table6_reindex_pp () =
  let env = make_env ~w:10 ~n:2 () in
  let s = Reindex_pp.start env in
  let check day slots temps =
    while Reindex_pp.current_day s < day do
      Reindex_pp.transition s
    done;
    Alcotest.(check (list (list int)))
      (Printf.sprintf "slots day %d" day)
      slots
      (slots_of (Reindex_pp.frame s));
    Alcotest.(check (list (list int)))
      (Printf.sprintf "temps day %d" day)
      temps
      (List.map Dayset.elements (Reindex_pp.temps_days s))
  in
  check 10
    [ [ 1; 2; 3; 4; 5 ]; [ 6; 7; 8; 9; 10 ] ]
    [ []; [ 5 ]; [ 4; 5 ]; [ 3; 4; 5 ]; [ 2; 3; 4; 5 ] ];
  check 11
    [ [ 2; 3; 4; 5; 11 ]; [ 6; 7; 8; 9; 10 ] ]
    [ []; [ 5 ]; [ 4; 5 ]; [ 3; 4; 5; 11 ] ];
  check 12
    [ [ 3; 4; 5; 11; 12 ]; [ 6; 7; 8; 9; 10 ] ]
    [ []; [ 5 ]; [ 4; 5; 11; 12 ] ];
  check 14 [ [ 5; 11; 12; 13; 14 ]; [ 6; 7; 8; 9; 10 ] ] [ [ 11; 12; 13; 14 ] ];
  check 15
    [ [ 11; 12; 13; 14; 15 ]; [ 6; 7; 8; 9; 10 ] ]
    [ []; [ 10 ]; [ 9; 10 ]; [ 8; 9; 10 ]; [ 7; 8; 9; 10 ] ];
  check 16
    [ [ 11; 12; 13; 14; 15 ]; [ 7; 8; 9; 10; 16 ] ]
    [ []; [ 10 ]; [ 9; 10 ]; [ 8; 9; 10; 16 ] ]

(* Table 7: RATA, W = 10, n = 4. *)
let test_table7_rata () =
  let env = make_env ~w:10 ~n:4 () in
  let s = Rata.start env in
  let check day slots temps =
    while Rata.current_day s < day do
      Rata.transition s
    done;
    Alcotest.(check (list (list int)))
      (Printf.sprintf "slots day %d" day)
      slots
      (slots_of (Rata.frame s));
    Alcotest.(check (list (list int)))
      (Printf.sprintf "temps day %d" day)
      temps
      (List.map Dayset.elements (Rata.temps_days s))
  in
  check 10 [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ]; [ 10 ] ] [ [ 3 ]; [ 2; 3 ] ];
  check 11 [ [ 2; 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ]; [ 10; 11 ] ] [ [ 3 ] ];
  check 12 [ [ 3 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ]; [ 10; 11; 12 ] ] [];
  check 13 [ [ 13 ]; [ 4; 5; 6 ]; [ 7; 8; 9 ]; [ 10; 11; 12 ] ] [ [ 6 ]; [ 5; 6 ] ];
  check 14 [ [ 13; 14 ]; [ 5; 6 ]; [ 7; 8; 9 ]; [ 10; 11; 12 ] ] [ [ 6 ] ]

(* ------------------------------------------------------------------ *)
(* Window invariants for all schemes x techniques                     *)
(* ------------------------------------------------------------------ *)

let techniques = [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ]

let run_invariant_check kind technique ~w ~n ~steps =
  let env = make_env ~technique ~w ~n () in
  let s = Scheme.start kind env in
  Scheme.check_window_invariant s;
  for _ = 1 to steps do
    Scheme.transition s;
    Scheme.check_window_invariant s;
    Frame.validate (Scheme.frame s)
  done;
  s

let test_invariants kind technique () =
  ignore (run_invariant_check kind technique ~w:10 ~n:3 ~steps:35)

let invariant_cases =
  List.concat_map
    (fun kind ->
      List.map
        (fun tech ->
          Alcotest.test_case
            (Printf.sprintf "%s / %s" (Scheme.name kind) (Env.technique_name tech))
            `Quick
            (test_invariants kind tech))
        techniques)
    Scheme.all

(* Property: invariants hold for random geometries. *)
let prop_window_invariants =
  QCheck2.Test.make ~name:"window invariants across geometries" ~count:60
    QCheck2.Gen.(
      tup4 (int_range 0 5) (int_range 2 14) (int_range 1 6) (int_range 0 2))
    (fun (kind_i, w, n, tech_i) ->
      let kind = List.nth Scheme.all kind_i in
      let n = max (Scheme.min_indexes kind) (min n w) in
      QCheck2.assume (n <= w);
      let technique = List.nth techniques tech_i in
      (try
         ignore (run_invariant_check kind technique ~w ~n ~steps:(2 * w));
         true
       with e ->
         Printf.eprintf "failure: %s w=%d n=%d %s: %s\n" (Scheme.name kind) w n
           (Env.technique_name technique) (Printexc.to_string e);
         false))

(* ------------------------------------------------------------------ *)
(* Query equivalence across schemes and techniques                    *)
(* ------------------------------------------------------------------ *)

let sorted = List.sort Entry.compare

let window_probe s value =
  let d = Scheme.current_day s in
  let w = (Scheme.env s).Env.w in
  sorted (Frame.timed_index_probe (Scheme.frame s) ~t1:(d - w + 1) ~t2:d ~value)

let window_scan s =
  let d = Scheme.current_day s in
  let w = (Scheme.env s).Env.w in
  sorted (Frame.timed_segment_scan (Scheme.frame s) ~t1:(d - w + 1) ~t2:d)

let test_query_equivalence () =
  let run kind technique =
    let env = make_env ~technique ~w:9 ~n:3 () in
    let s = Scheme.start kind env in
    Scheme.advance_to s 25;
    s
  in
  let reference = run Scheme.Del Env.In_place in
  let ref_scan = window_scan reference in
  Alcotest.(check bool) "reference scan non-empty" true (ref_scan <> []);
  List.iter
    (fun kind ->
      List.iter
        (fun technique ->
          let s = run kind technique in
          let label =
            Printf.sprintf "%s/%s" (Scheme.name kind) (Env.technique_name technique)
          in
          if window_scan s <> ref_scan then
            Alcotest.failf "%s: scan differs from reference" label;
          for v = 1 to 10 do
            if window_probe s v <> window_probe reference v then
              Alcotest.failf "%s: probe %d differs" label v
          done)
        techniques)
    Scheme.all

(* Untimed probes on WATA may return expired entries — the soft-window
   caveat the paper calls out. *)
let test_wata_soft_window_visible () =
  let env = make_env ~w:6 ~n:2 () in
  let s = Scheme.start Scheme.Wata_star env in
  (* Advance until some slot holds expired days. *)
  let rec go steps =
    if steps = 0 then ()
    else begin
      Scheme.transition s;
      let len = Frame.length (Scheme.frame s) in
      if len <= env.Env.w then go (steps - 1)
    end
  in
  go 20;
  let len = Frame.length (Scheme.frame s) in
  Alcotest.(check bool) "soft window retains expired days" true (len > env.Env.w);
  let all = Frame.segment_scan (Scheme.frame s) in
  let d = Scheme.current_day s in
  let has_expired =
    List.exists (fun (e : Entry.t) -> e.Entry.day <= d - env.Env.w) all
  in
  Alcotest.(check bool) "untimed scan sees expired entries" true has_expired

(* ------------------------------------------------------------------ *)
(* WATA length bound (Theorem 2)                                      *)
(* ------------------------------------------------------------------ *)

let test_wata_length_bound_tight () =
  (* The bound must be respected always and attained at least once. *)
  let w = 10 and n = 4 in
  let env = make_env ~w ~n () in
  let s = Scheme.start Scheme.Wata_star env in
  let bound = Wata.length_bound ~w ~n in
  let maxlen = ref 0 in
  for _ = 1 to 60 do
    Scheme.transition s;
    let len = Frame.length (Scheme.frame s) in
    if len > !maxlen then maxlen := len;
    if len > bound then Alcotest.failf "length %d exceeds bound %d" len bound
  done;
  Alcotest.(check int) "bound attained" bound !maxlen

(* Theorem 2 for every geometry with W <= 40: over three super-cycles
   WATA*'s longest wave reaches exactly [Wata.length_bound], which is
   the closed form [Formulas.theorem2_length_bound] — attained, not
   just respected. *)
let test_wata_length_bound_all_geometries () =
  for w = 2 to 40 do
    for n = 2 to w do
      let s = Scheme.start Scheme.Wata_star (make_env ~per_day:1 ~w ~n ()) in
      let longest = ref 0 in
      for _ = 1 to 3 * w do
        Scheme.transition s;
        longest := max !longest (Frame.length (Scheme.frame s))
      done;
      let bound = Wata.length_bound ~w ~n in
      if !longest <> bound
         || bound <> Wave_model.Formulas.theorem2_length_bound ~w ~n
      then
        Alcotest.failf "W=%d n=%d: longest %d, bound %d, closed form %d" w n
          !longest bound (Wave_model.Formulas.theorem2_length_bound ~w ~n)
    done
  done

(* ------------------------------------------------------------------ *)
(* Transition marks                                                   *)
(* ------------------------------------------------------------------ *)

(* REINDEX++ makes new data queryable after a single AddToIndex; its
   transition time must be well below REINDEX+'s, which re-adds up to
   W/n - 1 old days before swapping. *)
let test_transition_time_ordering () =
  let measure kind =
    let env = make_env ~w:12 ~n:2 () in
    let s = Scheme.start kind env in
    let total = ref 0.0 in
    let steps = 24 in
    for _ = 1 to steps do
      let before = Wave_disk.Disk.elapsed env.Env.disk in
      Scheme.transition s;
      total := !total +. (Scheme.last_mark s -. before)
    done;
    !total /. float_of_int steps
  in
  let t_pp = measure Scheme.Reindex_pp in
  let t_plus = measure Scheme.Reindex_plus in
  Alcotest.(check bool)
    (Printf.sprintf "REINDEX++ (%.4f) < REINDEX+ (%.4f)" t_pp t_plus)
    true (t_pp < t_plus)

(* ------------------------------------------------------------------ *)
(* Disk-space accounting                                              *)
(* ------------------------------------------------------------------ *)

(* Everything alive on the disk must be owned by the frame or by a
   scheme temporary: no leaks across transitions. *)
let test_no_disk_leaks kind technique () =
  let env = make_env ~technique ~w:8 ~n:(max 2 (Scheme.min_indexes kind)) () in
  let s = Scheme.start kind env in
  for _ = 1 to 30 do
    Scheme.transition s;
    let owned =
      Scheme.allocated_bytes s / env.Env.icfg.Index.entry_bytes
    in
    let live = Wave_disk.Disk.live_blocks env.Env.disk in
    if live <> owned then
      Alcotest.failf "leak: disk holds %d blocks, scheme owns %d" live owned
  done

let leak_cases =
  List.concat_map
    (fun kind ->
      List.map
        (fun tech ->
          Alcotest.test_case
            (Printf.sprintf "%s / %s" (Scheme.name kind) (Env.technique_name tech))
            `Quick
            (test_no_disk_leaks kind tech))
        techniques)
    Scheme.all

(* ------------------------------------------------------------------ *)
(* Scheme dispatch utilities                                          *)
(* ------------------------------------------------------------------ *)

let test_scheme_names () =
  List.iter
    (fun kind ->
      match Scheme.of_name (Scheme.name kind) with
      | Some k when k = kind -> ()
      | _ -> Alcotest.failf "name roundtrip failed for %s" (Scheme.name kind))
    Scheme.all;
  Alcotest.(check bool) "unknown" true (Scheme.of_name "nope" = None);
  Alcotest.(check bool) "wata alias" true (Scheme.of_name "wata" = Some Scheme.Wata_star)

let test_min_indexes_enforced () =
  let env = make_env ~w:10 ~n:1 () in
  Alcotest.check_raises "wata n=1" (Invalid_argument "Wata.start: WATA needs n >= 2")
    (fun () -> ignore (Scheme.start Scheme.Wata_star env));
  Alcotest.check_raises "rata n=1" (Invalid_argument "Rata.start: RATA needs n >= 2")
    (fun () -> ignore (Scheme.start Scheme.Rata_star env))

let test_env_validation () =
  Alcotest.check_raises "n > w" (Invalid_argument "Env.create: need n <= w")
    (fun () ->
      ignore (Env.create ~store:(make_store ()) ~w:3 ~n:4 ()));
  Alcotest.check_raises "n < 1" (Invalid_argument "Env.create: n must be >= 1")
    (fun () ->
      ignore (Env.create ~store:(make_store ()) ~w:3 ~n:0 ()))

(* Timed queries restricted to sub-ranges. *)
let test_timed_queries_subrange () =
  let env = make_env ~w:10 ~n:5 () in
  let s = Scheme.start Scheme.Del env in
  Scheme.advance_to s 20;
  let frame = Scheme.frame s in
  let full = sorted (Frame.timed_segment_scan frame ~t1:11 ~t2:20) in
  let first_half = Frame.timed_segment_scan frame ~t1:11 ~t2:15 in
  let second_half = Frame.timed_segment_scan frame ~t1:16 ~t2:20 in
  Alcotest.(check int) "halves partition the window" (List.length full)
    (List.length first_half + List.length second_half);
  List.iter
    (fun (e : Entry.t) ->
      if e.Entry.day < 11 || e.Entry.day > 15 then
        Alcotest.fail "first half out of range")
    first_half

(* Property: every scheme x technique serves the exact same windowed
   query results on random geometries — the maintenance strategy is
   invisible to (timed) queries. *)
let prop_query_equivalence_random_geometry =
  QCheck2.Test.make ~name:"windowed queries identical across schemes" ~count:25
    QCheck2.Gen.(triple (int_range 2 10) (int_range 2 4) small_int)
    (fun (w, n, seed) ->
      QCheck2.assume (n <= w);
      let mk kind technique =
        let store = make_store () in
        let env =
          Env.create ~technique
            ~store:(fun d -> store d)
            ~w ~n ()
        in
        ignore seed;
        let s = Scheme.start kind env in
        Scheme.advance_to s (w + 7 + (seed mod 5));
        s
      in
      let reference = mk Scheme.Del Env.In_place in
      let expect = window_scan reference in
      List.for_all
        (fun kind ->
          List.for_all
            (fun technique -> window_scan (mk kind technique) = expect)
            techniques)
        Scheme.all)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "core.split",
      [
        Alcotest.test_case "even" `Quick test_split_even;
        Alcotest.test_case "uneven" `Quick test_split_uneven;
        Alcotest.test_case "singletons" `Quick test_split_singletons;
      ]
      @ qcheck [ prop_split_covers ] );
    ( "core.dayset",
      [
        Alcotest.test_case "range" `Quick test_dayset_range;
        Alcotest.test_case "contiguous" `Quick test_dayset_contiguous;
        Alcotest.test_case "pp" `Quick test_dayset_pp;
      ] );
    ( "core.traces",
      [
        Alcotest.test_case "table 1 (DEL)" `Quick test_table1_del;
        Alcotest.test_case "table 2 (REINDEX)" `Quick test_table2_reindex;
        Alcotest.test_case "REINDEX stays packed" `Quick test_reindex_stays_packed;
        Alcotest.test_case "table 3 (WATA*)" `Quick test_table3_wata;
        Alcotest.test_case "table 5 (REINDEX+)" `Quick test_table5_reindex_plus;
        Alcotest.test_case "table 6 (REINDEX++)" `Quick test_table6_reindex_pp;
        Alcotest.test_case "table 7 (RATA*)" `Quick test_table7_rata;
      ] );
    ("core.invariants", invariant_cases @ qcheck [ prop_window_invariants ]);
    ( "core.queries",
      [
        Alcotest.test_case "equivalence across schemes" `Slow test_query_equivalence;
        Alcotest.test_case "WATA soft window visible" `Quick
          test_wata_soft_window_visible;
        Alcotest.test_case "timed queries subrange" `Quick test_timed_queries_subrange;
      ]
      @ qcheck [ prop_query_equivalence_random_geometry ] );
    ( "core.wata_bounds",
      [
        Alcotest.test_case "length bound tight" `Quick test_wata_length_bound_tight;
        Alcotest.test_case "WATA* length bound for all geometries" `Quick
          test_wata_length_bound_all_geometries;
      ] );
    ( "core.transitions",
      [ Alcotest.test_case "REINDEX++ faster than REINDEX+" `Quick
          test_transition_time_ordering ] );
    ("core.leaks", leak_cases);
    ( "core.misc",
      [
        Alcotest.test_case "scheme names" `Quick test_scheme_names;
        Alcotest.test_case "min indexes enforced" `Quick test_min_indexes_enforced;
        Alcotest.test_case "env validation" `Quick test_env_validation;
      ] );
  ]

