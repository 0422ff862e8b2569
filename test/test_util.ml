(* Tests for the wave_util substrate: PRNG determinism and uniformity,
   Zipf sampler correctness, statistics helpers, table rendering. *)

open Wave_util

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Prng                                                               *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 16 do
    if not (Int64.equal (Prng.int64 a) (Prng.int64 b)) then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_prng_copy_replays () =
  let a = Prng.create 7 in
  ignore (Prng.int64 a);
  let b = Prng.copy a in
  let xs = List.init 20 (fun _ -> Prng.int64 a) in
  let ys = List.init 20 (fun _ -> Prng.int64 b) in
  Alcotest.(check (list int64)) "copy replays" xs ys

let test_prng_split_independent () =
  let a = Prng.create 9 in
  let b = Prng.split a in
  let xs = Array.init 64 (fun _ -> Prng.int64 a) in
  let ys = Array.init 64 (fun _ -> Prng.int64 b) in
  let equal = Array.for_all2 Int64.equal xs ys in
  Alcotest.(check bool) "split stream differs" false equal

let test_prng_int_bounds () =
  let t = Prng.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.int t 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Prng.int out of bounds"
  done

let test_prng_int_in_bounds () =
  let t = Prng.create 4 in
  for _ = 1 to 10_000 do
    let v = Prng.int_in t (-5) 5 in
    if v < -5 || v > 5 then Alcotest.fail "Prng.int_in out of bounds"
  done

let test_prng_float_bounds () =
  let t = Prng.create 5 in
  for _ = 1 to 10_000 do
    let v = Prng.float t 2.5 in
    if v < 0.0 || v >= 2.5 then Alcotest.fail "Prng.float out of bounds"
  done

let test_prng_uniformity () =
  (* Chi-square over 16 cells, 160k draws: expect statistic well below the
     critical value ~37 (p=0.001, 15 dof) for a healthy generator. *)
  let t = Prng.create 123 in
  let counts = Array.make 16 0 in
  for _ = 1 to 160_000 do
    let v = Prng.int t 16 in
    counts.(v) <- counts.(v) + 1
  done;
  let chi = Stats.chi_square_uniform ~observed:counts in
  Alcotest.(check bool)
    (Printf.sprintf "chi-square %.2f < 37" chi)
    true (chi < 37.0)

let test_prng_shuffle_permutation () =
  let t = Prng.create 11 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_prng_gaussian_moments () =
  let t = Prng.create 13 in
  let xs = Array.init 50_000 (fun _ -> Prng.gaussian t ~mean:3.0 ~stddev:2.0) in
  let s = Stats.summarize xs in
  Alcotest.(check bool) "mean near 3" true (Float.abs (s.Stats.mean -. 3.0) < 0.05);
  Alcotest.(check bool) "stddev near 2" true (Float.abs (s.Stats.stddev -. 2.0) < 0.05)

let test_prng_exponential_mean () =
  let t = Prng.create 17 in
  let xs = Array.init 50_000 (fun _ -> Prng.exponential t ~rate:0.5) in
  let m = Stats.mean xs in
  Alcotest.(check bool) "mean near 2" true (Float.abs (m -. 2.0) < 0.1)

(* ------------------------------------------------------------------ *)
(* Zipf                                                               *)
(* ------------------------------------------------------------------ *)

let test_zipf_pmf_sums_to_one () =
  let z = Zipf.create ~n:1000 ~s:1.1 in
  let total = ref 0.0 in
  for k = 1 to 1000 do
    total := !total +. Zipf.pmf z k
  done;
  check_float "pmf sums to 1" 1.0 !total

let test_zipf_sample_in_range () =
  let z = Zipf.create ~n:100 ~s:1.0 in
  let t = Prng.create 21 in
  for _ = 1 to 10_000 do
    let k = Zipf.sample z t in
    if k < 1 || k > 100 then Alcotest.fail "Zipf sample out of range"
  done

let test_zipf_rank_ordering () =
  (* Empirical frequency of rank 1 should exceed rank 10 which should
     exceed rank 100 under s = 1. *)
  let z = Zipf.create ~n:1000 ~s:1.0 in
  let t = Prng.create 23 in
  let counts = Array.make 1001 0 in
  for _ = 1 to 200_000 do
    let k = Zipf.sample z t in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "rank1 > rank10" true (counts.(1) > counts.(10));
  Alcotest.(check bool) "rank10 > rank100" true (counts.(10) > counts.(100))

let test_zipf_matches_pmf () =
  let z = Zipf.create ~n:50 ~s:1.2 in
  let t = Prng.create 29 in
  let draws = 500_000 in
  let counts = Array.make 51 0 in
  for _ = 1 to draws do
    let k = Zipf.sample z t in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 1 to 10 do
    let expected = Zipf.pmf z k in
    let got = float_of_int counts.(k) /. float_of_int draws in
    if Float.abs (got -. expected) > 0.01 then
      Alcotest.failf "rank %d: empirical %.4f vs pmf %.4f" k got expected
  done

let test_zipf_uniform_degenerate () =
  let z = Zipf.create ~n:10 ~s:0.0 in
  for k = 1 to 10 do
    check_float "uniform pmf" 0.1 (Zipf.pmf z k)
  done

let test_zipf_expected_distinct_monotone () =
  let z = Zipf.create ~n:1000 ~s:1.0 in
  let d1 = Zipf.expected_distinct z 100 in
  let d2 = Zipf.expected_distinct z 1000 in
  let d3 = Zipf.expected_distinct z 10_000 in
  Alcotest.(check bool) "monotone in draws" true (d1 < d2 && d2 < d3);
  Alcotest.(check bool) "bounded by n" true (d3 <= 1000.0)

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_summary () =
  let s = Stats.summarize [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 s.Stats.mean;
  check_float "min" 1.0 s.Stats.min;
  check_float "max" 4.0 s.Stats.max;
  check_float "total" 10.0 s.Stats.total;
  check_float "stddev" (sqrt 1.25) s.Stats.stddev;
  Alcotest.(check int) "count" 4 s.Stats.count

let test_stats_empty_raises () =
  Alcotest.check_raises "empty summarize"
    (Invalid_argument "Stats.summarize: empty array") (fun () ->
      ignore (Stats.summarize [||]))

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  check_float "p0" 10.0 (Stats.percentile xs 0.0);
  check_float "p50" 30.0 (Stats.percentile xs 50.0);
  check_float "p100" 50.0 (Stats.percentile xs 100.0);
  check_float "p25" 20.0 (Stats.percentile xs 25.0);
  check_float "median" 30.0 (Stats.median xs)

let test_stats_percentile_interpolates () =
  let xs = [| 0.0; 10.0 |] in
  check_float "p50 interpolated" 5.0 (Stats.percentile xs 50.0)

let test_stats_histogram () =
  let xs = [| 0.0; 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0 |] in
  let h = Stats.histogram ~bins:5 xs in
  Alcotest.(check int) "bins" 5 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all samples binned" 10 total

let test_stats_histogram_degenerate () =
  (* Empty input: no bins rather than a confusing summarize error. *)
  Alcotest.(check int) "empty input -> no bins" 0
    (Array.length (Stats.histogram ~bins:4 [||]));
  (* Single element: range collapses; everything lands in the first bin. *)
  let h = Stats.histogram ~bins:3 [| 42.0 |] in
  Alcotest.(check int) "single: bins" 3 (Array.length h);
  let _, _, c0 = h.(0) in
  Alcotest.(check int) "single: first bin holds it" 1 c0;
  (* All-equal input: same collapse, all samples in the first bin. *)
  let h = Stats.histogram ~bins:4 [| 7.0; 7.0; 7.0; 7.0; 7.0 |] in
  let _, _, c0 = h.(0) in
  Alcotest.(check int) "all-equal: first bin holds all" 5 c0;
  Array.iteri
    (fun i (_, _, c) -> if i > 0 then Alcotest.(check int) "other bins empty" 0 c)
    h;
  Alcotest.check_raises "bins must be positive"
    (Invalid_argument "Stats.histogram: bins must be positive") (fun () ->
      ignore (Stats.histogram ~bins:0 [| 1.0 |]))

let test_stats_percentile_degenerate () =
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 50.0));
  (* Single element: every percentile is that element. *)
  check_float "single p0" 3.5 (Stats.percentile [| 3.5 |] 0.0);
  check_float "single p50" 3.5 (Stats.percentile [| 3.5 |] 50.0);
  check_float "single p100" 3.5 (Stats.percentile [| 3.5 |] 100.0);
  (* All-equal: interpolation between equal ranks stays put. *)
  let xs = [| 2.0; 2.0; 2.0; 2.0 |] in
  check_float "all-equal p37" 2.0 (Stats.percentile xs 37.0);
  check_float "all-equal p99" 2.0 (Stats.percentile xs 99.0);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Stats.percentile xs 101.0))

let test_stats_ratio () =
  check_float "ratio" 0.75 (Stats.ratio 3.0 4.0);
  check_float "zero denominator -> 0" 0.0 (Stats.ratio 5.0 0.0);
  check_float "zero over zero -> 0" 0.0 (Stats.ratio 0.0 0.0);
  check_float "negative numerator passes through" (-2.0) (Stats.ratio (-4.0) 2.0);
  check_float "safe_div is ratio" (Stats.ratio 9.0 2.0) (Stats.safe_div 9.0 2.0)

let test_stats_regression () =
  let pts = Array.init 10 (fun i -> (float_of_int i, (3.0 *. float_of_int i) +. 1.0)) in
  let slope, intercept = Stats.linear_regression pts in
  check_float "slope" 3.0 slope;
  check_float "intercept" 1.0 intercept

let test_stats_ratio_series () =
  let r = Stats.ratio_series [| 2.0; 9.0 |] [| 1.0; 3.0 |] in
  Alcotest.(check (array (float 1e-9))) "ratios" [| 2.0; 3.0 |] r

(* ------------------------------------------------------------------ *)
(* Table_print                                                        *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let out =
    Table_print.render ~header:[ "a"; "b" ]
      ~rows:[ [ "1"; "22" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length out > 0 && String.sub out 0 1 = "a");
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + rule + 2 rows (+ trailing)" 5 (List.length lines)

let test_table_arity_mismatch () =
  Alcotest.check_raises "row arity"
    (Invalid_argument "Table_print.render: row arity mismatch") (fun () ->
      ignore (Table_print.render ~header:[ "a" ] ~rows:[ [ "1"; "2" ] ]))

let test_series_render () =
  let out =
    Table_print.render_series ~title:"fig" ~x_label:"n"
      ~series:
        [ ("s1", [ (1.0, 2.0); (2.0, 4.0) ]); ("s2", [ (1.0, 3.0); (2.0, 6.0) ]) ]
  in
  Alcotest.(check bool) "has title" true
    (String.length out > 5 && String.sub out 0 5 = "# fig")

let test_series_grid_mismatch () =
  Alcotest.check_raises "grid mismatch"
    (Invalid_argument
       "Table_print.render_series: series \"s2\" has a different x grid")
    (fun () ->
      ignore
        (Table_print.render_series ~title:"t" ~x_label:"x"
           ~series:[ ("s1", [ (1.0, 2.0) ]); ("s2", [ (3.0, 4.0) ]) ]))

let test_float_cell () =
  Alcotest.(check string) "integer" "3" (Table_print.float_cell 3.0);
  Alcotest.(check string) "fraction" "3.25" (Table_print.float_cell 3.25)

(* ------------------------------------------------------------------ *)
(* Property tests                                                     *)
(* ------------------------------------------------------------------ *)

let prop_prng_int_in_range =
  QCheck2.Test.make ~name:"prng int always in [0, bound)" ~count:500
    QCheck2.Gen.(pair small_int (int_range 1 10_000))
    (fun (seed, bound) ->
      let t = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Prng.int t bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

let prop_zipf_sample_in_range =
  QCheck2.Test.make ~name:"zipf sample in [1, n]" ~count:200
    QCheck2.Gen.(triple small_int (int_range 1 500) (float_range 0.0 2.5))
    (fun (seed, n, s) ->
      let z = Zipf.create ~n ~s in
      let t = Prng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let k = Zipf.sample z t in
        if k < 1 || k > n then ok := false
      done;
      !ok)

let prop_percentile_bounded =
  QCheck2.Test.make ~name:"percentile within [min, max]" ~count:300
    QCheck2.Gen.(
      pair
        (array_size (int_range 1 50) (float_range (-1000.0) 1000.0))
        (float_range 0.0 100.0))
    (fun (xs, p) ->
      let v = Stats.percentile xs p in
      let s = Stats.summarize xs in
      v >= s.Stats.min -. 1e-9 && v <= s.Stats.max +. 1e-9)

(* --- CRC-32 ------------------------------------------------------------ *)

let test_crc32_known_answer () =
  Alcotest.(check int) "CRC-32 check value" 0xCBF43926
    (Crc32.string "123456789" ~off:0 ~len:9);
  Alcotest.(check int) "sub-range" 0xCBF43926
    (Crc32.bytes (Bytes.of_string "xx123456789y") ~off:2 ~len:9);
  Alcotest.(check int) "empty" 0 (Crc32.string "" ~off:0 ~len:0);
  Alcotest.check_raises "range outside the buffer"
    (Invalid_argument "Crc32: range outside the buffer") (fun () ->
      ignore (Crc32.string "abc" ~off:2 ~len:2));
  Alcotest.check_raises "field with 9 bytes after"
    (Invalid_argument "Crc32.field: after outside [0, 8]") (fun () ->
      ignore (Crc32.field Crc32.init 1 ~after:9));
  Alcotest.check_raises "negative zeros" (Invalid_argument "Crc32.zeros: negative length")
    (fun () -> ignore (Crc32.zeros Crc32.init (-1)))

(* Bit at a time, straight from the reflected polynomial: no table. *)
let crc32_reference s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun c ->
      crc := !crc lxor Char.code c;
      for _ = 0 to 7 do
        crc := if !crc land 1 = 1 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
      done)
    s;
  !crc lxor 0xFFFFFFFF

(* [a] and [b] (0-100 bytes each) sit at random offsets inside larger
   buffers, so every alignment of the 8-byte steps and every tail
   length is reached. *)
let prop_crc32_update_matches_reference =
  let piece =
    QCheck2.Gen.(triple (string_size (int_range 0 100)) (int_range 0 9) (int_range 0 9))
  in
  QCheck2.Test.make ~name:"update/finish = bytes = bitwise reference" ~count:500
    ~long_factor:10
    QCheck2.Gen.(pair piece piece)
    (fun ((a, pa, qa), (b, pb, qb)) ->
      let embed s pre post =
        Bytes.of_string (String.make pre '\xA5' ^ s ^ String.make post '\x5A')
      in
      let ba = embed a pa qa and bb = embed b pb qb in
      let streamed =
        Crc32.finish
          (Crc32.update
             (Crc32.update Crc32.init ba ~off:pa ~len:(String.length a))
             bb ~off:pb ~len:(String.length b))
      in
      let ab = embed (a ^ b) pa qb in
      streamed = Crc32.bytes ab ~off:pa ~len:(String.length a + String.length b)
      && streamed = crc32_reference (a ^ b))

(* A prefix of 0-40 bytes and a run of 0-20 zeros (state [p]), then
   two 8-byte fields, [a] and [c], checksummed as the block stamps are:
   [p] over 8 zero bytes and then [c]'s bytes, plus [a]'s term with 8
   bytes after it.  And [a] alone, followed by 0-8 zeros: [p] over
   8 + after zeros, plus [a]'s term.  Both must equal [bytes] and the
   bitwise reference.  [a] ranges over every int and [c] over the whole
   int64 range: uniform draws (negative half the time, high bytes
   set), small values whose high bytes are zero, and the extremes. *)
let prop_crc32_split_matches_reference =
  let open QCheck2.Gen in
  let a =
    oneof [ int; int_range 0 100_000; oneofl [ 0; -1; min_int; max_int; 1 lsl 56 ] ]
  in
  let c =
    oneof
      [
        int64;
        map Int64.of_int (int_range 0 100_000);
        oneofl [ 0L; -1L; Int64.min_int; Int64.max_int; 0x8000_0000_0000_0001L ];
      ]
  in
  QCheck2.Test.make ~name:"zeros/field split = bytes = bitwise reference" ~count:500
    ~long_factor:10
    ~print:QCheck2.Print.(tup5 string int int int64 int)
    (tup5 (string_size (int_range 0 40)) (int_range 0 20) a c (int_range 0 8))
    (fun (prefix, gap, a, c, after) ->
      let n = String.length prefix + gap in
      let p =
        Crc32.zeros
          (Crc32.update Crc32.init (Bytes.of_string prefix) ~off:0
             ~len:(String.length prefix))
          gap
      in
      let agrees msg split =
        split = Crc32.bytes msg ~off:0 ~len:(Bytes.length msg)
        && split = crc32_reference (Bytes.to_string msg)
      in
      let msg = Bytes.make (n + 16) '\000' in
      Bytes.blit_string prefix 0 msg 0 (String.length prefix);
      Bytes.set_int64_le msg n (Int64.of_int a);
      Bytes.set_int64_le msg (n + 8) c;
      let both =
        Crc32.field (Crc32.update (Crc32.zeros p 8) msg ~off:(n + 8) ~len:8) a ~after:8
      in
      let alone = Bytes.sub msg 0 (n + 8 + after) in
      Bytes.fill alone (n + 8) after '\000';
      agrees msg (Crc32.finish both)
      && agrees alone (Crc32.finish (Crc32.field (Crc32.zeros p (8 + after)) a ~after)))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "copy replays" `Quick test_prng_copy_replays;
        Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "int_in bounds" `Quick test_prng_int_in_bounds;
        Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
        Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
        Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
        Alcotest.test_case "gaussian moments" `Slow test_prng_gaussian_moments;
        Alcotest.test_case "exponential mean" `Slow test_prng_exponential_mean;
      ]
      @ qcheck [ prop_prng_int_in_range ] );
    ( "util.zipf",
      [
        Alcotest.test_case "pmf sums to one" `Quick test_zipf_pmf_sums_to_one;
        Alcotest.test_case "sample in range" `Quick test_zipf_sample_in_range;
        Alcotest.test_case "rank ordering" `Slow test_zipf_rank_ordering;
        Alcotest.test_case "matches pmf" `Slow test_zipf_matches_pmf;
        Alcotest.test_case "uniform degenerate" `Quick test_zipf_uniform_degenerate;
        Alcotest.test_case "expected distinct monotone" `Quick
          test_zipf_expected_distinct_monotone;
      ]
      @ qcheck [ prop_zipf_sample_in_range ] );
    ( "util.stats",
      [
        Alcotest.test_case "summary" `Quick test_stats_summary;
        Alcotest.test_case "empty raises" `Quick test_stats_empty_raises;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "percentile interpolates" `Quick
          test_stats_percentile_interpolates;
        Alcotest.test_case "histogram" `Quick test_stats_histogram;
        Alcotest.test_case "histogram degenerate" `Quick
          test_stats_histogram_degenerate;
        Alcotest.test_case "ratio / safe_div" `Quick test_stats_ratio;
        Alcotest.test_case "percentile degenerate" `Quick
          test_stats_percentile_degenerate;
        Alcotest.test_case "regression" `Quick test_stats_regression;
        Alcotest.test_case "ratio series" `Quick test_stats_ratio_series;
      ]
      @ qcheck [ prop_percentile_bounded ] );
    ( "util.crc32",
      [ Alcotest.test_case "known answer" `Quick test_crc32_known_answer ]
      @ qcheck
          [ prop_crc32_update_matches_reference; prop_crc32_split_matches_reference ] );
    ( "util.table_print",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "arity mismatch" `Quick test_table_arity_mismatch;
        Alcotest.test_case "series render" `Quick test_series_render;
        Alcotest.test_case "series grid mismatch" `Quick test_series_grid_mismatch;
        Alcotest.test_case "float cell" `Quick test_float_cell;
      ] );
  ]
