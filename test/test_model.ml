(* Tests for the analytic cost model: the closed forms of Tables 8-11
   where the paper states them exactly, and the qualitative claims its
   Section 6 figures rest on. *)

open Wave_core
open Wave_model

let scam = Scenario.scam.Scenario.params
let wse = Scenario.wse.Scenario.params
let tpcd = Scenario.tpcd.Scenario.params

let eval ?(p = scam) ?(technique = Env.Simple_shadow) scheme ~w ~n =
  Cost.evaluate p ~scheme ~technique ~w ~n

let close ?(tol = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > tol *. Float.max 1.0 (Float.abs expected)
  then Alcotest.failf "%s: expected %g, got %g" msg expected actual

(* --- Table 10/11 rows the paper states exactly ------------------- *)

(* DEL, simple shadow: precomputation = X*CP + Del, transition = Add. *)
let test_del_simple_shadow_maintenance () =
  let w = 10 and n = 2 in
  let s = eval Scheme.Del ~w ~n in
  let x = float_of_int w /. float_of_int n in
  close "pre = X*CP + Del"
    ((x *. Params.cp_day scam ~packed:false) +. scam.Params.del)
    s.Cost.pre_avg;
  close "trans = Add" scam.Params.add s.Cost.trans_avg

(* DEL, packed shadow: precomputation = 0, transition = X*SMCP + Build. *)
let test_del_packed_shadow_maintenance () =
  let w = 10 and n = 2 in
  let s = eval ~technique:Env.Packed_shadow Scheme.Del ~w ~n in
  close "pre = 0" 0.0 s.Cost.pre_avg;
  close "trans = X*SMCP + Build"
    ((5.0 *. Params.smcp_day scam) +. scam.Params.build)
    s.Cost.trans_avg

(* REINDEX: transition = X*Build under every technique. *)
let test_reindex_maintenance () =
  List.iter
    (fun technique ->
      let s = eval ~technique Scheme.Reindex ~w:10 ~n:2 in
      close "pre = 0" 0.0 s.Cost.pre_avg;
      close "trans = X*Build" (5.0 *. scam.Params.build) s.Cost.trans_avg)
    [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ]

(* REINDEX+ indexes about half the DAYS REINDEX does per transition
   (Section 4.1).  Measure days, not seconds: set Add = Build = 1 so the
   transition time counts days indexed. *)
let test_reindex_plus_halves_work () =
  let p =
    (* Unit costs per day indexed; zero-size days so index copies (CP)
       do not contribute — the claim counts indexing work only. *)
    { scam with Params.add = 1.0; build = 1.0; del = 1.0;
      s_packed = 0.0; s_unpacked = 0.0 }
  in
  let w = 20 and n = 2 in
  let r = Cost.evaluate p ~scheme:Scheme.Reindex ~technique:Env.In_place ~w ~n in
  let rp =
    Cost.evaluate p ~scheme:Scheme.Reindex_plus ~technique:Env.In_place ~w ~n
  in
  let ratio = rp.Cost.trans_avg /. r.Cost.trans_avg in
  Alcotest.(check bool)
    (Printf.sprintf "days ratio %.2f in [0.4, 0.75]" ratio)
    true
    (ratio > 0.4 && ratio < 0.75)

(* REINDEX++: transition is a single AddToIndex; the rest of REINDEX+'s
   work moved into pre-computation (same total, paper Section 4.2). *)
let test_reindex_pp_transition_is_one_add () =
  let s = eval Scheme.Reindex_pp ~w:10 ~n:2 in
  close "trans = Add" scam.Params.add s.Cost.trans_avg;
  Alcotest.(check bool) "pre-computation nonzero" true (s.Cost.pre_avg > 0.0);
  let rp = eval Scheme.Reindex_plus ~w:10 ~n:2 in
  let total_pp = s.Cost.pre_avg +. s.Cost.trans_avg in
  let total_p = rp.Cost.pre_avg +. rp.Cost.trans_avg in
  Alcotest.(check bool)
    (Printf.sprintf "totals comparable (%.0f vs %.0f)" total_pp total_p)
    true
    (total_pp < 1.4 *. total_p)

(* WATA*: no deletion cost anywhere; transition bounded by one Add or
   one Build. *)
let test_wata_cheap_maintenance () =
  let s = eval Scheme.Wata_star ~w:10 ~n:4 in
  Alcotest.(check bool) "trans <= Add" true (s.Cost.trans_avg <= scam.Params.add);
  let ip = eval ~technique:Env.In_place Scheme.Wata_star ~w:10 ~n:4 in
  close "in-place pre = 0" 0.0 ip.Cost.pre_avg

(* --- Space (Table 8) --------------------------------------------- *)

(* REINDEX stores exactly W packed days; minimal among all schemes. *)
let test_reindex_space_minimal () =
  let w = 7 in
  for n = 1 to w do
    let r = eval Scheme.Reindex ~w ~n in
    close "REINDEX space = W*S" (float_of_int w *. scam.Params.s_packed)
      r.Cost.space_avg;
    List.iter
      (fun scheme ->
        if Scheme.min_indexes scheme <= n then begin
          let s = eval scheme ~w ~n in
          if s.Cost.space_avg +. s.Cost.shadow_avg
             < r.Cost.space_avg +. r.Cost.shadow_avg -. 1.0
          then
            Alcotest.failf "%s beats REINDEX on space at n=%d" (Scheme.name scheme) n
        end)
      Scheme.all
  done

(* All schemes need less space as n grows (Figure 3's trend). *)
let test_space_decreases_with_n () =
  List.iter
    (fun scheme ->
      let prev = ref infinity in
      for n = max 2 (Scheme.min_indexes scheme) to 7 do
        let s = eval scheme ~w:7 ~n in
        let total = s.Cost.space_avg +. s.Cost.shadow_avg in
        if total > !prev +. 1.0 then
          Alcotest.failf "%s space grows from n=%d" (Scheme.name scheme) n;
        prev := total
      done)
    Scheme.all

(* WATA* max length matches Theorem 2: (W + ceil((W-1)/(n-1)) - 1) days. *)
let test_wata_space_max_is_theorem2 () =
  let w = 10 and n = 4 in
  let s = eval Scheme.Wata_star ~w ~n in
  let bound_days = float_of_int (Wata.length_bound ~w ~n) in
  close "max space = bound * S'" (bound_days *. scam.Params.s_unpacked)
    s.Cost.space_max

(* In-place updating needs no transition space; shadowing does. *)
let test_shadow_space_by_technique () =
  let ip = eval ~technique:Env.In_place Scheme.Del ~w:10 ~n:2 in
  close "in-place shadow = 0" 0.0 ip.Cost.shadow_max;
  let ss = eval ~technique:Env.Simple_shadow Scheme.Del ~w:10 ~n:2 in
  close "simple shadow = X*S'" (5.0 *. scam.Params.s_unpacked) ss.Cost.shadow_max

(* --- Query model (Table 9) --------------------------------------- *)

let test_probe_formula () =
  let w = 10 and n = 2 in
  let s = eval Scheme.Reindex ~w ~n in
  let expected =
    2.0 *. (scam.Params.seek +. (5.0 *. scam.Params.c_bucket /. scam.Params.trans))
  in
  close "probe = n*(seek + X*c/Trans)" expected s.Cost.probe_seconds

let test_scan_packed_cheaper () =
  let ss = eval ~technique:Env.Simple_shadow Scheme.Del ~w:10 ~n:2 in
  let ps = eval ~technique:Env.Packed_shadow Scheme.Del ~w:10 ~n:2 in
  Alcotest.(check bool) "packed scans cheaper" true
    (ps.Cost.scan_seconds < ss.Cost.scan_seconds)

let test_wata_scans_pay_soft_window () =
  let wata = eval Scheme.Wata_star ~w:10 ~n:4 in
  let del = eval Scheme.Del ~w:10 ~n:4 in
  Alcotest.(check bool) "WATA scans pricier than DEL" true
    (wata.Cost.scan_seconds > del.Cost.scan_seconds)

(* --- Figure-level qualitative claims ------------------------------ *)

(* Figure 4: REINDEX's transition crosses below DEL's at n = 4 in SCAM. *)
let test_fig4_reindex_crossover () =
  let t n = (eval Scheme.Reindex ~w:7 ~n).Cost.trans_avg in
  let del n = (eval Scheme.Del ~w:7 ~n).Cost.trans_avg in
  Alcotest.(check bool) "n=3: REINDEX worse" true (t 3 > del 3);
  Alcotest.(check bool) "n=4: REINDEX better" true (t 4 < del 4)

(* Figure 4: DEL and REINDEX++ transition flat in n. *)
let test_fig4_flat_schemes () =
  List.iter
    (fun scheme ->
      let t2 = (eval scheme ~w:7 ~n:2).Cost.trans_avg in
      let t7 = (eval scheme ~w:7 ~n:7).Cost.trans_avg in
      if Float.abs (t2 -. t7) > 0.05 *. t2 then
        Alcotest.failf "%s transition varies with n" (Scheme.name scheme))
    [ Scheme.Del; Scheme.Reindex_pp ]

(* Figure 6: for the WSE under packed shadowing, REINDEX does the most
   work and DEL(n=1) the least. *)
let test_fig6_wse_recommendation () =
  let work scheme n =
    (Cost.evaluate wse ~scheme ~technique:Env.Packed_shadow ~w:35 ~n).Cost.work_per_day
  in
  let del1 = work Scheme.Del 1 in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "REINDEX worst at n=%d" n)
        true
        (work Scheme.Reindex n > work Scheme.Del n))
    [ 1; 2; 3; 5; 7 ];
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "DEL(1) <= DEL(%d)" n)
        true (del1 <= work Scheme.Del n))
    [ 2; 3; 5; 7 ]

(* Figure 8: TPC-D with simple shadowing, WATA* does the least work and
   beats DEL by thousands of seconds (the paper: "up to 10,000"). *)
let test_fig8_tpcd_wata_wins () =
  let work scheme n =
    (Cost.evaluate tpcd ~scheme ~technique:Env.Simple_shadow ~w:100 ~n)
      .Cost.work_per_day
  in
  let advantage = work Scheme.Del 10 -. work Scheme.Wata_star 10 in
  Alcotest.(check bool)
    (Printf.sprintf "WATA advantage %.0fs in [5000, 15000]" advantage)
    true
    (advantage > 5_000.0 && advantage < 15_000.0);
  Alcotest.(check bool) "RATA also behind WATA" true
    (work Scheme.Rata_star 10 > work Scheme.Wata_star 10)

(* Figure 9: reindexing schemes scale O(W/n) in W; DEL/WATA/RATA flat. *)
let test_fig9_w_scaling () =
  let trans scheme w = (eval scheme ~w ~n:4).Cost.trans_avg in
  let growth scheme = trans scheme 42 /. trans scheme 7 in
  Alcotest.(check bool) "REINDEX grows ~6x" true
    (growth Scheme.Reindex > 4.0);
  Alcotest.(check bool) "DEL flat" true (growth Scheme.Del < 1.1);
  Alcotest.(check bool) "WATA flat" true (growth Scheme.Wata_star < 1.3);
  Alcotest.(check bool) "RATA flat" true (growth Scheme.Rata_star < 1.3)

(* Figure 10: with the calibrated CONTIGUOUS scaling, WATA* wins for
   SF <= 3 and REINDEX for larger SF (SCAM, W = 14, n = 4). *)
let test_fig10_sf_crossover () =
  let work scheme sf =
    let p = Params.scale scam sf in
    (Cost.evaluate p ~scheme ~technique:Env.Simple_shadow ~w:14 ~n:4)
      .Cost.work_per_day
  in
  List.iter
    (fun sf ->
      Alcotest.(check bool)
        (Printf.sprintf "WATA wins at SF=%.1f" sf)
        true
        (work Scheme.Wata_star sf < work Scheme.Reindex sf))
    [ 0.5; 1.0; 2.0 ];
  List.iter
    (fun sf ->
      Alcotest.(check bool)
        (Printf.sprintf "REINDEX wins at SF=%.1f" sf)
        true
        (work Scheme.Reindex sf < work Scheme.Wata_star sf))
    [ 4.0; 5.0 ]

(* --- Closed forms (Formulas) --------------------------------------- *)

let techniques = [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ]

(* On every evenly dividing geometry with W <= 40 (n | W for the
   DEL/REINDEX family, (n-1) | (W-1) for the WATA family), in all three
   scenarios, the evaluation equals the closed forms the paper prints. *)
let test_formulas_match_cost () =
  let same what ~w ~n expected actual =
    if Float.abs (expected -. actual) > 1e-9 *. Float.max 1.0 (Float.abs expected)
    then
      Alcotest.failf "%s at W=%d n=%d: closed form %.17g, evaluation %.17g" what
        w n expected actual
  in
  List.iter
    (fun (sc : Scenario.t) ->
      let p = sc.Scenario.params in
      let ops ~packed =
        {
          Formulas.build = p.Params.build;
          add = p.Params.add;
          del = p.Params.del;
          cp = Params.cp_day p ~packed;
          smcp = Params.smcp_day p;
        }
      in
      for w = 1 to 40 do
        for n = 1 to w do
          let check scheme technique f =
            let packed = Cost.constituents_packed ~scheme ~technique in
            let s = Cost.evaluate p ~scheme ~technique ~w ~n in
            let bytes = if packed then p.Params.s_packed else p.Params.s_unpacked in
            let name what =
              Printf.sprintf "%s %s %s %s" sc.Scenario.name (Scheme.name scheme)
                (Env.technique_name technique) what
            in
            f ~ops:(ops ~packed) ~bytes ~same:(fun what -> same (name what) ~w ~n) s
          in
          let queries ~bytes ~same (s : Cost.summary) =
            let probe_idx = if p.Params.probe_all_indexes then n else 1 in
            let scan_idx =
              match p.Params.scan_breadth with Params.Scan_all -> n | Params.Scan_one -> 1
            in
            same "probe"
              (Formulas.probe_seconds ~seek:p.Params.seek ~trans:p.Params.trans
                 ~c_bucket:p.Params.c_bucket ~w ~n ~probe_idx)
              s.Cost.probe_seconds;
            same "scan"
              (Formulas.scan_seconds ~seek:p.Params.seek ~trans:p.Params.trans
                 ~bytes_per_day:bytes ~w ~n ~scan_idx)
              s.Cost.scan_seconds
          in
          let maintenance (pre, tr) ~same (s : Cost.summary) =
            same "pre" pre s.Cost.pre_avg;
            same "transition" tr s.Cost.trans_avg
          in
          if w mod n = 0 then begin
            check Scheme.Del Env.Simple_shadow (fun ~ops ~bytes:_ ~same s ->
                maintenance (Formulas.del_simple_shadow ops ~w ~n) ~same s);
            check Scheme.Del Env.Packed_shadow (fun ~ops ~bytes:_ ~same s ->
                maintenance (Formulas.del_packed_shadow ops ~w ~n) ~same s);
            List.iter
              (fun technique ->
                check Scheme.Del technique (fun ~ops:_ ~bytes ~same s ->
                    same "space" (Formulas.space_days_del ~w *. bytes) s.Cost.space_max;
                    queries ~bytes ~same s);
                check Scheme.Reindex technique (fun ~ops ~bytes ~same s ->
                    maintenance (Formulas.reindex_any ops ~w ~n) ~same s;
                    same "space" (Formulas.space_days_reindex ~w *. bytes)
                      s.Cost.space_max;
                    queries ~bytes ~same s);
                check Scheme.Reindex_plus technique (fun ~ops:_ ~bytes ~same s ->
                    same "space avg"
                      (Formulas.space_days_reindex_plus_avg ~w ~n *. bytes)
                      s.Cost.space_avg;
                    same "space max"
                      (Formulas.space_days_reindex_plus_max ~w ~n *. bytes)
                      s.Cost.space_max;
                    queries ~bytes ~same s);
                check Scheme.Reindex_pp technique (fun ~ops ~bytes ~same s ->
                    if technique <> Env.Packed_shadow then
                      same "transition" (Formulas.reindex_pp_transition ops)
                        s.Cost.trans_avg;
                    same "space max"
                      (Formulas.space_days_reindex_pp_max ~w ~n *. bytes)
                      s.Cost.space_max;
                    queries ~bytes ~same s))
              techniques
          end;
          if n >= 2 && (w - 1) mod (n - 1) = 0 then begin
            check Scheme.Wata_star Env.In_place (fun ~ops ~bytes:_ ~same s ->
                same "transition" (Formulas.wata_transition_avg ops ~w ~n)
                  s.Cost.trans_avg);
            List.iter
              (fun technique ->
                check Scheme.Wata_star technique (fun ~ops:_ ~bytes ~same s ->
                    same "space avg" (Formulas.space_days_wata_avg ~w ~n *. bytes)
                      s.Cost.space_avg;
                    same "space max" (Formulas.space_days_wata_max ~w ~n *. bytes)
                      s.Cost.space_max;
                    same "Theorem 2"
                      (float_of_int (Formulas.theorem2_length_bound ~w ~n) *. bytes)
                      s.Cost.space_max);
                check Scheme.Rata_star technique (fun ~ops:_ ~bytes ~same s ->
                    same "space max" (Formulas.space_days_rata_max ~w ~n *. bytes)
                      s.Cost.space_max))
              techniques
          end
        done
      done)
    Scenario.all

let test_formulas_space () =
  let w = 12 and n = 3 in
  Alcotest.(check (float 1e-9)) "del" 12.0 (Formulas.space_days_del ~w);
  Alcotest.(check (float 1e-9)) "r+ max" 15.0
    (Formulas.space_days_reindex_plus_max ~w ~n);
  Alcotest.(check (float 1e-9)) "r++ max" 18.0 (Formulas.space_days_reindex_pp_max ~w ~n);
  Alcotest.(check (float 1e-9)) "wata max (w=13 n=3)" 18.0
    (Formulas.space_days_wata_max ~w:13 ~n:3);
  Alcotest.(check (float 1e-9)) "kmrv" 1.5 (Formulas.kmrv_competitive_ratio ~n:3)

(* --- Parameter plumbing ------------------------------------------- *)

let test_scale_linearity () =
  let p2 = Params.scale scam 2.0 in
  close "S scales" (2.0 *. scam.Params.s_packed) p2.Params.s_packed;
  close "build scales" (2.0 *. scam.Params.build) p2.Params.build;
  Alcotest.(check bool) "add superlinear" true (p2.Params.add > 2.0 *. scam.Params.add)

let test_scale_invalid () =
  Alcotest.check_raises "sf=0"
    (Invalid_argument "Params.scale: non-positive scale factor") (fun () ->
      ignore (Params.scale scam 0.0))

let test_evaluate_validation () =
  Alcotest.(check bool) "wata n=1 rejected" true
    (try
       ignore (eval Scheme.Wata_star ~w:10 ~n:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "n>w rejected" true
    (try
       ignore (eval Scheme.Del ~w:3 ~n:4);
       false
     with Invalid_argument _ -> true)

let test_scenarios () =
  Alcotest.(check int) "three scenarios" 3 (List.length Scenario.all);
  Alcotest.(check bool) "find scam" true (Scenario.find "scam" <> None);
  Alcotest.(check bool) "find unknown" true (Scenario.find "nope" = None);
  Alcotest.(check (float 0.001)) "w scam" 7.0 (float_of_int Scenario.scam.Scenario.w);
  Alcotest.(check (float 0.001)) "w wse" 35.0 (float_of_int Scenario.wse.Scenario.w);
  Alcotest.(check (float 0.001)) "w tpcd" 100.0 (float_of_int Scenario.tpcd.Scenario.w)

let test_constituents_packed () =
  Alcotest.(check bool) "reindex always packed" true
    (Cost.constituents_packed ~scheme:Scheme.Reindex ~technique:Env.In_place);
  Alcotest.(check bool) "del in place unpacked" false
    (Cost.constituents_packed ~scheme:Scheme.Del ~technique:Env.In_place);
  Alcotest.(check bool) "del packed shadow packed" true
    (Cost.constituents_packed ~scheme:Scheme.Del ~technique:Env.Packed_shadow)

(* Property: work is positive and finite for every valid combination. *)
let prop_work_sane =
  QCheck2.Test.make ~name:"model work positive and finite" ~count:200
    QCheck2.Gen.(
      tup4 (int_range 0 5) (int_range 2 40) (int_range 1 8) (int_range 0 2))
    (fun (kind_i, w, n, tech_i) ->
      let scheme = List.nth Scheme.all kind_i in
      let n = max (Scheme.min_indexes scheme) (min n w) in
      QCheck2.assume (n <= w);
      let technique =
        List.nth [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ] tech_i
      in
      let s = Cost.evaluate scam ~scheme ~technique ~w ~n in
      s.Cost.work_per_day > 0.0
      && Float.is_finite s.Cost.work_per_day
      && s.Cost.space_avg > 0.0
      && s.Cost.space_max >= s.Cost.space_avg -. 1e-6
      && s.Cost.pre_max >= s.Cost.pre_avg -. 1e-6
      && s.Cost.trans_max >= s.Cost.trans_avg -. 1e-6)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "model.maintenance",
      [
        Alcotest.test_case "DEL simple shadow" `Quick test_del_simple_shadow_maintenance;
        Alcotest.test_case "DEL packed shadow" `Quick test_del_packed_shadow_maintenance;
        Alcotest.test_case "REINDEX" `Quick test_reindex_maintenance;
        Alcotest.test_case "REINDEX+ halves work" `Quick test_reindex_plus_halves_work;
        Alcotest.test_case "REINDEX++ one-add transition" `Quick
          test_reindex_pp_transition_is_one_add;
        Alcotest.test_case "WATA cheap maintenance" `Quick test_wata_cheap_maintenance;
      ] );
    ( "model.space",
      [
        Alcotest.test_case "REINDEX minimal" `Quick test_reindex_space_minimal;
        Alcotest.test_case "decreases with n" `Quick test_space_decreases_with_n;
        Alcotest.test_case "WATA max = Theorem 2" `Quick test_wata_space_max_is_theorem2;
        Alcotest.test_case "shadow by technique" `Quick test_shadow_space_by_technique;
      ] );
    ( "model.queries",
      [
        Alcotest.test_case "probe formula" `Quick test_probe_formula;
        Alcotest.test_case "packed scans cheaper" `Quick test_scan_packed_cheaper;
        Alcotest.test_case "WATA scans pay soft window" `Quick
          test_wata_scans_pay_soft_window;
      ] );
    ( "model.figures",
      [
        Alcotest.test_case "fig4 crossover" `Quick test_fig4_reindex_crossover;
        Alcotest.test_case "fig4 flat schemes" `Quick test_fig4_flat_schemes;
        Alcotest.test_case "fig6 WSE recommendation" `Quick test_fig6_wse_recommendation;
        Alcotest.test_case "fig8 TPC-D WATA wins" `Quick test_fig8_tpcd_wata_wins;
        Alcotest.test_case "fig9 W scaling" `Quick test_fig9_w_scaling;
        Alcotest.test_case "fig10 SF crossover" `Quick test_fig10_sf_crossover;
      ] );
    ( "model.formulas",
      [
        Alcotest.test_case "match cost evaluation" `Quick test_formulas_match_cost;
        Alcotest.test_case "space forms" `Quick test_formulas_space;
      ] );
    ( "model.params",
      [
        Alcotest.test_case "scale linearity" `Quick test_scale_linearity;
        Alcotest.test_case "scale invalid" `Quick test_scale_invalid;
        Alcotest.test_case "evaluate validation" `Quick test_evaluate_validation;
        Alcotest.test_case "scenarios" `Quick test_scenarios;
        Alcotest.test_case "constituents packed" `Quick test_constituents_packed;
      ]
      @ qcheck [ prop_work_sane ] );
  ]
