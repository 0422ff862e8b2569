(* One workload of the wall-clock benchmark, in this process only: the
   metrics registry, flight recorder, buffer pools and epoch registry are
   process-global, so workloads never share a process.

     main.exe --workload scam-probe --seed 1 --seconds 10 --trace 0 \
       --work-dir DIR --out-dir DIR

   Prints human-readable lines, then as its last line one JSON object:
   {"correct", "attempted", "failed", "metrics"} — the gated end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.  Exits
   1 on any wrong answer, exception or failed restart check. *)

open Perfbench

(* The gated end-to-end metrics, in BENCHMARK.json order.  The gated
   timings take each operation's fastest repetition over the run's
   rounds: the host's speed swings by about 1.5x in phases of seconds,
   so a median moves with the share of the run spent in slow phases,
   while a fastest repetition does not.  The others are printed but not
   part of the JSON result: probe_p50_us, probe_p99_us and recovery_s
   apply to only some workloads; error_rate is 0 when the program is
   correct; scan_p50_ms, transition_p50_ms, query_qps and
   ingest_postings_per_s time the same calls over every repetition, so
   they carry the host's phases; write_amp on scam-probe falls into
   clusters by seed (whether the first transitions reuse freed extents,
   which are zeroed with real writes, or extend the file, which is
   free). *)
let gated =
  [
    "setup_s"; "scan_best_ms"; "transition_best_ms"; "query_best_qps"; "heap_peak_mb";
    "space_amp"; "model_s_per_day";
  ]

let result_line ~correct ~attempted ~failed (metrics : Workloads.metric list) =
  let open Wave_obs.Json in
  to_string
    (Obj
       [
         ("correct", Bool correct);
         ("attempted", int attempted);
         ("failed", int failed);
         ( "metrics",
           Obj
             (List.map
                (fun (m : Workloads.metric) ->
                  ( m.Workloads.name,
                    Obj [ ("value", Num m.Workloads.value); ("unit", Str m.Workloads.unit_) ] ))
                metrics) );
       ])

let print_metric (m : Workloads.metric) =
  Printf.printf "  %-32s %.6g %s\n" m.Workloads.name m.Workloads.value m.Workloads.unit_

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let work_dir = ref "" and out_dir = ref "" in
  let usage =
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR --out-dir DIR"
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME scam-probe | tpcd-ingest | wse-shard");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measure for about S seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch store directories");
      ("--out-dir", Arg.Set_string out_dir, "DIR where the traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let wl =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S\n%s\n" !workload usage;
      exit 2
  in
  if !work_dir = "" || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let traced = !trace = 1 in
  (* Inputs and the reference answers are built before anything is timed. *)
  let days = wl.Workloads.generate ~seed:!seed in
  let run = Workloads.make_run ~days ~work_dir:!work_dir in
  Printf.printf "# ocaml %s\n# %s\n%!" Sys.ocaml_version (wl.Workloads.describe days);
  (* Whole rounds while the next one should end within the time: at
     least three; traced runs alternate untraced and traced rounds, at
     least two of each, so the tracing overhead is measured in this
     process. *)
  let min_rounds = if traced then 4 else 3 in
  let start = Clock.now_ns () in
  let round = ref 0 in
  let next_fits () =
    let spent = Clock.seconds_since start in
    spent +. (spent /. float_of_int !round) <= !seconds
  in
  (try
     while !round < min_rounds || next_fits () do
       let tr = if traced && !round mod 2 = 1 then Some run.Workloads.spans else None in
       wl.Workloads.round run ~tr ~round:!round;
       (* Every round starts from the same compacted heap, outside the
          timed region, so the work a round leaves to the collector is
          not billed to the next one. *)
       Gc.compact ();
       incr round
     done
   with e ->
     let t = run.Workloads.e2e.Workloads.tally in
     t.Oracle.attempted <- t.Oracle.attempted + 1;
     t.Oracle.exceptions <- t.Oracle.exceptions + 1;
     Printf.eprintf "perfbench: round %d raised %s\n%!" !round (Printexc.to_string e));
  let e = run.Workloads.e2e in
  let tally = e.Workloads.tally in
  let failed = Oracle.failed tally in
  Printf.printf
    "# %d rounds in %.1f s; %d operations checked: %d wrong, %d raised, %d restart mismatches\n"
    e.Workloads.rounds (Clock.seconds_since start) tally.Oracle.attempted tally.Oracle.wrong
    tally.Oracle.exceptions tally.Oracle.restart_failures;
  (* At a fixed seed these figures are deterministic: a round that does
     not repeat round 0's fails the run. *)
  Printf.printf "# space_amp, write_amp and model_s_per_day repeat in every round: %b\n"
    e.Workloads.determ_repeats;
  List.iter (Printf.printf "# %s\n") (List.rev e.Workloads.round_lines);
  let e2e = Workloads.end_to_end wl run in
  print_endline "end-to-end:";
  List.iter print_metric e2e;
  print_endline "tails:";
  List.iter (Printf.printf "  %s\n") (Workloads.tails run);
  let metrics =
    if traced then begin
      let layers = Workloads.per_layer run in
      print_endline "per layer (traced rounds):";
      List.iter print_metric layers;
      if !out_dir <> "" then begin
        (try Sys.mkdir !out_dir 0o755 with Sys_error _ -> ());
        let path =
          Filename.concat !out_dir (Printf.sprintf "spans-%s-seed%d.tsv" !workload !seed)
        in
        Spans.write_tsv run.Workloads.spans path;
        Printf.printf "# %d spans written to %s\n" run.Workloads.spans.Spans.len path
      end;
      layers
    end
    else
      List.filter_map
        (fun name -> List.find_opt (fun (m : Workloads.metric) -> m.Workloads.name = name) e2e)
        gated
  in
  let correct = failed = 0 && e.Workloads.rounds > 0 && e.Workloads.determ_repeats in
  print_endline
    (result_line ~correct ~attempted:(max 1 tally.Oracle.attempted) ~failed metrics);
  exit (if correct then 0 else 1)
