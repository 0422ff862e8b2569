(* waveidx: command-line driver for the Wave-Indices reproduction.

   Subcommands:
     list            enumerate the reproduction experiments
     run <id>...     run specific experiments (table3, fig6, thm2, ...)
     all             run every experiment
     sim             simulate a scheme over a workload with chosen
                     geometry, technique and query mix                 *)

open Cmdliner
open Wave_core

let list_cmd =
  let doc = "List the reproduction experiments (one per paper artifact)." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-10s %-55s [%s]\n" e.Wave_experiments.Experiment.id
          e.Wave_experiments.Experiment.title
          e.Wave_experiments.Experiment.paper_claim)
      Wave_experiments.Experiment.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let run_cmd =
  let doc = "Run one or more experiments by id." in
  let ids =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:"experiment id")
  in
  let run ids =
    let missing =
      List.filter (fun id -> Wave_experiments.Experiment.find id = None) ids
    in
    if missing <> [] then begin
      Printf.eprintf "unknown experiment(s): %s\nuse 'waveidx list'\n"
        (String.concat ", " missing);
      exit 1
    end;
    List.iter
      (fun id ->
        match Wave_experiments.Experiment.find id with
        | Some e ->
          Printf.printf "=== %s: %s ===\npaper: %s\n\n%s\n"
            e.Wave_experiments.Experiment.id e.Wave_experiments.Experiment.title
            e.Wave_experiments.Experiment.paper_claim
            (e.Wave_experiments.Experiment.run ())
        | None -> assert false)
      ids
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const run $ ids)

let all_cmd =
  let doc = "Run every reproduction experiment." in
  let run () = print_string (Wave_experiments.Experiment.run_all ()) in
  Cmd.v (Cmd.info "all" ~doc) Term.(const run $ const ())

let scheme_conv =
  let parse s =
    match Scheme.of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  let print ppf k = Format.pp_print_string ppf (Scheme.name k) in
  Arg.conv (parse, print)

let technique_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "in-place" | "inplace" | "ip" -> Ok Env.In_place
    | "simple-shadow" | "simple" | "ss" -> Ok Env.Simple_shadow
    | "packed-shadow" | "packed" | "ps" -> Ok Env.Packed_shadow
    | _ -> Error (`Msg (Printf.sprintf "unknown technique %S" s))
  in
  let print ppf t = Format.pp_print_string ppf (Env.technique_name t) in
  Arg.conv (parse, print)

let partition_conv =
  let parse s =
    match Wave_shard.Partition.kind_of_name s with
    | Some k -> Ok k
    | None -> Error (`Msg (Printf.sprintf "unknown partitioning %S (hash | range)" s))
  in
  let print ppf k = Format.pp_print_string ppf (Wave_shard.Partition.kind_name k) in
  Arg.conv (parse, print)

let disk_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "sim" -> Ok Wave_disk.Disk.Sim
    | _ -> (
      match String.index_opt s ':' with
      | Some i when String.lowercase_ascii (String.sub s 0 i) = "file" ->
        let path = String.sub s (i + 1) (String.length s - i - 1) in
        if path = "" then Error (`Msg "file: needs a path")
        else Ok (Wave_disk.Disk.File path)
      | _ -> Error (`Msg (Printf.sprintf "bad disk backend %S (sim | file:PATH)" s)))
  in
  let print ppf = function
    | Wave_disk.Disk.Sim -> Format.pp_print_string ppf "sim"
    | Wave_disk.Disk.File p -> Format.fprintf ppf "file:%s" p
  in
  Arg.conv (parse, print)

(* Real-I/O counter block, printed after any run on a file backend. *)
let print_file_io_stats () =
  let v name =
    match Wave_obs.Metrics.lookup ("disk.file." ^ name) with
    | Some (`Counter f) -> f
    | _ -> 0.0
  in
  Printf.printf
    "real I/O           preads=%.0f pwrites=%.0f fsyncs=%.0f renames=%.0f \
     read=%.0fB written=%.0fB\n"
    (v "preads") (v "pwrites") (v "fsyncs") (v "renames") (v "bytes_read")
    (v "bytes_written");
  Printf.printf "real I/O faults    retries=%.0f giveups=%.0f stalls=%.0f\n"
    (v "retries") (v "giveups") (v "stalls");
  match Wave_obs.Metrics.lookup "disk.file.io_wall_s" with
  | Some (`Histogram (Some h)) ->
    Printf.printf
      "real I/O wall      %d calls  mean %.1fus  p95 %.1fus  p99 %.1fus  max \
       %.1fus\n"
      h.Wave_obs.Metrics.count
      (h.Wave_obs.Metrics.mean *. 1e6)
      (h.Wave_obs.Metrics.p95 *. 1e6)
      (h.Wave_obs.Metrics.p99 *. 1e6)
      (h.Wave_obs.Metrics.max *. 1e6)
  | _ -> ()

(* Top-k hot-spot table over a profile subtree, shared by the profile
   subcommand and sim --profile. *)
let print_top_table ?under ~k title prof =
  let nodes = Wave_obs.Profile.top_self ?under ~k prof in
  if nodes <> [] then begin
    Printf.printf "\n%s\n" title;
    Printf.printf "  %-52s %6s %12s %12s %8s\n" "path" "calls" "self(ms)"
      "total(ms)" "seeks";
    List.iter
      (fun n ->
        Printf.printf "  %-52s %6d %12.4f %12.4f %8d\n"
          (Wave_obs.Profile.path_string n)
          n.Wave_obs.Profile.calls
          (n.Wave_obs.Profile.self_model *. 1e3)
          (n.Wave_obs.Profile.total_model *. 1e3)
          n.Wave_obs.Profile.seeks)
      nodes
  end

let sim_cmd =
  let doc = "Simulate a maintenance scheme over a synthetic workload." in
  let scheme =
    Arg.(
      value
      & opt scheme_conv Scheme.Del
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:"DEL | REINDEX | REINDEX+ | REINDEX++ | WATA | RATA")
  in
  let technique =
    Arg.(
      value
      & opt technique_conv Env.In_place
      & info [ "technique" ] ~docv:"TECH" ~doc:"in-place | simple-shadow | packed-shadow")
  in
  let w = Arg.(value & opt int 7 & info [ "w"; "window" ] ~doc:"window length in days") in
  let n = Arg.(value & opt int 2 & info [ "n"; "indexes" ] ~doc:"constituent indexes") in
  let days = Arg.(value & opt int 30 & info [ "days" ] ~doc:"days to simulate") in
  let postings =
    Arg.(value & opt int 500 & info [ "postings" ] ~doc:"mean postings per day")
  in
  let workload =
    Arg.(
      value
      & opt (enum [ ("netnews", `Netnews); ("tpcd", `Tpcd) ]) `Netnews
      & info [ "workload" ] ~doc:"netnews | tpcd")
  in
  let probes =
    Arg.(value & opt int 50 & info [ "probes" ] ~doc:"timed probes per day")
  in
  let scans = Arg.(value & opt int 2 & info [ "scans" ] ~doc:"timed scans per day") in
  let cache_blocks =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-blocks" ] ~docv:"N"
          ~doc:"attach an N-frame buffer pool (default: uncached cost model)")
  in
  let cache_readahead =
    Arg.(
      value
      & opt int 8
      & info [ "cache-readahead" ] ~docv:"R"
          ~doc:"demand-read prefetch depth when the pool is attached")
  in
  let write_back =
    Arg.(
      value & flag
      & info [ "write-back" ]
          ~doc:
            "defer writes in the pool (flush at transition barriers); \
             requires --cache-blocks")
  in
  let alerts =
    Arg.(
      value
      & opt (some string) None
      & info [ "alerts" ] ~docv:"RULES.json"
          ~doc:
            "evaluate declarative alert rules (JSON: {\"rules\": [{name, \
             metric, op, threshold, ...}]}).  Debounce rules (stat?, \
             for_days?, scope?) fire after for_days consecutive breaches: \
             scope \"day\" at every day boundary, scope \"transition\" \
             after every transition step over the runner.transition.* \
             gauges.  Burn-rate rules (window_days, goal?, fast_days?, \
             slow_days?, burn_threshold?) fire while a fast and a slow \
             window of daily samples both burn the error budget \
             1 - goal at burn_threshold or faster")
  in
  let alerts_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "alerts-out" ] ~docv:"FILE"
          ~doc:"write the machine-readable alerts block here (requires --alerts)")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:"trace the run and print per-phase hot-spot tables")
  in
  let top =
    Arg.(value & opt int 8 & info [ "top" ] ~doc:"hot-spot table size for --profile")
  in
  let disk =
    Arg.(
      value
      & opt disk_conv Wave_disk.Disk.Sim
      & info [ "disk" ] ~docv:"BACKEND"
          ~doc:
            "sim (the paper's pure cost model, default) or file:PATH — the \
             same disk over a real block file at PATH, every write landing \
             through the syscall shim (retry/backoff, disk.file.* metrics)")
  in
  let stall_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stall-after" ] ~docv:"K"
          ~doc:
            "arm a stall fault on the K-th write operation of the run \
             (charges --stall-seconds of model time, then proceeds); pair \
             with --alerts to watch the day's transition alert fire")
  in
  let stall_seconds =
    Arg.(
      value
      & opt float 30.0
      & info [ "stall-seconds" ] ~docv:"S" ~doc:"stall duration for --stall-after")
  in
  let flight_recorder =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-recorder" ] ~docv:"FILE"
          ~doc:
            "dump the always-on flight recorder (bounded ring of recent \
             span ends, gauge sets, alert firings and file-backend \
             syscall outcomes) to FILE as waveidx-flight/1 JSONL: \
             immediately on every alert firing, and once at end of run")
  in
  let concurrent =
    Arg.(
      value & flag
      & info [ "concurrent" ]
          ~doc:
            "serve each day's queries during the transition under \
             epoch-based snapshot isolation instead of after it, and \
             report mid-transition probe latency (concurrent vs. the \
             stop-the-world counterfactual)")
  in
  let query_rate =
    Arg.(
      value
      & opt float 4.0
      & info [ "query-rate" ] ~docv:"R"
          ~doc:"concurrent arrival rate, queries per model-second")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "run the sharded wave index: N router arms, each a full scheme \
             instance on its own disk over its slice of the key space, with \
             parallel cost semantics (a fan-out costs the max over arms); \
             not with --concurrent, --profile, --stall-after or a file disk")
  in
  let partition =
    Arg.(
      value
      & opt partition_conv Wave_shard.Partition.Hash
      & info [ "partition" ] ~docv:"KIND"
          ~doc:"hash | range — key-space partitioning for --shards")
  in
  let split_threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "split-threshold" ] ~docv:"RATIO"
          ~doc:
            "with --shards, split the busiest splittable arm at a day \
             boundary where the busy skew ratio exceeds $(docv)")
  in
  let series_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "series-out" ] ~docv:"FILE"
          ~doc:
            "sample every registry metric into bounded ring-buffer \
             time-series at each transition step and day boundary, and \
             dump them to FILE as waveidx-series/1 JSON at end of run")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "write the end-of-run metrics registry (plus series-derived \
             quantile/trend families) to FILE in OpenMetrics/Prometheus \
             text exposition format")
  in
  let run scheme technique w n days postings workload probes scans cache_blocks
      cache_readahead write_back alerts alerts_out profile top disk stall_after
      stall_seconds flight_recorder concurrent query_rate shards partition
      split_threshold series_out metrics_out =
    if write_back && cache_blocks = None then begin
      Printf.eprintf "sim: --write-back requires --cache-blocks\n";
      exit 2
    end;
    if alerts_out <> None && alerts = None then begin
      Printf.eprintf "sim: --alerts-out requires --alerts\n";
      exit 2
    end;
    let rules =
      match alerts with
      | None -> []
      | Some path -> (
        match Wave_obs.Alert.rules_of_file path with
        | Ok rules -> rules
        | Error e ->
          Printf.eprintf "sim: bad alert rules: %s\n" e;
          exit 2)
    in
    if
      shards > 1
      && (disk <> Wave_disk.Disk.Sim || concurrent || profile
         || stall_after <> None)
    then begin
      (* One block file cannot back N independent arms, epochs serve one
         disk, and a profile's conservation check reads one disk clock. *)
      Printf.eprintf
        "sim: --shards > 1 runs on the sim disk backend, without \
         --concurrent/--profile/--stall-after\n";
      exit 2
    end;
    if shards < 1 then begin
      Printf.eprintf "sim: --shards must be at least 1\n";
      exit 2
    end;
    if split_threshold <> None && shards < 2 then begin
      Printf.eprintf "sim: --split-threshold requires --shards >= 2\n";
      exit 2
    end;
    (* One store feeds --series-out, burn-rate rules and the
       OpenMetrics quantile families alike; none of them -> no store,
       and the runner samples nothing. *)
    let series_store =
      if
        series_out <> None || metrics_out <> None
        || List.exists Wave_obs.Alert.needs_series rules
      then Some (Wave_obs.Series.create ())
      else None
    in
    let report_alerts events =
      if rules <> [] then begin
        Printf.printf "\nalerts: %d rule(s), %d event(s)\n" (List.length rules)
          (List.length events);
        List.iter
          (fun (e : Wave_obs.Alert.event) ->
            let rl = e.Wave_obs.Alert.e_rule in
            Printf.printf
              "  %-24s [%s] %s %s %g: fired day %d, last day %d, %s (value %g)\n"
              rl.Wave_obs.Alert.name (Wave_obs.Alert.kind_name rl)
              rl.Wave_obs.Alert.metric
              (Wave_obs.Alert.comparator_name rl.Wave_obs.Alert.comparator)
              rl.Wave_obs.Alert.threshold e.Wave_obs.Alert.fired_day
              e.Wave_obs.Alert.last_day
              (match e.Wave_obs.Alert.resolved_day with
              | None -> "still active"
              | Some d -> Printf.sprintf "resolved day %d" d)
              e.Wave_obs.Alert.value)
          events;
        match alerts_out with
        | None -> ()
        | Some path ->
          let oc = open_out path in
          output_string oc
            (Wave_obs.Json.to_string ~pretty:true
               (Wave_obs.Alert.events_json events));
          output_char oc '\n';
          close_out oc;
          Printf.printf "wrote %s\n" path
      end
    in
    let write_series_dump () =
      match (series_out, series_store) with
      | Some path, Some st ->
        let oc = open_out path in
        output_string oc
          (Wave_obs.Json.to_string ~pretty:true (Wave_obs.Series.to_json st));
        output_char oc '\n';
        close_out oc;
        (* Self-check: the dump must pass its own schema validation. *)
        (match Wave_obs.Sink.validate_series_file path with
        | Ok points ->
          Printf.printf "wrote %s: %d series point(s) over %d metric(s)\n" path
            points
            (List.length (Wave_obs.Series.names st))
        | Error e ->
          Printf.eprintf "sim: invalid series dump %s: %s\n" path e;
          exit 1)
      | _ -> ()
    in
    let write_openmetrics () =
      match metrics_out with
      | None -> ()
      | Some path ->
        let text = Wave_obs.Sink.openmetrics ?series:series_store () in
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        (match Wave_obs.Sink.validate_openmetrics_file path with
        | Ok samples ->
          Printf.printf "wrote %s: %d OpenMetrics sample(s)\n" path samples
        | Error e ->
          Printf.eprintf "sim: invalid OpenMetrics exposition %s: %s\n" path e;
          exit 1)
    in
    let store, dist =
      match workload with
      | `Netnews ->
        ( Wave_workload.Netnews.store
            {
              Wave_workload.Netnews.default_config with
              Wave_workload.Netnews.mean_postings = postings;
            },
          Wave_workload.Query_gen.Zipfian { vocab = 5_000; s = 1.0 } )
      | `Tpcd ->
        ( Wave_workload.Tpcd.store
            {
              Wave_workload.Tpcd.default_config with
              Wave_workload.Tpcd.mean_rows = postings;
            },
          Wave_workload.Query_gen.Uniform 1_000 )
    in
    let queries =
      {
        Wave_workload.Query_gen.seed = 99;
        probes_per_day = probes;
        probe_range = Wave_workload.Query_gen.Whole_window;
        scans_per_day = scans;
        scan_range = Wave_workload.Query_gen.Whole_window;
        value_dist = dist;
      }
    in
    let icfg =
      {
        Wave_storage.Index.default_config with
        Wave_storage.Index.cache_blocks;
        cache_readahead;
        cache_write_back = write_back;
        disk_backend = disk;
      }
    in
    if profile then begin
      Wave_obs.Trace.enable ();
      Wave_obs.Trace.reset ()
    end;
    Wave_obs.Recorder.clear ();
    Wave_obs.Recorder.set_dump_path flight_recorder;
    let run_env = ref None in
    let on_env env =
      run_env := Some env;
      match stall_after with
      | None -> ()
      | Some k ->
        Wave_disk.Disk.arm_fault env.Env.disk
          ~mode:(Wave_disk.Disk.Stall stall_seconds)
          { Wave_disk.Disk.target = Wave_disk.Disk.On_write; at = k }
    in
    let r =
      Wave_sim.Runner.run
        {
          (Wave_sim.Runner.default_config ~scheme ~store ~w ~n) with
          Wave_sim.Runner.technique;
          run_days = days;
          queries = Some queries;
          concurrent;
          query_rate;
          icfg;
          alerts = rules;
          series = series_store;
          on_env = Some on_env;
          shards;
          partition;
          split_threshold;
        }
    in
    (match !run_env with
    | Some env -> Wave_disk.Disk.close env.Env.disk
    | None -> ());
    let prof =
      if profile then begin
        let spans = Wave_obs.Trace.spans () in
        Wave_obs.Trace.disable ();
        Wave_obs.Trace.reset ();
        Some (Wave_obs.Profile.of_spans spans)
      end
      else None
    in
    Printf.printf "scheme=%s technique=%s W=%d n=%d days=%d%s\n"
      (Scheme.name scheme)
      (Env.technique_name technique)
      w n days
      (if shards > 1 then
         Printf.sprintf " shards=%d partition=%s" shards
           (Wave_shard.Partition.kind_name partition)
       else "");
    if shards > 1 then begin
      let router = r.Wave_sim.Runner.router in
      let clock = Wave_shard.Router.clock router in
      let queries = days * (probes + scans) in
      let makespan = r.Wave_sim.Runner.total_query_seconds in
      Printf.printf "queries served     %10d\n" queries;
      Printf.printf "query makespan     %10.4f model-seconds (parallel)\n" makespan;
      Printf.printf "query serial cost  %10.4f model-seconds (one-disk twin)\n"
        r.Wave_sim.Runner.query_serial_seconds;
      Printf.printf "maintenance        %10.4f model-seconds (parallel)\n"
        r.Wave_sim.Runner.total_maintenance_seconds;
      Printf.printf "throughput         %10.1f queries/model-second\n"
        (if makespan > 0.0 then float_of_int queries /. makespan else 0.0);
      Printf.printf "parallel speedup   %10.2fx over %d arms\n"
        (Wave_model.Parallel.speedup clock)
        (Wave_shard.Router.arms router);
      Printf.printf "busy skew ratio    %10.2f (max arm / mean arm)\n"
        (Wave_model.Parallel.skew_ratio clock);
      Printf.printf "splits committed   %10d\n" (Wave_shard.Router.splits router);
      let rows =
        List.init (Wave_shard.Router.arms router) (fun i ->
            let s = Wave_shard.Router.arm_scheme router i in
            [
              string_of_int i;
              Printf.sprintf "%.4f" (Wave_model.Parallel.busy_arm clock i);
              string_of_int (Scheme.allocated_bytes s);
              string_of_int (Frame.length (Scheme.frame s));
            ])
      in
      print_string
        (Wave_util.Table_print.render
           ~header:[ "arm"; "busy(model-s)"; "space(bytes)"; "wave(days)" ]
           ~rows);
      match Wave_obs.Metrics.lookup "shard.fanout" with
      | Some (`Histogram (Some h)) ->
        Printf.printf
          "fan-out            mean %.2f  p95 %.0f  p99 %.0f  max %.0f over %d \
           fan-outs\n"
          h.Wave_obs.Metrics.mean h.Wave_obs.Metrics.p95
          h.Wave_obs.Metrics.p99 h.Wave_obs.Metrics.max
          h.Wave_obs.Metrics.count
      | _ -> ()
    end
    else begin
      Printf.printf "total maintenance  %10.4f model-seconds\n"
        r.Wave_sim.Runner.total_maintenance_seconds;
      Printf.printf "total queries      %10.4f model-seconds\n"
        r.Wave_sim.Runner.total_query_seconds;
      Printf.printf "total work         %10.4f model-seconds\n"
        r.Wave_sim.Runner.total_work_seconds;
      Printf.printf "avg space          %10.0f bytes\n" r.Wave_sim.Runner.avg_space_bytes;
      Printf.printf "peak space         %10d bytes\n" r.Wave_sim.Runner.max_space_bytes;
      let avg f =
        List.fold_left (fun a d -> a +. f d) 0.0 r.Wave_sim.Runner.days
        /. float_of_int (List.length r.Wave_sim.Runner.days)
      in
      Printf.printf "avg transition     %10.4f model-seconds/day\n"
        (avg (fun d -> d.Wave_sim.Runner.transition_seconds));
      Printf.printf "avg pre-compute    %10.4f model-seconds/day\n"
        (avg (fun d -> d.Wave_sim.Runner.precompute_seconds));
      Printf.printf "avg wave length    %10.1f days\n"
        (avg (fun d -> float_of_int d.Wave_sim.Runner.wave_length));
      let pp_pct label (p : Wave_sim.Runner.percentiles) =
        Printf.printf "%s  p50 %.4f  p95 %.4f  p99 %.4f model-seconds/day\n" label
          p.Wave_sim.Runner.p50 p.Wave_sim.Runner.p95 p.Wave_sim.Runner.p99
      in
      pp_pct "transition latency" r.Wave_sim.Runner.transition_percentiles;
      pp_pct "query latency     " r.Wave_sim.Runner.query_percentiles;
      (match r.Wave_sim.Runner.concurrent with
      | None -> ()
      | Some cs ->
        Printf.printf
          "mid-transition     %d queries (%d snapshot, %d drained, %d queued) \
           at %g/model-s\n"
          cs.Wave_sim.Runner.mid_queries cs.Wave_sim.Runner.snapshot_served
          cs.Wave_sim.Runner.drained_served cs.Wave_sim.Runner.queued_served
          query_rate;
        let pp_lat label (p : Wave_sim.Runner.percentiles) =
          Printf.printf "%s  p50 %.4f  p95 %.4f  p99 %.4f model-seconds\n" label
            p.Wave_sim.Runner.p50 p.Wave_sim.Runner.p95 p.Wave_sim.Runner.p99
        in
        pp_lat "  concurrent      " cs.Wave_sim.Runner.concurrent_latency;
        pp_lat "  stop-the-world  " cs.Wave_sim.Runner.stopworld_latency)
    end;
    (match r.Wave_sim.Runner.cache_stats with
    | None -> ()
    | Some cs ->
      Format.printf "buffer pool        %a@." Wave_cache.Cache.pp_stats cs);
    (match Wave_obs.Metrics.lookup "disk.stalls" with
    | Some (`Counter s) when s > 0.0 ->
      Printf.printf "injected stalls    %10.0f (%.1f model-seconds each)\n" s
        stall_seconds
    | _ -> ());
    (match disk with
    | Wave_disk.Disk.Sim -> ()
    | Wave_disk.Disk.File path ->
      Printf.printf "block file         %s\n" path;
      print_file_io_stats ());
    report_alerts r.Wave_sim.Runner.alerts;
    write_series_dump ();
    write_openmetrics ();
    (match flight_recorder with
    | None -> Wave_obs.Recorder.set_dump_path None
    | Some path ->
      Wave_obs.Recorder.dump_to ~reason:"sim: end of run" path;
      Wave_obs.Recorder.set_dump_path None;
      (* Self-check: the dump must pass its own schema validation. *)
      (match Wave_obs.Sink.validate_flight_file path with
      | Ok events ->
        Printf.printf "wrote %s: %d flight event(s), %d dropped from the ring\n"
          path events
          (Wave_obs.Recorder.dropped ())
      | Error e ->
        Printf.eprintf "sim: invalid flight dump %s: %s\n" path e;
        exit 1));
    match prof with
    | None -> ()
    | Some prof ->
      print_top_table ~k:top "hot spots (self model-seconds)" prof;
      print_top_table ~under:[ "day"; "phase.maintenance" ] ~k:top
        "maintenance phase" prof;
      print_top_table ~under:[ "day"; "phase.query" ] ~k:top "query phase" prof
  in
  Cmd.v (Cmd.info "sim" ~doc)
    Term.(
      const run $ scheme $ technique $ w $ n $ days $ postings $ workload
      $ probes $ scans $ cache_blocks $ cache_readahead $ write_back $ alerts
      $ alerts_out $ profile $ top $ disk $ stall_after $ stall_seconds
      $ flight_recorder $ concurrent $ query_rate $ shards $ partition
      $ split_threshold $ series_out $ metrics_out)

let model_cmd =
  let doc =
    "Evaluate the analytic cost model (Tables 8-11) for a scenario and geometry."
  in
  let scenario =
    Arg.(
      value
      & opt (enum [ ("scam", `Scam); ("wse", `Wse); ("tpcd", `Tpcd) ]) `Scam
      & info [ "scenario" ] ~doc:"scam | wse | tpcd")
  in
  let technique =
    Arg.(
      value
      & opt technique_conv Env.Simple_shadow
      & info [ "technique" ] ~docv:"TECH" ~doc:"in-place | simple-shadow | packed-shadow")
  in
  let w = Arg.(value & opt (some int) None & info [ "window" ] ~doc:"window length (defaults to the scenario's)") in
  let n = Arg.(value & opt int 2 & info [ "indexes"; "n" ] ~doc:"constituent indexes") in
  let sf = Arg.(value & opt float 1.0 & info [ "sf" ] ~doc:"data scale factor") in
  let run scenario technique w n sf =
    let sc =
      match scenario with
      | `Scam -> Wave_model.Scenario.scam
      | `Wse -> Wave_model.Scenario.wse
      | `Tpcd -> Wave_model.Scenario.tpcd
    in
    let w = Option.value ~default:sc.Wave_model.Scenario.w w in
    let p = Wave_model.Params.scale sc.Wave_model.Scenario.params sf in
    Printf.printf "%s: W=%d n=%d SF=%.2f %s\n\n" sc.Wave_model.Scenario.name w n
      sf (Env.technique_name technique);
    Printf.printf "%-10s %14s %14s %14s %14s %12s %12s\n" "scheme" "pre(s)"
      "transition(s)" "space avg(MB)" "space max(MB)" "probe(s)" "work/day(s)";
    List.iter
      (fun scheme ->
        if Scheme.min_indexes scheme <= n then begin
          let s = Wave_model.Cost.evaluate p ~scheme ~technique ~w ~n in
          Printf.printf "%-10s %14.1f %14.1f %14.1f %14.1f %12.4f %12.0f\n"
            (Scheme.name scheme) s.Wave_model.Cost.pre_avg
            s.Wave_model.Cost.trans_avg
            (s.Wave_model.Cost.space_avg /. 1048576.0)
            (s.Wave_model.Cost.space_max /. 1048576.0)
            s.Wave_model.Cost.probe_seconds s.Wave_model.Cost.work_per_day
        end)
      Scheme.all
  in
  Cmd.v (Cmd.info "model" ~doc)
    Term.(const run $ scenario $ technique $ w $ n $ sf)

(* Deterministic Netnews store shared by the trace and bench demos: the
   day store is the system of record, so a wave can be rebuilt anywhere
   the store is reachable. *)
let demo_store postings =
  Wave_workload.Netnews.store
    {
      Wave_workload.Netnews.default_config with
      Wave_workload.Netnews.mean_postings = postings;
    }

let demo_queries =
  {
    Wave_workload.Query_gen.seed = 99;
    probes_per_day = 20;
    probe_range = Wave_workload.Query_gen.Whole_window;
    scans_per_day = 1;
    scan_range = Wave_workload.Query_gen.Whole_window;
    value_dist = Wave_workload.Query_gen.Zipfian { vocab = 5_000; s = 1.0 };
  }

let trace_cmd =
  let doc =
    "Print a scheme's transition trace (like the paper's Tables 1-7), or, \
     with --out, run a traced simulation and write its spans as a Chrome \
     trace_event file (chrome://tracing, Perfetto) or a JSONL event log."
  in
  let scheme_pos =
    Arg.(
      value
      & pos 0 (some scheme_conv) None
      & info [] ~docv:"SCHEME" ~doc:"scheme (DEL | REINDEX | ... | RATA)")
  in
  let tech_pos =
    Arg.(
      value
      & pos 1 (some technique_conv) None
      & info [] ~docv:"TECH" ~doc:"technique (in-place | simple-shadow | packed-shadow)")
  in
  let scheme_opt =
    Arg.(
      value
      & opt scheme_conv Scheme.Del
      & info [ "scheme" ] ~docv:"SCHEME" ~doc:"scheme to trace (alias of the positional)")
  in
  let w = Arg.(value & opt int 10 & info [ "window"; "w" ] ~doc:"window length") in
  let n = Arg.(value & opt int 2 & info [ "indexes"; "n" ] ~doc:"constituent indexes") in
  let days = Arg.(value & opt int 8 & info [ "days" ] ~doc:"transitions to trace") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"run a traced simulation (with queries) and write span events here")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
      & info [ "format" ] ~doc:"output format for --out: chrome | jsonl")
  in
  let textual_trace scheme w n days =
    let store day =
      Wave_storage.Entry.batch_create ~day
        [|
          {
            Wave_storage.Entry.value = 1;
            entry = { Wave_storage.Entry.rid = day; day; info = 0 };
          };
        |]
    in
    let env = Env.create ~store ~w ~n () in
    let s = Scheme.start scheme env in
    let show () =
      Printf.printf "day %3d: " (Scheme.current_day s);
      for j = 1 to n do
        Printf.printf "I%d=%s  " j
          (Dayset.to_string (Frame.slot_days (Scheme.frame s) j))
      done;
      let temps = Scheme.temp_days s in
      if temps <> [] then
        Printf.printf "temps=%s"
          (String.concat " " (List.map Dayset.to_string temps));
      print_newline ()
    in
    Printf.printf "%s, W=%d, n=%d\n" (Scheme.name scheme) w n;
    show ();
    for _ = 1 to days do
      Scheme.transition s;
      show ()
    done
  in
  let traced_run scheme technique w n days path format =
    if n < 1 || n > w then begin
      Printf.eprintf "trace: need 1 <= n <= w (got W=%d n=%d)\n" w n;
      exit 2
    end;
    if n < Scheme.min_indexes scheme then begin
      Printf.eprintf "trace: %s needs at least %d constituents (got n=%d)\n"
        (Scheme.name scheme)
        (Scheme.min_indexes scheme)
        n;
      exit 2
    end;
    Wave_obs.Trace.enable ();
    Wave_obs.Trace.reset ();
    (* A JSONL target doubles as the mid-run flush sink: alert firings
       and exceptional exits write the events collected so far to the
       same path, which the end-of-run write below then replaces. *)
    (match format with
    | `Jsonl -> Wave_obs.Sink.set_flush_path (Some path)
    | `Chrome -> ());
    let r =
      Wave_sim.Runner.run
        {
          (Wave_sim.Runner.default_config ~scheme ~store:(demo_store 200) ~w ~n) with
          Wave_sim.Runner.technique;
          run_days = days;
          queries = Some demo_queries;
        }
    in
    let spans = Wave_obs.Trace.spans () in
    let instants = Wave_obs.Trace.instants () in
    Wave_obs.Trace.disable ();
    Wave_obs.Trace.reset ();
    Wave_obs.Sink.set_flush_path None;
    (match format with
    | `Chrome -> (
      Wave_obs.Sink.write_chrome ~path ~spans ~instants ();
      match Wave_obs.Sink.validate_chrome_file path with
      | Ok events ->
        Printf.printf
          "wrote %s: %d trace_event records (%d spans, %d instants) over %d days\n"
          path events (List.length spans) (List.length instants)
          (List.length r.Wave_sim.Runner.days)
      | Error e ->
        Printf.eprintf "trace: emitted file failed validation: %s\n" e;
        exit 1)
    | `Jsonl ->
      Wave_obs.Sink.write_jsonl ~path ~spans ~instants;
      Printf.printf "wrote %s: %d JSONL events over %d days\n" path
        (List.length spans + List.length instants)
        (List.length r.Wave_sim.Runner.days));
    Printf.printf "maintenance %.4f model-s, queries %.4f model-s\n"
      r.Wave_sim.Runner.total_maintenance_seconds
      r.Wave_sim.Runner.total_query_seconds
  in
  let run scheme_pos tech_pos scheme_opt w n days out format =
    let scheme = Option.value ~default:scheme_opt scheme_pos in
    let technique = Option.value ~default:Env.In_place tech_pos in
    match out with
    | None -> textual_trace scheme w n days
    | Some path -> traced_run scheme technique w n days path format
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ scheme_pos $ tech_pos $ scheme_opt $ w $ n $ days $ out $ format)

(* Run a traced simulation and fold its spans into a profile.  Returns
   the profile together with the run result so callers can cross-check
   attribution against day_metrics.  [stall_after] arms a model-time
   stall on the K-th write, so a --diff against an unstalled baseline
   attributes the slowdown to the node the stall landed in. *)
let profiled_run ?stall_after ?(stall_seconds = 30.0) ?series ~scheme
    ~technique ~w ~n ~days ~postings () =
  if n < 1 || n > w then begin
    Printf.eprintf "profile: need 1 <= n <= w (got W=%d n=%d)\n" w n;
    exit 2
  end;
  if n < Scheme.min_indexes scheme then begin
    Printf.eprintf "profile: %s needs at least %d constituents (got n=%d)\n"
      (Scheme.name scheme)
      (Scheme.min_indexes scheme)
      n;
    exit 2
  end;
  Wave_obs.Trace.enable ();
  Wave_obs.Trace.reset ();
  let on_env env =
    match stall_after with
    | None -> ()
    | Some k ->
      Wave_disk.Disk.arm_fault env.Env.disk
        ~mode:(Wave_disk.Disk.Stall stall_seconds)
        { Wave_disk.Disk.target = Wave_disk.Disk.On_write; at = k }
  in
  let r =
    Wave_sim.Runner.run
      {
        (Wave_sim.Runner.default_config ~scheme ~store:(demo_store postings) ~w ~n) with
        Wave_sim.Runner.technique;
        run_days = days;
        queries = Some demo_queries;
        series;
        on_env = Some on_env;
      }
  in
  let spans = Wave_obs.Trace.spans () in
  Wave_obs.Trace.disable ();
  Wave_obs.Trace.reset ();
  (Wave_obs.Profile.of_spans spans, r)

(* The profiler's conservation invariant: the aggregated [day] node is
   inclusive of everything day_metrics measures, so its total must
   reproduce the run's maintenance + query model-seconds. *)
let check_conservation prof (r : Wave_sim.Runner.result) =
  let expected =
    r.Wave_sim.Runner.total_maintenance_seconds
    +. r.Wave_sim.Runner.total_query_seconds
  in
  match Wave_obs.Profile.find prof [ "day" ] with
  | None ->
    Printf.eprintf "profile: no \"day\" node in the span tree\n";
    exit 1
  | Some day ->
    let diff = Float.abs (day.Wave_obs.Profile.total_model -. expected) in
    if diff > 1e-6 then begin
      Printf.eprintf
        "profile: conservation violated: day tree %.9f vs day_metrics %.9f \
         model-s (diff %.3g)\n"
        day.Wave_obs.Profile.total_model expected diff;
      exit 1
    end;
    (expected, diff)

let profile_cmd =
  let doc =
    "Profile a traced simulation: aggregate its spans into a call tree, \
     write flamegraph.pl/speedscope-compatible folded stacks (--out) and \
     optionally a JSON profile (--json), print per-phase hot-spot tables, \
     and verify cost conservation against the run's day metrics."
  in
  let scheme_pos =
    Arg.(
      value
      & pos 0 (some scheme_conv) None
      & info [] ~docv:"SCHEME" ~doc:"scheme (DEL | REINDEX | ... | RATA)")
  in
  let tech_pos =
    Arg.(
      value
      & pos 1 (some technique_conv) None
      & info [] ~docv:"TECH" ~doc:"technique (in-place | simple-shadow | packed-shadow)")
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"folded-stack output path")
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"also write the JSON profile here")
  in
  let w = Arg.(value & opt int 7 & info [ "window"; "w" ] ~doc:"window length") in
  let n = Arg.(value & opt int 2 & info [ "indexes"; "n" ] ~doc:"constituent indexes") in
  let days = Arg.(value & opt int 8 & info [ "days" ] ~doc:"transitions to profile") in
  let postings =
    Arg.(value & opt int 200 & info [ "postings" ] ~doc:"mean postings per day")
  in
  let top = Arg.(value & opt int 10 & info [ "top" ] ~doc:"table size (hot spots)") in
  let diff =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff" ] ~docv:"BASELINE.json"
          ~doc:
            "diff this run against a baseline waveidx-profile/1 document \
             (a --json emission): trees are aligned by span-stack path \
             and the top regressing/improving nodes printed by |self \
             model-seconds delta|")
  in
  let diff_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "diff-json" ] ~docv:"FILE"
          ~doc:
            "also write the machine-readable waveidx-profile-diff/1 \
             document here (requires --diff)")
  in
  let stall_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "stall-after" ] ~docv:"K"
          ~doc:
            "arm a stall fault on the K-th write of the run; with --diff \
             against an unstalled baseline, the report attributes the \
             slowdown to the node the stall landed in")
  in
  let stall_seconds =
    Arg.(
      value
      & opt float 30.0
      & info [ "stall-seconds" ] ~docv:"S" ~doc:"stall duration for --stall-after")
  in
  let run scheme_pos tech_pos out json diff diff_json stall_after stall_seconds w
      n days postings top =
    let scheme = Option.value ~default:Scheme.Del scheme_pos in
    let technique = Option.value ~default:Env.In_place tech_pos in
    if diff_json <> None && diff = None then begin
      Printf.eprintf "profile: --diff-json requires --diff\n";
      exit 2
    end;
    let prof, r =
      profiled_run ?stall_after ~stall_seconds ~scheme ~technique ~w ~n ~days
        ~postings ()
    in
    Wave_obs.Sink.write_folded ~path:out prof;
    Printf.printf "wrote %s: folded stacks for %d spans (%d nodes)\n" out
      (Wave_obs.Profile.span_count prof)
      (List.length (Wave_obs.Profile.nodes prof));
    (match json with
    | None -> ()
    | Some jpath -> (
      Wave_obs.Sink.write_profile ~path:jpath prof;
      match Wave_obs.Sink.validate_profile_file jpath with
      | Ok nodes -> Printf.printf "wrote %s: JSON profile (%d nodes)\n" jpath nodes
      | Error e ->
        Printf.eprintf "profile: emitted JSON failed validation: %s\n" e;
        exit 1));
    let expected, cons_diff = check_conservation prof r in
    Printf.printf
      "conservation: day tree reproduces %.4f model-s of day metrics (diff %.2g)\n"
      expected cons_diff;
    print_top_table ~k:top "hot spots (self model-seconds)" prof;
    print_top_table ~under:[ "day"; "phase.maintenance" ] ~k:top
      "maintenance phase" prof;
    print_top_table ~under:[ "day"; "phase.query" ] ~k:top "query phase" prof;
    match diff with
    | None -> ()
    | Some bpath ->
      let baseline =
        match In_channel.with_open_bin bpath In_channel.input_all with
        | exception Sys_error e ->
          Printf.eprintf "profile: --diff: %s\n" e;
          exit 2
        | text -> (
          match Wave_obs.Json.parse text with
          | Error e ->
            Printf.eprintf "profile: --diff %s: bad JSON: %s\n" bpath e;
            exit 2
          | Ok j -> (
            match Wave_obs.Profile.of_json j with
            | Error e ->
              Printf.eprintf "profile: --diff %s: %s\n" bpath e;
              exit 2
            | Ok p -> p))
      in
      let d = Wave_obs.Profile.diff ~baseline ~current:prof in
      print_newline ();
      print_string (Wave_obs.Profile.diff_report ~k:top d);
      (match diff_json with
      | None -> ()
      | Some dpath ->
        let oc = open_out dpath in
        output_string oc
          (Wave_obs.Json.to_string ~pretty:true (Wave_obs.Profile.diff_json d));
        output_char oc '\n';
        close_out oc;
        Printf.printf "wrote %s\n" dpath)
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ scheme_pos $ tech_pos $ out $ json $ diff $ diff_json
      $ stall_after $ stall_seconds $ w $ n $ days $ postings $ top)

let bench_cmd =
  let doc =
    "Deterministic micro-benchmarks on the simulated disk: per-scheme \
     probe, scan and transition latencies (model seconds), with p50/p95 \
     over many runs.  --json writes a machine-readable snapshot \
     (BENCH_wave.json) that is stable across machines because it measures \
     the disk model, not wall clock."
  in
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"write results as JSON to $(docv)")
  in
  (* The bench's geometry.  BENCH_wave.json is this run's output and
     `dune runtest` diffs a fresh run against it, so these are
     constants: changing one changes the snapshot, which `dune promote`
     then accepts. *)
  let runs = 40 and w = 7 and n = 3 and postings = 200 in
  let cache_blocks = 4096 in
  let run json =
    let store = demo_store postings in
    let results = ref [] in
    let record ?cache ?wb name samples =
      let xs = Array.of_list samples in
      results :=
        ( name,
          Wave_util.Stats.percentile xs 50.0,
          Wave_util.Stats.percentile xs 95.0,
          Array.length xs,
          cache,
          wb )
        :: !results
    in
    let cached_icfg =
      {
        Wave_storage.Index.default_config with
        Wave_storage.Index.cache_blocks = Some cache_blocks;
        cache_readahead = 8;
      }
    in
    let wb_icfg =
      { cached_icfg with Wave_storage.Index.cache_write_back = true }
    in
    let time_on disk f =
      let before = Wave_disk.Disk.elapsed disk in
      ignore (f ());
      Wave_disk.Disk.elapsed disk -. before
    in
    List.iter
      (fun scheme ->
        if Scheme.min_indexes scheme <= n then begin
          let sname = Scheme.name scheme in
          (* Query-side benchmarks against a steady-state wave. *)
          let env = Env.create ~store ~w ~n () in
          let s = Scheme.start scheme env in
          Scheme.advance_to s (2 * w);
          let disk = env.Env.disk in
          let frame = Scheme.frame s in
          let d = Scheme.current_day s in
          let prng = Wave_util.Prng.create 17 in
          let zipf = Wave_util.Zipf.create ~n:5_000 ~s:1.0 in
          record
            (Printf.sprintf "probe/%s" sname)
            (List.init runs (fun _ ->
                 let value = Wave_util.Zipf.sample zipf prng in
                 time_on disk (fun () ->
                     Frame.timed_index_probe frame ~t1:(d - w + 1) ~t2:d ~value)));
          record
            (Printf.sprintf "scan/%s" sname)
            (List.init
               (max 5 (runs / 4))
               (fun i ->
                 let t1 = d - w + 1 + (i mod w) in
                 time_on disk (fun () ->
                     Frame.timed_segment_scan frame ~t1 ~t2:d)));
          (* Cached twins of the query benchmarks: same steady state,
             same PRNG streams, with a buffer pool attached.  A first
             un-recorded pass warms the pool, then hit ratios are read
             off the measured pass's counter deltas. *)
          let env = Env.create ~icfg:cached_icfg ~store ~w ~n () in
          let s = Scheme.start scheme env in
          Scheme.advance_to s (2 * w);
          let disk = env.Env.disk in
          let frame = Scheme.frame s in
          let d = Scheme.current_day s in
          let pool = Option.get (Wave_cache.Cache.find disk) in
          let measure_cached name samples =
            let s0 = Wave_cache.Cache.stats pool in
            let xs = samples () in
            let s1 = Wave_cache.Cache.stats pool in
            let hits = s1.Wave_cache.Cache.hits - s0.Wave_cache.Cache.hits in
            let misses =
              s1.Wave_cache.Cache.misses - s0.Wave_cache.Cache.misses
            in
            let ratio =
              Wave_util.Stats.ratio (float_of_int hits)
                (float_of_int (hits + misses))
            in
            record ~cache:(ratio, hits, misses) name xs
          in
          let probe_pass record_it =
            let prng = Wave_util.Prng.create 17 in
            let samples =
              List.init runs (fun _ ->
                  let value = Wave_util.Zipf.sample zipf prng in
                  time_on disk (fun () ->
                      Frame.timed_index_probe frame ~t1:(d - w + 1) ~t2:d
                        ~value))
            in
            if record_it then samples else []
          in
          let scan_pass record_it =
            let samples =
              List.init
                (max 5 (runs / 4))
                (fun i ->
                  let t1 = d - w + 1 + (i mod w) in
                  time_on disk (fun () ->
                      Frame.timed_segment_scan frame ~t1 ~t2:d))
            in
            if record_it then samples else []
          in
          ignore (probe_pass false);
          ignore (scan_pass false);
          measure_cached
            (Printf.sprintf "probe+cache/%s" sname)
            (fun () -> probe_pass true);
          measure_cached
            (Printf.sprintf "scan+cache/%s" sname)
            (fun () -> scan_pass true);
          (* Maintenance-side benchmarks: one sample per simulated day. *)
          List.iter
            (fun technique ->
              let env = Env.create ~store ~technique ~w ~n () in
              let s = Scheme.start scheme env in
              Scheme.advance_to s (2 * w);
              let disk = env.Env.disk in
              record
                (Printf.sprintf "transition/%s/%s" sname
                   (Env.technique_name technique))
                (List.init runs (fun _ ->
                     time_on disk (fun () -> Scheme.transition s))))
            [ Env.In_place; Env.Packed_shadow ];
          (* Write-back twins of the transition benchmarks: each sample
             is a transition plus its flush drain, so the timing
             includes the coalesced deferred writes — the comparison
             the paper's Tables 8-11 charge uncoalesced. *)
          List.iter
            (fun technique ->
              let env = Env.create ~icfg:wb_icfg ~store ~technique ~w ~n () in
              let s = Scheme.start scheme env in
              Scheme.advance_to s (2 * w);
              let disk = env.Env.disk in
              let pool = Option.get (Wave_cache.Cache.find disk) in
              let s0 = Wave_cache.Cache.stats pool in
              let samples =
                List.init runs (fun _ ->
                    time_on disk (fun () ->
                        Scheme.transition s;
                        Wave_cache.Cache.flush pool))
              in
              let s1 = Wave_cache.Cache.stats pool in
              record
                ~wb:
                  ( s1.Wave_cache.Cache.writes_coalesced
                    - s0.Wave_cache.Cache.writes_coalesced,
                    s1.Wave_cache.Cache.flushes - s0.Wave_cache.Cache.flushes,
                    s1.Wave_cache.Cache.flushed_blocks
                    - s0.Wave_cache.Cache.flushed_blocks )
                (Printf.sprintf "transition+wb/%s/%s" sname
                   (Env.technique_name technique))
                samples;
              Wave_cache.Cache.detach disk)
            [ Env.In_place; Env.Packed_shadow ];
          (* Concurrent-serving twin of the probe benchmark: a full
             simulated run (simple shadow) with query arrivals
             interleaved into each transition's disk schedule under
             epoch snapshot isolation.  Samples are the mid-transition
             arrival-to-completion latencies; probe+stopworld is the
             counterfactual for the same arrival schedule — the
             transition running alone, then the queued probes serially
             behind it. *)
          let r =
            Wave_sim.Runner.run
              {
                (Wave_sim.Runner.default_config ~scheme ~store ~w ~n) with
                Wave_sim.Runner.technique = Env.Simple_shadow;
                run_days = 2 * w;
                queries = Some demo_queries;
                concurrent = true;
                query_rate = 200.0;
              }
          in
          match r.Wave_sim.Runner.concurrent with
          | Some c when Array.length c.Wave_sim.Runner.concurrent_samples > 0 ->
            record
              (Printf.sprintf "probe+concurrent/%s" sname)
              (Array.to_list c.Wave_sim.Runner.concurrent_samples);
            record
              (Printf.sprintf "probe+stopworld/%s" sname)
              (Array.to_list c.Wave_sim.Runner.stopworld_samples)
          | _ ->
            Printf.eprintf
              "bench: %s served no mid-transition queries; concurrent series \
               skipped\n"
              sname
        end)
      Scheme.all;
    (* Sharded throughput scaling (required bench series): the same Zipf
       probe stream fanned over 1/2/4/8 hash arms.  Each sample is the
       makespan of a 32-probe chunk divided by the chunk size — the
       effective per-probe latency when arms serve their share of the
       chunk concurrently — so p50 falling with the arm count IS the
       throughput scaling curve (4 arms must at least halve the 1-arm
       latency; the shard.scaling test asserts it). *)
    List.iter
      (fun shards ->
        let router =
          Wave_shard.Router.create ~kind:Scheme.Del
            ~partition:Wave_shard.Partition.Hash ~shards ~vocab:5_000 ~store
            ~w ~n ()
        in
        while Wave_shard.Router.current_day router < 2 * w do
          ignore (Wave_shard.Router.advance router)
        done;
        let d = Wave_shard.Router.current_day router in
        let prng = Wave_util.Prng.create 17 in
        let zipf = Wave_util.Zipf.create ~n:5_000 ~s:1.0 in
        let chunk = 32 in
        record
          (Printf.sprintf "throughput+shards/%d" shards)
          (List.init runs (fun _ ->
               let before =
                 Array.init (Wave_shard.Router.arms router) (fun i ->
                     Wave_disk.Disk.elapsed (Wave_shard.Router.arm_disk router i))
               in
               for _ = 1 to chunk do
                 let value = Wave_util.Zipf.sample zipf prng in
                 ignore
                   (Wave_shard.Router.probe router ~value ~t1:(d - w + 1) ~t2:d)
               done;
               let makespan =
                 Array.fold_left Float.max 0.0
                   (Array.mapi
                      (fun i b ->
                        Wave_disk.Disk.elapsed
                          (Wave_shard.Router.arm_disk router i)
                        -. b)
                      before)
               in
               makespan /. float_of_int chunk)))
      [ 1; 2; 4; 8 ];
    let results = List.rev !results in
    Printf.printf "%-34s %12s %12s %6s %10s %22s\n" "benchmark" "p50(ms)"
      "p95(ms)" "runs" "hit-ratio" "write-back";
    List.iter
      (fun (name, p50, p95, r, cache, wb) ->
        Printf.printf "%-34s %12.4f %12.4f %6d %10s %22s\n" name (p50 *. 1e3)
          (p95 *. 1e3) r
          (match cache with
          | None -> "-"
          | Some (ratio, _, _) -> Printf.sprintf "%.3f" ratio)
          (match wb with
          | None -> "-"
          | Some (coalesced, flushes, blocks) ->
            Printf.sprintf "c=%d f=%d b=%d" coalesced flushes blocks))
      results;
    (match json with
    | None -> ()
    | Some path ->
      (* The profile block: where a canonical traced run (DEL,
         in-place) spends its model-seconds, so a snapshot diff shows
         cost-attribution drift, not just endpoint latencies.  The
         series block summarizes the same run's metric time-series.
         The registry is process-global, so it is zeroed first, and a
         metric that stays 0 through the run (a counter of some other
         phase) is left out. *)
      let bench_series_store = Wave_obs.Series.create () in
      Wave_obs.Metrics.reset_all ();
      let prof, pr =
        profiled_run ~series:bench_series_store ~scheme:Scheme.Del
          ~technique:Env.In_place ~w ~n:2 ~days:6 ~postings ()
      in
      ignore (check_conservation prof pr);
      let open Wave_obs.Json in
      let series_json =
        let tracked =
          List.filter_map
            (fun name ->
              match
                Wave_obs.Series.window_stats bench_series_store name ~n:max_int
              with
              | Some ws
                when ws.Wave_obs.Series.w_min <> 0.0
                     || ws.Wave_obs.Series.w_max <> 0.0 ->
                let last =
                  match Wave_obs.Series.last_n bench_series_store name 1 with
                  | [ p ] -> p.Wave_obs.Series.value
                  | _ -> ws.Wave_obs.Series.w_mean
                in
                let trend =
                  match
                    Wave_obs.Series.trend bench_series_store name ~n:max_int
                  with
                  | Some s when Float.is_finite s -> Num s
                  | _ -> Null
                in
                Some
                  (Obj
                     [
                       ("name", Str name);
                       ("points", int ws.Wave_obs.Series.w_count);
                       ("last", Num last);
                       ("mean", Num ws.Wave_obs.Series.w_mean);
                       ("p95", Num ws.Wave_obs.Series.w_p95);
                       ("trend", trend);
                     ])
              | _ -> None)
            (Wave_obs.Series.names bench_series_store)
        in
        Obj
          [
            ("schema", Str Wave_obs.Series.schema);
            ("ticks", int (Wave_obs.Series.tick bench_series_store));
            ("tracked", Arr tracked);
          ]
      in
      let profile_json =
        Obj
          [
            ("scheme", Str (Scheme.name Scheme.Del));
            ("technique", Str (Env.technique_name Env.In_place));
            ("days", int (List.length pr.Wave_sim.Runner.days));
            ("total_model_s", Num (Wave_obs.Profile.total_model prof));
            ( "top",
              Arr
                (List.map
                   (fun nd ->
                     Obj
                       [
                         ("path", Str (Wave_obs.Profile.path_string nd));
                         ("calls", int nd.Wave_obs.Profile.calls);
                         ("self_model_s", Num nd.Wave_obs.Profile.self_model);
                         ("total_model_s", Num nd.Wave_obs.Profile.total_model);
                         ("seeks", int nd.Wave_obs.Profile.seeks);
                       ])
                   (Wave_obs.Profile.top_self ~k:8 prof)) );
          ]
      in
      let j =
        Obj
          [
            ("schema", Str "waveidx-bench/7");
            ("unit", Str "model-seconds");
            ( "config",
              Obj
                [
                  ("w", int w);
                  ("n", int n);
                  ("postings", int postings);
                  ("runs", int runs);
                  ("cache_blocks", int cache_blocks);
                ] );
            ("profile", profile_json);
            ("series", series_json);
            ( "benchmarks",
              Arr
                (List.map
                   (fun (name, p50, p95, r, cache, wb) ->
                     Obj
                       ([
                          ("name", Str name);
                          ("p50", Num p50);
                          ("p95", Num p95);
                          ("runs", int r);
                        ]
                       @ (match cache with
                         | None -> []
                         | Some (ratio, hits, misses) ->
                           [
                             ( "cache",
                               Obj
                                 [
                                   ("hit_ratio", Num ratio);
                                   ("hits", int hits);
                                   ("misses", int misses);
                                   ("frames", int cache_blocks);
                                 ] );
                           ])
                       @
                       match wb with
                       | None -> []
                       | Some (coalesced, flushes, blocks) ->
                         [
                           ( "writeback",
                             Obj
                               [
                                 ("writes_coalesced", int coalesced);
                                 ("flushes", int flushes);
                                 ("flushed_blocks", int blocks);
                               ] );
                         ]))
                   results) );
          ]
      in
      let oc = open_out path in
      output_string oc (to_string ~pretty:true j);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nwrote %s (%d benchmarks)\n" path (List.length results))
  in
  Cmd.v (Cmd.info "bench" ~doc) Term.(const run $ json)

module Crash_harness = Wave_sim.Crash_harness

(* One crash sweep per scheme x technique x day, printed as a
   pass/fail matrix (one cell per scheme x technique, summing its
   days).  Artifacts and reopen directories are per cell:
   [<root>/<scheme>_<technique>_d<day>].  Returns the failing cells. *)
let sweep_matrix ~title ~verbose ?icfg ?artifacts ~op ~kill ~w ~n ~days () =
  let techniques = [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ] in
  print_string title;
  Printf.printf "%-10s" "scheme";
  List.iter (fun t -> Printf.printf " %18s" (Env.technique_name t)) techniques;
  print_newline ();
  let failures = ref 0 and total = ref 0 and recovered = ref 0 in
  List.iter
    (fun scheme ->
      Printf.printf "%-10s" (Scheme.name scheme);
      List.iter
        (fun technique ->
          let reports =
            List.map
              (fun day ->
                let cell root =
                  Filename.concat root
                    (Printf.sprintf "%s_%s_d%d" (Scheme.name scheme)
                       (Env.technique_name technique) day)
                in
                let kill =
                  match kill with
                  | Crash_harness.Reopen root -> Crash_harness.Reopen (cell root)
                  | k -> k
                in
                Crash_harness.sweep ?icfg
                  ?artifact_dir:(Option.map cell artifacts)
                  ~op ~kill ~scheme ~technique ~w ~n ~day ())
              days
          in
          let points =
            List.concat_map (fun r -> r.Crash_harness.points) reports
          in
          total := !total + List.length points;
          recovered :=
            !recovered
            + List.length (List.filter Crash_harness.point_passed points);
          let ok = List.for_all (fun r -> r.Crash_harness.passed) reports in
          if not ok then incr failures;
          Printf.printf " %13s %4s"
            (Printf.sprintf "%d pts" (List.length points))
            (if ok then "ok" else "FAIL");
          List.iter
            (fun r ->
              if verbose || not r.Crash_harness.passed then
                print_string (Format.asprintf "@.%a" Crash_harness.pp_report r))
            reports)
        techniques;
      print_newline ())
    Scheme.all;
  Printf.printf "%d fault points, %d recovered, %d failed\n" !total !recovered
    (!total - !recovered);
  !failures

let finish_sweeps failures =
  if failures > 0 then begin
    Printf.printf "\n%d combination(s) FAILED\n" failures;
    exit 1
  end
  else print_string "\nall combinations recovered consistently\n"

let crashtest_cmd =
  let doc =
    "Crash-consistency sweep: inject a fault at every seek and write of a \
     transition, recover, and check the wave answers queries like an \
     uncrashed twin.  Prints a scheme x technique pass/fail matrix."
  in
  let w = Arg.(value & opt int 6 & info [ "window"; "w" ] ~doc:"window length") in
  let n = Arg.(value & opt int 3 & info [ "indexes"; "n" ] ~doc:"constituents") in
  let days =
    Arg.(
      value & opt int 3
      & info [ "days" ] ~doc:"number of consecutive transitions to sweep")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"per-point detail")
  in
  let cache_blocks =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-blocks" ] ~docv:"N"
          ~doc:"run the sweep with an N-frame buffer pool attached")
  in
  let write_back =
    Arg.(
      value & flag
      & info [ "write-back" ]
          ~doc:
            "sweep with the pool in write-back mode (adds flush / \
             dirty-pool fault points); requires --cache-blocks")
  in
  let kill_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "kill" ] ~docv:"DIR"
          ~doc:
            "kill-and-recover mode: run every instance on a real file-backed \
             disk in its own checkpoint directory under DIR, crash by \
             killing the process state (close the block file, drop all \
             memory), and recover with Checkpoint.reopen from the surviving \
             files alone; failing points keep their directories as \
             artifacts")
  in
  let double =
    Arg.(
      value & flag
      & info [ "double" ]
          ~doc:
            "additionally sweep double faults: crash the transition, then \
             crash recovery itself at its own enumerated points, then \
             recover again (proves recovery is re-entrant)")
  in
  let artifacts =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:
            "in-memory and double sweeps: write a flight-recorder dump \
             (waveidx-flight/1 JSONL) per failing point to \
             DIR/<scheme>_<technique>_d<day>/<point>_<mode>.flight.jsonl \
             (--kill mode instead keeps each failing point's directory, \
             with a flight.jsonl inside, at the same place under its DIR)")
  in
  let concurrent =
    Arg.(
      value & flag
      & info [ "concurrent" ]
          ~doc:
            "interleave mid-transition probes under epoch snapshot \
             isolation in every sweep (twin and instances alike): the \
             fault schedule then also covers the epoch-swap and \
             reader-drain window, and each point additionally checks \
             that every served probe answered from exactly one \
             committed epoch")
  in
  let run w n days verbose cache_blocks write_back kill_dir double artifacts
      concurrent =
    if write_back && cache_blocks = None then begin
      Printf.eprintf "crashtest: --write-back requires --cache-blocks\n";
      exit 2
    end;
    if n < 1 || n > w then begin
      Printf.eprintf "crashtest: need 1 <= n <= w (got W=%d n=%d)\n" w n;
      exit 2
    end;
    if days < 1 then begin
      Printf.eprintf "crashtest: need at least one day to sweep\n";
      exit 2
    end;
    let icfg =
      Option.map
        (fun frames ->
          {
            Wave_storage.Index.default_config with
            Wave_storage.Index.cache_blocks = Some frames;
            cache_readahead = 2;
            cache_write_back = write_back;
          })
        cache_blocks
    in
    let sweep_days = List.init days (fun i -> w + 2 + i) in
    let title =
      Printf.sprintf
        "crash sweep%s%s: W=%d n=%d days %d..%d, every fault point%s%s\n\n"
        (match kill_dir with None -> "" | Some _ -> " (kill-and-recover)")
        (if concurrent then " (concurrent probes in flight)" else "")
        w n
        (List.hd sweep_days)
        (List.nth sweep_days (days - 1))
        (match cache_blocks with
        | None -> ""
        | Some b ->
          Printf.sprintf ", %d-frame buffer pool%s" b
            (if write_back then " (write-back)" else ""))
        (match kill_dir with
        | None -> ""
        | Some d -> Printf.sprintf ", block files under %s" d)
    in
    let failures =
      sweep_matrix ~title ~verbose ?icfg ?artifacts
        ~op:
          (if concurrent then Crash_harness.Concurrent_transition
           else Crash_harness.Transition)
        ~kill:
          (match kill_dir with
          | Some d -> Crash_harness.Reopen d
          | None -> Crash_harness.In_memory)
        ~w ~n ~days:sweep_days ()
    in
    let failures =
      if double then
        failures
        + sweep_matrix
            ~title:
              "\ndouble faults (crash recovery, recover again; 0 pts = recovery \
               charges no I/O)\n"
            ~verbose ?icfg ?artifacts ~op:Crash_harness.Transition
            ~kill:Crash_harness.Double ~w ~n ~days:sweep_days ()
      else failures
    in
    finish_sweeps failures
  in
  Cmd.v (Cmd.info "crashtest" ~doc)
    Term.(
      const run $ w $ n $ days $ verbose $ cache_blocks $ write_back $ kill_dir
      $ double $ artifacts $ concurrent)

let shardtest_cmd =
  let doc =
    "Crash sweep of the shard-split transition: an uncrashed twin discovers \
     every disk fault point of a split (on the victim's disk and on the \
     fresh sibling's), then a fresh router is killed at each point and \
     recovered — recovery must land on exactly one committed shard map, \
     with probes bit-identical to the pre-split reference, no leaked \
     extents, and the split re-runnable to completion."
  in
  let w =
    Arg.(value & opt int 4 & info [ "window"; "w" ] ~doc:"window length in days")
  in
  let n = Arg.(value & opt int 2 & info [ "indexes"; "n" ] ~doc:"constituents") in
  let partition =
    Arg.(
      value
      & opt partition_conv Wave_shard.Partition.Hash
      & info [ "partition" ] ~docv:"KIND" ~doc:"hash | range")
  in
  let shards =
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc:"arms before the split")
  in
  let artifacts =
    Arg.(
      value
      & opt (some string) None
      & info [ "artifacts" ] ~docv:"DIR"
          ~doc:
            "write each failing point's flight-recorder dump (waveidx-flight/1 \
             JSONL) to $(docv)/<scheme>_<technique>_d<day>/<point>_<mode>\
             .flight.jsonl, sibling-disk points prefixed sibling_; nothing \
             is written when the sweep passes")
  in
  let run w n partition shards artifacts =
    if n < 1 || n > w then begin
      Printf.eprintf "shardtest: need 1 <= n <= w (got W=%d n=%d)\n" w n;
      exit 2
    end;
    if shards < 2 then begin
      Printf.eprintf "shardtest: need at least 2 shards\n";
      exit 2
    end;
    let title =
      Printf.sprintf
        "shard-split crash sweep (%s partition, %d arms): W=%d n=%d day %d, \
         every fault point on the victim and sibling disks\n\n"
        (Wave_shard.Partition.kind_name partition)
        shards w n (w + 1)
    in
    finish_sweeps
      (sweep_matrix ~title ~verbose:false ?artifacts
         ~op:(Crash_harness.Split { partition; shards })
         ~kill:Crash_harness.In_memory ~w ~n ~days:[ w + 1 ] ())
  in
  Cmd.v (Cmd.info "shardtest" ~doc)
    Term.(const run $ w $ n $ partition $ shards $ artifacts)

let () =
  let doc = "Wave-Indices (SIGMOD 1997) reproduction driver" in
  let info = Cmd.info "waveidx" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        list_cmd; run_cmd; all_cmd; sim_cmd; model_cmd; trace_cmd;
        profile_cmd; bench_cmd; crashtest_cmd;
        shardtest_cmd;
      ]
  in
  (* [~catch:false] so an uncaught exception reaches this handler: the
     flight recorder and any armed trace flush path are the black box —
     persist both before the process dies, then re-raise with the
     original backtrace. *)
  match Cmd.eval ~catch:false group with
  | code -> exit code
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    Wave_obs.Sink.flush_traces ~reason:"uncaught exception";
    let path =
      match Wave_obs.Recorder.dump_path () with
      | Some p -> p
      | None -> "waveidx-flight.jsonl"
    in
    (try
       Wave_obs.Recorder.dump_to
         ~reason:("uncaught exception: " ^ Printexc.to_string e)
         path;
       Printf.eprintf "waveidx: flight recorder dumped to %s\n" path
     with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt
