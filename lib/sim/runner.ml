open Wave_core
open Wave_disk
module Cache = Wave_cache.Cache
module Router = Wave_shard.Router

type day_metrics = {
  day : int;
  precompute_seconds : float;
  transition_seconds : float;
  maintenance_seconds : float;
  query_seconds : float;
  probe_entries : int;
  scan_entries : int;
  space_bytes : int;
  wave_length : int;
  seeks : int;
  blocks_read : int;
  blocks_written : int;
}

type percentiles = { p50 : float; p95 : float; p99 : float }

type concurrent_stats = {
  mid_queries : int;
  snapshot_served : int;
  drained_served : int;
  queued_served : int;
  concurrent_latency : percentiles;
  stopworld_latency : percentiles;
  concurrent_samples : float array;
  stopworld_samples : float array;
}

type result = {
  scheme : Scheme.kind;
  technique : Env.technique;
  w : int;
  n : int;
  days : day_metrics list;
  max_space_bytes : int;
  avg_space_bytes : float;
  total_maintenance_seconds : float;
  total_query_seconds : float;
  total_work_seconds : float;
  transition_percentiles : percentiles;
  query_percentiles : percentiles;
  query_serial_seconds : float;
  cache_stats : Cache.stats option;
  concurrent : concurrent_stats option;
  alerts : Wave_obs.Alert.event list;
  router : Router.t;
}

type config = {
  scheme : Scheme.kind;
  technique : Env.technique;
  w : int;
  n : int;
  run_days : int;
  store : Env.day_store;
  queries : Wave_workload.Query_gen.spec option;
  concurrent : bool;
  query_rate : float;
  icfg : Wave_storage.Index.config;
  validate : bool;
  alerts : Wave_obs.Alert.rule list;
  series : Wave_obs.Series.t option;
  on_env : (Env.t -> unit) option;
  shards : int;
  partition : Wave_shard.Partition.kind;
  split_threshold : float option;
}

let default_config ~scheme ~store ~w ~n =
  {
    scheme;
    technique = Env.In_place;
    w;
    n;
    run_days = 2 * w;
    store;
    queries = None;
    concurrent = false;
    query_rate = 4.0;
    icfg = Wave_storage.Index.default_config;
    validate = true;
    alerts = [];
    series = None;
    on_env = None;
    shards = 1;
    partition = Wave_shard.Partition.Hash;
    split_threshold = None;
  }

(* Serve a query list through the router; returns (probe, scan) entry
   counts.  The serial query phase and the concurrent drain of
   In_place-queued arrivals both funnel through here. *)
let serve_queries r qs =
  let open Wave_workload.Query_gen in
  List.fold_left
    (fun (p, sc) q ->
      match q with
      | Probe { value; t1; t2 } ->
        (p + List.length (fst (Router.probe r ~value ~t1 ~t2)), sc)
      | Scan { t1; t2 } -> (p, sc + List.length (fst (Router.scan r ~t1 ~t2))))
    (0, 0) qs

(* Per-day bookkeeping for a concurrent (epoch-isolated) day: the
   snapshot epoch, the arrival schedule still pending on the model
   clock, and per-query (arrival, service start, service finish)
   triples for the latency series. *)
type conc_day = {
  ep : Wave_epoch.Epoch.t;
  mutable arrivals : (float * Wave_workload.Query_gen.query) list;
  mutable served : (float * float * float) list;  (* newest first *)
  mutable snap_served : int;
  mutable drained_served : int;
  mutable queued_served : int;
  mutable mid_probe_entries : int;
  mutable mid_scan_entries : int;
}

let percentiles_of xs =
  if Array.length xs = 0 then { p50 = 0.0; p95 = 0.0; p99 = 0.0 }
  else
    {
      p50 = Wave_util.Stats.percentile xs 50.0;
      p95 = Wave_util.Stats.percentile xs 95.0;
      p99 = Wave_util.Stats.percentile xs 99.0;
    }

(* Phase spans: [span name tags f] is [f ()] when tracing is off; when
   on, span timestamps come from the simulation disk's own elapsed
   clock (registered below), so a phase span's model duration is the
   same float subtraction the day_metrics fields are computed from —
   the attribution invariant tested by test_obs. *)
let span name tags f =
  if Wave_obs.Trace.is_enabled () then Wave_obs.Trace.with_span name ~tags:(tags ()) f
  else f ()

let arm_schemes r = List.init (Router.arms r) (Router.arm_scheme r)
let arm_disks r = List.init (Router.arms r) (Router.arm_disk r)
let pools r = List.filter_map Cache.find (arm_disks r)

(* Counts and bytes of several arms add up; a one-arm sum is exact. *)
let sum_over xs f = List.fold_left (fun acc x -> acc + f x) 0 xs

let counters r =
  let cs = List.map Disk.counters (arm_disks r) in
  Disk.
    ( sum_over cs (fun c -> c.seeks),
      sum_over cs (fun c -> c.blocks_read),
      sum_over cs (fun c -> c.blocks_written) )

let pool_stats r =
  match List.map Cache.stats (pools r) with
  | [] -> None
  | s :: rest -> Some (List.fold_left Cache.add_stats s rest)

let run config =
  let single = config.shards = 1 && config.split_threshold = None in
  if
    (not single)
    && (config.concurrent
       || config.icfg.Wave_storage.Index.disk_backend <> Disk.Sim)
  then
    invalid_arg
      "Runner.run: concurrent serving and the file backend need one arm \
       and no split threshold";
  (* The tracer's model clock reads the arms' disks as [Router.create]
     makes them, from the Start phase's first operation on: with one arm
     that disk's clock, so span durations are the day_metrics fields bit
     for bit; with several, the arms' summed busy time.  Registered
     unconditionally: spans only exist while tracing is on, but the
     flight recorder stamps every event with this clock, and it runs
     whether or not tracing does. *)
  let disks = ref [] in
  Wave_obs.Trace.set_model_clock (fun () ->
      List.fold_left (fun acc d -> acc +. Disk.elapsed d) 0.0 !disks);
  let on_env env =
    disks := !disks @ [ env.Env.disk ];
    Option.iter (fun f -> f env) config.on_env
  in
  let run_tags day () =
    [
      ("scheme", Scheme.name config.scheme);
      ("technique", Env.technique_name config.technique);
      ("day", string_of_int day);
    ]
  in
  (* A range partition slices the query values' domain. *)
  let vocab =
    match config.queries with
    | Some { value_dist = Wave_workload.Query_gen.Zipfian { vocab; _ }; _ } ->
      vocab
    | Some { value_dist = Wave_workload.Query_gen.Uniform n; _ } -> n
    | None -> 1
  in
  let r =
    span "phase.start" (run_tags config.w) (fun () ->
        Router.create ~icfg:config.icfg ~technique:config.technique ~on_env
          ~kind:config.scheme ~partition:config.partition ~shards:config.shards
          ~vocab ~store:config.store ~w:config.w ~n:config.n ())
  in
  List.iter Disk.reset_peak (arm_disks r);
  (* Model-seconds are deltas of this clock.  One arm reads its own disk
     clock: the parallel clock sums the same deltas with other rounding. *)
  let clock () =
    if single then Disk.elapsed (Router.arm_disk r 0)
    else Wave_model.Parallel.elapsed (Router.clock r)
  in
  let h_transition = Wave_obs.Metrics.histogram "runner.transition_seconds" in
  let h_query = Wave_obs.Metrics.histogram "runner.query_seconds" in
  (* The buffer pools, when [icfg.cache_blocks] asked for them; each was
     attached to its arm's disk by the first index its Start built.  The
     initial wave is a durability boundary of its own: flush it before
     the measured days so a write-back run's day-1 transition is not
     billed for the whole Start phase's deferred writes.  From then on
     [Router.advance] flushes each arm after its transition. *)
  List.iter Cache.flush (pools r);
  let g_hit = Wave_obs.Metrics.gauge "cache.hit_ratio" in
  let h_query_cached = Wave_obs.Metrics.histogram "runner.query_seconds.cached" in
  let h_query_uncached =
    Wave_obs.Metrics.histogram "runner.query_seconds.uncached_estimate"
  in
  (* Per-day gauges the alert engine can target: the latest day's raw
     values, complementing the run-wide histograms above. *)
  let g_transition = Wave_obs.Metrics.gauge "runner.day.transition_seconds" in
  let g_query = Wave_obs.Metrics.gauge "runner.day.query_seconds" in
  let g_wave = Wave_obs.Metrics.gauge "runner.day.wave_length" in
  let g_space = Wave_obs.Metrics.gauge "runner.day.space_bytes" in
  let g_dirty = Wave_obs.Metrics.gauge "cache.dirty_frames" in
  (* Per-transition gauges, set right after each maintenance step so
     transition-scoped alert rules see a single step's raw cost before
     any day-level aggregation. *)
  let g_t_seconds = Wave_obs.Metrics.gauge "runner.transition.seconds" in
  let g_t_precompute =
    Wave_obs.Metrics.gauge "runner.transition.precompute_seconds"
  in
  let g_t_seeks = Wave_obs.Metrics.gauge "runner.transition.seeks" in
  let g_t_blocks_read = Wave_obs.Metrics.gauge "runner.transition.blocks_read" in
  let g_t_blocks_written =
    Wave_obs.Metrics.gauge "runner.transition.blocks_written"
  in
  let engine =
    match config.alerts with
    | [] -> None
    | rules -> Some (Wave_obs.Alert.create rules)
  in
  (* Time-series sampling: record every registry metric into the ring
     store at each transition step and day boundary.  Burn-rate rules
     need daily history even when the caller didn't ask for a dump, so
     a rule list with one and no store conjures an internal one.  All
     sampling is read-only against the simulation — the disk clock
     never moves — so day_metrics stay bit-identical with the flags
     off. *)
  let series_store =
    match config.series with
    | Some _ as s -> s
    | None ->
      if List.exists Wave_obs.Alert.needs_series config.alerts then
        Some (Wave_obs.Series.create ())
      else None
  in
  let g_query_p95 = Wave_obs.Metrics.gauge "runner.day.query_p95" in
  let sample_series ~day =
    Option.iter (fun st -> Wave_obs.Series.sample st ~day) series_store
  in
  (* Concurrent serving (one arm): arm the epoch registry on the arm's
     disk so transitions run under snapshot isolation.  Without the flag
     the registry is never attached, every gate answers "not claimed",
     and the run is bit-identical to a build without epochs. *)
  let disk = Router.arm_disk r 0 in
  let concurrent_on =
    config.concurrent && Option.is_some config.queries && config.query_rate > 0.0
  in
  if concurrent_on then Wave_epoch.Epoch.attach disk;
  let serve_on_snapshot st q =
    let open Wave_workload.Query_gen in
    match q with
    | Probe { value; t1; t2 } ->
      st.mid_probe_entries <-
        st.mid_probe_entries
        + List.length (Wave_epoch.Epoch.probe st.ep ~value ~t1 ~t2)
    | Scan { t1; t2 } ->
      st.mid_scan_entries <-
        st.mid_scan_entries
        + List.length (Wave_epoch.Epoch.scan st.ep ~t1 ~t2)
  in
  (* The interleave tick: serve every arrival already due on the model
     clock against the snapshot, charging the same disk the transition
     is using — served probes and maintenance contend for the arm. *)
  let rec serve_due st =
    match st.arrivals with
    | (a, q) :: rest when a <= Disk.elapsed disk ->
      st.arrivals <- rest;
      let start = Disk.elapsed disk in
      Wave_epoch.Epoch.acquire st.ep;
      Fun.protect
        ~finally:(fun () -> Wave_epoch.Epoch.release st.ep)
        (fun () -> serve_on_snapshot st q);
      st.served <- (a, start, Disk.elapsed disk) :: st.served;
      st.snap_served <- st.snap_served + 1;
      serve_due st
    | _ -> ()
  in
  let conc_all = ref [] and stw_all = ref [] in
  let mid_total = ref 0
  and snap_total = ref 0
  and drained_total = ref 0
  and queued_total = ref 0 in
  let query_serial = ref 0.0 in
  let days = ref [] in
  for _ = 1 to config.run_days do
    let this_day = Router.current_day r + 1 in
    let s0, br0, bw0 = counters r in
    span "day" (run_tags this_day) (fun () ->
        (* Concurrent day: snapshot the pre-transition wave as an epoch
           and lay this day's queries out as arrivals on the model
           clock, [query_rate] per model-second from the start of
           maintenance.  Shadow techniques serve due arrivals against
           the snapshot at every completed disk operation; In_place
           mutates the very structures a snapshot would read, so its
           arrivals queue until the swap. *)
        let conc =
          if not concurrent_on then None
          else begin
            let slots =
              List.map
                (fun (idx, ds) ->
                  ( idx,
                    fun ~t1 ~t2 ->
                      Dayset.exists (fun d -> d >= t1 && d <= t2) ds ))
                (Frame.snapshot (Scheme.frame (Router.arm_scheme r 0)))
            in
            let ep = Wave_epoch.Epoch.open_ disk ~slots in
            let t0 = Disk.elapsed disk in
            let arrivals =
              List.mapi
                (fun i q ->
                  (t0 +. (float_of_int (i + 1) /. config.query_rate), q))
                (Wave_workload.Query_gen.day_queries
                   (Option.get config.queries)
                   ~day:this_day ~w:config.w)
            in
            Some
              {
                ep;
                arrivals;
                served = [];
                snap_served = 0;
                drained_served = 0;
                queued_served = 0;
                mid_probe_entries = 0;
                mid_scan_entries = 0;
              }
          end
        in
        let before = clock () in
        let transition =
          span "phase.maintenance" (run_tags this_day) (fun () ->
              let body () = ignore (Router.advance r) in
              (match conc with
              | Some st when config.technique <> Env.In_place ->
                Wave_epoch.Epoch.Interleave.run disk
                  ~on_op:(fun () -> serve_due st)
                  body
              | _ -> body ());
              (* Arrival to visibility on the slowest arm, taken before
                 a split replaces the victim's scheme. *)
              let transition =
                List.fold_left
                  (fun m s -> Float.max m (Scheme.last_transition_seconds s))
                  neg_infinity (arm_schemes r)
              in
              Option.iter
                (fun threshold ->
                  Router.rebalance r ~threshold;
                  disks := arm_disks r)
                config.split_threshold;
              transition)
        in
        let maintenance = clock () -. before in
        (* Intra-day alerting: publish this transition step's gauges and
           evaluate only the transition-scoped rules, here inside the
           day — a one-step spike must fire before the day boundary. *)
        let sm, brm, bwm = counters r in
        (* The swap rides the end of maintenance: readers switch to the
           new wave once the flush has drained ([swap_seconds] is that
           flush tail).  Arrivals that landed before the swap but were
           not yet served drain against the retired snapshot (shadow),
           or — In_place — run now against the new wave, having waited
           the whole transition out: exactly the stop-the-world
           penalty.  The owner lease release then drains the retired
           epoch, re-issuing its deferred drops and frees, so the
           transition-scoped alert evaluation below sees the settled
           [epoch.*] gauges. *)
        (match conc with
        | None -> ()
        | Some st ->
          let t_commit = Disk.elapsed disk in
          Wave_epoch.Epoch.commit ~swap_seconds:(Router.last_flush_seconds r)
            disk;
          span "phase.drain" (run_tags this_day) (fun () ->
              let in_place = config.technique = Env.In_place in
              let rec drain () =
                match st.arrivals with
                | (a, q) :: rest when a <= t_commit ->
                  st.arrivals <- rest;
                  let start = Disk.elapsed disk in
                  (if in_place then begin
                     let p, sc = serve_queries r [ q ] in
                     st.mid_probe_entries <- st.mid_probe_entries + p;
                     st.mid_scan_entries <- st.mid_scan_entries + sc;
                     st.queued_served <- st.queued_served + 1
                   end
                   else begin
                     Wave_epoch.Epoch.acquire st.ep;
                     Fun.protect
                       ~finally:(fun () -> Wave_epoch.Epoch.release st.ep)
                       (fun () -> serve_on_snapshot st q);
                     st.drained_served <- st.drained_served + 1
                   end);
                  st.served <- (a, start, Disk.elapsed disk) :: st.served;
                  drain ()
                | _ -> ()
              in
              drain ();
              Wave_epoch.Epoch.release st.ep);
          (* Fold the day's mid-transition samples into the run series.
             Concurrent latency is measured; the stop-the-world latency
             for the same arrival schedule is the counterfactual where
             the transition runs alone (its measured window minus the
             probe service it absorbed) and the probes then run
             serially behind it, in arrival order. *)
          let served = List.rev st.served in
          let pre_commit_service =
            List.fold_left
              (fun acc (_, b, f) ->
                if f <= t_commit then acc +. (f -. b) else acc)
              0.0 served
          in
          let stw_end = t_commit -. pre_commit_service in
          let cum = ref 0.0 in
          List.iter
            (fun (a, b, f) ->
              let service = f -. b in
              conc_all := (f -. a) :: !conc_all;
              cum := !cum +. service;
              stw_all := Float.max service (stw_end +. !cum -. a) :: !stw_all)
            served;
          mid_total := !mid_total + List.length served;
          snap_total := !snap_total + st.snap_served;
          drained_total := !drained_total + st.drained_served;
          queued_total := !queued_total + st.queued_served);
        Wave_obs.Metrics.set g_t_seconds transition;
        Wave_obs.Metrics.set g_t_precompute
          (Float.max 0.0 (maintenance -. transition));
        Wave_obs.Metrics.set g_t_seeks (float_of_int (sm - s0));
        Wave_obs.Metrics.set g_t_blocks_read (float_of_int (brm - br0));
        Wave_obs.Metrics.set g_t_blocks_written (float_of_int (bwm - bw0));
        sample_series ~day:this_day;
        Option.iter
          (fun e ->
            ignore
              (Wave_obs.Alert.eval ~scope:Wave_obs.Alert.Transition e
                 ~day:this_day))
          engine;
        if config.validate then
          List.iter
            (fun s ->
              Scheme.check_window_invariant s;
              Frame.validate (Scheme.frame s))
            (arm_schemes r);
        let day = Router.current_day r in
        let cs0 = pool_stats r in
        let serial0 = Wave_model.Parallel.serial (Router.clock r) in
        let query_seconds, probe_entries, scan_entries =
          span "phase.query" (run_tags this_day) (fun () ->
              (* Arrivals past a concurrent day's swap run serially
                 against the new wave, as the stop-the-world phase
                 would; the day's entry counts include the
                 mid-transition serves. *)
              let qs, mid_p, mid_sc =
                match (config.queries, conc) with
                | None, _ -> ([], 0, 0)
                | Some spec, None ->
                  (Wave_workload.Query_gen.day_queries spec ~day ~w:config.w, 0, 0)
                | Some _, Some st ->
                  let qs = List.map snd st.arrivals in
                  st.arrivals <- [];
                  (qs, st.mid_probe_entries, st.mid_scan_entries)
              in
              let before = clock () in
              let p, sc = serve_queries r qs in
              (clock () -. before, p + mid_p, sc + mid_sc))
        in
        query_serial :=
          !query_serial
          +. (Wave_model.Parallel.serial (Router.clock r) -. serial0);
        let s1, br1, bw1 = counters r in
        Wave_obs.Metrics.observe h_transition transition;
        Wave_obs.Metrics.observe h_query query_seconds;
        (match (pool_stats r, cs0) with
        | Some cs1, Some cs0 ->
          (* What the day's queries would have cost without the pools:
             add back the model-seconds they saved during the query
             phase, net of the directory-metadata charges the uncached
             model never makes. *)
          let saved = cs1.Cache.saved_seconds -. cs0.Cache.saved_seconds in
          let meta = cs1.Cache.meta_seconds -. cs0.Cache.meta_seconds in
          Wave_obs.Metrics.set g_hit (Cache.hit_ratio cs1);
          Wave_obs.Metrics.observe h_query_cached query_seconds;
          Wave_obs.Metrics.observe h_query_uncached
            (Float.max 0.0 (query_seconds +. saved -. meta))
        | _ -> ());
        days :=
          {
            day;
            precompute_seconds = Float.max 0.0 (maintenance -. transition);
            transition_seconds = transition;
            maintenance_seconds = maintenance;
            query_seconds;
            probe_entries;
            scan_entries;
            space_bytes = sum_over (arm_schemes r) Scheme.allocated_bytes;
            wave_length =
              List.fold_left
                (fun m s -> max m (Frame.length (Scheme.frame s)))
                0 (arm_schemes r);
            seeks = s1 - s0;
            blocks_read = br1 - br0;
            blocks_written = bw1 - bw0;
          }
          :: !days);
    (* Day-scoped alert rules are evaluated at the day boundary,
       outside the day span, so a firing's Trace instant sits between
       days; transition-scoped rules were already evaluated above. *)
    (match !days with
    | d :: _ ->
      Wave_obs.Metrics.set g_transition d.transition_seconds;
      Wave_obs.Metrics.set g_query d.query_seconds;
      Wave_obs.Metrics.set g_wave (float_of_int d.wave_length);
      Wave_obs.Metrics.set g_space (float_of_int d.space_bytes);
      (match Wave_obs.Metrics.hist_summary h_query with
      | Some s -> Wave_obs.Metrics.set g_query_p95 s.Wave_obs.Metrics.p95
      | None -> ());
      (match pools r with
      | [] -> ()
      | ps ->
        Wave_obs.Metrics.set g_dirty
          (float_of_int (sum_over ps Cache.dirty_frames)));
      sample_series ~day:d.day;
      Option.iter
        (fun e ->
          ignore
            (Wave_obs.Alert.eval ?series:series_store ~scope:Wave_obs.Alert.Day
               e ~day:d.day))
        engine
    | [] -> ())
  done;
  if concurrent_on then Wave_epoch.Epoch.detach disk;
  let days = List.rev !days in
  let nd = float_of_int (max 1 (List.length days)) in
  let sum f = List.fold_left (fun acc d -> acc +. f d) 0.0 days in
  let maintenance = sum (fun d -> d.maintenance_seconds) in
  let queries = sum (fun d -> d.query_seconds) in
  let series f = Array.of_list (List.map f days) in
  {
    scheme = config.scheme;
    technique = config.technique;
    w = config.w;
    n = config.n;
    days;
    max_space_bytes =
      sum_over (arm_disks r) (fun d ->
          Disk.peak_blocks d * (Disk.params d).Disk.block_size);
    avg_space_bytes = sum (fun d -> float_of_int d.space_bytes) /. nd;
    total_maintenance_seconds = maintenance;
    total_query_seconds = queries;
    total_work_seconds = maintenance +. queries;
    transition_percentiles = percentiles_of (series (fun d -> d.transition_seconds));
    query_percentiles = percentiles_of (series (fun d -> d.query_seconds));
    query_serial_seconds = !query_serial;
    cache_stats =
      (* The pools' registry slots are released here; the counters live
         on in this snapshot. *)
      (let snap = pool_stats r in
       List.iter Cache.detach (arm_disks r);
       snap);
    concurrent =
      (if not concurrent_on then None
       else
         let conc = Array.of_list (List.rev !conc_all) in
         let stw = Array.of_list (List.rev !stw_all) in
         Some
           {
             mid_queries = !mid_total;
             snapshot_served = !snap_total;
             drained_served = !drained_total;
             queued_served = !queued_total;
             concurrent_latency = percentiles_of conc;
             stopworld_latency = percentiles_of stw;
             concurrent_samples = conc;
             stopworld_samples = stw;
           });
    alerts = (match engine with None -> [] | Some e -> Wave_obs.Alert.events e);
    router = r;
  }
