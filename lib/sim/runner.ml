open Wave_core
open Wave_disk
module Cache = Wave_cache.Cache

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
  cache_stats : Cache.stats option;
  concurrent : concurrent_stats option;
  alerts : Wave_obs.Alert.event list;
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
  slos : Wave_obs.Slo.spec list;
  on_env : (Env.t -> unit) option;
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
    slos = [];
    on_env = None;
  }

(* Serve a query list against the live wave; returns (probe, scan)
   entry counts.  The serial query phase and the concurrent drain of
   In_place-queued arrivals both funnel through here. *)
let serve_queries frame qs =
  let open Wave_workload.Query_gen in
  let probe_entries = ref 0 and scan_entries = ref 0 in
  List.iter
    (fun q ->
      match q with
      | Probe { value; t1; t2 } ->
        probe_entries :=
          !probe_entries + List.length (Frame.timed_index_probe frame ~t1 ~t2 ~value)
      | Scan { t1; t2 } ->
        scan_entries :=
          !scan_entries
          + Option.get (Frame.timed_aggregate frame ~t1 ~t2 ~op:Frame.Count))
    qs;
  (!probe_entries, !scan_entries)

let run_queries env frame spec ~day =
  let disk = env.Env.disk in
  let before = Disk.elapsed disk in
  let probe_entries, scan_entries =
    serve_queries frame
      (Wave_workload.Query_gen.day_queries spec ~day ~w:env.Env.w)
  in
  (Disk.elapsed disk -. before, probe_entries, scan_entries)

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

let run config =
  let disk = Wave_storage.Index.make_disk config.icfg in
  (* Registered unconditionally: spans only exist while tracing is on,
     but the flight recorder stamps every event with this clock, and it
     runs whether or not tracing does. *)
  Wave_obs.Trace.set_model_clock (fun () -> Disk.elapsed disk);
  let env =
    Env.create ~disk ~icfg:config.icfg ~technique:config.technique
      ~store:config.store ~w:config.w ~n:config.n ()
  in
  (match config.on_env with Some f -> f env | None -> ());
  let run_tags day () =
    [
      ("scheme", Scheme.name config.scheme);
      ("technique", Env.technique_name config.technique);
      ("day", string_of_int day);
    ]
  in
  let s =
    span "phase.start" (run_tags config.w) (fun () -> Scheme.start config.scheme env)
  in
  Disk.reset_peak disk;
  let h_transition = Wave_obs.Metrics.histogram "runner.transition_seconds" in
  let h_query = Wave_obs.Metrics.histogram "runner.query_seconds" in
  (* The buffer pool, when [icfg.cache_blocks] asked for one; it was
     attached to the disk by the first index the Start phase built.
     The initial wave is a durability boundary of its own: flush it
     before the measured days so a write-back run's day-1 transition is
     not billed for the whole Start phase's deferred writes. *)
  let pool = Cache.find disk in
  Option.iter Cache.flush pool;
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
     store at each transition step and day boundary.  SLOs need daily
     history even when the caller didn't ask for a dump, so a spec list
     without a store conjures an internal one.  All sampling is
     read-only against the simulation — the disk clock never moves —
     so day_metrics stay bit-identical with the flags off. *)
  let series_store =
    match (config.series, config.slos) with
    | (Some _ as s), _ -> s
    | None, [] -> None
    | None, _ :: _ -> Some (Wave_obs.Series.create ())
  in
  let slo_engine =
    match config.slos with
    | [] -> None
    | specs -> Some (Wave_obs.Slo.create specs)
  in
  let g_query_p95 = Wave_obs.Metrics.gauge "runner.day.query_p95" in
  let sample_series ~day =
    Option.iter (fun st -> Wave_obs.Series.sample st ~day) series_store
  in
  (* Concurrent serving: arm the epoch registry on this disk so
     transitions run under snapshot isolation.  Without the flag the
     registry is never attached, every gate answers "not claimed", and
     the run is bit-identical to a build without epochs. *)
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
  let days = ref [] in
  for _ = 1 to config.run_days do
    let this_day = Scheme.current_day s + 1 in
    let c0 = Disk.counters disk in
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
                (Frame.snapshot (Scheme.frame s))
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
        let flush_tail = ref 0.0 in
        let before = Disk.elapsed disk in
        span "phase.maintenance" (run_tags this_day) (fun () ->
            let body () =
              Scheme.transition s;
              (* Write-back durability boundary: the runner drives
                 Scheme.transition directly (no Checkpoint), so it owns
                 the flush — transition cost includes the coalesced
                 deferred writes, not an ever-growing dirty pool. *)
              let t_end = Disk.elapsed disk in
              Option.iter Cache.flush pool;
              flush_tail := Disk.elapsed disk -. t_end
            in
            match conc with
            | Some st when config.technique <> Env.In_place ->
              Wave_epoch.Epoch.Interleave.run disk
                ~on_op:(fun () -> serve_due st)
                body
            | _ -> body ());
        let maintenance = Disk.elapsed disk -. before in
        let transition = Scheme.last_transition_seconds s in
        (* Intra-day alerting: publish this transition step's gauges and
           evaluate only the transition-scoped rules, here inside the
           day — a one-step spike must fire before the day boundary. *)
        let cm = Disk.counters disk in
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
          Wave_epoch.Epoch.commit ~swap_seconds:!flush_tail disk;
          span "phase.drain" (run_tags this_day) (fun () ->
              let in_place = config.technique = Env.In_place in
              let rec drain () =
                match st.arrivals with
                | (a, q) :: rest when a <= t_commit ->
                  st.arrivals <- rest;
                  let start = Disk.elapsed disk in
                  (if in_place then begin
                     let p, sc = serve_queries (Scheme.frame s) [ q ] in
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
        Wave_obs.Metrics.set g_t_seeks (float_of_int (cm.Disk.seeks - c0.Disk.seeks));
        Wave_obs.Metrics.set g_t_blocks_read
          (float_of_int (cm.Disk.blocks_read - c0.Disk.blocks_read));
        Wave_obs.Metrics.set g_t_blocks_written
          (float_of_int (cm.Disk.blocks_written - c0.Disk.blocks_written));
        sample_series ~day:this_day;
        Option.iter
          (fun e ->
            ignore
              (Wave_obs.Alert.eval ~scope:Wave_obs.Alert.Transition e
                 ~day:this_day))
          engine;
        if config.validate then begin
          Scheme.check_window_invariant s;
          Frame.validate (Scheme.frame s)
        end;
        let day = Scheme.current_day s in
        let cs0 = Option.map Cache.stats pool in
        let query_seconds, probe_entries, scan_entries =
          span "phase.query" (run_tags this_day) (fun () ->
              match (config.queries, conc) with
              | None, _ -> (0.0, 0, 0)
              | Some spec, None -> run_queries env (Scheme.frame s) spec ~day
              | Some _, Some st ->
                (* Arrivals past the swap run serially against the new
                   wave, as the stop-the-world phase would; the day's
                   entry counts include the mid-transition serves. *)
                let before = Disk.elapsed disk in
                let p, sc =
                  serve_queries (Scheme.frame s) (List.map snd st.arrivals)
                in
                st.arrivals <- [];
                ( Disk.elapsed disk -. before,
                  p + st.mid_probe_entries,
                  sc + st.mid_scan_entries ))
        in
        let c1 = Disk.counters disk in
        Wave_obs.Metrics.observe h_transition transition;
        Wave_obs.Metrics.observe h_query query_seconds;
        (match (pool, cs0) with
        | Some p, Some cs0 ->
          (* What the day's queries would have cost without the pool:
             add back the model-seconds the pool saved during the query
             phase, net of the directory-metadata charges the uncached
             model never makes. *)
          let cs1 = Cache.stats p in
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
            space_bytes = Scheme.allocated_bytes s;
            wave_length = Frame.length (Scheme.frame s);
            seeks = c1.Disk.seeks - c0.Disk.seeks;
            blocks_read = c1.Disk.blocks_read - c0.Disk.blocks_read;
            blocks_written = c1.Disk.blocks_written - c0.Disk.blocks_written;
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
      Option.iter
        (fun p -> Wave_obs.Metrics.set g_dirty (float_of_int (Cache.dirty_frames p)))
        pool;
      sample_series ~day:d.day;
      Option.iter
        (fun e ->
          ignore (Wave_obs.Alert.eval ~scope:Wave_obs.Alert.Day e ~day:d.day))
        engine;
      Option.iter
        (fun eng ->
          match series_store with
          | Some st -> ignore (Wave_obs.Slo.eval eng ~series:st ~day:d.day)
          | None -> ())
        slo_engine
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
      Disk.peak_blocks disk * (Disk.params disk).Disk.block_size;
    avg_space_bytes = sum (fun d -> float_of_int d.space_bytes) /. nd;
    total_maintenance_seconds = maintenance;
    total_query_seconds = queries;
    total_work_seconds = maintenance +. queries;
    transition_percentiles = percentiles_of (series (fun d -> d.transition_seconds));
    query_percentiles = percentiles_of (series (fun d -> d.query_seconds));
    cache_stats =
      (* The run's disk is unreachable once we return, so release its
         registry slot; the counters live on in this snapshot. *)
      (let snap = Option.map Cache.stats pool in
       Cache.detach disk;
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
    alerts =
      (match engine with None -> [] | Some e -> Wave_obs.Alert.events e)
      @ (match slo_engine with None -> [] | Some e -> Wave_obs.Slo.events e);
  }
