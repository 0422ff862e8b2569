(** End-to-end simulation: drive a maintenance scheme over a stream of
    days against the simulated disk, serving a daily query mix, and
    collect the paper's Section 5 measures per day.

    The simulator complements the analytic model ({!Wave_model.Cost}):
    the model evaluates the paper's parameter formulas; the runner
    measures what the actual implementation does (every seek and block
    this library's index structures perform), so trends can be
    cross-checked against real data structures rather than formulas.

    When tracing is enabled ({!Wave_obs.Trace.enable}), each simulated
    day is wrapped in a ["day"] span containing a
    ["phase.maintenance"] and a ["phase.query"] span (all tagged with
    the day, scheme and technique), and the runner registers the
    simulation disk's [elapsed] as the tracer's model clock, so span
    timestamps are bit-identical to the metrics below.  Invariant: a
    phase span's attributed model seconds equal the corresponding
    [day_metrics] field exactly, and the ["day"] span's attributed
    seeks/blocks/bytes equal the per-day counter deltas exactly. *)

open Wave_core

type day_metrics = {
  day : int;
  precompute_seconds : float;
      (** maintenance work not between data arrival and visibility *)
  transition_seconds : float;  (** data arrival -> queryable *)
  maintenance_seconds : float;  (** whole daily maintenance step *)
  query_seconds : float;
  probe_entries : int;  (** entries returned by the day's probes *)
  scan_entries : int;
  space_bytes : int;  (** constituents + temporaries at end of day *)
  wave_length : int;  (** days indexed (soft windows exceed w) *)
  seeks : int;  (** disk seeks over the whole day (maintenance+query) *)
  blocks_read : int;  (** blocks read over the whole day *)
  blocks_written : int;  (** blocks written over the whole day *)
}

type percentiles = { p50 : float; p95 : float; p99 : float }
(** Per-day latency distribution over the run; all zero for an empty
    run. *)

type concurrent_stats = {
  mid_queries : int;
      (** queries whose arrival fell inside a transition window *)
  snapshot_served : int;
      (** served against the live snapshot while the transition ran *)
  drained_served : int;
      (** served against the retired snapshot after the swap (the
          arrival predates the swap; the epoch drains once they
          finish) *)
  queued_served : int;
      (** In_place only: arrivals held until the swap and served
          against the new wave — in-place mutation cannot isolate
          readers, so mid-transition arrivals wait the transition
          out *)
  concurrent_latency : percentiles;
      (** measured arrival-to-completion latency of mid-transition
          queries under epoch-based concurrent serving *)
  stopworld_latency : percentiles;
      (** counterfactual latency of the {e same} arrival schedule under
          stop-the-world serving: the transition runs alone (its
          measured window minus the probe service it absorbed), then
          the queued probes run serially behind it in arrival order *)
  concurrent_samples : float array;
      (** every mid-transition latency sample, arrival order (feeds the
          bench series) *)
  stopworld_samples : float array;  (** counterfactual, same order *)
}
(** Mid-transition query-latency report of a concurrent run — the
    wave-index answer to "what do probes pay while maintenance runs?",
    reported as concurrent vs. stop-the-world percentiles. *)

type result = {
  scheme : Scheme.kind;
  technique : Env.technique;
  w : int;
  n : int;
  days : day_metrics list;
  max_space_bytes : int;
      (** peak disk footprint ever held, including mid-transition
          shadows — the paper's space-during-transition measure *)
  avg_space_bytes : float;
  total_maintenance_seconds : float;
  total_query_seconds : float;
  total_work_seconds : float;
  transition_percentiles : percentiles;
      (** distribution of per-day [transition_seconds] *)
  query_percentiles : percentiles;
      (** distribution of per-day [query_seconds] *)
  cache_stats : Wave_cache.Cache.stats option;
      (** end-of-run buffer-pool counters when [icfg.cache_blocks]
          attached a pool; [None] on an uncached run.  While a pool is
          attached the runner also maintains the ["cache.hit_ratio"]
          gauge and the ["runner.query_seconds.cached"] /
          ["runner.query_seconds.uncached_estimate"] histograms in
          {!Wave_obs.Metrics} (the estimate adds back the pool's
          per-day saved model-seconds, net of metadata charges). *)
  concurrent : concurrent_stats option;
      (** mid-transition latency report when {!config.concurrent} was
          on (and a query spec was configured); [None] on a
          stop-the-world run *)
  alerts : Wave_obs.Alert.event list;
      (** the events of the run's {!config.alerts} rules, active and
          resolved, in firing order: by day, and within one day the
          transition-step firings first, then the day boundary's in
          rule order; [[]] when no rule was configured *)
}

type config = {
  scheme : Scheme.kind;
  technique : Env.technique;
  w : int;
  n : int;
  run_days : int;  (** transitions to simulate after the Start phase *)
  store : Env.day_store;
  queries : Wave_workload.Query_gen.spec option;
  concurrent : bool;
      (** serve the day's queries {e during} the transition under
          {!Wave_epoch.Epoch} snapshot isolation instead of after it.
          Each day the runner opens an epoch over the pre-transition
          wave, lays the day's queries out as arrivals on the model
          clock at {!query_rate} per model-second, serves due arrivals
          at every completed disk operation (shadow techniques; an
          In_place transition queues them until the swap), commits the
          epoch when the maintenance flush drains, serves pre-swap
          stragglers against the retired snapshot, and lets the epoch
          drain.  Off (the default), no epoch code runs and the run is
          bit-identical to a build without epochs.  When on,
          [maintenance_seconds]/[transition_seconds] include the disk
          contention of mid-transition serving, and the remaining
          (post-swap) queries run in the usual query phase. *)
  query_rate : float;
      (** concurrent arrival rate, queries per model-second (used only
          when {!concurrent}; non-positive disables) *)
  icfg : Wave_storage.Index.config;
  validate : bool;  (** check window invariants after every day *)
  alerts : Wave_obs.Alert.rule list;
      (** one list of debounce and burn-rate rules for one engine:
          transition-scoped rules ({!Wave_obs.Alert.scope}) right after
          {e every} transition step, day-scoped and burn-rate rules at
          every day boundary, in list order.  Besides the run-wide
          histograms, each day the runner publishes gauges targetable
          by day rules: ["runner.day.transition_seconds"],
          ["runner.day.query_seconds"], ["runner.day.wave_length"],
          ["runner.day.space_bytes"], and — with a buffer pool —
          ["cache.dirty_frames"]; and after each transition step,
          gauges for transition rules: ["runner.transition.seconds"],
          ["runner.transition.precompute_seconds"],
          ["runner.transition.seeks"],
          ["runner.transition.blocks_read"],
          ["runner.transition.blocks_written"].  The day boundary also
          publishes ["runner.day.query_p95"] — the running p95 of the
          per-day query-seconds histogram — the canonical burn-rate
          objective.  Burn-rate rules read the series store; a list
          with one and no {!series} gets an internal store so daily
          history exists. *)
  series : Wave_obs.Series.t option;
      (** when set, {!Wave_obs.Series.sample} is called against the
          default registry at every transition step and every day
          boundary, building bounded per-metric histories ([sim
          --series-out]).  Sampling only reads — the disk clock never
          moves — so [days] is bit-identical with or without a
          store. *)
  on_env : (Env.t -> unit) option;
      (** called once with the run's environment after it is created
          and before the scheme starts — the hook for arming disk
          faults (e.g. a {!Wave_disk.Disk.Stall} plan) or inspecting
          the disk of a run whose environment is otherwise internal *)
}

val default_config :
  scheme:Scheme.kind -> store:Env.day_store -> w:int -> n:int -> config
(** 2w run days, in-place updating, default index config, no queries,
    stop-the-world serving (concurrent off, rate 4.0), validation on,
    no alert rules, no series store. *)

val run : config -> result
