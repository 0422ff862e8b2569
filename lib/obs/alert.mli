(** Declarative alert engine over the {!Metrics} registry and
    {!Series} histories.

    A rule names a metric, a comparator, a threshold and a {!window}
    that says how the condition is judged.  The comparator expresses
    the {e bad} direction: the rule fires when it is satisfied.

    - A {b debounce} rule reduces the metric to a number (its [stat])
      and fires once the condition has held for [for_days]
      {e consecutive} evaluations of its [scope].  The simulation
      runner evaluates day rules once per day boundary and transition
      rules after every transition step
      ({!Wave_sim.Runner.config.alerts}).  Typical rules: a
      query-latency p95 ceiling ([runner.query_seconds] p95 [>]
      budget), a cache hit-ratio floor ([cache.hit_ratio] [<] 0.9), a
      transition-time budget from the paper's Theorem 1/2 wave-length
      bounds ([runner.day.transition_seconds]).
    - A {b burn-rate} rule judges a rolling window, an SLO: "the
      objective held on at least [goal] of the last [window_days]
      days".  The error budget is [1 - goal]; a window's burn rate is
      the fraction of {e bad} days in it divided by that budget (burn
      1.0 spends the budget exactly as fast as it accrues).  A day is
      bad when the metric's daily sample ({!Series.daily}) satisfies
      the comparator.  Following SRE multi-window practice the rule
      fires only while {e both} a fast window (a recent spike) and a
      slow window (a sustained breach) burn at or above
      [burn_threshold].  Burn-rate rules are evaluated at day
      boundaries and need a {!Series} store.

    Both kinds share one episode state machine.  Firing opens an
    {!event}; while the condition keeps holding the event's [last_day]
    advances, and the first evaluation where it no longer holds stamps
    [resolved_day] and re-arms — so one breach episode yields exactly
    one event.  A firing lands in the flight recorder
    ({!Recorder.record_alert}, scope ["day"], ["transition"] or, for a
    burn-rate rule, ["slo"]), triggers {!Recorder.dump_if_configured}
    and {!Sink.flush_traces}, and emits a {!Trace.instant} when tracing
    is on: ["alert"] for a debounce rule, ["slo"] for a burn-rate
    rule.

    JSON syntax ([sim --alerts FILE]), one list for both kinds:
    [{"rules": [{"name": "p95-ceiling", "metric":
    "runner.query_seconds", "stat": "p95", "op": ">", "threshold":
    0.25, "for_days": 2}, {"name": "query-p95", "metric":
    "runner.day.query_p95", "op": ">", "threshold": 0.25, "goal":
    0.99, "window_days": 28, "fast_days": 3, "slow_days": 14,
    "burn_threshold": 1.0}]}] (a bare top-level array also parses).
    An entry with ["window_days"] is a burn-rate rule: [goal] defaults
    to 0.99, [fast_days] to [max 1 (window_days / 8)], [slow_days] to
    [max fast_days (window_days / 2)], [burn_threshold] to 1.0, and
    setting [stat], [for_days] or [scope] is an error.  Any other
    entry is a debounce rule: [stat] defaults to ["value"], [for_days]
    to 1, [scope] to ["day"], and setting a burn-rate field is an
    error. *)

type comparator = Gt | Ge | Lt | Le

type scope = Day | Transition
(** Evaluation cadence of a debounce rule.  [Day] rules are evaluated
    once per day boundary; [Transition] rules after {e every}
    transition step, over the [runner.transition.*] gauges — so a
    one-transition spike is caught before day-level aggregation
    averages it away.  Debounce counts consecutive evaluations {e of
    that scope}: an evaluation of the other scope leaves a rule's
    streak and open episode untouched. *)

type stat = Value | Mean | Min | Max | P50 | P95 | P99 | Count
(** How a debounce rule reduces the metric to a number.  [Value] reads
    a counter or gauge directly and a histogram's exact mean; the
    percentile / extremum stats apply to histograms only (on a counter
    or gauge they resolve to nothing and the rule cannot fire). *)

type debounce = {
  stat : stat;
  for_days : int;  (** consecutive satisfied evaluations, >= 1 *)
  scope : scope;
}

type burn = {
  goal : float;  (** required good-day fraction, in [0, 1) *)
  window_days : int;  (** the SLO's nominal rolling window *)
  fast_days : int;  (** fast burn window, 1 <= fast <= slow *)
  slow_days : int;  (** slow burn window, fast <= slow <= window *)
  burn_threshold : float;  (** fire while both windows burn >= this *)
}

type window = Debounce of debounce | Burn of burn

type rule = {
  name : string;
  metric : string;  (** {!Metrics} registry name, or the {!Series} judged daily *)
  comparator : comparator;  (** the {e bad} direction *)
  threshold : float;
  window : window;
}

val rule :
  ?stat:stat ->
  ?for_days:int ->
  ?scope:scope ->
  name:string ->
  metric:string ->
  comparator ->
  float ->
  rule
(** A debounce rule; [stat] defaults to [Value], [for_days] to 1 and
    [scope] to [Day].  Raises [Invalid_argument] when [for_days < 1]
    or [name]/[metric] is empty. *)

val burn :
  ?goal:float ->
  ?fast_days:int ->
  ?slow_days:int ->
  ?burn_threshold:float ->
  name:string ->
  metric:string ->
  window_days:int ->
  comparator ->
  float ->
  rule
(** A burn-rate rule with the defaults above.  Raises
    [Invalid_argument] on an empty name/metric, [window_days < 1],
    [goal] outside [0, 1), a non-positive [burn_threshold], or windows
    violating [1 <= fast_days <= slow_days <= window_days]. *)

type event = {
  e_rule : rule;
  fired_day : int;  (** evaluation day the rule fired *)
  value : float;
      (** at fire time: the observed value of a debounce rule, the
          fast-window burn rate of a burn-rate rule *)
  mutable last_day : int;  (** last day the condition still held *)
  mutable resolved_day : int option;
      (** first day the condition no longer held; [None] while active *)
}

type t
(** Engine: rules plus per-rule episode state and the event history. *)

val create : rule list -> t

val eval :
  ?registry:Metrics.registry ->
  ?series:Series.t ->
  ?scope:scope ->
  t ->
  day:int ->
  (rule * float) list
(** Evaluate rules in list order, advancing episode state, firing and
    resolving events.  [?scope] restricts the evaluation to debounce
    rules of that scope, plus burn-rate rules when it is [Day];
    omitted, every rule is evaluated.  Debounce rules read the
    registry (default {!Metrics.default}); a metric that is missing,
    an empty histogram, or a stat that does not apply to the metric's
    kind counts as not satisfied.  Burn-rate rules read [series];
    without it, or before the slow window has history, they count as
    not burning.  Returns the rules active after this evaluation with
    their values. *)

val burn_rate : Series.t -> rule -> window:int -> float option
(** Bad-day fraction over the last [window] {!Series.daily} points of
    a burn-rate rule's metric, divided by the error budget
    [1 - goal].  [None] until the series holds at least [window]
    distinct days.  Raises [Invalid_argument] on a debounce rule. *)

val active : t -> event list
(** Events not yet resolved, oldest first. *)

val events : t -> event list
(** Full history in firing order, resolved and active alike. *)

val needs_series : rule -> bool
(** [true] for a burn-rate rule, which {!eval} judges from a {!Series}
    store. *)

val comparator_name : comparator -> string
(** [">"], [">="], ["<"], ["<="]. *)

val kind_name : rule -> string
(** The scope a firing is recorded under: ["day"] / ["transition"]
    for a debounce rule, ["slo"] for a burn-rate rule. *)

val event_json : event -> Json.t
(** The rule's own fields in the JSON syntax above (["rule"] for the
    name), then ["fired_day"], ["last_day"], ["resolved_day"] and the
    fire-time ["value"]. *)

val events_json : event list -> Json.t
(** [{"count": n, "alerts": [...]}]. *)

val rules_of_json : Json.t -> (rule list, string) result
(** Parse the rule syntax above, keeping the rules' order.  Errors
    name the offending rule ([rule i ("name")]) and field. *)

val rules_of_file : string -> (rule list, string) result
(** Read and parse [path], then {!rules_of_json}. *)
