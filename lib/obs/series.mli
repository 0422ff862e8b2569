(** Bounded metric time-series: per-metric ring-buffer histories over
    the {!Metrics} registry.

    Every metric in the registry is point-in-time; this module retains
    {e history}.  A store holds one ring of at most [cap] points per
    series name; {!sample} advances the store's tick and records every
    registry metric at its current value — counters and gauges at face
    value, a histogram as four derived sub-series ([<name>.mean],
    [<name>.p50], [<name>.p95], [<name>.p99] over its reservoir
    summary).  The simulation runner samples at every transition step
    and day boundary, so a series is the trend the alert engine's
    instant rules cannot see: "has query p95 drifted over the last W
    days, or was that one bad transition?"

    Sampling only {e reads} the registry (and never the model disk
    clock), so an attached store cannot perturb a run's day metrics —
    the golden-digest tests hold bit-identical with sampling on.

    Window queries reduce the most recent [n] points: {!window_stats}
    (mean/min/max/p50/p95/p99), {!trend} (least-squares slope per
    sample), {!last_n}, and {!daily} (the last point of each distinct
    day — the day-granular view {!Slo} burn rates are computed over).

    {!to_json} dumps the whole store as a validated
    ["waveidx-series/1"] document ([sim --series-out]). *)

type point = {
  tick : int;  (** the store's sampling instant that recorded this *)
  day : int;  (** simulation day at recording time *)
  value : float;
}

type t

val schema : string
(** ["waveidx-series/1"] — the {!to_json} schema tag. *)

val create : ?cap:int -> unit -> t
(** A fresh store; [cap] (>= 1, default 2048) bounds every ring — the
    oldest point is dropped when a series exceeds it.  Raises
    [Invalid_argument] below 1. *)

val cap : t -> int

val tick : t -> int
(** Sampling instants so far ({!sample} calls); 0 when fresh. *)

val record : t -> name:string -> day:int -> float -> unit
(** Append one point to [name]'s ring (created on first use) at the
    store's current tick.  Non-finite values are dropped — a series
    holds only plottable numbers. *)

val sample : ?registry:Metrics.registry -> t -> day:int -> unit
(** Advance the tick, then {!record} every metric in the registry
    (default {!Metrics.default}): counters and gauges at face value
    under their own names, each non-empty histogram as
    [<name>.{mean,p50,p95,p99}] from its reservoir summary. *)

val names : t -> string list
(** Series names recorded so far, sorted. *)

val length : t -> string -> int
(** Points currently retained for [name]; 0 for an unknown series. *)

val points : t -> string -> point list
(** All retained points, oldest first; [[]] for an unknown series. *)

val last_n : t -> string -> int -> point list
(** The most recent [n] points, oldest first (fewer when the ring
    holds fewer). *)

val daily : t -> string -> point list
(** The last retained point of each distinct day, oldest first — the
    day-granular collapse of a ring that also holds mid-day
    (transition-step) ticks. *)

type window_stats = {
  w_count : int;
  w_mean : float;
  w_min : float;
  w_max : float;
  w_p50 : float;
  w_p95 : float;
  w_p99 : float;
}

val window_stats : t -> string -> n:int -> window_stats option
(** Reduce the most recent [n] points (all retained points when [n]
    exceeds the ring).  [None] for an empty or unknown series. *)

val trend : t -> string -> n:int -> float option
(** Least-squares slope of value per sample over the most recent [n]
    points (x = 0, 1, ... within the window).  [None] with fewer than
    2 points. *)

val to_json : t -> Json.t
(** [{"schema": "waveidx-series/1", "cap": c, "ticks": t, "series":
    [{"name": n, "points": [{"tick", "day", "value"}]}]}] with names
    sorted and points oldest first — the [sim --series-out] document,
    validated by {!Sink.validate_series}. *)
