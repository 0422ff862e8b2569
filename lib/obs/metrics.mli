(** Always-on metrics registry: named counters, gauges, and latency
    histograms.

    Handles are interned by name: [counter "x"] returns the same
    counter every time, creating it on first use.  Recording into a
    handle is a single mutable-field update, cheap enough to leave in
    hot paths unconditionally (unlike spans, metrics are not gated on
    {!Trace.is_enabled}).

    Histograms are {e bounded}: each keeps at most [cap] observations
    (default {!default_histogram_cap}).  Below the cap every
    observation is retained exactly; above it the retained set is a
    uniform random sample (reservoir algorithm R with a deterministic
    per-histogram PRNG seeded from the name, so runs are
    reproducible).  Count, mean, min and max are always exact — they
    are maintained as running values — while percentiles are computed
    over the reservoir, with sampling error O(1/sqrt(cap)).  A
    week-long simulation therefore holds O(cap) floats per histogram
    instead of one per observation.

    A name maps to exactly one kind — re-registering ["x"] as a
    different kind raises [Invalid_argument]. *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry

val default : registry
(** The process-wide registry used when [?registry] is omitted. *)

val counter : ?registry:registry -> string -> counter
val gauge : ?registry:registry -> string -> gauge

val histogram : ?registry:registry -> ?cap:int -> string -> histogram
(** [cap] (>= 1, default {!default_histogram_cap}) bounds the retained
    reservoir.  Only the first registration's cap counts; later lookups
    of the same name return the existing histogram unchanged. *)

val default_histogram_cap : unit -> int
(** Reservoir bound used when [?cap] is omitted (initially 8192). *)

val set_default_histogram_cap : int -> unit
(** Change the default for histograms created afterwards.  Raises
    [Invalid_argument] below 1. *)

val inc : ?by:float -> counter -> unit
(** [by] defaults to [1.] and must be non-negative. *)

val counter_value : counter -> float

val set : gauge -> float -> unit
(** Also records the update (name, new value, delta) into
    {!Recorder} — gauges are low-frequency per-day / per-transition
    signals, so every change is flight-recorder material. *)

val gauge_value : gauge -> float

val observe : histogram -> float -> unit

val hist_count : histogram -> int
(** Total observations ever recorded (not the reservoir size). *)

val hist_sample_size : histogram -> int
(** Observations currently retained: [min (hist_count h) cap]. *)

val hist_values : histogram -> float array
(** A copy of the retained observations — every observation while
    under the cap (in recording order), a uniform sample beyond it. *)

type hist_summary = {
  count : int;  (** exact: total observations *)
  mean : float;  (** exact: running sum / count *)
  min : float;  (** exact *)
  max : float;  (** exact *)
  p50 : float;  (** over the reservoir *)
  p95 : float;  (** over the reservoir *)
  p99 : float;  (** over the reservoir *)
}

val hist_summary : histogram -> hist_summary option
(** [None] for an empty histogram. *)

type value =
  [ `Counter of float | `Gauge of float | `Histogram of hist_summary option ]

val lookup : ?registry:registry -> string -> value option
(** Read an existing metric by name without creating it — the alert
    engine's resolution primitive.  [None] when the name was never
    registered. *)

val remove : ?registry:registry -> string -> bool
(** Drop [name]'s binding from the registry (true when it existed) so
    it no longer appears in {!lookup}/{!snapshot}/{!to_json}.  An
    outstanding handle keeps working but is detached: re-registering
    the name creates a fresh metric.  The shard router uses this to
    retire stale [shard.<i>.*] gauges when the live arm count is
    smaller than a previous router's. *)

val reset : registry -> unit
(** Zero every counter and gauge and clear every histogram; handles
    stay valid. *)

val reset_all : unit -> unit
(** {!reset} the {!default} registry — call between repeated in-process
    runs (tests, advisor loops) so counters don't accumulate across
    them. *)

val snapshot : ?registry:registry -> unit -> (string * value) list
(** Point-in-time copy of every metric's current value, names sorted.
    Pair with {!reset_all} to measure one run in isolation: snapshot,
    run, snapshot, diff. *)

val to_json : registry -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {count, mean, min, max, p50, p95, p99}}}] with names sorted. *)
