(** Trace sinks: serialize collected spans/instants to files.

    Two formats:

    - {b JSONL}: one JSON object per line, one line per span or
      instant, in model-time order.  Grep-friendly, schema-stable.
    - {b Chrome [trace_event]}: a [{"traceEvents": [...]}] document of
      complete ("X") and instant ("i") events, loadable in
      [chrome://tracing] and Perfetto.  Timestamps are microseconds on
      the chosen clock ([`Model] by default — the paper's model-disk
      seconds — or [`Wall]); span disk attribution (seeks, blocks,
      bytes) and the other clock's timings ride in each event's
      ["args"]. *)

type clock = [ `Model | `Wall ]

val span_json : Trace.span -> Json.t
val instant_json : Trace.instant -> Json.t

val jsonl : spans:Trace.span list -> instants:Trace.instant list -> string
(** One object per line, sorted by model start time. *)

val chrome_json :
  ?clock:clock -> spans:Trace.span list -> instants:Trace.instant list -> unit -> Json.t

val write_jsonl :
  path:string -> spans:Trace.span list -> instants:Trace.instant list -> unit

val write_chrome :
  ?clock:clock ->
  path:string ->
  spans:Trace.span list ->
  instants:Trace.instant list ->
  unit ->
  unit

val validate_chrome : Json.t -> (int, string) result
(** Check the Chrome [trace_event] shape: a top-level object with a
    ["traceEvents"] array whose elements all carry a string ["name"], a
    string ["ph"], a finite numeric ["ts"], numeric ["pid"]/["tid"],
    and — for "X" events — a non-negative numeric ["dur"].  Returns the
    event count.

    This and every other validator and reader below checks a
    {!Shape}: errors name the path ([event 3 ("day")]) and the field.
    The rules a shape cannot state — required series present, header
    count equal to the event lines, strictly increasing ["seq"],
    non-decreasing ["tick"], at most ["cap"] points — are checked after
    the shape holds. *)

val validate_chrome_file : string -> (int, string) result
(** Read and parse [path], then {!validate_chrome}. *)

val bench_schema : string
(** The current [waveidx bench --json] schema tag,
    ["waveidx-bench/7"].  /7 adds a required ["series"] block of
    per-metric time-series summaries (points, last, mean, p95, trend)
    sampled from the canonical profiled run. *)

val required_bench_series : string list
(** Series every /6 snapshot must carry — the sharded throughput
    scaling curve [throughput+shards/{1,2,4,8}].  {!validate_bench}
    fails with the missing names otherwise. *)

val validate_bench : Json.t -> (int, string) result
(** Check a [BENCH_wave.json] snapshot against {!bench_schema}: the
    exact schema tag, ["unit"] = "model-seconds", a non-empty
    ["benchmarks"] array whose records carry a string ["name"],
    non-negative ["p50"]/["p95"], ["runs"] >= 1, an optional ["cache"]
    object (["hit_ratio"] in [0, 1]; non-negative ["hits"],
    ["misses"], ["frames"]) and an optional ["writeback"] object
    (non-negative ["writes_coalesced"], ["flushes"],
    ["flushed_blocks"]), plus a required ["profile"] summary block
    (string ["scheme"]/["technique"], ["days"] >= 1, non-negative
    ["total_model_s"], and a non-empty ["top"] array of hot nodes each
    with a string ["path"], ["calls"] >= 1, non-negative
    ["self_model_s"]/["total_model_s"]/["seeks"]).  Every error names
    the offending series ([benchmark i ("name")]) and field.  Returns
    the benchmark count. *)

val validate_bench_file : string -> (int, string) result
(** Read and parse [path], then {!validate_bench}. *)

val series_schema : string
(** ["waveidx-series/1"] — the {!Series.to_json} schema tag. *)

(** {1 Bench regression gate}

    [bench --compare BASELINE.json --threshold PCT] re-parses a
    committed snapshot, matches series by name against a fresh run, and
    fails on regressions: {!bench_series} extracts the comparable
    series (leniently — any snapshot version with a ["benchmarks"]
    array works, so old baselines survive schema bumps), and
    {!compare_bench} classifies each p50/p95 pair. *)

type bench_series = {
  series_name : string;
  series_p50 : float;
  series_p95 : float;
}

val bench_series : Json.t -> (bench_series list, string) result
(** Extract name/p50/p95 from a snapshot's ["benchmarks"] array,
    without checking the schema tag.  Errors name the series. *)

val bench_series_file : string -> (bench_series list, string) result
(** Read and parse [path], then {!bench_series}. *)

type bench_delta = {
  delta_name : string;
  delta_field : string;  (** ["p50"] or ["p95"] *)
  baseline_value : float;
  current_value : float;
  delta_pct : float;  (** (current - baseline) / baseline * 100 *)
}

type bench_comparison = {
  compared : int;  (** series present on both sides *)
  missing : string list;  (** in baseline, vanished from current — a failure *)
  added : string list;  (** new series, informational *)
  regressions : bench_delta list;
  improvements : bench_delta list;
}

val compare_bench :
  threshold_pct:float ->
  baseline:bench_series list ->
  current:bench_series list ->
  bench_comparison
(** A p50 or p95 that grew beyond [threshold_pct] percent (with a 1e-9
    absolute epsilon so bit-identical reruns never trip) is a
    regression; shrunk beyond it, an improvement. *)

val bench_ok : bench_comparison -> bool
(** No regressions and no vanished series. *)

val comparison_report : bench_comparison -> string
(** Human-readable per-series delta report: a summary line, then one
    line per regression / missing / improvement / new series. *)

(** {1 Profile documents} *)

val profile_schema : string
(** ["waveidx-profile/1"] — the {!Profile.to_json} schema tag. *)

val validate_profile : Json.t -> (int, string) result
(** Check a profile document: schema tag, ["unit"] = "model-seconds",
    non-negative ["total_model_s"], and a ["roots"] tree whose every
    node carries a string ["name"], ["calls"] >= 1, the non-negative
    cost fields, and a ["children"] array.  Errors carry the node's
    path.  Returns the node count. *)

val validate_profile_file : string -> (int, string) result

val write_folded : path:string -> Profile.t -> unit
(** Write {!Profile.folded} stacks to [path]. *)

val write_profile : path:string -> Profile.t -> unit
(** Write pretty-printed {!Profile.to_json} to [path]. *)

(** {1 Streaming trace flush}

    A mid-run escape hatch: arm a path with {!set_flush_path} and every
    {!flush_traces} call (the alert engine fires one per alert, the CLI
    one on uncaught exceptions) immediately writes the tracer's
    collected spans/instants there as JSONL behind a ["flush"] header
    line carrying the reason — so the evidence trail survives even if
    the process never reaches its normal end-of-run write. *)

val set_flush_path : string option -> unit
(** Arm ([Some path]) or disarm ([None], the initial state) the flush
    target. *)

val flush_path : unit -> string option

val flush_traces : reason:string -> unit
(** Write the current {!Trace.spans}/{!Trace.instants} to the armed
    path; a no-op when disarmed.  Write errors are swallowed — flushing
    is best-effort evidence preservation, never a new failure mode. *)

(** {1 Flight-recorder dumps} *)

val flight_schema : string
(** ["waveidx-flight/1"] — the {!Recorder.to_jsonl} schema tag. *)

val validate_flight : string -> (int, string) result
(** Validate a flight-recorder dump (raw JSONL text, not parsed JSON):
    a header line with the schema tag, a string ["reason"] and
    non-negative ["events"]/["dropped"] counts, followed by exactly
    [events] event lines, each a well-typed object
    (span/metric/alert/io payload fields present) with strictly
    increasing ["seq"].  Returns the event count. *)

val validate_flight_file : string -> (int, string) result
(** Read [path], then {!validate_flight}. *)

(** {1 Profile-node gate}

    The series gate above watches end-to-end latency; this one watches
    {e where the time goes}.  [bench --compare] additionally extracts
    the committed snapshot's ["profile"]["top"] hot-node list and
    re-resolves each path against a freshly profiled run: a node whose
    self model-seconds grew beyond the threshold fails the gate even
    when every series total is flat — the cost migrated between phases
    rather than growing in aggregate. *)

type profile_top_node = {
  top_path : string;  (** '/'-joined span-stack path *)
  top_calls : int;
  top_self : float;  (** self model-seconds *)
  top_total : float;  (** inclusive model-seconds *)
}

val bench_profile_top : Json.t -> (profile_top_node list, string) result
(** Extract the hot-node list from a bench snapshot's ["profile"]
    block.  Errors name the offending node. *)

val bench_profile_top_file : string -> (profile_top_node list, string) result

type profile_gate = {
  pg_compared : int;  (** baseline nodes resolved in the current tree *)
  pg_missing : string list;
      (** baseline hot paths absent from the current tree — a failure *)
  pg_regressions : bench_delta list;
      (** [delta_field] is ["self_model_s"] or ["total_model_s"] *)
  pg_improvements : bench_delta list;
}

val compare_profile_top :
  threshold_pct:float ->
  baseline:profile_top_node list ->
  current:Profile.t ->
  profile_gate
(** Compare each baseline hot node's self and total model-seconds
    against the node at the same path in [current].  The absolute
    epsilon is 1e-6 (not the series gate's 1e-9): self = total −
    children carries float-subtraction noise, and a baseline node with
    self 0.0 must not trip on rounding dust. *)

val profile_gate_ok : profile_gate -> bool
(** No regressions and no missing nodes. *)

val profile_gate_report : profile_gate -> string
(** Human-readable summary line plus one row per regression / missing /
    improved node. *)

(** {1 Series dumps} *)

val validate_series : Json.t -> (int, string) result
(** Check a [sim --series-out] dump against {!series_schema}: the
    exact schema tag, ["cap"] >= 1, ["ticks"] >= 0, and a ["series"]
    array whose entries carry a string ["name"] and a ["points"] array
    of at most [cap] points, each with a non-negative integer ["tick"]
    (non-decreasing within a series), an integer ["day"], and a finite
    ["value"].  Errors name the offending series and point.  Returns
    the total point count. *)

val validate_series_file : string -> (int, string) result
(** Read and parse [path], then {!validate_series}. *)

(** {1 OpenMetrics exposition}

    [sim --metrics-out FILE] renders the metrics registry — plus
    series-derived quantile/trend families when a {!Series} store is
    live — in Prometheus/OpenMetrics text format: each family opens
    with [# TYPE]/[# HELP], counters expose [<family>_total],
    histograms become summaries with [quantile] labels, and the
    document ends with [# EOF].  Registry dots map to underscores
    ([runner.day.query_p95] → [runner_day_query_p95]); a
    post-sanitization family collision keeps the first metric and
    drops later ones (a duplicate [# TYPE] would be invalid).
    Non-finite values are skipped at render time — the exposition
    never contains [NaN]. *)

val openmetrics : ?registry:Metrics.registry -> ?series:Series.t -> unit -> string
(** Render the registry snapshot (default registry unless given) and,
    when [series] is passed, the [waveidx_series_quantile] /
    [waveidx_series_trend] gauge families derived from
    {!Series.window_stats} and {!Series.trend} over each tracked
    series' full history. *)

val validate_openmetrics : string -> (int, string) result
(** Validate OpenMetrics text line-by-line: every sample belongs to a
    preceding [# TYPE] family (counters via their [_total] suffix —
    a bare counter sample fails; summaries via [_sum]/[_count] or a
    [quantile] label in [0, 1]), metric and label names match the
    format's charset, label values are well-escaped, no family is
    declared twice, samples never interleave across families, values
    are finite ([NaN]/[Inf] fail), no blank lines, and the last line
    is [# EOF].  Returns the sample count. *)

val validate_openmetrics_file : string -> (int, string) result
(** Read [path], then {!validate_openmetrics}. *)
