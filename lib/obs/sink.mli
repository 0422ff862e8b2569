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

    This and every other validator below checks a {!Shape}: errors
    name the path ([event 3 ("day")]) and the field.  The rules a shape
    cannot state — header count equal to the event lines, strictly
    increasing ["seq"], non-decreasing ["tick"], at most ["cap"] points
    — are checked after the shape holds. *)

val validate_chrome_file : string -> (int, string) result
(** Read and parse [path], then {!validate_chrome}. *)

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

val validate_flight : string -> (int, string) result
(** Validate a flight-recorder dump (raw JSONL text, not parsed JSON):
    a header line with the {!Recorder.schema} tag, a string ["reason"]
    and non-negative ["events"]/["dropped"] counts, followed by exactly
    [events] event lines, each a well-typed object
    (span/metric/alert/io payload fields present) with strictly
    increasing ["seq"].  Returns the event count. *)

val validate_flight_file : string -> (int, string) result
(** Read [path], then {!validate_flight}. *)

(** {1 Series dumps} *)

val validate_series : Json.t -> (int, string) result
(** Check a [sim --series-out] dump against {!Series.schema}: the
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
