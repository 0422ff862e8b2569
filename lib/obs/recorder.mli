(** Flight recorder: an always-on bounded ring buffer of recent
    observability events — the black box a failing run ships with.

    Five event kinds land here automatically:

    - {b spans}: every {!Trace.end_span} (name, model duration, disk
      attribution);
    - {b metrics}: every gauge {!Metrics.set} (value and delta — the
      low-frequency per-day / per-transition signals, not hot
      counters);
    - {b alerts}: every {!Alert} firing (rule, metric, value, day,
      scope);
    - {b io}: every {!Wave_disk.Io} syscall outcome (ok / retry /
      giveup / fault / stall / torn, with bytes moved);
    - {b epoch}: every [Wave_epoch] lifecycle step (open / swap /
      retire / drain, with the epoch generation and refcount), so a
      crash dump shows which epoch was live at the fault.

    The ring holds the most recent {!capacity} events; older ones are
    overwritten ({!dropped} counts them).  Recording is a few field
    writes, cheap enough to stay on unconditionally; {!set_enabled}
    [false] turns it into a no-op for overhead experiments.

    Timestamps: [at_wall] is {!Unix.gettimeofday}; [at_model] reads the
    clock registered by {!set_model_clock} — {!Trace} registers its
    model clock at module init, so events carry model time whenever a
    traced run is active (0.0 otherwise).

    Dumps are JSONL under the ["waveidx-flight/1"] schema (validated by
    {!Sink.validate_flight}): a header line with the dump reason and
    counts, then one object per event, oldest first.  {!set_dump_path}
    arms automatic dumps — the alert engine and the CLI's
    uncaught-exception handler call {!dump_if_configured} — and the
    crash harness writes [flight.jsonl] into every failing artifact
    directory via {!dump_to}. *)

type kind =
  | Span of {
      sp_name : string;
      sp_model_s : float;
      sp_seeks : int;
      sp_blocks_read : int;
      sp_blocks_written : int;
      sp_bytes_read : int;
      sp_bytes_written : int;
    }
  | Metric of { m_name : string; m_value : float; m_delta : float }
  | Alert_fire of {
      a_rule : string;
      a_metric : string;
      a_value : float;
      a_day : int;
      a_scope : string;
    }
  | Io of { io_syscall : string; io_outcome : string; io_bytes : int }
  | Epoch of { e_event : string; e_gen : int; e_refcount : int }

type event = {
  seq : int;  (** monotonically increasing since the last {!clear} *)
  at_model : float;
  at_wall : float;
  kind : kind;
}

val schema : string
(** ["waveidx-flight/1"]. *)

val set_model_clock : (unit -> float) -> unit
(** Register the model-time source for [at_model].  {!Trace} installs
    its own clock at module init; tests may override. *)

val set_enabled : bool -> unit

val capacity : unit -> int
(** Ring size (default 512). *)

val set_capacity : int -> unit
(** Resize the ring, clearing it.  Raises [Invalid_argument] below 1. *)

val clear : unit -> unit
(** Drop all events and reset the sequence counter.  The crash harness
    clears per fault point so each dump is point-specific. *)

val record_span :
  name:string ->
  model_s:float ->
  seeks:int ->
  blocks_read:int ->
  blocks_written:int ->
  bytes_read:int ->
  bytes_written:int ->
  unit

val record_metric : name:string -> value:float -> delta:float -> unit
val record_alert :
  rule:string -> metric:string -> value:float -> day:int -> scope:string -> unit

val record_io : syscall:string -> outcome:string -> bytes:int -> unit

val record_epoch : event:string -> gen:int -> refcount:int -> unit
(** Record one epoch lifecycle event: ["open"], ["swap"], ["retire"] or
    ["drain"], with the epoch's generation tag and refcount after the
    step. *)

val events : unit -> event list
(** The ring's live window, oldest first. *)

val count : unit -> int
(** Events currently held: [min (total ()) (capacity ())]. *)

val total : unit -> int
(** Events ever recorded since the last {!clear}. *)

val dropped : unit -> int
(** Events overwritten by the ring: [total - count]. *)

val to_jsonl : ?reason:string -> unit -> string
(** The dump text: a ["waveidx-flight/1"] header line carrying
    [reason] (default ["manual"]) and the event/dropped counts, then
    one JSON object per event, oldest first. *)

val dump_to : ?reason:string -> string -> unit
(** Write {!to_jsonl} to a file. *)

val set_dump_path : string option -> unit
(** Arm (or disarm) automatic dumps for {!dump_if_configured}. *)

val dump_path : unit -> string option

val dump_if_configured : reason:string -> unit
(** {!dump_to} the armed path, if any; write errors are swallowed (a
    flight dump must never turn a failure into a different failure). *)
