(** Syscall shim for the real-file disk backend.

    Every syscall the file backend performs — positioned reads and
    writes of the block file, [fsync], and the atomic-rename commit of
    sidecar metadata — goes through this module, which wraps it in:

    - {e fault injection}: an armed plan makes the k-th next call of a
      class fail-stop, tear (write only a prefix of the payload before
      dying), return transient errors ([EINTR]-class, short transfers,
      transient [EIO]), or stall for a wall-clock delay;
    - {e bounded retry with backoff}: transient failures are retried up
      to {!retry_policy}[.max_retries] times with exponentially growing
      sleeps, after which the shim gives up and raises {!Io_error}
      ([EIO] from {!fsync} is never retried: it is fail-stop);
    - {e metrics}: every call, byte, retry, giveup and stall is counted
      in {!Wave_obs.Metrics} under the [disk.file.*] names below, and
      per-call wall seconds land in the [disk.file.io_wall_s]
      histogram, so real I/O time is visible next to the model clock;
    - {e flight recording}: every outcome also lands in
      {!Wave_obs.Recorder} as an [io] event — ["ok"] on a completed
      call (with the bytes transferred), ["retry"]/["giveup"] from the
      retry loop, and ["fault"]/["stall"]/["torn"] when an armed plan
      fires — so a crash dump shows the exact syscall tail that led to
      the failure.

    Like the tracer, the shim is process-global: exactly one fault plan
    is armed at a time and one retry policy is active.  This mirrors
    {!Disk.arm_fault} (last arm wins) and keeps the crash harness
    simple.

    Metric names: [disk.file.preads], [disk.file.pwrites],
    [disk.file.fsyncs], [disk.file.renames], [disk.file.bytes_read],
    [disk.file.bytes_written], [disk.file.retries],
    [disk.file.giveups], [disk.file.stalls], histogram
    [disk.file.io_wall_s]. *)

exception Io_error of string
(** Raised on injected fail-stop/torn faults, on transient errors that
    exhausted their retry budget, and on real permanent syscall
    failures.  {!Disk.Disk_error} is a rebinding of this exception, so
    code that catches one catches the other. *)

type syscall = Pread | Pwrite | Fsync | Rename

val syscall_name : syscall -> string

type transient =
  | Eintr  (** the call fails with [EINTR] (interrupted, no progress) *)
  | Eio  (** the call fails with a {e transient} [EIO] *)
  | Short  (** the call transfers only half of the requested bytes *)

type fault =
  | Fail_stop  (** the call raises; never retried (permanent) *)
  | Torn_write of float
      (** [Pwrite] only: physically write this fraction of the payload
          (rounded down to whole bytes), then raise — the classic torn
          write, visible in the file after the crash *)
  | Transient of transient * int
      (** the next [k] attempts of the targeted call fail transiently;
          the retry loop then succeeds (or gives up if [k] exceeds the
          budget) *)
  | Stall of float  (** sleep this many wall seconds, then succeed *)

(** {1 Retry policy} *)

type retry_policy = {
  max_retries : int;  (** retries after the first attempt, >= 0 *)
  backoff_s : float;  (** sleep before the first retry, seconds *)
  backoff_mult : float;  (** growth factor per retry, >= 1.0 *)
  max_backoff_s : float;  (** ceiling on a single sleep *)
}

val default_retry_policy : retry_policy
(** 4 retries, 1 ms first backoff, doubling, capped at 50 ms. *)

val set_retry_policy : retry_policy -> unit
(** Raises [Invalid_argument] on a negative budget, non-positive
    backoff, or multiplier below 1. *)

val retry_policy : unit -> retry_policy

val set_sleeper : (float -> unit) -> unit
(** Replace the backoff/stall sleep function (default
    [Unix.sleepf]).  Tests install a recorder so retry schedules are
    asserted without real delays. *)

val default_sleeper : float -> unit

(** {1 Fault arming} *)

val arm : ?at:int -> syscall -> fault -> unit
(** Arm a plan: the [at]-th next call (1-based, default 1) of the class
    is hit by the fault.  Last arm wins.  Raises [Invalid_argument]
    when [at < 1], when [Torn_write] targets anything but [Pwrite], on
    a fraction outside [0, 1], or on a negative stall/transient
    count. *)

val clear : unit -> unit
(** Disarm.  Idempotent. *)

val armed : unit -> (syscall * fault * int) option
(** The armed plan with calls remaining before it fires. *)

(** {1 Wrapped syscalls}

    Reads and writes are {e exact}: they loop until the whole buffer is
    transferred, retrying transient errors under the policy, and raise
    {!Io_error} otherwise.  A read that hits end-of-file before filling
    the buffer raises immediately (truncation is permanent, not
    transient). *)

val pread : Unix.file_descr -> bytes -> off:int -> unit

val pwrite : Unix.file_descr -> bytes -> off:int -> unit
(** [pwrite fd buf ~off] is {!pwrite_chunked} with [buf] as the one
    chunk and a [fill] that leaves it as it is. *)

val pread_chunked :
  Unix.file_descr ->
  off:int ->
  len:int ->
  chunk:bytes ->
  (bytes -> len:int -> unit) ->
  unit
(** [pread_chunked fd ~off ~len ~chunk deliver] is one {!pread} of
    [len] bytes at [off] that passes through [chunk] instead of landing
    in a buffer of its own: each time [chunk] holds the next
    [min (Bytes.length chunk) remaining] bytes of the range, it calls
    [deliver chunk ~len:n] with them at [\[0, n)], then refills the
    chunk.  Fault plan, retries, counters and recorder events are those
    of a single [pread] of [len] bytes, however many chunks it takes,
    and [disk.file.io_wall_s] gets the call's wall time less the time
    spent in [deliver]; [pread fd buf ~off] is this call with [buf] as
    the chunk.  Raises [Invalid_argument] on a negative [len], or an
    empty [chunk] with [len > 0]. *)

val pwrite_chunked :
  Unix.file_descr ->
  off:int ->
  len:int ->
  chunk:bytes ->
  (bytes -> len:int -> unit) ->
  unit
(** [pwrite_chunked fd ~off ~len ~chunk fill] is one {!pwrite} of
    [len] bytes at [off] whose payload never exists whole: for each
    piece of the range in turn it calls [fill chunk ~len:n], with
    [n = min (Bytes.length chunk) remaining], which must put the
    piece's bytes at [\[0, n)], and writes them out before asking for
    the next piece.  Fault plan, retries, counters and recorder events
    are those of a single [pwrite] of [len] bytes however many pieces
    it takes; a short write resumes inside the current piece, and a
    [Torn_write] plan writes exactly its prefix of the range, filling
    only the pieces that prefix reaches.  [disk.file.io_wall_s] gets
    the call's wall time less the time spent in [fill].  Raises
    [Invalid_argument] on a negative [len], or an empty [chunk] with
    [len > 0]. *)

val fsync : Unix.file_descr -> unit
(** [EINTR] retries like any transient, but [EIO] — real or an
    injected [Transient (Eio, _)] — is fail-stop: after a failed fsync
    the kernel may already have dropped the dirty pages and cleared the
    error, so a retry that succeeds would report lost data durable. *)

val rename : string -> string -> unit

(** {1 Durable whole-file writes} *)

val fsync_dir : string -> unit
(** Fsync a directory, making the renames committed in it durable. *)

val write_file : string -> string -> unit
(** [write_file path contents] replaces [path] durably: write
    [path.tmp], fsync it, rename it over [path], then fsync the parent
    directory so the rename itself survives power loss.  A crash leaves
    either the old file or the new one, plus at worst a stale
    [path.tmp]. *)
