(** On-disk layout of a durable checkpoint directory.

    When {!Checkpoint.start} is given a directory, the wave's durable
    state lives in four well-known files:

    {v
    dir/BLOCKS         the real block file (plus BLOCKS.alloc sidecar)
    dir/MANIFEST       last committed manifest
    dir/MANIFEST.prev  the one before it (fallback for torn commits)
    dir/JOURNAL        intent/commit log, rewritten atomically
    v}

    The manifest commit is the classic write-new-then-rename swap with
    one refinement: the old [MANIFEST] is first rotated to
    [MANIFEST.prev].  A kill between the two renames leaves only
    [.prev]; a kill before them leaves the old [MANIFEST] plus a stale
    [MANIFEST.tmp] that {!read_manifest} cleans up.  Either way a
    complete committed manifest is always readable, and a corrupted
    [MANIFEST] (partial write on a filesystem without atomic rename
    durability) falls back to the previous checkpoint.

    The journal is tiny — one intent plus one commit — so it is
    persisted as a whole-file atomic rewrite rather than an append
    stream; truncation is a rewrite with the empty journal.

    All writes go through the {!Wave_disk.Io} shim (fault injection,
    retry, [disk.file.*] metrics).  Failures raise
    {!Wave_disk.Disk.Disk_error}. *)

val blocks_path : string -> string
val manifest_path : string -> string
val manifest_prev_path : string -> string
val journal_path : string -> string

val init : string -> unit
(** Create the directory (and parents) if missing. *)

val write_manifest : string -> Manifest.t -> unit
(** Durable commit: {!Wave_disk.Io.write_file} of [MANIFEST.tmp],
    rotate, rename, then fsync the directory. *)

val read_manifest : string -> Manifest.t * bool
(** The newest readable committed manifest, cleaning up a stale
    [MANIFEST.tmp].  [true] when the primary was missing or corrupt
    and [MANIFEST.prev] was used.  Raises {!Wave_disk.Disk.Disk_error}
    when neither parses. *)

val write_journal : string -> Journal.t -> unit
(** Whole-file atomic rewrite ({!Wave_disk.Io.write_file}: tmp +
    fsync + rename + directory fsync). *)

val read_journal : string -> Journal.t
(** Missing or unparseable — a torn non-atomic write lost the race —
    reads as the empty journal: no pending intent, the manifest is the
    truth. *)
