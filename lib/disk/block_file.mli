(** The real block file under the [file:] disk backend.

    One preallocated flat file, byte offset [= block * block_size] — the
    same O(1) addressing as the simulator's block address space, so an
    extent handle maps to a file range with no translation table.

    The simulator charges costs but carries no payloads: index entries
    live in memory and the day store is the system of record.  What the
    file backend persists per block is therefore a {e self-describing
    stamp} — magic, owning extent start, allocation generation, absolute
    block index, per-operation write sequence, CRC-32 — enough to decide
    after a kill whether every write that claimed to complete really
    reached the platter intact.  The verification rule is
    {e valid-stamp-or-zero}: a block must either carry a stamp whose CRC
    checks out and whose (extent, generation, index) match the live
    extent being verified, or be all zeros (allocated but never
    written).  {!Disk} zeroes an extent's range at allocation time to
    make the second disjunct sound, so cross-extent corruption,
    stale-generation reuse and tail truncation are all caught.  A torn
    rewrite of an extent {e in place} (same extent, same generation) can
    leave a mix of old and new stamps that both verify — undetectable by
    content, and harmless: in-place techniques always roll forward.

    All file I/O goes through the {!Io} shim (fault injection, retry,
    [disk.file.*] metrics).  Raises {!Io.Io_error} on I/O failure. *)

type t

val stamp_bytes : int
(** Bytes of each block consumed by the stamp (the rest stay zero).
    [block_size] must be at least this. *)

val create : path:string -> block_size:int -> t
(** Create (or truncate) the block file.  Raises [Invalid_argument] if
    [block_size < stamp_bytes]. *)

val open_existing : path:string -> block_size:int -> t
(** Open an existing block file; its current size is taken as-is (it
    may be shorter than the allocator frontier after a torn-tail
    crash). *)

val close : t -> unit
(** Idempotent. *)

val path : t -> string
val block_size : t -> int

val size_blocks : t -> int
(** Whole blocks the file currently covers. *)

val fsync : t -> unit

val ensure_blocks : t -> int -> unit
(** Grow the file (with zeros) so it covers at least this many blocks.
    Never shrinks. *)

val zero_range : t -> start:int -> blocks:int -> unit
(** Physically zero a block range — called at allocation so reused
    space satisfies the valid-stamp-or-zero rule.  Extends the file
    first if needed; only the portion below the old end of file incurs
    a write: one [pwrite] of that portion, streamed from a zeroed
    buffer of at most {!chunk_bytes}. *)

val write_range :
  t -> start:int -> blocks:int -> ext_start:int -> gen:int -> seq:int -> unit
(** Stamp every block of the range in one [pwrite]
    ({!Io.pwrite_chunked}) that streams through a buffer of at most
    {!chunk_bytes} allocated for this call, restamped for each piece.
    The 20 bytes every stamp of the range shares (magic, extent start,
    generation) are built once, with their CRC state continued over the
    index's 8 bytes as zeros and then over the sequence.  Per block the
    shared bytes are stored as three words, and the CRC is that state
    plus the index's term ({!Wave_util.Crc32.field}): a table lookup per
    non-zero byte of the index, no walk over the bytes. *)

val write_torn_prefix :
  t -> start:int -> blocks:int -> ext_start:int -> gen:int -> seq:int -> int
(** Physically write stamps for roughly the first half of the range
    (at least one block, fewer than [blocks] when [blocks > 1]), as
    {!write_range} writes them, and return how many were written — the
    on-disk half of a torn-write injection.  The caller then marks the
    extent torn and raises. *)

val verify_range :
  t -> start:int -> blocks:int -> ext_start:int -> gen:int -> bool
(** Read the range (one [pread] of the whole range, streamed through a
    buffer of at most {!chunk_bytes} allocated for this call) and check
    valid-stamp-or-zero against the owning extent, every block, each
    chunk as it arrives.  [false] on any damaged block, and on a range the
    (possibly truncated) file no longer covers.  Transient read errors
    retry inside {!Io}; a permanent failure raises.

    A block's first 20 bytes are compared with the range's shared
    prefix as three words and its index with the block's, and its
    stored CRC with the prefix's state continued over 8 zero bytes and
    the 8 sequence bytes the block carries, plus the index's term.  The
    state over the sequence is recomputed only when a block's sequence
    bytes differ from the previous block's.  Once the prefix and index
    match, that is the CRC of bytes [\[0, 36)] (CRC-32 is affine), so
    this is the same predicate as checking magic, CRC, extent,
    generation and index one by one. *)

val chunk_bytes : int
(** {!verify_range}, {!write_range}, {!write_torn_prefix} and
    {!zero_range} stream their one [pread] or [pwrite] through a buffer
    of at most this many bytes, rounded down to whole blocks (one block
    when a block is larger); no call allocates a buffer the size of its
    range. *)
