(** Block-granular buffer pool over {!Wave_disk.Disk}.

    The paper's query-response model (Tables 8-11) charges every probe
    one full seek plus a transfer per constituent, as if every block
    came from cold disk.  Real systems amortise exactly those accesses
    with a buffer manager; this module supplies one for the simulated
    disk, as a {e cost} cache: the pool records which blocks are
    resident, serves resident reads for zero model-seconds, and charges
    misses to the underlying disk exactly as an uncached access would
    (one seek, then the missed blocks' transfer).  No data flows
    through the pool — entry contents always come from the in-memory
    index structures — so enabling it can never change {e what} a query
    returns, only what it costs.

    Policy (see DESIGN.md §5c–§5d):
    - {b CLOCK eviction} (second chance).  Each frame has a reference
      bit, set on hit; the hand sweeps, clearing reference bits and
      skipping pinned frames, and evicts the first unreferenced,
      unpinned frame.
    - {b Pinning.}  {!pin_resident_blocks} makes resident frames
      ineligible for eviction until {!unpin_blocks}.  Pins nest;
      unpinning below zero raises {!Cache_error}, as does an allocation
      request when every frame is pinned.  Pinned frames can still be
      {e flushed} — pinning defers eviction, not durability.
    - {b Write-through} (default).  Writes charge the disk exactly as
      uncached — same seeks, same write operations, same
      fault-injection points, so PR 1's crash-consistency guarantees
      are untouched — and refresh any resident frames; they never
      allocate frames.
    - {b Write-back} (opt-in, [~write_back:true]).  Writes dirty
      resident frames (allocating them on demand) instead of charging
      the disk; a rewrite absorbed by an already-dirty frame is counted
      as {e coalesced}.  The deferred write is charged when the CLOCK
      hand evicts a dirty frame, or — batched into contiguous runs — at
      the next {!flush}.  Dirty frames are volatile: a crash loses
      them, so every durability boundary (checkpoint manifest rename,
      journal commit) must {!flush} first, and recovery calls
      {!discard_dirty}.  Dirty frames of a freed or reallocated extent
      are {e discarded}, never written.
    - {b Invalidation by allocation generation.}  Frames are tagged
      with their extent's allocation generation ({!Disk.generation_at}).
      After a [free] and reallocation of the same address, the stale
      frame no longer matches and is refetched — the allocator-reuse
      hazard PR 1's generations were introduced for.
    - {b Scan readahead.}  Sequential (segment-scan) reads batch each
      contiguous run of missing blocks into one transfer behind the
      scan's single seek, counting the blocks fetched ahead of demand;
      scan-loaded frames enter with a clear reference bit so a long
      scan drains out of the pool before it can evict the probe
      working set.  Demand reads can additionally prefetch up to
      [readahead] following blocks of the same extent.

    A pool serves one disk.  Pools attach one per disk ({!attach}) so
    that every index sharing a disk shares the pool; a multi-disk run
    has one pool per arm.

    Memory: besides one entry per frame in a handful of arrays, the
    pool keeps an int array from block address to frame, one int per
    block address up to the highest address installed (at most twice
    that after geometric growth), and a table with one binding per
    resident metadata block. *)

open Wave_disk

exception Cache_error of string

type t
(** A buffer pool over one disk. *)

type stats = {
  hits : int;  (** data blocks served from the pool *)
  misses : int;  (** data blocks fetched from disk *)
  meta_hits : int;  (** directory / B+tree node reads served *)
  meta_misses : int;  (** directory / B+tree node reads charged *)
  evictions : int;  (** frames reclaimed by the CLOCK hand *)
  readaheads : int;  (** blocks fetched ahead of demand *)
  stale_drops : int;  (** frames dropped on generation mismatch *)
  writes_coalesced : int;
      (** block writes absorbed by an already-dirty frame — physical
          writes the write-through pool would have charged *)
  dirty_evictions : int;
      (** dirty frames whose deferred write was performed at eviction *)
  flushes : int;  (** non-empty {!flush} drains *)
  flush_writes : int;  (** physical write operations issued by flushes *)
  flushed_blocks : int;  (** blocks those flush writes carried *)
  dirty_discards : int;
      (** dirty frames discarded unwritten (freed / reallocated extent,
          or {!discard_dirty} after a crash) *)
  saved_seconds : float;
      (** model-seconds avoided on data accesses versus the uncached
          charging (net of any wasted readahead transfer) *)
  meta_seconds : float;
      (** model-seconds charged for directory metadata misses — cost
          the uncached model does not charge at all (it assumes the
          directory memory-resident) *)
}

val create :
  Disk.t -> frames:int -> ?readahead:int -> ?write_back:bool -> unit -> t
(** A pool of [frames] one-block frames over the disk.  [frames >= 1];
    [readahead >= 0] (default 0) blocks of demand-read prefetch;
    [write_back] (default [false]) enables deferred writes. *)

(** {1 Per-disk attachment} *)

val attach :
  Disk.t -> frames:int -> ?readahead:int -> ?write_back:bool -> unit -> t
(** The pool attached to this disk, creating it with the given
    geometry on first use.  Subsequent calls return the existing pool
    (its geometry wins). *)

val find : Disk.t -> t option
(** The pool attached to this disk, if any. *)

val detach : Disk.t -> unit
(** Drop any pool attached to this disk.  Idempotent. *)

(** {1 Charged accesses}

    Each mirrors a {!Disk} access: resident blocks are free, missed
    blocks charge the disk (and become resident).  All of them raise
    exactly as the uncached access would on a dead, stale-shaped or
    torn extent, even when fully resident. *)

val read_range : t -> Disk.extent -> off:int -> blocks:int -> unit
(** Read [blocks] blocks starting [off] blocks into the extent —
    uncached cost: one seek plus [blocks] transfers.  Charges one seek
    plus only the missed blocks (plus up to [readahead] prefetched
    followers within the extent, entering cold). *)

val read : t -> Disk.extent -> unit
(** [read_range t e ~off:0 ~blocks:e.length]. *)

val sequential_read : t -> Disk.extent list -> unit
(** Segment scan: uncached cost is one seek plus every block of every
    extent; the pool charges one seek (if anything misses) plus the
    missed blocks, batched per contiguous run. *)

val write_range : t -> Disk.extent -> off:int -> blocks:int -> unit
(** Write-through pool: charges {!Disk.write_run} [~off ~blocks] verbatim
    (same cost and fault points as uncached), then refreshes resident
    frames in [off, off+blocks); never allocates frames.  Write-back
    pool: dirties the range's frames (allocating on demand) and charges
    nothing now — except a range larger than the whole pool, which
    falls back to one write-through operation. *)

val write : t -> Disk.extent -> unit
(** Whole-extent write. *)

val meta_read : t -> dir:int -> nodes:int list -> unit
(** Charge a directory walk: each node is one metadata block in
    namespace [dir] (use {!Wave_storage.Btree.uid}).  A resident
    node is free; a miss charges one seek plus one block — the
    seek-dominated upper-level access a warm pool removes.  Metadata
    frames are never stale (node ids are never reused).  Raises
    {!Cache_error} on a [dir] outside [\[0, 2^29)] before any charge, and
    on a node id outside [\[0, 2^31)] when the walk reaches it. *)

(** {1 Write-back durability} *)

val dirty_frames : t -> int
(** Frames currently holding a deferred write (0 for write-through). *)

val flush : t -> unit
(** Drain every dirty frame of the pool: one {!Disk.note_flush} fault
    point, then the dirty set sorted by block address and written as
    maximal contiguous runs via {!Disk.write_run} — each run one seek
    and one write operation, so a shadow build's repeated bucket
    rewrites reach the disk as one physical write per bucket.  Frames are marked clean
    only after their run succeeds: an injected fault mid-drain leaves
    the rest dirty, and a later flush resumes with exactly those.
    No-op on a write-through pool, on a clean pool (no fault point, no
    counter), and when re-entered from an eviction inside the drain. *)

val discard_dirty : t -> int
(** Throw away every deferred write without performing it — what a
    crash does to a volatile buffer pool.  Recovery calls this before
    re-reading any state the dirty frames shadowed.  Returns the number
    of frames discarded; clean frames stay resident (they match the
    disk).  Idempotent. *)

(** {1 Pinning} *)

val pin_resident_blocks : t -> Disk.extent -> budget:int -> int list
(** Pin whatever blocks of the extent are {e already} resident with the
    extent's current generation — no I/O is charged, absent and stale
    blocks are skipped — stopping after [budget] pins.  Returns the
    pinned block addresses (pass them to {!unpin_blocks}).  This is the
    epoch-snapshot pin: eviction never selects a pinned frame, so a
    frame pinned by a retired-but-undrained epoch survives any cache
    pressure until the epoch drains; the budget keeps one epoch from
    pinning the whole pool and starving eviction. *)

val unpin_blocks : t -> int list -> unit
(** Undo one {!pin_resident_blocks} given the addresses it returned.
    Raises {!Cache_error} on a pin imbalance; validates every address
    before touching any pin count. *)

val pinned_frames : t -> int
(** Frames currently holding a positive pin count. *)

(** {1 Observation} *)

val capacity : t -> int
val resident : t -> int
(** Frames currently occupied. *)

val contains : t -> Disk.extent -> bool
(** Whether every block of the extent is resident with the extent's
    current allocation generation. *)

val validate : t -> unit
(** Residency invariants of the pool: every occupied frame is the
    entry of its key — the map entry at its block address, or the
    metadata table's binding — and every map entry and binding names a
    frame that holds that key.
    Raises {!Cache_error} on violation.  Used by the test suite. *)

val stats : t -> stats
(** The pool's counters since it was created. *)

val add_stats : stats -> stats -> stats
(** Field-wise sum: the counters of several pools, one per arm of a
    sharded run, as one. *)

val hit_ratio : stats -> float
(** Data-block hit ratio, 0 when no data blocks were touched. *)

val pp_stats : Format.formatter -> stats -> unit
