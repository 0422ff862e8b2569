(** Simulated disk substrate.

    The paper evaluates every scheme on a single disk characterised by
    two hardware parameters: the time for one [seek] and the transfer
    rate [trans] (Section 5, "Disk Parameters").  This module supplies
    that substrate as a simulator: an extent allocator over a block
    address space plus per-operation cost accounting in model seconds.
    The storage layer above charges exactly the accesses the paper's
    algorithms perform — one seek followed by a contiguous transfer per
    probe or scan — so relative performance trends are preserved even
    though absolute numbers belong to the simulator, not a DEC 3000.

    Invariants enforced (and tested): extents never overlap, reads and
    frees of unallocated extents are errors, and frees coalesce so that
    space is actually reclaimed. *)

type params = {
  seek_time : float;  (** seconds per seek, e.g. 0.014 *)
  transfer_rate : float;  (** bytes per second, e.g. 10e6 *)
  block_size : int;  (** bytes per block, e.g. 4096 *)
}

val default_params : params
(** The paper's Table 12 hardware: 14 ms seek, 10 MB/s transfer, with a
    4 KiB block. *)

type t
(** A simulated disk: allocator state, clock and counters. *)

type extent = private { start : int; length : int }
(** A contiguous run of [length] blocks beginning at block [start].
    Obtained from {!alloc} only. *)

exception Disk_error of string
(** Raised on protocol violations: double free, foreign extent, etc.
    A rebinding of {!Io.Io_error}, so real-I/O failures surfacing from
    the file backend are caught by existing [Disk_error] handlers. *)

val create : ?params:params -> unit -> t

val params : t -> params

(** {1 Backends}

    {!create} makes the paper's pure cost simulator.  {!create_file}
    and {!open_file} put the {e same} disk — same allocator, same cost
    model, same fault points — over a real block file: every write
    additionally stamps its blocks into the file through the {!Io}
    syscall shim and every read verifies what it finds
    (see {!Block_file}), so schemes, journal, checkpoint, buffer pool
    and crash harness run unchanged on real I/O. *)

type backend = Sim | File of string

val backend : t -> backend

val create_file : ?params:params -> path:string -> unit -> t
(** A fresh file-backed disk over a new (truncated) block file at
    [path].  The block size must be at least {!Block_file.stamp_bytes}. *)

val open_file : ?params:params -> path:string -> unit -> t
(** Reopen a file-backed disk from [path] and its allocator snapshot
    [path ^ ".alloc"] (written by {!checkpoint_alloc}; a stale
    [.alloc.tmp] is cleaned up).  Every live extent's blocks are
    verified against the valid-stamp-or-zero rule; extents that fail —
    foreign or stale-generation stamps, CRC damage, truncated tail —
    are marked torn, exactly as an interrupted in-memory write would
    be, so recovery's [change_intact] test sees real damage.  Raises
    {!Disk_error} on a missing or unparseable snapshot, and on one
    whose extents overlap, repeat a start or reach past the frontier. *)

val close : t -> unit
(** Close the backing file (no-op on the simulator).  Idempotent. *)

val fsync : t -> unit
(** Durability barrier on the backing file (no-op on the simulator). *)

val checkpoint_alloc : t -> unit
(** Persist the allocator snapshot to [path ^ ".alloc"] — tmp, fsync,
    atomic rename — so {!open_file} can rebuild allocation state.
    Called by the checkpoint layer after flushing data and before
    committing its manifest.  No-op on the simulator. *)

val backing : t -> Block_file.t option
(** The real block file, when this disk has one.  The crash harness
    uses it to truncate the tail behind a kill. *)

val id : t -> int
(** Process-unique identity of this disk (creation order).  Client
    layers that keep per-disk attachments — e.g. the buffer pool in
    {!Wave_cache} — key them on this id rather than on the mutable
    record itself. *)

(** {1 Allocation} *)

val alloc : t -> blocks:int -> extent
(** [alloc t ~blocks] reserves a contiguous extent.  First-fit over the
    free list, falling back to extending the high-water frontier; the
    address space is unbounded.  [blocks] must be positive. *)

val free : t -> extent -> unit
(** Returns an extent to the free list, coalescing with neighbours.
    Freeing an extent twice or one not produced by this disk raises
    {!Disk_error}.  When a {!set_free_gate} gate claims the extent, the
    free is deferred: the extent stays live (not reusable, generation
    intact) and the caller's handle is dead — the gate's owner is now
    responsible for re-issuing the free once no snapshot needs it. *)

val set_free_gate : t -> (extent -> bool) option -> unit
(** Install (or clear, with [None]) the free gate.  [free t ext] first
    asks the gate; a [true] answer defers the free as described above.
    Installed by {!Wave_epoch} so retired-but-undrained epochs keep the
    extents their snapshots still read; at most one gate at a time. *)

val set_op_observer : t -> (unit -> unit) option -> unit
(** Install (or clear) an observer called after every {e successfully}
    charged operation — seeks, transfers, delays, writes, flush notes.
    Faulting operations raise before the charge and never notify.  The
    epoch interleaver uses this as a logical clock to deliver query
    arrivals between the disk operations of a running transition. *)

val is_live : t -> extent -> bool
(** Whether the extent is currently allocated on this disk. *)

val live_at : t -> start:int -> length:int -> bool
(** Whether an extent with exactly this shape is currently allocated —
    the address-level twin of {!is_live}, usable from recovery code
    that only has journalled [(start, length)] pairs, not handles. *)

val live_extents : t -> extent list
(** Every live extent, in address order.  Recovery uses this to find
    extents leaked by an interrupted transition: anything live that no
    surviving index accounts for. *)

(** {1 Access costing} *)

val read : t -> extent -> unit
(** Charge one seek plus the transfer of the whole extent.  The extent
    must be live. *)

val read_blocks : t -> extent -> blocks:int -> unit
(** Charge one seek plus the transfer of [blocks] (<= extent length)
    from a live extent; models reading a prefix such as one bucket. *)

val write : t -> extent -> unit
(** Charge one seek plus the transfer of the whole extent. *)

val write_blocks : t -> extent -> blocks:int -> unit
(** [write_run t ext ~off:0 ~blocks]: a prefix write. *)

val write_run : t -> extent -> off:int -> blocks:int -> unit
(** Charge one seek plus the transfer of [blocks] starting [off] blocks
    into a live extent — a bucket append, a write-through sub-range, or
    a coalesced run of deferred (write-back) frame writes.  On a
    file-backed disk the stamps land at [\[off, off+blocks)].
    Bounds-checked ([off + blocks <= length]); a full rewrite
    ([off = 0], [blocks = length]) replaces torn contents, a partial one
    does not. *)

val note_flush : t -> unit
(** Record one buffer-pool flush drain.  Charges nothing (the drain's
    runs charge themselves through {!write_run}) but counts toward
    {!counters}[.flushes] and is an [On_flush] fault point, so a crash
    plan can name "the k-th flush" — the moment the pool is still fully
    dirty and no deferred write has reached the disk. *)

val sequential_read : t -> extent list -> unit
(** Charge one seek, then transfer every extent in the list without
    further seeks — the paper's packed segment scan, which reads "from
    the first bucket until the last bucket" with a single seek.  All
    extents must be live. *)

val charge_seek : t -> unit
val charge_transfer_bytes : t -> int -> unit

val charge_read_transfer : t -> blocks:int -> unit
(** Charge the transfer of [blocks] {e without} a seek, counting them
    as blocks read.  The buffer pool uses this to batch several cache
    misses behind the single seek it already charged; on its own it
    models the tail of any contiguous read. *)

val assert_readable : t -> extent -> unit
(** Raise exactly as {!read} would — extent not live, stale shape, or
    torn contents — but charge nothing.  Lets a cache serve fully
    resident reads at zero cost while still refusing to satisfy reads
    that the disk itself would refuse. *)

val readable_generation : t -> extent -> int
(** {!assert_readable}, then the extent's allocation generation (see
    {!generation_at}), allocating nothing: the check a cache hit
    makes. *)

val charge_delay : t -> float -> unit
(** Advance the model clock by a non-disk cost (e.g. CPU time spent
    parsing and sorting a batch while building an index).  The paper's
    measured [Build]/[Add] parameters are dominated by such processing,
    so the simulator can be configured to charge it too. *)

(** {1 Metrics} *)

type counters = {
  seeks : int;
  blocks_read : int;
  blocks_written : int;
  write_ops : int;  (** write {e operations} (not blocks) — each is a torn-write injection point *)
  flushes : int;  (** buffer-pool flush drains noted via {!note_flush} *)
  elapsed : float;  (** model seconds consumed so far *)
}

val counters : t -> counters

val elapsed : t -> float
(** Model seconds consumed since creation. *)

val reset_counters : t -> unit
(** Zero the counters; allocation state is untouched. *)

val live_blocks : t -> int
(** Blocks currently allocated. *)

val extent_covering : t -> addr:int -> extent option
(** The live extent containing absolute block address [addr], if any.
    The write-back pool uses this at eviction and flush time to map a
    dirty frame's address back to the destination extent of its
    deferred write. *)

val generation_at : t -> start:int -> int option
(** Allocation generation of the live extent starting at [start]
    ([None] if none does).  Generations are unique across the disk's
    lifetime, so a recovery log that remembers an extent's generation
    can tell the original extent from a same-shaped reallocation at the
    same address — the allocator-reuse hazard an LSN solves in a real
    write-ahead log. *)

val peak_blocks : t -> int
(** Maximum of {!live_blocks} ever observed — the paper's "maximum
    storage required". *)

val reset_peak : t -> unit
(** Restart peak tracking from the current live size. *)

val high_water : t -> int
(** Frontier of the address space (largest block index ever used + 1). *)

val fragmentation : t -> float
(** 1 - live/high_water: share of the touched address space that is
    currently free.  0 when nothing was ever allocated. *)

val pp_counters : Format.formatter -> counters -> unit

(** {1 Fault injection}

    For crash-consistency testing: arm a {e fault plan} and the disk
    raises {!Disk_error} ["injected fault"] on the k-th subsequent
    matching operation, simulating a mid-transition failure.  Allocator
    state stays consistent (the failing operation charges nothing).

    A plan names a target operation class — seeks (which every read and
    write performs), write operations, or buffer-pool flush drains — and
    a mode.  [Fail_stop] simply raises.  [Torn] (writes only) first
    marks the destination extent's contents invalid: the extent stays
    allocated, but any read of it raises ["torn extent"] until it is
    either freed or completely rewritten.  This models a crash that
    tears a sector-level write after the space was allocated.  An
    [On_flush] point fires at {!note_flush}, i.e. {e before} any of the
    drain's deferred writes — the crash-with-a-fully-dirty-pool case;
    crashes inside the drain are the drain's own [On_write] points.

    A {e queue} of plans can be armed at once ({!arm_faults}): only the
    head plan counts down; when it fires, the queue pops and the next
    plan starts counting from that operation on.  This is how the
    double-fault sweep injects a second crash {e during recovery} from
    the first.  Arming again {e replaces} the whole queue (last arm
    wins).  An armed queue survives {!reset_counters} — counters are
    observability state, plans are injected-failure state — and
    {!clear_fault} is idempotent.

    Every firing also lands in {!Wave_obs.Recorder} as an [io] event
    (syscall [seek]/[write]/[flush], outcome
    ["fault"]/["torn"]/["stall"]), so a crash-sweep flight dump ends
    with the injected fault that killed the run. *)

type fault_target = On_seek | On_write | On_flush

type fault_mode =
  | Fail_stop
  | Torn
  | Stall of float
      (** slow I/O rather than failure: charge this many model seconds
          of delay at the fault point, then let the operation proceed
          (and pop to the next plan).  Any target; on a file-backed
          disk the real syscall still runs. *)

type fault_point = { target : fault_target; at : int }
(** The [at]-th next operation of class [target] (1-based). *)

val pp_fault_point : Format.formatter -> fault_point -> unit

val arm_fault : t -> ?mode:fault_mode -> fault_point -> unit
(** Arm a single plan (default mode [Fail_stop]), replacing any queue.
    Raises {!Disk_error} when [at < 1], when [Torn] is combined with
    anything but [On_write], or on a negative stall. *)

val arm_faults : t -> (fault_point * fault_mode) list -> unit
(** Arm a whole queue in firing order.  Validates every plan as
    {!arm_fault} does; the empty list disarms. *)

val armed_faults : t -> (fault_point * fault_mode) list
(** The remaining queue, head first, with the head's [at] counted down
    to the operations left before it fires. *)

val stall_count : t -> int
(** Stall plans fired so far (also counted in the [disk.stalls]
    metric).  Not part of {!counters}: stalls charge their delay into
    [elapsed] and are injection state, not an operation class. *)

val set_fault : t -> after_seeks:int -> unit
(** [set_fault t ~after_seeks:k] makes the k-th next seek fail (k >= 1);
    equivalent to [arm_fault t { target = On_seek; at = k }]. *)

val clear_fault : t -> unit
(** Disarm any plan.  Idempotent; never raises. *)

val fault_armed : t -> bool

val armed_fault : t -> (fault_point * fault_mode) option
(** The currently armed plan, with [at] counted down to the remaining
    operations before it fires. *)

val fault_schedule : before:counters -> after:counters -> fault_point list
(** Every injection point inside the operation bracketed by the two
    counter snapshots: one [On_seek] point per seek consumed, one
    [On_write] point per write operation consumed, and one [On_flush]
    point per flush drain consumed.  A harness measures an uncrashed
    twin, then sweeps the returned points one per run. *)

val is_torn : t -> extent -> bool
val torn_at : t -> start:int -> bool
val torn_count : t -> int
(** Number of extents currently marked torn (0 on a healthy disk). *)
