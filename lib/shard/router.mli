(** The shard router: N arms, each a full scheme instance on its own
    disk, behind one query surface.

    Every arm runs the {e same} scheme x technique over its slice of
    the key space (its day store is the base store filtered through the
    committed {!Partition.t}), so the router is transparent: a probe
    routed to the owning arm returns bit-identical entries to a
    single-disk run, and a scan, which merges the arms' buckets by
    value, returns the single-disk run's scan entry for entry, in the
    same order.

    Costs use parallel semantics via {!Wave_model.Parallel}: a fan-out
    is charged the max over the touched arms' disk-clock deltas (its
    makespan), while per-arm busy totals feed utilisation/skew gauges
    ([shard.<i>.*], [shard.skew_ratio], [shard.fanout]).  A one-arm
    router is a single-disk run and publishes no [shard.*] metric: the
    runner's [runner.*] gauges already carry its figures.

    {2 Rebalancing}

    {!split} carves a hot arm in two as a snapshot-isolated transition
    on the PR 8 epoch machinery: probes keep resolving against the
    victim's pre-split epoch while both halves build, the new partition
    is committed in one atomic swap aligned with [Epoch.commit], and a
    crash at any disk fault point before the swap {!recover}s to the
    old committed partition (the half-built indexes are swept as
    leaks, the sibling disk is discarded).  After the swap the old
    constituents drop through the epoch's deferred gates as readers
    drain. *)

open Wave_core
open Wave_storage
open Wave_disk

type t

val create :
  ?icfg:Index.config ->
  ?technique:Env.technique ->
  ?allow_deletes:bool ->
  ?on_env:(Env.t -> unit) ->
  kind:Scheme.kind ->
  partition:Partition.kind ->
  shards:int ->
  vocab:int ->
  store:Env.day_store ->
  w:int ->
  n:int ->
  unit ->
  t
(** Build [shards] arms, each [Scheme.start]ed over days [1..w] of its
    filtered store.  Every arm gets its own simulated disk compatible
    with [icfg].  [on_env] is called with each arm's environment, in
    arm order, after its disk exists and before its Start runs: the
    hook for arming disk faults and for a model clock that must read
    the disk from the Start's first operation on.  Publishing the
    per-arm gauges also {e retires} any stale [shard.<i>.*] names
    beyond this router's arm count (all of them, and [shard.arms] and
    [shard.skew_ratio] too, on one arm) — the metrics registry is
    process-global, so a previous wider router would otherwise leave
    fossil gauges in every snapshot and export. *)

val partition : t -> Partition.t
(** The committed partition (the only one queries ever route by). *)

val arms : t -> int
val current_day : t -> int
val clock : t -> Wave_model.Parallel.t
val splits : t -> int
(** Completed (committed) splits. *)

val arm_disk : t -> int -> Disk.t
val arm_scheme : t -> int -> Scheme.t

val probe : t -> value:int -> t1:int -> t2:int -> Entry.t list * float
(** Route to the owning arm (fan-out 1); returns the entries and the
    makespan charged to the parallel clock. *)

val scan : t -> t1:int -> t2:int -> Entry.t list * float
(** Fan out to every arm: charge each arm's in-range constituents,
    record the per-arm deltas, and return {!Frame.merged_segment_scan}
    of the arms' frames with the makespan.  The entries equal the
    single-disk run's {!Frame.timed_segment_scan}, in its order (slot
    by slot, values ascending within a slot); a split that adds an arm
    does not change them. *)

val advance : t -> float
(** Absorb the next day on every arm (each arm's transition runs
    concurrently with the others'); returns the makespan.  Each arm's
    transition ends at its write-back durability boundary: right after
    it, the arm's buffer pool (if [icfg] attached one) drains its
    deferred writes ({!Wave_cache.Cache.flush}), and the arm's delta
    includes that flush.  Updates the per-arm gauges. *)

val last_flush_seconds : t -> float
(** Model-seconds the last {!advance} spent in those flushes, the max
    over arms ([0.] without write-back). *)

exception Split_in_progress

val split :
  ?on_sibling:(Disk.t -> unit) ->
  ?serve:(int * int * int) list ->
  t ->
  arm:int ->
  float
(** Split [arm] (must satisfy [Partition.can_split]).  [on_sibling]
    runs right after the new arm's disk is created — the crash sweep
    arms fault injection there.  [serve] is a list of [(value, t1,
    t2)] probes to serve {e during} the split from the victim's epoch
    snapshot (interleaved at disk-op ticks); their results are checked
    against the snapshot by the caller via {!last_served}.  Returns
    the makespan over the disks the split touched.

    On a disk fault the exception propagates with the router still on
    the old committed partition; call {!recover}. *)

val last_served : t -> Entry.t list list
(** Results of the [serve] probes of the most recent {!split}, in
    order. *)

val recover : t -> unit
(** Crash recovery for an interrupted {!split}: discard the epoch's
    deferred work ([Epoch.on_crash]), free the half-built indexes'
    leaked extents on the victim disk (everything live that no
    committed index claims), drop the sibling disk, clear fault
    injection.  Idempotent; a no-op when no split was in flight. *)

val check_no_leaks : t -> unit
(** Assert every live extent on every arm disk is claimed by that
    arm's committed constituents or scheme temporaries ([Failure]
    otherwise) — the sweep's post-recovery invariant. *)

val rebalance : t -> threshold:float -> unit
(** The skew trigger: when the busy skew ratio
    ({!Wave_model.Parallel.skew_ratio}) exceeds [threshold], {!split}
    the busiest splittable arm, if any arm can split; the split's
    makespan lands on {!clock} as every split's does. *)
