(** Systematic crash sweep, one function for every operation under test
    and every kill mode.

    The sweep first runs an {e uncrashed twin} of the configuration up
    to the operation, bracketing it with counter snapshots — of the disk
    it runs on and of any disk it creates — so
    {!Wave_disk.Disk.fault_schedule} can enumerate every injection point
    inside it: one per seek, write operation and flush.  It then replays
    the scenario once per point and fault mode (seek → fail-stop; write
    → fail-stop and torn; flush → fail-stop), crashes there, recovers,
    and asserts:

    - the recovered instance answers the window's [TimedIndexProbe]s
      and [TimedSegmentScan] identically to the twin on one side of the
      operation — before it, or (when recovery may roll forward) after
      it;
    - the allocator leaks nothing and double-frees nothing, and no
      extent stays torn;
    - every probe served during the operation answered from exactly one
      committed state;
    - for a split, re-running it after recovery reaches the twin's
      post-split answers.

    Each point also reports the model-time cost of recovery and the
    work wasted in the doomed operation. *)

open Wave_core
open Wave_disk

val default_store : Env.day_store
(** Deterministic synthetic batches (8 postings/day over 6 values). *)

type operation =
  | Transition  (** day [day]'s wave transition (from [day - 1]) *)
  | Concurrent_transition
      (** the same transition under {!Wave_epoch.Epoch} snapshot
          isolation with a deterministic mid-transition probe schedule:
          shadow techniques serve six probes over the pre-transition
          window against the snapshot while the transition runs and
          drain stragglers against the retired epoch after the commit;
          In_place queues them until the commit.  The fault stays armed
          through the drain, so the schedule gains points inside the
          epoch-swap and reader-drain window — recovery from those must
          still land on exactly one committed epoch. *)
  | Split of { partition : Wave_shard.Partition.kind; shards : int }
      (** {!Wave_shard.Router.split} of arm 0 of a [shards]-arm router
          at day [day], serving two mid-split probes from the victim's
          snapshot.  Faults land on the victim's disk and, armed as the
          split creates it, on the fresh sibling's.  Recovery
          ({!Wave_shard.Router.recover}) must roll back to the pre-split
          shard map, and the split must then re-run to completion. *)

type kill =
  | In_memory
      (** the crash drops volatile state; recovery is
          {!Wave_core.Checkpoint.recover} (or the router's) *)
  | Reopen of string
      (** every instance runs on a file-backed disk in its own
          checkpoint directory under the given one; the crash is a
          {e kill} — buffer pool detached, block file closed, all
          in-memory state dropped — and recovery is
          {!Wave_core.Checkpoint.reopen} from the surviving files alone.
          The last write point's torn variant also runs with the block
          file's tail truncated behind the kill. *)
  | Double
      (** a second fail-stop fault during recovery from the first,
          proving recovery re-entrant: the interrupted recovery is run
          again from the same durable state.  First, middle and last of
          the operation's points (in every mode) are each paired with
          first, middle and last of the points of their own recovery;
          a recovery that charges no I/O contributes no pairs. *)

type point_result = {
  point : Disk.fault_point;
  mode : Disk.fault_mode;
  on_sibling : bool;  (** split only: armed on the created sibling disk *)
  second : Disk.fault_point option;
      (** double kill: the recovery-time fault, relative to recovery
          start *)
  torn_tail : bool;
      (** reopen kill: the block file's tail was truncated behind the
          kill *)
  fired : bool;  (** every armed fault fired (the schedule is exact) *)
  rolled_forward : bool;
  recovered_day : int;
  consistent : bool;  (** query-identical to the twin at that state *)
  space_ok : bool;  (** no leaked, double-freed or torn extents *)
  iso_ok : bool;
      (** every probe served during the operation answered from exactly
          one committed state — snapshot serves match the
          pre-operation reference, In_place's queued serves the
          post-transition wave — and no epoch outlived the point *)
  redo_ok : bool;
      (** split only (vacuously true otherwise): re-running the split
          after recovery reaches the twin's post-split answers *)
  recovery_seconds : float;
  wasted_seconds : float;  (** model time burnt in the doomed operation *)
}

type report = {
  scheme : Scheme.kind;
  technique : Env.technique;
  w : int;
  n : int;
  day : int;
  points : point_result list;
  passed : bool;
}

val sweep :
  ?store:Env.day_store ->
  ?icfg:Wave_storage.Index.config ->
  ?artifact_dir:string ->
  ?op:operation ->
  ?kill:kill ->
  scheme:Scheme.kind ->
  technique:Env.technique ->
  w:int ->
  n:int ->
  day:int ->
  unit ->
  report
(** Crash [op] (default [Transition]) at every enumerated fault point
    and recover by [kill] (default [In_memory]).  [day] must exceed [w]
    so at least one full window of transitions has happened.  Raises
    [Invalid_argument] otherwise, and for the combinations the sweep
    does not run: a split under a reopen or double kill, a concurrent
    transition under a double kill.

    [icfg] (default {!Wave_storage.Index.default_config}) lets the sweep
    run with a buffer pool attached ([cache_blocks]): the twin and
    every fault instance see identical pool states, keeping the
    discovered schedule exact.

    The {!Wave_obs.Recorder} ring is cleared at the start of every
    point, so at any failure the ring holds exactly that point's
    events.  A failing point writes its flight dump to
    [<point>_<mode>.flight.jsonl] under [artifact_dir] (created with its
    parents on demand; nothing is written when the sweep passes); under
    a reopen kill it instead keeps its checkpoint directory (torn block
    file, sidecar, manifests) with the dump inside as [flight.jsonl],
    while passing points remove theirs.  Dump errors never fail the
    sweep; they are reported on stderr.

    The sweep passes when every point passes and there is at least one
    — except under a double kill, which passes vacuously when every
    recovery charged no I/O. *)

val point_passed : point_result -> bool
val pp_point_result : Format.formatter -> point_result -> unit
val pp_report : Format.formatter -> report -> unit
(** One summary line; failing points are detailed below it. *)
