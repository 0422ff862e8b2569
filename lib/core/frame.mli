(** The wave index Θ: the set of constituent indexes visible to
    queries, with their time-sets.

    Maintenance algorithms mutate slots through {!set_slot} /
    {!clear_slot}; queries go through the [Timed*] operations of
    Section 2.2.  Temporary indexes (REINDEX+/++, RATA) are scheme
    private and never appear here — the paper charges no transition
    space for them because "queries are executed only on constituent
    indexes". *)

open Wave_storage

type t

val create : Env.t -> t
(** [create env] makes a frame with [env.n] empty slots (ids
    [1 .. env.n]). *)

val env : t -> Env.t
val n : t -> int

(** {1 Slot management (used by schemes)} *)

val set_slot : t -> int -> Index.t -> Dayset.t -> unit
(** [set_slot t j idx days] installs [idx] with time-set [days] in slot
    [j].  The previous index is {e not} dropped (shadow swaps drop it
    themselves); it is simply unlinked. *)

val slot_index : t -> int -> Index.t
val slot_days : t -> int -> Dayset.t

val snapshot : t -> (Index.t * Dayset.t) list
(** The constituent set as an immutable value — one [(index, days)]
    pair per slot, captured at call time.  An epoch snapshot probes
    against this list, unaffected by any later {!set_slot}. *)

val find_slot_with_day : t -> int -> int
(** The slot whose time-set contains the day.  Raises [Not_found]. *)

val covered_days : t -> Dayset.t
(** Union of all time-sets — the days currently indexed. *)

val length : t -> int
(** Total number of days indexed — the paper's wave-index {e length}. *)

(** {1 Access operations (Section 2.2)} *)

val timed_index_probe : t -> t1:int -> t2:int -> value:int -> Entry.t list
(** [TimedIndexProbe (Θ, T1, T2, s)]: probes every constituent whose
    time-set intersects [\[t1, t2\]], keeping entries whose timestamp
    falls in range. *)

val index_probe : t -> value:int -> Entry.t list
(** [IndexProbe]: [timed_index_probe] with an unbounded range — note
    that under soft windows this can return entries older than the
    required window, exactly as the paper warns. *)

val timed_segment_scan : t -> t1:int -> t2:int -> Entry.t list
(** [TimedSegmentScan (Θ, T1, T2)]: charges every constituent whose
    time-set intersects [\[t1, t2\]], in slot order, and returns their
    entries in range: slot by slot, each constituent's buckets in
    ascending value order, each bucket's entries in their order.  The
    one-frame case of {!merged_segment_scan}. *)

val segment_scan : t -> Entry.t list

val merged_segment_scan : t array -> t1:int -> t2:int -> Entry.t list
(** [TimedSegmentScan] over frames that divide one wave's values
    between them, as the shard router's arms do.  Charges each frame's
    in-range constituents as {!timed_segment_scan} does, frame after
    frame; then returns, slot by slot, the in-range slot-[j]
    constituents of all frames merged in ascending value order
    ({!Wave_storage.Index.scan_onto}): each bucket's entries in their
    order, a value held by several frames in array order.  So when the
    frames hold disjoint values of a single wave, slot for slot, the
    answer is exactly that wave's {!timed_segment_scan}, with no sort.
    The frames must have equal slot counts ([Invalid_argument]
    otherwise). *)

type aggregate = Count | Sum_info | Min_info | Max_info
(** Aggregates over the [info] payload — the paper's motivating scan
    queries "compute some aggregate such as sum, min or max" by
    scanning the whole index. *)

val timed_aggregate : t -> t1:int -> t2:int -> op:aggregate -> int option
(** [TimedSegmentScan] folded into an aggregate.  Charges every
    constituent exactly as {!timed_segment_scan} does, in slot order,
    then folds the buckets in place ({!Wave_storage.Index.fold_timed})
    without building the entry list.  [Count]/[Sum_info] return
    [Some 0] on an empty range; [Min_info]/[Max_info] return [None]. *)

(** {1 Accounting} *)

val allocated_bytes : t -> int
(** Disk space held by all constituents (the S'-accounted size). *)

val used_bytes : t -> int
val entry_count : t -> int

val validate : t -> unit
(** Validates every constituent ({!Wave_storage.Index.validate}) and
    checks each slot's recorded time-set covers the days actually
    present in its index (days with empty batches leave no entries, so
    the time-set may be a superset). *)

val pp : Format.formatter -> t -> unit
(** One line per slot: [I1 -> {d2, d3}], matching the paper's tables. *)
