(** Multi-disk wave indexes (the paper's Section 8 future work).

    "If n matches the number of disks, indexing can be parallelized
    easily.  Also building new constituent indices on separate disks
    avoids contention.  Hence wave indices will have several advantages
    over monolithic indices when we use multiple disks."

    This module places each constituent index on its own simulated disk
    (longest-processing-time placement by slot day count, via
    {!Wave_shard.Partition.place}, when there are more constituents
    than disks) and
    measures queries and daily maintenance both serially (one disk arm
    doing everything) and in parallel (all disks working concurrently;
    elapsed time is the busiest disk's). *)

open Wave_core
open Wave_storage

type t

val create :
  ?icfg:Index.config -> store:Env.day_store -> w:int -> n:int -> disks:int ->
  unit -> t
(** Builds the initial wave (days [1..w] split in [n] clusters as DEL's
    Start does), constituents placed on disks by LPT over their day
    counts so arm loads stay balanced even when [W mod n <> 0].  With
    [icfg.cache_blocks] set, each disk gets its own buffer pool. *)

val n_disks : t -> int
val n_constituents : t -> int

(** Each operation returns its cost as a fresh
    {!Wave_model.Parallel.t} over the disks, holding that operation
    alone: {!Wave_model.Parallel.serial} is the total model-seconds
    across all disks, {!Wave_model.Parallel.elapsed} the most any one
    disk spent. *)

val probe : t -> value:int -> Entry.t list * Wave_model.Parallel.t
(** IndexProbe over all constituents, fanned out per disk. *)

val scan : t -> Entry.t list * Wave_model.Parallel.t
(** SegmentScan over all constituents. *)

val advance : t -> Wave_model.Parallel.t
(** One DEL-style daily transition: delete the expired day and add the
    new one in its constituent; other disks stay idle, so the parallel
    time equals that disk's work — no contention with queries on other
    disks, the paper's second advantage. *)

val current_day : t -> int

val speedup_table : store:Env.day_store -> w:int -> n:int -> disks:int list -> string
(** Render probe/scan serial-vs-parallel speedups for several disk
    counts — the experiment the paper sketches. *)
