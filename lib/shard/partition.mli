(** Key-space partitioning for the sharded wave index.

    A partition maps every posting search value to the {e arm} (shard)
    that owns it.  Two strategies (Section 8's striping, made explicit):

    - {e Hash}: values are hashed into a fixed set of virtual buckets
      ({!buckets}); each bucket is owned by one arm.  Splits move
      buckets, so ownership of untouched arms never changes.
    - {e Range}: each arm owns a contiguous slice of [1..vocab]
      (values outside are clamped to the nearest slice).  Splits cut
      the victim's slice at its midpoint.

    Partitions are immutable; {!split} returns a successor with
    [generation + 1], which is what the split transition commits
    atomically (the crash sweep asserts recovery lands on exactly one
    committed partition). *)

type kind = Hash | Range

val kind_name : kind -> string
val kind_of_name : string -> kind option

type t

val buckets : int
(** Number of virtual hash buckets (64) — the split granularity for
    {!Hash} partitions. *)

val create : kind -> arms:int -> vocab:int -> t
(** [arms >= 1]; Hash requires [arms <= buckets]; Range requires
    [arms <= vocab]. Generation starts at 1. *)

val kind : t -> kind
val arms : t -> int
val vocab : t -> int

val generation : t -> int
(** Monotone across {!split} — the committed-map tag the crash sweep
    checks. *)

val arm_of_value : t -> int -> int
(** The owning arm for a search value.  Deterministic; total (every
    int maps somewhere). *)

val can_split : t -> arm:int -> bool
(** Whether the arm's key share is divisible (Hash: owns >= 2 buckets;
    Range: slice longer than 1). *)

val split : t -> arm:int -> t
(** Successor partition with one more arm (the new arm takes the id
    [arms t]): half the victim's buckets (Hash) or the upper half of
    its slice (Range) move to the new arm; every other arm's ownership
    is untouched.  [Invalid_argument] if [not (can_split t ~arm)]. *)

val place : weights:float array -> arms:int -> int array
(** Longest-processing-time greedy placement of weighted slots onto
    [arms] arms: heaviest slot first, each to the currently
    least-loaded arm (ties to the lowest id).  Returns the slot ->
    arm map.  Used by [Multi_disk] to balance constituent day-ranges
    across disks instead of round-robin. *)
