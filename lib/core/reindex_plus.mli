(** REINDEX+ (Section 4.1, Figure 14): reindexing with one temporary.

    A temporary index [Temp] accumulates the new days of the current
    replacement cycle so they are indexed once instead of being rebuilt
    on every subsequent day of the cycle; each day the constituent is
    formed by copying [Temp] and incrementally adding the still-alive
    old days.  Roughly halves REINDEX's daily indexing work at the cost
    of the extra temporary's space.  Hard windows. *)

type t

val start : Env.t -> t
val transition : t -> unit
val frame : t -> Frame.t
val current_day : t -> int
val last_mark : t -> float

val temp_days : t -> Dayset.t
(** Days currently held by the temporary index (empty when [Temp] is
    φ); exposed for space accounting and the Table 5 trace. *)

val temp_index : t -> Wave_storage.Index.t option
(** The live temporary index, for space accounting. *)

val base : t -> Scheme_base.t
(** Shared scheme state (clock stamps), for the uniform driver. *)
