(** REINDEX++ (Section 4.2, Figure 15): reindexing with a ladder of
    temporaries.

    A family T_0..T_c of temporary indexes holds every suffix of the
    next-to-expire cluster, prepared ahead of time, so that when a new
    day arrives only one [AddToIndex] separates its data from being
    queryable — the rest of the daily work (topping up the next rung
    of the ladder, or re-initialising the ladder at cluster boundaries)
    happens after the swap, as pre-computation for future days.  Same
    total work as REINDEX+, far lower transition time, highest space
    use.  Hard windows. *)

type t

val start : Env.t -> t
val transition : t -> unit
val frame : t -> Frame.t
val current_day : t -> int
val last_mark : t -> float

val temps_days : t -> Dayset.t list
(** Time-sets of the live temporaries T_0 .. T_TempUsed (ascending
    rung), for space accounting and the Table 6 trace. *)

val temp_indexes : t -> Wave_storage.Index.t list
(** The live temporaries T_0 .. T_TempUsed, for space accounting. *)

val base : t -> Scheme_base.t
(** Shared scheme state (clock stamps), for the uniform driver. *)
