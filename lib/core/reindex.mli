(** REINDEX (Section 3.2, Figure 13): hard windows by rebuilding.

    Each day, the constituent holding the expired day is rebuilt from
    scratch over its cluster with the expired day swapped for the new
    one.  No deletion code, always-packed constituents, but W/n days
    are re-indexed every day. *)

type t

val start : Env.t -> t
val transition : t -> unit
val frame : t -> Frame.t
val current_day : t -> int
val last_mark : t -> float

val base : t -> Scheme_base.t
(** Shared scheme state (clock stamps), for the uniform driver. *)
