(** DEL (Section 3.1, Figure 12): hard windows by incremental deletion.

    Days [1..W] are split into [n] contiguous clusters.  Each day, the
    expired day is deleted from the constituent that holds it and the
    new day is inserted into the same constituent.  The cheapest scheme
    per transition under in-place updating, at the price of deletion
    code and (unless packed shadowing is used) unpacked indexes. *)

type t

val start : Env.t -> t
(** Builds the initial wave over days [1..W] (the paper's Start). *)

val transition : t -> unit
(** Absorb the next day's data and expire the oldest. *)

val frame : t -> Frame.t
val current_day : t -> int

val last_mark : t -> float
(** Model-clock instant during the last transition at which the new
    day's data became queryable. *)

val base : t -> Scheme_base.t
(** Shared scheme state (clock stamps), for the uniform driver. *)
