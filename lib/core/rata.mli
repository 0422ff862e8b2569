(** RATA* (Section 4.3, Figure 17): hard windows at WATA cost.

    WATA* plus a ladder of temporaries: while WATA would let expired
    days linger in the oldest constituent, RATA pre-builds indexes of
    that cluster's suffixes and each day swaps the constituent for the
    suffix that excludes the newly expired day — simulating deletion
    without deletion code.  Transition time equals WATA's (one
    [AddToIndex]); the temporary ladder is pre-computation.

    Requires [n >= 2], like WATA. *)

type t

val start : Env.t -> t
val transition : t -> unit
val frame : t -> Frame.t
val current_day : t -> int
val last_mark : t -> float

val last_slot : t -> int
(** The constituent currently absorbing new days. *)

val temps_days : t -> Dayset.t list
(** Time-sets of the unconsumed temporaries (T_1 .. T_TempUsed). *)

val temp_indexes : t -> Wave_storage.Index.t list
(** The unconsumed temporaries T_1 .. T_TempUsed, for space accounting. *)

val base : t -> Scheme_base.t
(** Shared scheme state (clock stamps), for the uniform driver. *)
