(** State shared by every maintenance scheme: the frame, the current
    day, and the "new data visible" clock mark used to measure
    transition time (how soon after a day's data arrives it is
    queryable — Section 5's Transition Time metric). *)

type t = {
  env : Env.t;
  frame : Frame.t;
  mutable day : int;  (** most recent day absorbed into the wave *)
  mutable mark : float;  (** disk clock when that day became queryable *)
  mutable arrived : float;  (** disk clock when that day's data arrived *)
  mutable started : float;  (** disk clock when its maintenance began *)
}

val create : Env.t -> t
(** Fresh base with an empty frame, positioned before day [w]'s start. *)

val mark_visible : t -> unit
(** Record the current model clock as the moment the newest day became
    visible to queries.  Schemes call this right after installing the
    constituent holding the new day.  Reports {!Env.Visible} to the
    observer. *)

val install : t -> int -> Wave_storage.Index.t -> Dayset.t -> unit
(** [install t j idx days] sets slot [j] of the frame. *)

(** {1 Shared Start phases and predicates} *)

val start_contiguous : Env.t -> t
(** The Start of DEL, REINDEX, REINDEX+ and REINDEX++: days [1..W] in
    [n] contiguous clusters ({!Split.contiguous}), one built per slot
    in slot order, then day [W] marked visible. *)

val start_wait : Env.t -> t
(** The Start of WATA* and RATA*: days [1..W-1] in [n-1] contiguous
    clusters over the first [n-1] slots, then day [W] alone in slot
    [n], then day [W] marked visible.  Needs [n >= 2]. *)

val others_cover_rest : Frame.t -> j:int -> w:int -> bool
(** The ThrowAway predicate of WATA* and RATA*: the slots other than
    [j] jointly cover exactly the [W-1] most recent days, so slot [j]
    holds only expired days.  Reads only the frame; {!Transition_plan}
    predicts the same branch with it. *)

val suffix_ladder : Env.t -> Dayset.t -> Wave_storage.Index.t array * Dayset.t array
(** The ladder of REINDEX++ and RATA* over [ds], [c] days: rungs
    [0..c], where rung [m >= 1] indexes the [m] most recent days of
    [ds] (rung 1 built, each higher one a copy of the one below plus
    the next older day) and rung 0 is an empty index with no days. *)

val begin_transition : t -> unit
(** Stamp the start of a daily maintenance step; also (until
    {!data_arrives} is called) the default arrival instant. *)

val data_arrives : t -> unit
(** Stamp the instant the new day's data becomes available — work done
    before this is pre-computation, work between this and
    {!mark_visible} is the paper's Transition Time.  Reports
    {!Env.Arrived} to the observer. *)
