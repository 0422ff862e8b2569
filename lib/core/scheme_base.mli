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

val days_list : Dayset.t -> int list
(** Ascending day list, for feeding [Update] functions. *)

val begin_transition : t -> unit
(** Stamp the start of a daily maintenance step; also (until
    {!data_arrives} is called) the default arrival instant. *)

val data_arrives : t -> unit
(** Stamp the instant the new day's data becomes available — work done
    before this is pre-computation, work between this and
    {!mark_visible} is the paper's Transition Time.  Reports
    {!Env.Arrived} to the observer. *)

val arrival : t -> float
val transition_started : t -> float
