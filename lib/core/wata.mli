(** WATA* (Section 3.3, Figure 16): soft windows, "wait and throw away".

    Days [1..W-1] are split across the first [n-1] constituents; the
    last holds day [W] and keeps absorbing new days.  When every other
    constituent jointly covers exactly the required [W-1] older days,
    the constituent holding only expired days is thrown away wholesale
    (constant-time) and restarted from the new day.  No deletion code,
    minimal daily work, but expired days linger: the wave's length can
    reach [W + ceil((W-1)/(n-1)) - 1] — optimal among WATA algorithms
    (Theorems 1-2) — and its size is 2-competitive with the offline
    optimum under non-uniform day sizes (Theorem 3).

    Requires [n >= 2]: with one constituent nothing ever fully expires
    and the index would grow forever. *)

type t

val start : Env.t -> t
(** Raises [Invalid_argument] when [env.n < 2]. *)

val transition : t -> unit
val frame : t -> Frame.t
val current_day : t -> int
val last_mark : t -> float

val last_slot : t -> int
(** The constituent currently absorbing new days. *)

val length_bound : w:int -> n:int -> int
(** Theorem 2's maximum wave length: [w + ceil((w-1)/(n-1)) - 1]. *)

val base : t -> Scheme_base.t
(** Shared scheme state (clock stamps), for the uniform driver. *)
