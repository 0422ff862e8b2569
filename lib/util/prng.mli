(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that
    every workload, trace and experiment is reproducible from a seed.
    The generator is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a
    64-bit state advanced by a Weyl increment and finalised by a
    variance-maximising mixer.  It is fast, has a full 2^64 period, and
    supports cheap splitting into statistically independent streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed.  Equal
    seeds yield identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will replay [t]'s future. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of
    [t]'s subsequent output; [t] is advanced once. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** 30 uniformly random non-negative bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be > 0. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.  Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Normal deviate by the Marsaglia polar method. *)

val exponential : t -> rate:float -> float
(** Exponential deviate with the given rate (inverse mean). *)
