(** The paper's closed forms, as stated (Tables 8-11, Theorems 1-3).

    {!Cost.evaluate} charges the operations the schemes themselves
    perform; this module instead exposes the simplified symbolic
    expressions the paper prints, with X = W/n and Y = (W-1)/(n-1).
    They coincide with the evaluation whenever the geometry divides
    evenly (n | W, and (n-1) | (W-1) for the WATA family): the
    [model.formulas] tests check every such geometry with W <= 40 in
    all three scenarios, and [core.wata_bounds] checks that WATA*'s
    longest wave attains Theorem 2's bound for every W <= 40. *)

val x : w:int -> n:int -> float
(** X = W/n, the cluster length of the DEL/REINDEX family. *)

val y : w:int -> n:int -> float
(** Y = (W-1)/(n-1), the WATA-family cluster length ([n >= 2]). *)

(** {1 Theorems} *)

val theorem2_length_bound : w:int -> n:int -> int
(** Maximum wave length of WATA*: [W + ceil((W-1)/(n-1)) - 1]. *)

val kmrv_competitive_ratio : n:int -> float
(** The size-hinted online variant's ratio: n/(n-1). *)

(** {1 Table 8 — space during operation (day-units; multiply by S or S')} *)

val space_days_del : w:int -> float
val space_days_reindex : w:int -> float

val space_days_reindex_plus_avg : w:int -> n:int -> float
(** W + (X-1)/2: the Temp index averages half a cluster. *)

val space_days_reindex_plus_max : w:int -> n:int -> float
(** W + X - 1. *)

val space_days_reindex_pp_max : w:int -> n:int -> float
(** W + X(X-1)/2: the full ladder right after initialisation. *)

val space_days_wata_avg : w:int -> n:int -> float
(** W + (Y-1)/2: expired days linger half a cluster on average. *)

val space_days_wata_max : w:int -> n:int -> float
(** W + Y - 1 (Theorem 2 in day-units). *)

val space_days_rata_max : w:int -> n:int -> float
(** W + Y(Y-1)/2: the suffix ladder right after initialisation. *)

(** {1 Tables 10-11 — maintenance seconds per day} *)

type ops = {
  build : float;  (** seconds per day built *)
  add : float;  (** seconds per day added incrementally *)
  del : float;  (** seconds per day deleted incrementally *)
  cp : float;  (** seconds to copy one day's index *)
  smcp : float;  (** seconds to smart-copy one day *)
}

val del_simple_shadow : ops -> w:int -> n:int -> float * float
(** (pre, transition) = (X·CP + Del, Add) — Table 10's DEL row. *)

val del_packed_shadow : ops -> w:int -> n:int -> float * float
(** (0, X·SMCP + Build) — Table 11's DEL row. *)

val reindex_any : ops -> w:int -> n:int -> float * float
(** (0, X·Build) under every technique. *)

val reindex_pp_transition : ops -> float
(** Add: a single incremental day, whatever W and n are. *)

val wata_transition_avg : ops -> w:int -> n:int -> float
(** ((Y-1)·Add + Build)/Y under in-place updating: mostly Waits, one
    throw-away Build per cluster. *)

(** {1 Table 9 — query seconds} *)

val probe_seconds :
  seek:float -> trans:float -> c_bucket:float -> w:int -> n:int -> probe_idx:int -> float
(** Probe_idx · (seek + X·c/Trans). *)

val scan_seconds :
  seek:float -> trans:float -> bytes_per_day:float -> w:int -> n:int -> scan_idx:int -> float
(** Scan_idx · (seek + X·bytes/Trans). *)
