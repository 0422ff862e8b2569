(** The paper's analytic model (Section 5, Tables 8-11), for every
    scheme x update technique.

    [evaluate] runs the scheme itself: {!Scheme.start} over a
    one-posting-per-day store on a simulated disk, then one replacement
    super-cycle (W transitions, W-1 for WATA*/RATA*: every cluster
    expires once).  The model folds the operation log the scheme's own
    {!Update} calls report ({!Env.op}) through one per-operation cost
    table of the paper's parameters ([Build], [Add], [Del], [CP] at the
    constituents' packing, [SMCP]).  Operations before the new day's
    arrival or after it becomes visible are pre-computation; those in
    between are transition.  Space is the frame's time-sets plus the
    scheme's temporaries after each step; query breadth is the frame's
    mean length.  Averages and maxima over the super-cycle equal the
    paper's closed forms ({!Formulas}) wherever the geometry divides
    evenly. *)

open Wave_core

type summary = {
  pre_avg : float;  (** avg pre-computation seconds per day *)
  pre_max : float;
  trans_avg : float;  (** avg transition seconds per day *)
  trans_max : float;
  space_avg : float;  (** avg bytes held during operation *)
  space_max : float;  (** max bytes held during operation *)
  shadow_avg : float;
      (** avg extra bytes during transitions: a constituent standing
          beside the replacement the step makes for it *)
  shadow_max : float;
  probe_seconds : float;  (** one TimedIndexProbe *)
  scan_seconds : float;  (** one TimedSegmentScan *)
  work_per_day : float;
      (** Section 5's Total Work: pre + transition + all queries of a
          day executed serially. *)
}

val evaluate :
  Params.t ->
  scheme:Scheme.kind ->
  technique:Env.technique ->
  w:int ->
  n:int ->
  summary
(** Raises [Invalid_argument] when the scheme cannot run with the given
    [n] (WATA*/RATA* need [n >= 2]; all need [1 <= n <= w]). *)

val constituents_packed :
  scheme:Scheme.kind -> technique:Env.technique -> bool
(** Whether the scheme x technique combination keeps constituent
    indexes packed (REINDEX always; anything under packed shadowing). *)
