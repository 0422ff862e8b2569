(** Daily query-stream generation (Section 2.2's four access kinds).

    A [spec] describes an application's daily query mix; {!day_queries}
    expands it into the concrete probes and scans to run against the
    wave index that day.  Values are drawn from the same distribution
    the workload writes with (Zipf for Netnews, uniform for TPC-D), so
    probe selectivities match the data. *)

type value_dist =
  | Zipfian of { vocab : int; s : float }
  | Uniform of int  (** domain size *)

type range_kind =
  | Whole_window  (** [T1 = d - W + 1, T2 = d] *)
  | Current_day  (** [T1 = T2 = d] — SCAM's registration scans *)
  | Random_subrange  (** uniform sub-interval of the window *)

type spec = {
  seed : int;
  probes_per_day : int;
  probe_range : range_kind;
  scans_per_day : int;
  scan_range : range_kind;
  value_dist : value_dist;
}

type query =
  | Probe of { value : int; t1 : int; t2 : int }
  | Scan of { t1 : int; t2 : int }

val day_queries : spec -> day:int -> w:int -> query list
(** Deterministic in [(spec.seed, day)]; probes first, then scans. *)

val scam_spec : spec
(** 100 probes + 1 current-day scan per day (a laptop-scale stand-in
    for the paper's 100,000 and 10). *)

val wse_spec : spec
(** 340 whole-window probes, no scans. *)
