(** Size-bounded online WATA (the Kleinberg et al. [KMRV97] variant the
    paper discusses in Section 3.3).

    WATA* is "purely online" and 2-competitive for index size.  KMRV97
    showed that if the algorithm is told [m] — the largest storage any
    window will ever need — ahead of time, a better ratio of
    [n/(n-1)] is achievable: cap every cluster's volume near
    [m/(n-1)], so the expired residue lingering in the oldest cluster
    never exceeds one cluster cap.

    This module implements that policy as a size-only replay (like
    {!Wata_size}): the current cluster grows until its volume has
    reached the cap [ceil (m / (n-1))] {e and} a slot is free (some
    older cluster fully expired), then it closes and that day starts a
    new cluster in the freed slot.

    {b Envelope.}  With an honest [m] (no window of [w] days holds more
    than [m]) the peak never exceeds [m + cap + max_day]:
    - every closed cluster holds at least [cap].  With all [n] slots
      live and the current cluster at the cap, the window ending
      yesterday would hold [n-1] clusters of at least [cap] each plus
      a day of the oldest: more than [(n-1) * cap >= m].  So a slot is
      free as soon as the current cluster reaches the cap, and no
      cluster holds more than [cap - 1 + max_day];
    - only the oldest live cluster can hold expired days (every later
      cluster lies inside the window), so the peak is at most one
      window plus that cluster.
    The ratio to [m] is therefore [n/(n-1)] up to one day's volume of
    slack.  Closing only when today's day would push the cluster past
    the cap breaks this: small clusters can spend every slot before a
    large day arrives, and the current cluster then swallows it (a
    17-day trace in the tests peaks one unit above the envelope). *)

type stats = {
  max_size : int;  (** peak storage, volume units *)
  window_max_size : int;
  ratio : float;  (** max_size / window_max_size *)
  clusters_opened : int;
}

val replay : w:int -> n:int -> m:int -> sizes:int array -> stats
(** [replay ~w ~n ~m ~sizes] runs the bounded policy with advertised
    maximum window size [m] (callers typically pass
    [Wata_size.window_max]).  Requires [n >= 2], a trace at least [w]
    days long, and [m >= ] every window's volume (the policy still runs
    if [m] is a lie, but the ratio guarantee is void). *)

val guaranteed_ratio : n:int -> float
(** [n /. (n - 1)], the KMRV97 bound — holds up to one day's volume of
    slack (the envelope above). *)
