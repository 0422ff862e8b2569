open Wave_core

type summary = {
  pre_avg : float;
  pre_max : float;
  trans_avg : float;
  trans_max : float;
  space_avg : float;
  space_max : float;
  shadow_avg : float;
  shadow_max : float;
  probe_seconds : float;
  scan_seconds : float;
  work_per_day : float;
}

let constituents_packed ~scheme ~technique =
  match (scheme, technique) with
  | _, Env.Packed_shadow -> true
  | Scheme.Reindex, _ -> true
  | _, (Env.In_place | Env.Simple_shadow) -> false

let fl = float_of_int

(* One posting per day: the replay counts days, not entries. *)
let store day =
  Wave_storage.Entry.batch_create ~day
    [| { Wave_storage.Entry.value = 0; entry = { rid = day; day; info = 0 } } |]

(* One day of the replayed super-cycle. *)
type day = {
  pre : float;  (** seconds of pre-computation *)
  tr : float;  (** seconds of transition (data arrival -> queryable) *)
  space_days : int;  (** day-units held after the step: constituents + temporaries *)
  length : int;  (** days visible to queries after the step *)
  shadow_days : int;  (** day-units standing beside their replacement *)
}

(* Run the scheme itself over one super-cycle after Start (W
   transitions; W-1 for WATA*/RATA*, whose clusters hold W-1 days) and
   charge each operation it reports at the paper's per-day costs.

   Operations before the arrival mark and after the visibility mark are
   pre-computation; those between are transition.  The transition extra
   (the shadow columns) is the days of a constituent that stands beside
   its replacement while the step makes it: a live constituent a shadow
   technique copies or smart-copies, and under every technique the I_j
   that REINDEX (by BuildIndex) and REINDEX+ (from Temp) make afresh.
   That last rule names its schemes because no rule over operations
   can: REINDEX+'s completion day installs Temp itself just as
   REINDEX++ installs a rung, and REINDEX's one-day rebuild is WATA*'s
   ThrowAway, yet Table 8 and Figure 3 charge the first of each pair
   and not the second. *)
let replay (p : Params.t) ~scheme ~technique ~w ~n =
  let packed = constituents_packed ~scheme ~technique in
  let pre = ref 0.0 and tr = ref 0.0 and pending = ref 0.0 and shadow = ref 0 in
  let charge seconds = pending := !pending +. seconds in
  let observer = function
    | Env.Build k -> charge (fl k *. p.Params.build)
    | Env.Add k -> charge (fl k *. p.Params.add)
    | Env.Delete k -> charge (fl k *. p.Params.del)
    | Env.Copy { days; live } ->
      if live then shadow := !shadow + days;
      charge (fl days *. Params.cp_day p ~packed)
    | Env.Smart_copy { days; add; live } ->
      if live then shadow := !shadow + days;
      charge ((fl days *. Params.smcp_day p) +. (fl add *. p.Params.build))
    | Env.Arrived ->
      pre := !pre +. !pending;
      pending := 0.0
    | Env.Visible ->
      tr := !tr +. !pending;
      pending := 0.0
  in
  let s = Scheme.start scheme (Env.create ~technique ~observer ~store ~w ~n ()) in
  let frame = Scheme.frame s in
  let rebuilds = scheme = Scheme.Reindex || scheme = Scheme.Reindex_plus in
  List.init
    (if Scheme.min_indexes scheme = 2 then w - 1 else w)
    (fun _ ->
      pre := 0.0;
      tr := 0.0;
      pending := 0.0;
      shadow :=
        if rebuilds then
          let expiring = Scheme.current_day s + 1 - w in
          Dayset.cardinal
            (Frame.slot_days frame (Frame.find_slot_with_day frame expiring))
        else 0;
      Scheme.transition s;
      let length = Frame.length frame in
      {
        pre = !pre +. !pending;
        tr = !tr;
        space_days =
          List.fold_left
            (fun acc d -> acc + Dayset.cardinal d)
            length (Scheme.temp_days s);
        length;
        shadow_days = !shadow;
      })

let evaluate (p : Params.t) ~scheme ~technique ~w ~n =
  if n < 1 || n > w then invalid_arg "Cost.evaluate: need 1 <= n <= w";
  if Scheme.min_indexes scheme > n then
    invalid_arg
      (Printf.sprintf "Cost.evaluate: %s needs n >= %d" (Scheme.name scheme)
         (Scheme.min_indexes scheme));
  let cycle = replay p ~scheme ~technique ~w ~n in
  let days = fl (List.length cycle) in
  let sum f = List.fold_left (fun acc d -> acc +. f d) 0.0 cycle in
  let maxi f = List.fold_left (fun acc d -> Float.max acc (f d)) 0.0 cycle in
  let bytes_day =
    if constituents_packed ~scheme ~technique then p.Params.s_packed
    else p.Params.s_unpacked
  in
  (* Days visible to queries: the frame's mean length, which is the
     window plus any expired days lingering in WATA*'s frame;
     temporaries are not queried. *)
  let per_index_days = sum (fun d -> fl d.length) /. days /. fl n in
  let probe_breadth = if p.Params.probe_all_indexes then fl n else 1.0 in
  let probe_seconds =
    probe_breadth
    *. (p.Params.seek +. (per_index_days *. p.Params.c_bucket /. p.Params.trans))
  in
  let scan_breadth =
    match p.Params.scan_breadth with Params.Scan_all -> fl n | Params.Scan_one -> 1.0
  in
  let scan_seconds =
    scan_breadth
    *. (p.Params.seek +. (per_index_days *. bytes_day /. p.Params.trans))
  in
  let pre_avg = sum (fun d -> d.pre) /. days in
  let trans_avg = sum (fun d -> d.tr) /. days in
  {
    pre_avg;
    pre_max = maxi (fun d -> d.pre);
    trans_avg;
    trans_max = maxi (fun d -> d.tr);
    space_avg = sum (fun d -> fl d.space_days) /. days *. bytes_day;
    space_max = maxi (fun d -> fl d.space_days) *. bytes_day;
    shadow_avg = sum (fun d -> fl d.shadow_days) /. days *. bytes_day;
    shadow_max = maxi (fun d -> fl d.shadow_days) *. bytes_day;
    probe_seconds;
    scan_seconds;
    work_per_day =
      pre_avg +. trans_avg
      +. (p.Params.probe_num *. probe_seconds)
      +. (p.Params.scan_num *. scan_seconds);
  }
