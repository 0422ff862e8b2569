open Wave_storage

type t = {
  base : Scheme_base.t;
  mutable temps : Index.t array; (* T_0 .. T_c; rungs above temp_used are consumed *)
  mutable tdays : Dayset.t array;
  mutable temp_used : int;
  mutable days_to_add : Dayset.t;
}

(* Prepare the ladder for cluster-minus-first-day [ds]: T_1 holds the
   cluster's largest day, each higher rung adds the next older day, so
   T_m holds the m most recent days of [ds].  T_0 starts empty and will
   accumulate the new days of the coming cycle. *)
let initialize t ds =
  let temps, tdays = Scheme_base.suffix_ladder t.base.Scheme_base.env ds in
  t.temps <- temps;
  t.tdays <- tdays;
  t.temp_used <- Dayset.cardinal ds;
  t.days_to_add <- Dayset.empty

let start env =
  let base = Scheme_base.start_contiguous env in
  let t =
    {
      base;
      temps = [||];
      tdays = [||];
      temp_used = 0;
      days_to_add = Dayset.empty;
    }
  in
  initialize t (Dayset.remove 1 (Frame.slot_days base.Scheme_base.frame 1));
  t

let transition t =
  let env = t.base.Scheme_base.env in
  Scheme_base.begin_transition t.base;
  let frame = t.base.Scheme_base.frame in
  let new_day = t.base.Scheme_base.day + 1 in
  let expired = new_day - env.Env.w in
  let j = Frame.find_slot_with_day frame expired in
  let old = Frame.slot_index frame j in
  if t.temp_used = 0 then begin
    (* Cluster boundary: T_0 (all new days of the finished cycle) plus
       today's data becomes the new constituent; then rebuild the
       ladder for the next cluster. *)
    let ij = Update.add_days_fresh env t.temps.(0) [ new_day ] in
    let ij_days = Dayset.add new_day t.tdays.(0) in
    Scheme_base.install t.base j ij ij_days;
    Index.drop old;
    Scheme_base.mark_visible t.base;
    let j' = Frame.find_slot_with_day frame (expired + 1) in
    initialize t (Dayset.remove (expired + 1) (Frame.slot_days frame j'))
  end
  else begin
    t.days_to_add <- Dayset.add new_day t.days_to_add;
    let tu = t.temp_used in
    let ij = Update.add_days_fresh env t.temps.(tu) [ new_day ] in
    let ij_days = Dayset.add new_day t.tdays.(tu) in
    Scheme_base.install t.base j ij ij_days;
    Index.drop old;
    Scheme_base.mark_visible t.base;
    (* Pre-computation for tomorrow: top up the next rung with every
       new day seen this cycle. *)
    t.temp_used <- tu - 1;
    let tu = t.temp_used in
    t.temps.(tu) <- Update.add_days_fresh env t.temps.(tu) (Dayset.elements t.days_to_add);
    t.tdays.(tu) <- Dayset.union t.tdays.(tu) t.days_to_add
  end;
  t.base.Scheme_base.day <- new_day

let frame t = t.base.Scheme_base.frame
let current_day t = t.base.Scheme_base.day
let last_mark t = t.base.Scheme_base.mark

let temps_days t = Array.to_list (Array.sub t.tdays 0 (t.temp_used + 1))

let temp_indexes t = Array.to_list (Array.sub t.temps 0 (t.temp_used + 1))

let base t = t.base
