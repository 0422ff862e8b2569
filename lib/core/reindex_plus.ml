open Wave_storage

type t = {
  base : Scheme_base.t;
  mutable temp : Index.t option; (* None = φ *)
  mutable tdays : Dayset.t;
  mutable days_to_add : Dayset.t;
}

let start env =
  let base = Scheme_base.start_contiguous env in
  { base; temp = None; tdays = Dayset.empty; days_to_add = Dayset.empty }

let transition t =
  let env = t.base.Scheme_base.env in
  Scheme_base.begin_transition t.base;
  let frame = t.base.Scheme_base.frame in
  let new_day = t.base.Scheme_base.day + 1 in
  let expired = new_day - env.Env.w in
  let j = Frame.find_slot_with_day frame expired in
  let new_slot_days =
    Dayset.add new_day (Dayset.remove expired (Frame.slot_days frame j))
  in
  let old = Frame.slot_index frame j in
  (match (t.temp, Dayset.is_empty t.days_to_add) with
  | None, _ ->
    (* Start of a cycle: the cluster's surviving old days become
       DaysToAdd; Temp restarts from the new day alone. *)
    t.days_to_add <- Dayset.remove expired (Frame.slot_days frame j);
    let temp = Update.build_days env [ new_day ] in
    if Dayset.is_empty t.days_to_add then begin
      (* Singleton cluster: the cycle begins and completes at once. *)
      Scheme_base.install t.base j temp new_slot_days;
      Index.drop old
    end
    else begin
      let ij = Update.copy env temp in
      let ij = Update.add_days_fresh env ij (Dayset.elements t.days_to_add) in
      Scheme_base.install t.base j ij new_slot_days;
      Index.drop old;
      t.temp <- Some temp;
      t.tdays <- Dayset.singleton new_day
    end
  | Some temp, true ->
    (* Cycle completion: Temp itself (plus the new day) becomes I_j. *)
    let ij = Update.add_days_fresh env temp [ new_day ] in
    Scheme_base.install t.base j ij new_slot_days;
    Index.drop old;
    t.temp <- None;
    t.tdays <- Dayset.empty
  | Some temp, false ->
    (* Mid-cycle: extend Temp, copy it, add the surviving old days. *)
    let temp = Update.add_days_fresh env temp [ new_day ] in
    t.temp <- Some temp;
    t.tdays <- Dayset.add new_day t.tdays;
    let ij = Update.copy env temp in
    let ij = Update.add_days_fresh env ij (Dayset.elements t.days_to_add) in
    Scheme_base.install t.base j ij new_slot_days;
    Index.drop old);
  Scheme_base.mark_visible t.base;
  t.days_to_add <- Dayset.remove (new_day - env.Env.w + 1) t.days_to_add;
  t.base.Scheme_base.day <- new_day

let frame t = t.base.Scheme_base.frame
let current_day t = t.base.Scheme_base.day
let last_mark t = t.base.Scheme_base.mark
let temp_days t = t.tdays

let temp_index t = t.temp

let base t = t.base
