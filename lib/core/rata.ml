open Wave_storage

type t = {
  base : Scheme_base.t;
  mutable last : int;
  mutable temps : Index.t array; (* T_1 .. T_c at indexes 1..c; slot 0 unused *)
  mutable tdays : Dayset.t array;
  mutable temp_used : int;
}

(* Build suffix indexes of [ds] (the next-to-expire cluster minus its
   oldest day): T_m holds the m most recent days, so consuming the
   ladder top-down simulates day-by-day expiry. *)
let initialize t ds =
  let temps, tdays = Scheme_base.suffix_ladder t.base.Scheme_base.env ds in
  t.temps <- temps;
  t.tdays <- tdays;
  t.temp_used <- Dayset.cardinal ds

let start env =
  if env.Env.n < 2 then invalid_arg "Rata.start: RATA needs n >= 2";
  let base = Scheme_base.start_wait env in
  let t =
    { base; last = env.Env.n; temps = [||]; tdays = [||]; temp_used = 0 }
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
  if Scheme_base.others_cover_rest frame ~j ~w:env.Env.w then begin
    (* ThrowAway, then prepare the ladder for the next cluster (the
       ladder work is pre-computation for future days). *)
    Scheme_base.data_arrives t.base;
    (* Build the replacement before dropping the retired constituent so
       a mid-build failure cannot lose the old (still-valid) wave. *)
    let fresh = Update.build_days env [ new_day ] in
    Index.drop (Frame.slot_index frame j);
    Scheme_base.install t.base j fresh (Dayset.singleton new_day);
    t.last <- j;
    Scheme_base.mark_visible t.base;
    let j' = Frame.find_slot_with_day frame (expired + 1) in
    initialize t (Dayset.remove (expired + 1) (Frame.slot_days frame j'))
  end
  else begin
    (* Wait: absorb the new day, then swap the expiring constituent for
       the pre-built suffix that omits the expired day.  Under simple
       shadowing the copy of I_last is pre-computation. *)
    let idx = Frame.slot_index frame t.last in
    let pending = Update.prepare_add env idx in
    Scheme_base.data_arrives t.base;
    let idx = Update.complete_replace env pending ~add:[ new_day ] in
    Scheme_base.install t.base t.last idx
      (Dayset.add new_day (Frame.slot_days frame t.last));
    let tu = t.temp_used in
    assert (tu >= 1);
    Index.drop (Frame.slot_index frame j);
    Scheme_base.install t.base j t.temps.(tu) t.tdays.(tu);
    t.temp_used <- tu - 1;
    Scheme_base.mark_visible t.base
  end;
  t.base.Scheme_base.day <- new_day

let frame t = t.base.Scheme_base.frame
let current_day t = t.base.Scheme_base.day
let last_mark t = t.base.Scheme_base.mark
let last_slot t = t.last

let temps_days t =
  if t.temp_used = 0 then []
  else Array.to_list (Array.sub t.tdays 1 t.temp_used)

let temp_indexes t =
  if t.temp_used = 0 then [] else Array.to_list (Array.sub t.temps 1 t.temp_used)

let base t = t.base
