type t = { base : Scheme_base.t; mutable last : int }

let length_bound ~w ~n = w + ((w - 1 + (n - 2)) / (n - 1)) - 1

let start env =
  if env.Env.n < 2 then invalid_arg "Wata.start: WATA needs n >= 2";
  { base = Scheme_base.start_wait env; last = env.Env.n }

let transition t =
  let env = t.base.Scheme_base.env in
  Scheme_base.begin_transition t.base;
  let frame = t.base.Scheme_base.frame in
  let new_day = t.base.Scheme_base.day + 1 in
  let expired = new_day - env.Env.w in
  let j = Frame.find_slot_with_day frame expired in
  if Scheme_base.others_cover_rest frame ~j ~w:env.Env.w then begin
    (* ThrowAway: every day in slot j has expired. *)
    Scheme_base.data_arrives t.base;
    (* Build the replacement before dropping the retired constituent so
       a mid-build failure cannot lose the old (still-valid) wave. *)
    let fresh = Update.build_days env [ new_day ] in
    Wave_storage.Index.drop (Frame.slot_index frame j);
    Scheme_base.install t.base j fresh (Dayset.singleton new_day);
    t.last <- j
  end
  else begin
    (* Wait: append the new day to the last-modified slot.  Under
       simple shadowing the copy of I_last is pre-computation. *)
    let idx = Frame.slot_index frame t.last in
    let pending = Update.prepare_add env idx in
    Scheme_base.data_arrives t.base;
    let idx = Update.complete_replace env pending ~add:[ new_day ] in
    Scheme_base.install t.base t.last idx
      (Dayset.add new_day (Frame.slot_days frame t.last))
  end;
  Scheme_base.mark_visible t.base;
  t.base.Scheme_base.day <- new_day

let frame t = t.base.Scheme_base.frame
let current_day t = t.base.Scheme_base.day
let last_mark t = t.base.Scheme_base.mark
let last_slot t = t.last

let base t = t.base
