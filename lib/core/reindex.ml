type t = Scheme_base.t

let start = Scheme_base.start_contiguous

let transition (b : t) =
  let env = b.Scheme_base.env in
  Scheme_base.begin_transition b;
  let new_day = b.Scheme_base.day + 1 in
  let expired = new_day - env.Env.w in
  let j = Frame.find_slot_with_day b.Scheme_base.frame expired in
  let days =
    Dayset.add new_day (Dayset.remove expired (Frame.slot_days b.Scheme_base.frame j))
  in
  (* Days[j] <- Days[j] - {new-W} + {new}; I_j <- BuildIndex(Days[j]). *)
  let fresh = Update.build_days env (Dayset.elements days) in
  let old = Frame.slot_index b.Scheme_base.frame j in
  Scheme_base.install b j fresh days;
  Wave_storage.Index.drop old;
  Scheme_base.mark_visible b;
  b.Scheme_base.day <- new_day

let frame (b : t) = b.Scheme_base.frame
let current_day (b : t) = b.Scheme_base.day
let last_mark (b : t) = b.Scheme_base.mark

let base (b : t) = (b : Scheme_base.t)
