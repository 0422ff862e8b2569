type t = Scheme_base.t

let start = Scheme_base.start_contiguous

let transition (b : t) =
  let env = b.Scheme_base.env in
  Scheme_base.begin_transition b;
  let new_day = b.Scheme_base.day + 1 in
  let expired = new_day - env.Env.w in
  let j = Frame.find_slot_with_day b.Scheme_base.frame expired in
  let idx = Frame.slot_index b.Scheme_base.frame j in
  (* DeleteFromIndex(d_{new-W}, I_j) can be prepared before the new data
     arrives (pre-computation); AddToIndex(d_new, I_j) cannot.  Packed
     shadowing fuses both into one smart copy at completion time. *)
  let pending = Update.prepare_replace env idx ~expire:[ expired ] in
  Scheme_base.data_arrives b;
  let idx = Update.complete_replace env pending ~add:[ new_day ] in
  let days =
    Dayset.add new_day (Dayset.remove expired (Frame.slot_days b.Scheme_base.frame j))
  in
  Scheme_base.install b j idx days;
  Scheme_base.mark_visible b;
  b.Scheme_base.day <- new_day

let frame (b : t) = b.Scheme_base.frame
let current_day (b : t) = b.Scheme_base.day
let last_mark (b : t) = b.Scheme_base.mark

let base (b : t) = (b : Scheme_base.t)
