type change = { slot : int; old_days : Dayset.t; new_days : Dayset.t }

type t = { day_from : int; day_to : int; changes : change list }

let plan s =
  let frame = Scheme.frame s in
  let env = Scheme.env s in
  let w = env.Env.w in
  let day_from = Scheme.current_day s in
  let day_to = day_from + 1 in
  let expired = day_to - w in
  let j = Frame.find_slot_with_day frame expired in
  let slot_days k = Frame.slot_days frame k in
  let shifted k =
    Dayset.add day_to (Dayset.remove expired (slot_days k))
  in
  let changes =
    match Scheme.kind s with
    | Scheme.Del | Scheme.Reindex | Scheme.Reindex_plus | Scheme.Reindex_pp ->
      (* Hard window, single-slot schemes: only the slot holding the
         expired day changes, and the window shift pins its new
         time-set. *)
      [ { slot = j; old_days = slot_days j; new_days = shifted j } ]
    | Scheme.Wata_star ->
      (* The schemes' own ThrowAway predicate, so the intent cannot
         disagree with the transition that runs. *)
      if Scheme_base.others_cover_rest frame ~j ~w then
        (* ThrowAway: slot j restarts from the new day alone. *)
        [ { slot = j; old_days = slot_days j;
            new_days = Dayset.singleton day_to } ]
      else
        (* Wait: the last-modified slot absorbs the new day. *)
        let l = Option.get (Scheme.last_slot s) in
        [ { slot = l; old_days = slot_days l;
            new_days = Dayset.add day_to (slot_days l) } ]
    | Scheme.Rata_star ->
      if Scheme_base.others_cover_rest frame ~j ~w then
        [ { slot = j; old_days = slot_days j;
            new_days = Dayset.singleton day_to } ]
      else
        (* Wait: Last absorbs the new day AND slot j is swapped for the
           pre-built suffix omitting the expired day. *)
        let l = Option.get (Scheme.last_slot s) in
        if l = j then [ { slot = j; old_days = slot_days j; new_days = shifted j } ]
        else
          [ { slot = l; old_days = slot_days l;
              new_days = Dayset.add day_to (slot_days l) };
            { slot = j; old_days = slot_days j;
              new_days = Dayset.remove expired (slot_days j) } ]
  in
  { day_from; day_to; changes }
