open Wave_storage

type slot = { mutable index : Index.t; mutable days : Dayset.t }

type t = { env : Env.t; slots : slot array }

let create env =
  {
    env;
    slots =
      Array.init env.Env.n (fun _ ->
          {
            index = Index.create_empty env.Env.disk env.Env.icfg;
            days = Dayset.empty;
          });
  }

let env t = t.env
let n t = Array.length t.slots

let slot t j =
  if j < 1 || j > Array.length t.slots then
    invalid_arg (Printf.sprintf "Frame: slot %d out of range" j);
  t.slots.(j - 1)

let set_slot t j idx days =
  let s = slot t j in
  s.index <- idx;
  s.days <- days;
  (* Slot attribution for traces: every constituent installation leaves
     an instant event naming the slot and its new time-set. *)
  if Wave_obs.Trace.is_enabled () then
    Wave_obs.Trace.instant "install"
      ~tags:[ ("slot", string_of_int j); ("days", Dayset.to_string days) ]

let slot_index t j = (slot t j).index
let slot_days t j = (slot t j).days

(* The constituent set as an immutable value: what an epoch snapshot
   captures at open time.  Probes resolved against the returned pairs
   see the frame exactly as it was, whatever [set_slot] does later. *)
let snapshot t =
  Array.to_list (Array.map (fun s -> (s.index, s.days)) t.slots)

let find_slot_with_day t day =
  let rec go j =
    if j > Array.length t.slots then raise Not_found
    else if Dayset.mem day (slot t j).days then j
    else go (j + 1)
  in
  go 1

let covered_days t =
  Array.fold_left (fun acc s -> Dayset.union acc s.days) Dayset.empty t.slots

let length t =
  Array.fold_left (fun acc s -> acc + Dayset.cardinal s.days) 0 t.slots

let slot_in_range s ~t1 ~t2 =
  Dayset.exists (fun d -> d >= t1 && d <= t2) s.days

(* Constituents are charged in slot order, each before the recursion
   reaches the next; the answer is then built on the way back, from the
   last slot to the first, so every entry is consed exactly once. *)
let rec probe_from t j ~t1 ~t2 ~value =
  if j = Array.length t.slots then []
  else
    let s = t.slots.(j) in
    if slot_in_range s ~t1 ~t2 then
      let bucket = Index.probe_bucket s.index value in
      Index.timed_onto bucket ~t1 ~t2 (probe_from t (j + 1) ~t1 ~t2 ~value)
    else probe_from t (j + 1) ~t1 ~t2 ~value

let timed_index_probe t ~t1 ~t2 ~value = probe_from t 0 ~t1 ~t2 ~value

let index_probe t ~value = timed_index_probe t ~t1:min_int ~t2:max_int ~value

(* Constituents are charged frame by frame, each frame's in slot
   order; the answer is then built from the last slot back to the
   first, each slot's constituents merged by value, so every entry is
   consed exactly once and no sort is needed. *)
let merged_segment_scan frames ~t1 ~t2 =
  let n = if Array.length frames = 0 then 0 else Array.length frames.(0).slots in
  if Array.exists (fun t -> Array.length t.slots <> n) frames then
    invalid_arg "Frame.merged_segment_scan: frames differ in slot count";
  Array.iter
    (fun t ->
      Array.iter
        (fun s -> if slot_in_range s ~t1 ~t2 then Index.scan_charge s.index)
        t.slots)
    frames;
  let acc = ref [] in
  for j = n - 1 downto 0 do
    let idxs =
      Array.fold_right
        (fun t l ->
          let s = t.slots.(j) in
          if slot_in_range s ~t1 ~t2 then s.index :: l else l)
        frames []
    in
    acc := Index.scan_onto idxs ~t1 ~t2 !acc
  done;
  !acc

let timed_segment_scan t ~t1 ~t2 = merged_segment_scan [| t |] ~t1 ~t2

let segment_scan t = timed_segment_scan t ~t1:min_int ~t2:max_int

type aggregate = Count | Sum_info | Min_info | Max_info

(* Charged slot by slot as [timed_segment_scan] charges, then folded
   over the buckets in place: no answer list is built. *)
let timed_aggregate t ~t1 ~t2 ~op =
  let slots =
    List.filter (fun s -> slot_in_range s ~t1 ~t2) (Array.to_list t.slots)
  in
  List.iter (fun s -> Index.scan_charge s.index) slots;
  let fold f init =
    List.fold_left
      (fun acc s -> Index.fold_timed s.index ~t1 ~t2 ~init:acc ~f)
      init slots
  in
  let count () = fold (fun n _ -> n + 1) 0 in
  match op with
  | Count -> Some (count ())
  | Sum_info -> Some (fold (fun acc (e : Entry.t) -> acc + e.Entry.info) 0)
  | Min_info ->
    if count () = 0 then None
    else Some (fold (fun acc (e : Entry.t) -> Int.min acc e.Entry.info) max_int)
  | Max_info ->
    if count () = 0 then None
    else Some (fold (fun acc (e : Entry.t) -> Int.max acc e.Entry.info) min_int)

let allocated_bytes t =
  Array.fold_left (fun acc s -> acc + Index.allocated_bytes s.index) 0 t.slots

let used_bytes t =
  Array.fold_left (fun acc s -> acc + Index.used_bytes s.index) 0 t.slots

let entry_count t =
  Array.fold_left (fun acc s -> acc + Index.entry_count s.index) 0 t.slots

let validate t =
  Array.iteri
    (fun i s ->
      Index.validate s.index;
      let present = Dayset.of_int_list (Index.days s.index) in
      (* Days whose batch happened to be empty leave no trace in the
         index, so the recorded time-set may be a superset. *)
      if not (Dayset.subset present s.days) then
        failwith
          (Printf.sprintf "Frame: slot %d time-set %s but index holds %s"
             (i + 1)
             (Dayset.to_string s.days)
             (Dayset.to_string present)))
    t.slots

let pp ppf t =
  Array.iteri
    (fun i s -> Format.fprintf ppf "I%d -> %a@." (i + 1) Dayset.pp s.days)
    t.slots
