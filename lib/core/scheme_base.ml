type t = {
  env : Env.t;
  frame : Frame.t;
  mutable day : int;
  mutable mark : float;
  mutable arrived : float;
  mutable started : float;
}

let create env =
  {
    env;
    frame = Frame.create env;
    day = env.Env.w - 1;
    mark = 0.0;
    arrived = 0.0;
    started = 0.0;
  }

let report t op = match t.env.Env.observer with Some f -> f op | None -> ()

let mark_visible t =
  t.mark <- Wave_disk.Disk.elapsed t.env.Env.disk;
  report t Env.Visible

let install t j idx days = Frame.set_slot t.frame j idx days

(* Slot i+1 gets a fresh index over the i-th cluster, slot by slot;
   then day W is the newest day absorbed and visible. *)
let start_clusters env clusters =
  let b = create env in
  List.iteri
    (fun i (lo, hi) ->
      let days = Dayset.range lo hi in
      install b (i + 1) (Update.build_days env (Dayset.elements days)) days)
    clusters;
  b.day <- env.Env.w;
  mark_visible b;
  b

let start_contiguous env =
  start_clusters env
    (Split.contiguous ~first_day:1 ~days:env.Env.w ~parts:env.Env.n)

let start_wait env =
  let w = env.Env.w in
  start_clusters env
    (Split.contiguous ~first_day:1 ~days:(w - 1) ~parts:(env.Env.n - 1)
    @ [ (w, w) ])

(* The clusters are disjoint and everything outside slot [j] is alive,
   so the other slots cover the W-1 most recent days exactly when their
   cardinalities sum to W-1. *)
let others_cover_rest frame ~j ~w =
  let total = ref 0 in
  for i = 1 to Frame.n frame do
    if i <> j then total := !total + Dayset.cardinal (Frame.slot_days frame i)
  done;
  !total = w - 1

let suffix_ladder env ds =
  let c = Dayset.cardinal ds in
  let temps =
    Array.make (c + 1) (Wave_storage.Index.create_empty env.Env.disk env.Env.icfg)
  in
  let tdays = Array.make (c + 1) Dayset.empty in
  (match List.rev (Dayset.elements ds) with
  | [] -> ()
  | k :: rest ->
    temps.(1) <- Update.build_days env [ k ];
    tdays.(1) <- Dayset.singleton k;
    List.iteri
      (fun i day ->
        let m = i + 2 in
        let next = Update.copy env temps.(m - 1) in
        temps.(m) <- Update.add_days_fresh env next [ day ];
        tdays.(m) <- Dayset.add day tdays.(m - 1))
      rest);
  (temps, tdays)

let begin_transition t =
  let now = Wave_disk.Disk.elapsed t.env.Env.disk in
  t.started <- now;
  t.arrived <- now

let data_arrives t =
  t.arrived <- Wave_disk.Disk.elapsed t.env.Env.disk;
  report t Env.Arrived
