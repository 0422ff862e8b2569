open Wave_core
open Wave_storage
open Wave_disk
open Wave_epoch
open Wave_model
module Metrics = Wave_obs.Metrics
module Cache = Wave_cache.Cache

type arm_state = { id : int; mutable scheme : Scheme.t; disk : Disk.t }
type intent = { victim_arm : int; sib_disk : Disk.t }

type t = {
  kind : Scheme.kind;
  icfg : Index.config;
  technique : Env.technique;
  allow_deletes : bool;
  base_store : Env.day_store;
  clock : Parallel.t;
  w : int;
  n : int;
  mutable part : Partition.t;
  mutable arms_arr : arm_state array;
  mutable day : int;
  mutable flush_s : float;
  mutable n_splits : int;
  mutable intent : intent option;
  mutable served : Entry.t list list;
}

exception Split_in_progress

let filtered_store base part arm_id d =
  Entry.batch_filter (base d) ~keep:(fun v ->
      Partition.arm_of_value part v = arm_id)

(* Bound on first use, so nothing registers before the first query. *)
let fanout_hist = lazy (Metrics.histogram "shard.fanout")
let m_probes = lazy (Metrics.counter "shard.probes")
let m_scans = lazy (Metrics.counter "shard.scans")
let m_splits = lazy (Metrics.counter "shard.splits")

(* One arm is a single-disk run, whose runner publishes the same
   figures under runner.*: a one-arm router publishes no shard.* metric
   of its own. *)
let update_gauges t =
  let live = Array.length t.arms_arr in
  let published = if live > 1 then live else 0 in
  if published > 0 then begin
    Metrics.set (Metrics.gauge "shard.arms") (float_of_int live);
    Metrics.set (Metrics.gauge "shard.skew_ratio") (Parallel.skew_ratio t.clock)
  end
  else begin
    ignore (Metrics.remove "shard.arms");
    ignore (Metrics.remove "shard.skew_ratio")
  end;
  for i = 0 to published - 1 do
    let a = t.arms_arr.(i) in
    let g fmt = Metrics.gauge (Printf.sprintf fmt i) in
    Metrics.set (g "shard.%d.busy_seconds") (Parallel.busy_arm t.clock i);
    Metrics.set (g "shard.%d.space_bytes")
      (float_of_int (Scheme.allocated_bytes a.scheme));
    Metrics.set (g "shard.%d.wave_length")
      (float_of_int (Frame.length (Scheme.frame a.scheme)))
  done;
  (* The registry is process-global: a previous, wider router (or this
     one before a future shrink) may have published per-arm gauges for
     indices this router doesn't publish.  Retire every contiguous stale
     index so a snapshot/export never mixes live arms with fossils. *)
  let rec drop_stale i =
    let r1 = Metrics.remove (Printf.sprintf "shard.%d.busy_seconds" i) in
    let r2 = Metrics.remove (Printf.sprintf "shard.%d.space_bytes" i) in
    let r3 = Metrics.remove (Printf.sprintf "shard.%d.wave_length" i) in
    if r1 || r2 || r3 then drop_stale (i + 1)
  in
  drop_stale published

let create ?(icfg = Index.default_config) ?(technique = Env.In_place)
    ?(allow_deletes = true) ?(on_env = ignore) ~kind ~partition ~shards ~vocab
    ~store ~w ~n () =
  let part = Partition.create partition ~arms:shards ~vocab in
  let arms_arr =
    Array.init shards (fun id ->
        let disk = Index.make_disk icfg in
        let env =
          Env.create ~disk ~icfg ~technique ~allow_deletes
            ~store:(filtered_store store part id) ~w ~n ()
        in
        on_env env;
        { id; scheme = Scheme.start kind env; disk })
  in
  let t =
    {
      kind;
      icfg;
      technique;
      allow_deletes;
      base_store = store;
      clock = Parallel.create ~arms:shards;
      w;
      n;
      part;
      arms_arr;
      day = w;
      flush_s = 0.0;
      n_splits = 0;
      intent = None;
      served = [];
    }
  in
  update_gauges t;
  t

let partition t = t.part
let last_flush_seconds t = t.flush_s
let arms t = Array.length t.arms_arr
let current_day t = t.day
let clock t = t.clock
let splits t = t.n_splits
let arm_disk t i = t.arms_arr.(i).disk
let arm_scheme t i = t.arms_arr.(i).scheme
let last_served t = List.rev t.served

let probe t ~value ~t1 ~t2 =
  let a = t.arms_arr.(Partition.arm_of_value t.part value) in
  let before = Disk.elapsed a.disk in
  let entries =
    Frame.timed_index_probe (Scheme.frame a.scheme) ~t1 ~t2 ~value
  in
  let makespan =
    Parallel.record t.clock [ (a.id, Disk.elapsed a.disk -. before) ]
  in
  if Array.length t.arms_arr > 1 then begin
    Metrics.inc (Lazy.force m_probes);
    Metrics.observe (Lazy.force fanout_hist) 1.0
  end;
  (entries, makespan)

(* Each arm owns its disk and the merge charges nothing, so sampling
   every clock around the one merged scan gives each arm's delta. *)
let scan t ~t1 ~t2 =
  let before = Array.map (fun a -> Disk.elapsed a.disk) t.arms_arr in
  let entries =
    Frame.merged_segment_scan
      (Array.map (fun a -> Scheme.frame a.scheme) t.arms_arr)
      ~t1 ~t2
  in
  let deltas =
    Array.mapi (fun i a -> (a.id, Disk.elapsed a.disk -. before.(i))) t.arms_arr
  in
  let makespan = Parallel.record t.clock (Array.to_list deltas) in
  if Array.length t.arms_arr > 1 then begin
    Metrics.inc (Lazy.force m_scans);
    Metrics.observe (Lazy.force fanout_hist)
      (float_of_int (Array.length t.arms_arr))
  end;
  (entries, makespan)

(* Each arm's transition ends at its write-back durability boundary:
   right after it, the arm's pool drains its deferred writes, coalesced,
   so the arm's delta includes them and no dirty frame outlives the
   day's maintenance. *)
let advance t =
  t.flush_s <- 0.0;
  let deltas =
    Array.fold_left
      (fun ds a ->
        let before = Disk.elapsed a.disk in
        Scheme.transition a.scheme;
        let t_end = Disk.elapsed a.disk in
        Option.iter Cache.flush (Cache.find a.disk);
        let after = Disk.elapsed a.disk in
        t.flush_s <- Float.max t.flush_s (after -. t_end);
        (a.id, after -. before) :: ds)
      [] t.arms_arr
  in
  t.day <- t.day + 1;
  let makespan = Parallel.record t.clock deltas in
  update_gauges t;
  makespan

(* -------------------------------------------------------------------- *)
(* Rebalancing: split a hot arm as a snapshot-isolated transition.      *)
(* -------------------------------------------------------------------- *)

let range_pred days ~t1 ~t2 = Dayset.exists (fun d -> d >= t1 && d <= t2) days

(* The live extents on [disk] that neither the scheme's committed
   constituents nor its temporaries hold, in address order.  The claimed
   extents are keyed by start, so each live one is tested in constant
   time. *)
let unclaimed_extents scheme disk =
  let claimed = Hashtbl.create 64 in
  let claim idx =
    List.iter
      (fun (e : Disk.extent) ->
        Hashtbl.replace claimed e.Disk.start e.Disk.length)
      (Index.extents idx)
  in
  List.iter (fun (idx, _) -> claim idx) (Frame.snapshot (Scheme.frame scheme));
  List.iter claim (Scheme.temp_indexes scheme);
  List.filter
    (fun (e : Disk.extent) ->
      Hashtbl.find_opt claimed e.Disk.start <> Some e.Disk.length)
    (Disk.live_extents disk)

let split ?(on_sibling = fun _ -> ()) ?(serve = []) t ~arm =
  if t.intent <> None then raise Split_in_progress;
  if not (Partition.can_split t.part ~arm) then
    invalid_arg (Printf.sprintf "Router.split: arm %d not divisible" arm);
  let victim = t.arms_arr.(arm) in
  let new_part = Partition.split t.part ~arm in
  let new_id = Partition.arms t.part in
  let sib_disk = Index.make_disk t.icfg in
  t.intent <- Some { victim_arm = arm; sib_disk };
  t.served <- [];
  on_sibling sib_disk;
  let before_v = Disk.elapsed victim.disk in
  let before_s = Disk.elapsed sib_disk in
  Epoch.attach victim.disk;
  let old_scheme = victim.scheme in
  let old_slots = Frame.snapshot (Scheme.frame old_scheme) in
  let epoch =
    Epoch.open_ victim.disk
      ~slots:(List.map (fun (idx, days) -> (idx, range_pred days)) old_slots)
  in
  let pending = ref serve in
  let serve_one () =
    match !pending with
    | [] -> ()
    | (v, t1, t2) :: rest ->
      pending := rest;
      Epoch.acquire epoch;
      let r = Epoch.probe epoch ~value:v ~t1 ~t2 in
      Epoch.release epoch;
      t.served <- r :: t.served
  in
  Epoch.Interleave.run victim.disk ~on_op:serve_one (fun () ->
      (* Sibling half first: a fault on the fresh disk must fire before
         anything irreversible happens on the victim. *)
      let mk_env disk id =
        Env.create ~disk ~icfg:t.icfg ~technique:t.technique
          ~allow_deletes:t.allow_deletes
          ~store:(filtered_store t.base_store new_part id) ~w:t.w ~n:t.n ()
      in
      let sib_scheme = Scheme.start t.kind (mk_env sib_disk new_id) in
      Scheme.advance_to sib_scheme t.day;
      (* Retained half rebuilds on the victim's own disk while the
         epoch keeps the pre-split snapshot probe-able. *)
      let keep_scheme = Scheme.start t.kind (mk_env victim.disk arm) in
      Scheme.advance_to keep_scheme t.day;
      while !pending <> [] do
        serve_one ()
      done;
      (* The atomic swap: commit the new partition and arm set in one
         in-memory step, aligned with the epoch swap.  Every fault
         point lands before this line, so recovery always sees the old
         committed partition. *)
      t.part <- new_part;
      victim.scheme <- keep_scheme;
      t.arms_arr <-
        Array.append t.arms_arr
          [| { id = new_id; scheme = sib_scheme; disk = sib_disk } |];
      Parallel.grow t.clock ~arms:(new_id + 1);
      t.intent <- None;
      t.n_splits <- t.n_splits + 1;
      Epoch.commit ~swap_seconds:0.0 victim.disk;
      (* Retire the pre-split constituents; drops of snapshot-visible
         indexes defer through the epoch gates until readers drain. *)
      List.iter (fun (idx, _) -> Index.drop idx) old_slots;
      List.iter Index.drop (Scheme.temp_indexes old_scheme));
  Epoch.release epoch;
  Epoch.detach victim.disk;
  Metrics.inc (Lazy.force m_splits);
  let makespan =
    Parallel.record t.clock
      [
        (arm, Disk.elapsed victim.disk -. before_v);
        (new_id, Disk.elapsed sib_disk -. before_s);
      ]
  in
  update_gauges t;
  makespan

let recover t =
  match t.intent with
  | None -> ()
  | Some { victim_arm; sib_disk } ->
    let victim = t.arms_arr.(victim_arm) in
    Disk.clear_fault victim.disk;
    Disk.clear_fault sib_disk;
    (* Discard the epoch's deferred drops/frees without executing them:
       the half-built indexes' extents are the leaks the sweep below
       frees, exactly like transition recovery. *)
    Epoch.on_crash victim.disk;
    List.iter (Disk.free victim.disk)
      (unclaimed_extents victim.scheme victim.disk);
    (* The sibling disk was never installed; dropping the reference
       discards it wholesale. *)
    t.intent <- None

let check_no_leaks t =
  Array.iter
    (fun a ->
      match unclaimed_extents a.scheme a.disk with
      | [] -> ()
      | e :: _ ->
        failwith
          (Printf.sprintf
             "Router.check_no_leaks: arm %d leaks extent at %d (%d blocks)"
             a.id e.Disk.start e.Disk.length))
    t.arms_arr

let hottest_splittable t =
  let best = ref None in
  Array.iteri
    (fun i _ ->
      if Partition.can_split t.part ~arm:i then
        let busy = Parallel.busy_arm t.clock i in
        match !best with
        | Some (_, b) when b >= busy -> ()
        | _ -> best := Some (i, busy))
    t.arms_arr;
  Option.map fst !best

let rebalance t ~threshold =
  if Parallel.skew_ratio t.clock > threshold then
    Option.iter (fun arm -> ignore (split t ~arm)) (hottest_splittable t)
