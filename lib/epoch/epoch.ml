(* Epoch-based snapshot isolation: generation-tagged immutable views of
   the constituent set, so probes keep running against the old wave
   while a transition assembles the next one.  See epoch.mli for the
   protocol; the load-bearing invariant is that an extent visible to
   any live snapshot is never freed (the disk free gate) and an index
   visible to any live snapshot is never torn down (the index drop
   gate) until the last reader drains. *)

module Disk = Wave_disk.Disk
module Cache = Wave_cache.Cache
module Index = Wave_storage.Index

let fail fmt = Printf.ksprintf failwith fmt

type range_pred = t1:int -> t2:int -> bool

type state = Current | Retired | Drained

type t = {
  e_gen : int;
  e_disk : Disk.t;
  e_slots : (Index.t * range_pred) list;
  e_extents : Disk.extent list; (* snapshot ownership at open time *)
  e_extent_starts : (int, unit) Hashtbl.t;
  mutable e_state : state;
  mutable e_refcount : int;
  mutable e_pinned : int list; (* cache block addresses pinned at open *)
  mutable e_def_drops : Index.t list; (* gated Index.drop calls, oldest last *)
  mutable e_def_frees : Disk.extent list; (* gated Disk.free calls *)
  e_def_free_set : (int, unit) Hashtbl.t; (* dedup by extent start *)
}

type reg = {
  r_disk : Disk.t;
  mutable r_current : t option;
  mutable r_retired : t list; (* retired, not yet drained; newest first *)
  mutable r_next_gen : int;
}

let registry : (int, reg) Hashtbl.t = Hashtbl.create 4

let find_reg disk = Hashtbl.find_opt registry (Disk.id disk)

let live_of reg =
  (match reg.r_current with Some e -> [ e ] | None -> []) @ reg.r_retired

(* --- observability --------------------------------------------------- *)

let m_opened = Wave_obs.Metrics.counter "epoch.opened"
let m_swaps = Wave_obs.Metrics.counter "epoch.swaps"
let m_drains = Wave_obs.Metrics.counter "epoch.drains"
let m_drained_probes = Wave_obs.Metrics.counter "epoch.drained_probes"
let g_active = Wave_obs.Metrics.gauge "epoch.active"
let g_retired = Wave_obs.Metrics.gauge "epoch.retired_undrained"
let g_pinned = Wave_obs.Metrics.gauge "epoch.pinned_frames"
let g_deferred = Wave_obs.Metrics.gauge "epoch.deferred_blocks"
let h_swap = Wave_obs.Metrics.histogram "epoch.swap_seconds"

let span name f =
  if Wave_obs.Trace.is_enabled () then Wave_obs.Trace.with_span name f
  else f ()

let record event e =
  Wave_obs.Recorder.record_epoch ~event ~gen:e.e_gen ~refcount:e.e_refcount

(* --- introspection --------------------------------------------------- *)

let live_epochs disk =
  match find_reg disk with None -> 0 | Some reg -> List.length (live_of reg)

let retired_undrained disk =
  match find_reg disk with
  | None -> 0
  | Some reg -> List.length reg.r_retired

let pinned_blocks disk =
  match find_reg disk with
  | None -> 0
  | Some reg ->
    List.fold_left (fun acc e -> acc + List.length e.e_pinned) 0 (live_of reg)

let deferred_blocks disk =
  match find_reg disk with
  | None -> 0
  | Some reg ->
    List.fold_left
      (fun acc e ->
        let frees =
          List.fold_left
            (fun a (ext : Disk.extent) -> a + ext.Disk.length)
            0 e.e_def_frees
        in
        let drops =
          List.fold_left (fun a i -> a + Index.allocated_blocks i) 0 e.e_def_drops
        in
        acc + frees + drops)
      0 (live_of reg)

let update_gauges reg =
  Wave_obs.Metrics.set g_active (float_of_int (List.length (live_of reg)));
  Wave_obs.Metrics.set g_retired (float_of_int (List.length reg.r_retired));
  Wave_obs.Metrics.set g_pinned (float_of_int (pinned_blocks reg.r_disk));
  Wave_obs.Metrics.set g_deferred (float_of_int (deferred_blocks reg.r_disk))

(* --- gates ----------------------------------------------------------- *)

(* Free gate for one disk: claim the extent when any live epoch's
   snapshot owns its start, recording the deferred free into the first
   such epoch.  A drained epoch re-issuing the free runs through this
   same gate with itself already out of the live set, so a second
   still-live snapshot re-defers it — termination holds because every
   re-deferral lands on a strictly later epoch. *)
let free_gate reg (ext : Disk.extent) =
  match
    List.find_opt
      (fun e -> Hashtbl.mem e.e_extent_starts ext.Disk.start)
      (live_of reg)
  with
  | None -> false
  | Some e ->
    if not (Hashtbl.mem e.e_def_free_set ext.Disk.start) then begin
      Hashtbl.replace e.e_def_free_set ext.Disk.start ();
      e.e_def_frees <- ext :: e.e_def_frees
    end;
    true

(* Drop gate (global, installed once): claim the index when any live
   epoch on its disk snapshot-references it.  [Index.drop] defers the
   whole teardown — extents and directory stay intact for snapshot
   probes — and drain re-calls [Index.drop], which re-enters here. *)
let drop_gate idx =
  match find_reg (Index.disk idx) with
  | None -> false
  | Some reg -> (
    match
      List.find_opt
        (fun e -> List.exists (fun (i, _) -> i == idx) e.e_slots)
        (live_of reg)
    with
    | None -> false
    | Some e ->
      if not (List.memq idx e.e_def_drops) then
        e.e_def_drops <- idx :: e.e_def_drops;
      true)

let drop_gate_installed = ref false

(* --- registry lifecycle ---------------------------------------------- *)

let attach disk =
  if not !drop_gate_installed then begin
    Index.set_drop_gate drop_gate;
    drop_gate_installed := true
  end;
  match find_reg disk with
  | Some _ -> ()
  | None ->
    let reg =
      { r_disk = disk; r_current = None; r_retired = []; r_next_gen = 1 }
    in
    Hashtbl.replace registry (Disk.id disk) reg;
    Disk.set_free_gate disk (Some (free_gate reg))

let attached disk = find_reg disk <> None

let unpin e =
  (match e.e_pinned with
  | [] -> ()
  | pinned -> (
    match Cache.find e.e_disk with
    | Some pool -> Cache.unpin_blocks pool pinned
    | None -> ()));
  e.e_pinned <- []

let detach disk =
  match find_reg disk with
  | None -> ()
  | Some reg ->
    if live_of reg <> [] then
      fail "Epoch.detach: %d live epoch(s); drain before detaching"
        (List.length (live_of reg));
    Hashtbl.remove registry (Disk.id disk);
    Disk.set_free_gate disk None

let on_crash disk =
  match find_reg disk with
  | None -> ()
  | Some reg ->
    (* Deferred drops/frees are exactly the space the interrupted
       transition's recovery will find unclaimed and sweep as leaks:
       executing them here would double-free after the allocator is
       rebuilt.  Discard them, unpin, and forget every epoch. *)
    List.iter
      (fun e ->
        (try unpin e with _ -> ());
        e.e_def_drops <- [];
        e.e_def_frees <- [];
        Hashtbl.reset e.e_def_free_set;
        e.e_state <- Drained)
      (live_of reg);
    reg.r_current <- None;
    reg.r_retired <- [];
    update_gauges reg;
    Hashtbl.remove registry (Disk.id disk);
    Disk.set_free_gate disk None

(* --- epoch lifecycle ------------------------------------------------- *)

(* One epoch may pin at most half the pool, so eviction always has
   victims even with a retired epoch still draining next to the
   current one. *)
let pin_budget pool = Cache.capacity pool / 2

let open_ disk ~slots =
  let reg =
    match find_reg disk with
    | Some reg -> reg
    | None -> fail "Epoch.open_: disk not attached (call Epoch.attach first)"
  in
  (match reg.r_current with
  | Some e -> fail "Epoch.open_: epoch %d is still current (commit it first)" e.e_gen
  | None -> ());
  let extents =
    List.concat_map (fun (idx, _) -> Index.extents idx) slots
  in
  let starts = Hashtbl.create (List.length extents) in
  List.iter
    (fun (ext : Disk.extent) -> Hashtbl.replace starts ext.Disk.start ())
    extents;
  let e =
    {
      e_gen = reg.r_next_gen;
      e_disk = disk;
      e_slots = slots;
      e_extents = extents;
      e_extent_starts = starts;
      e_state = Current;
      e_refcount = 1 (* the opener's lease *);
      e_pinned = [];
      e_def_drops = [];
      e_def_frees = [];
      e_def_free_set = Hashtbl.create 8;
    }
  in
  reg.r_next_gen <- reg.r_next_gen + 1;
  (* Pin what is already resident of the snapshot so cache pressure
     from the transition cannot evict a retired epoch's working set. *)
  (match Cache.find disk with
  | Some pool ->
    let budget = ref (pin_budget pool) in
    let per_extent =
      List.fold_left
        (fun acc ext ->
          if !budget > 0 then begin
            let pinned = Cache.pin_resident_blocks pool ext ~budget:!budget in
            budget := !budget - List.length pinned;
            pinned :: acc
          end
          else acc)
        [] extents
    in
    e.e_pinned <- List.concat (List.rev per_extent)
  | None -> ());
  reg.r_current <- Some e;
  Wave_obs.Metrics.inc m_opened;
  record "open" e;
  update_gauges reg;
  e

let current disk = Option.bind (find_reg disk) (fun reg -> reg.r_current)

let gen e = e.e_gen
let refcount e = e.e_refcount
let is_retired e = e.e_state = Retired
let is_drained e = e.e_state = Drained
let snapshot_extents e = e.e_extents

let drain reg e =
  span "epoch.drain" (fun () ->
      (* Out of the live set first: the re-issued drops and frees run
         through the gates again, which must no longer see this epoch —
         they either really execute now or re-defer to a later live
         snapshot. *)
      e.e_state <- Drained;
      (match reg.r_current with
      | Some c when c == e -> reg.r_current <- None
      | _ -> ());
      reg.r_retired <- List.filter (fun x -> not (x == e)) reg.r_retired;
      unpin e;
      let drops = List.rev e.e_def_drops and frees = List.rev e.e_def_frees in
      e.e_def_drops <- [];
      e.e_def_frees <- [];
      Hashtbl.reset e.e_def_free_set;
      List.iter Index.drop drops;
      List.iter (fun ext -> Disk.free reg.r_disk ext) frees;
      Wave_obs.Metrics.inc m_drains;
      record "drain" e;
      update_gauges reg)

let commit ?swap_seconds disk =
  match find_reg disk with
  | None -> ()
  | Some reg -> (
    match reg.r_current with
    | None -> ()
    | Some e ->
      span "epoch.swap" (fun () ->
          e.e_state <- Retired;
          reg.r_current <- None;
          reg.r_retired <- e :: reg.r_retired;
          Wave_obs.Metrics.inc m_swaps;
          (match swap_seconds with
          | Some s -> Wave_obs.Metrics.observe h_swap s
          | None -> ());
          record "swap" e;
          record "retire" e;
          update_gauges reg))

let acquire e =
  (match e.e_state with
  | Drained -> fail "Epoch.acquire: epoch %d is drained" e.e_gen
  | Retired ->
    (* A reader resolving against a retired snapshot is by definition a
       probe that arrived before the swap and drains after it. *)
    Wave_obs.Metrics.inc m_drained_probes
  | Current -> ());
  e.e_refcount <- e.e_refcount + 1

let release e =
  if e.e_refcount <= 0 then
    fail "Epoch.release: epoch %d refcount underflow" e.e_gen;
  e.e_refcount <- e.e_refcount - 1;
  if e.e_refcount = 0 && e.e_state <> Drained then
    match find_reg e.e_disk with
    | Some reg -> drain reg e
    | None -> () (* registry torn down by on_crash; nothing to reclaim *)

(* --- snapshot reads -------------------------------------------------- *)

let check_readable e =
  if e.e_state = Drained then
    fail "Epoch.probe: epoch %d is drained" e.e_gen

(* As in [Frame]: charge the snapshot's constituents in order on the
   way down, cons each one's answer onto the rest on the way back. *)
let rec probe_slots slots ~value ~t1 ~t2 =
  match slots with
  | [] -> []
  | (idx, in_range) :: rest ->
    if in_range ~t1 ~t2 then
      let bucket = Index.probe_bucket idx value in
      Index.timed_onto bucket ~t1 ~t2 (probe_slots rest ~value ~t1 ~t2)
    else probe_slots rest ~value ~t1 ~t2

let rec scan_slots slots ~t1 ~t2 =
  match slots with
  | [] -> []
  | (idx, in_range) :: rest ->
    if in_range ~t1 ~t2 then begin
      Index.scan_charge idx;
      Index.scan_onto [ idx ] ~t1 ~t2 (scan_slots rest ~t1 ~t2)
    end
    else scan_slots rest ~t1 ~t2

let probe e ~value ~t1 ~t2 =
  check_readable e;
  probe_slots e.e_slots ~value ~t1 ~t2

let scan e ~t1 ~t2 =
  check_readable e;
  scan_slots e.e_slots ~t1 ~t2

(* --- interleaved execution ------------------------------------------- *)

module Interleave = struct
  let run disk ~on_op f =
    let busy = ref false in
    Disk.set_op_observer disk
      (Some
         (fun () ->
           (* Probes served from a tick charge the same disk, which
              notifies again; the guard keeps delivery non-reentrant. *)
           if not !busy then begin
             busy := true;
             Fun.protect ~finally:(fun () -> busy := false) on_op
           end));
    Fun.protect ~finally:(fun () -> Disk.set_op_observer disk None) f
end
