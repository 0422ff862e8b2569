(* Tests for Wave_epoch: epoch lifecycle, the two reclamation gates
   (disk free gate, index drop gate), cache pinning of a retired
   epoch's working set, flight-recorder epoch events, the interleaved
   execution hook — and the two system-level guarantees: no
   interleaving of open/probe/swap/drain frees an extent visible to a
   live snapshot (QCheck), and with [concurrent = false] the runner's
   day_metrics stay bit-identical to the pre-epoch build (golden
   digests shared with test_cache). *)

open Wave_disk
open Wave_storage
open Wave_core
module Epoch = Wave_epoch.Epoch
module Cache = Wave_cache.Cache
module Crash_harness = Wave_sim.Crash_harness

let icfg = Index.default_config
let fresh_disk () = Index.make_disk icfg

let batch ~day ~values ~per_value =
  let postings =
    List.concat_map
      (fun v ->
        List.init per_value (fun i ->
            {
              Entry.value = v;
              entry =
                { Entry.rid = (day * 1_000_000) + (v * 100) + i; day; info = 0 };
            }))
      values
    |> Array.of_list
  in
  Entry.batch_create ~day postings

(* A one-index snapshot slot: the index plus the range predicate the
   core layer would build from its Dayset. *)
let slot_of idx =
  let days = Index.days idx in
  (idx, fun ~t1 ~t2 -> List.exists (fun d -> d >= t1 && d <= t2) days)

let build_idx ?(cfg = icfg) disk days =
  Index.build disk cfg
    (List.map (fun d -> batch ~day:d ~values:[ 1; 2; 3 ] ~per_value:4) days)

(* Every test attaches; make sure no state leaks between tests even on
   failure. *)
let with_epochs disk f =
  Epoch.attach disk;
  Fun.protect ~finally:(fun () -> Epoch.on_crash disk) f

let sorted es = List.sort Entry.compare es

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

let test_lifecycle () =
  let disk = fresh_disk () in
  with_epochs disk @@ fun () ->
  let idx = build_idx disk [ 1; 2 ] in
  let e = Epoch.open_ disk ~slots:[ slot_of idx ] in
  Alcotest.(check int) "gen starts at 1" 1 (Epoch.gen e);
  Alcotest.(check int) "opener lease" 1 (Epoch.refcount e);
  Alcotest.(check bool) "not retired" false (Epoch.is_retired e);
  Alcotest.(check int) "one live epoch" 1 (Epoch.live_epochs disk);
  Alcotest.(check bool) "current" true
    (match Epoch.current disk with Some x -> x == e | None -> false);
  Epoch.commit disk;
  Alcotest.(check bool) "retired after commit" true (Epoch.is_retired e);
  Alcotest.(check bool) "no longer current" true (Epoch.current disk = None);
  Alcotest.(check int) "retired-undrained" 1 (Epoch.retired_undrained disk);
  Epoch.release e;
  Alcotest.(check bool) "drained" true (Epoch.is_drained e);
  Alcotest.(check int) "no live epochs" 0 (Epoch.live_epochs disk);
  let e2 = Epoch.open_ disk ~slots:[ slot_of idx ] in
  Alcotest.(check int) "gen monotone" 2 (Epoch.gen e2);
  Epoch.commit disk;
  Epoch.release e2;
  Epoch.detach disk;
  Alcotest.(check bool) "detached" false (Epoch.attached disk)

let test_open_requires_attach () =
  let disk = fresh_disk () in
  let idx = build_idx disk [ 1 ] in
  match Epoch.open_ disk ~slots:[ slot_of idx ] with
  | _ -> Alcotest.fail "open_ without attach must fail"
  | exception Failure _ -> ()

let test_single_current_epoch () =
  let disk = fresh_disk () in
  with_epochs disk @@ fun () ->
  let idx = build_idx disk [ 1 ] in
  let _e = Epoch.open_ disk ~slots:[ slot_of idx ] in
  (match Epoch.open_ disk ~slots:[ slot_of idx ] with
  | _ -> Alcotest.fail "second open_ must fail"
  | exception Failure _ -> ());
  Epoch.commit disk

let test_acquire_release_errors () =
  let disk = fresh_disk () in
  with_epochs disk @@ fun () ->
  let idx = build_idx disk [ 1 ] in
  let e = Epoch.open_ disk ~slots:[ slot_of idx ] in
  Epoch.commit disk;
  Epoch.acquire e;
  (* retired but referenced: still readable *)
  Alcotest.(check bool) "probe on retired ok" true
    (Epoch.probe e ~value:1 ~t1:1 ~t2:1 <> []);
  Epoch.release e;
  Epoch.release e;
  Alcotest.(check bool) "drained after last release" true (Epoch.is_drained e);
  (match Epoch.acquire e with
  | () -> Alcotest.fail "acquire on drained must fail"
  | exception Failure _ -> ());
  (match Epoch.probe e ~value:1 ~t1:1 ~t2:1 with
  | _ -> Alcotest.fail "probe on drained must fail"
  | exception Failure _ -> ());
  match Epoch.release e with
  | () -> Alcotest.fail "release underflow must fail"
  | exception Failure _ -> ()

let test_detach_live_fails () =
  let disk = fresh_disk () in
  with_epochs disk @@ fun () ->
  let idx = build_idx disk [ 1 ] in
  let e = Epoch.open_ disk ~slots:[ slot_of idx ] in
  (match Epoch.detach disk with
  | () -> Alcotest.fail "detach with a live epoch must fail"
  | exception Failure _ -> ());
  Epoch.commit disk;
  Epoch.release e;
  Epoch.detach disk

(* ------------------------------------------------------------------ *)
(* Gates: deferred reclamation                                        *)
(* ------------------------------------------------------------------ *)

let test_drop_gate_defers_index () =
  let disk = fresh_disk () in
  with_epochs disk @@ fun () ->
  let idx = build_idx disk [ 1; 2; 3 ] in
  let owned = Index.extents idx in
  let before = Disk.live_blocks disk in
  let e = Epoch.open_ disk ~slots:[ slot_of idx ] in
  let reference = sorted (Epoch.probe e ~value:2 ~t1:1 ~t2:3) in
  (* The transition tears the old constituent down; the gate must keep
     both the extents and the in-memory directory serviceable. *)
  Index.drop idx;
  Alcotest.(check bool) "extents survive the drop" true
    (List.for_all (Disk.is_live disk) owned);
  Alcotest.(check int) "nothing reclaimed yet" before (Disk.live_blocks disk);
  Alcotest.(check bool) "deferral visible" true (Epoch.deferred_blocks disk > 0);
  Alcotest.(check bool) "snapshot probe still answers" true
    (sorted (Epoch.probe e ~value:2 ~t1:1 ~t2:3) = reference);
  Epoch.commit disk;
  Alcotest.(check bool) "retired epoch still answers" true
    (sorted (Epoch.probe e ~value:2 ~t1:1 ~t2:3) = reference);
  Epoch.release e;
  (* Drain re-issues the drop: space really reclaimed now. *)
  Alcotest.(check bool) "extents freed at drain" true
    (not (List.exists (Disk.is_live disk) owned));
  Alcotest.(check int) "all blocks reclaimed" 0 (Disk.live_blocks disk);
  Alcotest.(check int) "no deferral left" 0 (Epoch.deferred_blocks disk)

let test_free_gate_defers_extent () =
  let disk = fresh_disk () in
  with_epochs disk @@ fun () ->
  let idx = build_idx disk [ 1 ] in
  let victim = List.hd (Index.extents idx) in
  let e = Epoch.open_ disk ~slots:[ slot_of idx ] in
  Disk.free disk victim;
  Alcotest.(check bool) "gated free leaves the extent live" true
    (Disk.is_live disk victim);
  Epoch.commit disk;
  Epoch.release e;
  Alcotest.(check bool) "freed at drain" false (Disk.is_live disk victim)

let test_redeferral_to_later_epoch () =
  (* Two epochs snapshot the same index; the drop defers while either
     lives, and only the LAST drain reclaims. *)
  let disk = fresh_disk () in
  with_epochs disk @@ fun () ->
  let idx = build_idx disk [ 1; 2 ] in
  let owned = Index.extents idx in
  let e1 = Epoch.open_ disk ~slots:[ slot_of idx ] in
  Epoch.commit disk;
  let e2 = Epoch.open_ disk ~slots:[ slot_of idx ] in
  Index.drop idx;
  Epoch.commit disk;
  Epoch.release e2;
  (* e2 drained, but e1 still references the index: the re-issued drop
     must have re-deferred rather than executed. *)
  Alcotest.(check bool) "still live while e1 lives" true
    (List.for_all (Disk.is_live disk) owned);
  Epoch.release e1;
  Alcotest.(check bool) "reclaimed after the last drain" true
    (not (List.exists (Disk.is_live disk) owned));
  Alcotest.(check int) "space fully reclaimed" 0 (Disk.live_blocks disk)

let test_on_crash_discards_deferred () =
  let disk = fresh_disk () in
  Epoch.attach disk;
  let idx = build_idx disk [ 1; 2 ] in
  let owned = Index.extents idx in
  let e = Epoch.open_ disk ~slots:[ slot_of idx ] in
  Index.drop idx;
  Epoch.commit disk;
  Epoch.on_crash disk;
  (* Deferred work discarded WITHOUT executing: the extents stay
     allocated (recovery's sweep frees them as leaks; executing here
     would double-free after the allocator is rebuilt). *)
  Alcotest.(check bool) "deferred frees not executed" true
    (List.for_all (Disk.is_live disk) owned);
  Alcotest.(check int) "no live epochs" 0 (Epoch.live_epochs disk);
  Alcotest.(check bool) "registry gone" false (Epoch.attached disk);
  Alcotest.(check bool) "epoch drained" true (Epoch.is_drained e);
  (* Idempotent. *)
  Epoch.on_crash disk

(* ------------------------------------------------------------------ *)
(* Cache pinning                                                      *)
(* ------------------------------------------------------------------ *)

let test_retired_epoch_pins_survive_eviction () =
  let cfg = { icfg with Index.cache_blocks = Some 8; cache_readahead = 0 } in
  let disk = fresh_disk () in
  with_epochs disk @@ fun () ->
  let idx = build_idx ~cfg disk [ 1; 2 ] in
  let pool = Option.get (Cache.find disk) in
  (* Warm the snapshot's working set, then open: open_ pins what is
     resident, bounded to half the pool. *)
  ignore (Index.probe_timed idx 1 ~t1:1 ~t2:2);
  ignore (Index.probe_timed idx 2 ~t1:1 ~t2:2);
  let e = Epoch.open_ disk ~slots:[ slot_of idx ] in
  let pinned = Epoch.pinned_blocks disk in
  Alcotest.(check bool) "open pinned resident blocks" true (pinned > 0);
  Alcotest.(check bool) "budget: at most half the pool" true
    (pinned <= Cache.capacity pool / 2);
  Alcotest.(check int) "pool agrees" pinned (Cache.pinned_frames pool);
  Epoch.commit disk;
  (* Retired but undrained: thrash the pool well past capacity; CLOCK
     must never select a pinned frame. *)
  let scratch =
    List.init (2 * Cache.capacity pool) (fun _ ->
        let x = Disk.alloc disk ~blocks:1 in
        Disk.write disk x;
        x)
  in
  List.iter (fun x -> Cache.read pool x) scratch;
  Alcotest.(check int) "pins survive cache pressure" pinned
    (Cache.pinned_frames pool);
  Epoch.release e;
  Alcotest.(check int) "drain unpins" 0 (Cache.pinned_frames pool);
  List.iter (fun x -> Disk.free disk x) scratch

let test_open_pins_many_extents () =
  (* An in-place index with one entry per bucket: every bucket is a
     two-block extent of its own (the entry plus growth room), all of
     them are resident at open, and the budget (half the pool, an odd
     3,999 frames) runs out inside the 2,000th extent. *)
  let n = 3000 and frames = 7998 in
  let cfg =
    { icfg with Index.cache_blocks = Some frames; min_alloc_entries = 1 }
  in
  let disk = fresh_disk () in
  with_epochs disk @@ fun () ->
  let idx = Index.create_empty disk cfg in
  Index.add_batch idx
    (batch ~day:1 ~values:(List.init n (fun v -> v + 1)) ~per_value:1);
  let exts = Index.extents idx in
  Alcotest.(check int) "one extent per bucket" n (List.length exts);
  Alcotest.(check bool) "two blocks each" true
    (List.for_all (fun (x : Disk.extent) -> x.Disk.length = 2) exts);
  let pool = Option.get (Cache.find disk) in
  List.iter (Cache.read pool) exts;
  let e = Epoch.open_ disk ~slots:[ slot_of idx ] in
  Alcotest.(check int) "pinned up to the budget" (frames / 2)
    (Epoch.pinned_blocks disk);
  Alcotest.(check int) "pool agrees" (frames / 2) (Cache.pinned_frames pool);
  Epoch.commit disk;
  Epoch.release e;
  Alcotest.(check int) "release unpins every block" 0
    (Cache.pinned_frames pool);
  Alcotest.(check int) "no epoch pins left" 0 (Epoch.pinned_blocks disk)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                    *)
(* ------------------------------------------------------------------ *)

let test_flight_records_epoch_events () =
  let disk = fresh_disk () in
  with_epochs disk @@ fun () ->
  Wave_obs.Recorder.clear ();
  let idx = build_idx disk [ 1 ] in
  let e = Epoch.open_ disk ~slots:[ slot_of idx ] in
  Epoch.commit disk ~swap_seconds:0.01;
  Epoch.acquire e;
  Epoch.release e;
  Epoch.release e;
  let events =
    List.filter_map
      (fun (ev : Wave_obs.Recorder.event) ->
        match ev.Wave_obs.Recorder.kind with
        | Wave_obs.Recorder.Epoch { e_event; e_gen; _ } -> Some (e_event, e_gen)
        | _ -> None)
      (Wave_obs.Recorder.events ())
  in
  List.iter
    (fun step ->
      Alcotest.(check bool) ("recorded " ^ step) true
        (List.mem (step, Epoch.gen e) events))
    [ "open"; "swap"; "retire"; "drain" ];
  (* The dump stays a valid waveidx-flight/1 document with epoch lines. *)
  match Wave_obs.Sink.validate_flight (Wave_obs.Recorder.to_jsonl ()) with
  | Ok n -> Alcotest.(check bool) "flight has events" true (n > 0)
  | Error err -> Alcotest.failf "flight dump invalid: %s" err

(* ------------------------------------------------------------------ *)
(* Interleave                                                         *)
(* ------------------------------------------------------------------ *)

let test_interleave_ticks_per_op () =
  let disk = fresh_disk () in
  let e = Disk.alloc disk ~blocks:2 in
  Disk.write disk e;
  let ticks = ref 0 in
  Epoch.Interleave.run disk
    ~on_op:(fun () ->
      incr ticks;
      (* A probe served from a tick charges the same disk; delivery
         must not recurse. *)
      let before = !ticks in
      Disk.read disk e;
      Alcotest.(check int) "no reentrant tick" before !ticks)
    (fun () -> Disk.read disk e);
  Alcotest.(check bool) "ticked on charged ops" true (!ticks > 0);
  let after = !ticks in
  Disk.read disk e;
  Alcotest.(check int) "observer removed on exit" after !ticks

let test_interleave_removed_on_raise () =
  let disk = fresh_disk () in
  let e = Disk.alloc disk ~blocks:1 in
  Disk.write disk e;
  let ticks = ref 0 in
  (try
     Epoch.Interleave.run disk
       ~on_op:(fun () -> incr ticks)
       (fun () ->
         Disk.read disk e;
         failwith "boom")
   with Failure _ -> ());
  let after = !ticks in
  Disk.read disk e;
  Alcotest.(check int) "observer removed after raise" after !ticks

(* ------------------------------------------------------------------ *)
(* QCheck: no interleaving frees a snapshot-visible extent            *)
(* ------------------------------------------------------------------ *)

(* Interpret a random command list over a live system: open epochs over
   the current constituent, run transitions that drop the old index,
   acquire/release/probe random epochs, commit.  After every step, no
   extent visible to any live (undrained) snapshot may be free; at the
   end, after all epochs drain, the allocator must hold exactly the
   surviving index's blocks (nothing leaked, nothing double-freed). *)
let epoch_interleaving_prop cmds =
  let disk = fresh_disk () in
  Epoch.attach disk;
  Fun.protect ~finally:(fun () -> Epoch.on_crash disk) @@ fun () ->
  let day = ref 1 in
  let next_idx () =
    incr day;
    build_idx disk [ !day ]
  in
  let live_idx = ref (build_idx disk [ 1 ]) in
  (* Epochs we still hold leases on (lease count > 0). *)
  let held : (Epoch.t * int ref) list ref = ref [] in
  let pick lst n = List.nth lst (n mod List.length lst) in
  let invariant () =
    List.iter
      (fun (e, _) ->
        if not (Epoch.is_drained e) then
          List.iter
            (fun ext ->
              if not (Disk.is_live disk ext) then
                Alcotest.failf
                  "extent %d+%d of live epoch %d was freed" ext.Disk.start
                  ext.Disk.length (Epoch.gen e))
            (Epoch.snapshot_extents e))
      !held
  in
  List.iter
    (fun cmd ->
      (match (cmd mod 6, !held) with
      | 0, _ ->
        if Epoch.current disk = None then begin
          let e = Epoch.open_ disk ~slots:[ slot_of !live_idx ] in
          held := (e, ref 1) :: !held
        end
      | 1, _ -> Epoch.commit disk
      | 2, (_ :: _ as hs) ->
        let e, leases = pick hs (cmd / 6) in
        if not (Epoch.is_drained e) then begin
          Epoch.acquire e;
          incr leases
        end
      | 3, (_ :: _ as hs) ->
        (* Keep the opener's lease on the CURRENT epoch (released only
           after its commit, as the runner does); extra leases and
           retired epochs release freely. *)
        let e, leases = pick hs (cmd / 6) in
        if !leases > 1 || (Epoch.is_retired e && !leases > 0) then begin
          Epoch.release e;
          decr leases
        end
      | 4, _ ->
        (* The transition: a new constituent replaces the old one,
           which is torn down immediately — the gates decide whether
           that reclamation really happens now. *)
        let old = !live_idx in
        live_idx := next_idx ();
        Index.drop old
      | 5, (_ :: _ as hs) ->
        let e, leases = pick hs (cmd / 6) in
        if !leases > 0 && not (Epoch.is_drained e) then
          ignore (Epoch.probe e ~value:1 ~t1:0 ~t2:max_int)
      | _ -> ());
      invariant ())
    cmds;
  (* Drain everything: commit the open epoch, drop remaining leases. *)
  Epoch.commit disk;
  List.iter
    (fun (e, leases) ->
      while !leases > 0 do
        Epoch.release e;
        decr leases
      done)
    !held;
  List.iter
    (fun (e, _) ->
      if not (Epoch.is_drained e) then
        Alcotest.failf "epoch %d not drained after release" (Epoch.gen e))
    !held;
  if Epoch.live_epochs disk <> 0 then Alcotest.fail "live epochs after drain";
  (* Space conservation: only the surviving index's blocks remain. *)
  let expect = Index.allocated_blocks !live_idx in
  if Disk.live_blocks disk <> expect then
    Alcotest.failf "space leak: %d live blocks, survivor owns %d"
      (Disk.live_blocks disk) expect;
  Epoch.detach disk;
  true

let qcheck_interleaving =
  QCheck2.Test.make
    ~name:"no interleaving frees a snapshot-visible extent" ~count:120
    QCheck2.Gen.(list_size (int_range 1 40) (int_bound 10_000))
    epoch_interleaving_prop

(* ------------------------------------------------------------------ *)
(* Answer order: Frame and Epoch queries against the filter-then-append *)
(* composition                                                        *)
(* ------------------------------------------------------------------ *)

(* A wave query's answer is each in-range constituent's bucket (or
   scan), filtered to [t1, t2], concatenated in slot order, with every
   constituent charged in slot order.  The oracle below is that
   definition written the direct way, over a model of each index's
   contents kept beside the real index: a value's bucket is its entries
   in insertion order (an append keeps the old ones first, a deletion
   keeps the survivors' order) and a scan is the buckets in increasing
   value order. *)
type model_index = { m_idx : Index.t; mutable m_buckets : (int * Entry.t list) list }

type slot_plan = {
  p_days : int list; (* days the slot's index holds *)
  p_mode : [ `Packed | `Appended | `Expired ];
}

let day_batch rng day =
  let postings =
    List.concat_map
      (fun v ->
        List.init (Wave_util.Prng.int rng 3) (fun i ->
            {
              Entry.value = v;
              entry = { Entry.rid = (day * 1000) + (v * 10) + i; day; info = i };
            }))
      [ 1; 2; 3; 4 ]
  in
  Entry.batch_create ~day (Array.of_list postings)

let model_append buckets (b : Entry.batch) =
  Array.fold_left
    (fun acc (p : Entry.posting) ->
      let old = Option.value ~default:[] (List.assoc_opt p.Entry.value acc) in
      (p.Entry.value, old @ [ p.Entry.entry ]) :: List.remove_assoc p.Entry.value acc)
    buckets b.Entry.postings
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

(* One twin: a fresh disk (optionally pooled) with the planned indexes
   in a frame.  Built from the seed alone, so two calls give identical
   twins. *)
let build_twin ~seed ~pool plans =
  let icfg =
    match pool with
    | None -> icfg
    | Some (frames, readahead) ->
      { icfg with Index.cache_blocks = Some frames; cache_readahead = readahead }
  in
  let disk = Index.make_disk icfg in
  let rng = Wave_util.Prng.create seed in
  let env =
    Env.create ~disk ~icfg ~store:(fun day -> day_batch rng day) ~w:4
      ~n:(List.length plans) ()
  in
  let frame = Frame.create env in
  let models =
    List.mapi
      (fun j plan ->
        let batches = List.map (day_batch rng) plan.p_days in
        let m =
          match (plan.p_mode, batches) with
          | _, [] -> { m_idx = Index.create_empty disk icfg; m_buckets = [] }
          | `Packed, _ ->
            {
              m_idx = Index.build disk icfg batches;
              m_buckets = List.fold_left model_append [] batches;
            }
          | (`Appended | `Expired), first :: rest ->
            let m =
              { m_idx = Index.build disk icfg [ first ]; m_buckets = model_append [] first }
            in
            List.iter
              (fun b ->
                Index.add_batch m.m_idx b;
                m.m_buckets <- model_append m.m_buckets b)
              rest;
            m
        in
        (if plan.p_mode = `Expired && plan.p_days <> [] then
           let oldest = List.fold_left min max_int plan.p_days in
           let expired d = d = oldest in
           ignore
             (Index.delete_days m.m_idx
                (List.filter (fun (b : Entry.batch) -> expired b.Entry.day) batches));
           m.m_buckets <-
             List.filter_map
               (fun (v, es) ->
                 match List.filter (fun (e : Entry.t) -> not (expired e.Entry.day)) es with
                 | [] -> None
                 | es -> Some (v, es))
               m.m_buckets);
        Frame.set_slot frame (j + 1) m.m_idx (Dayset.of_int_list plan.p_days);
        m)
      plans
  in
  (disk, frame, models)

let in_window ~t1 ~t2 (e : Entry.t) = e.Entry.day >= t1 && e.Entry.day <= t2

let slot_live days ~t1 ~t2 = Dayset.exists (fun d -> d >= t1 && d <= t2) days

(* The filter-then-append composition, charging through the
   single-index calls. *)
let expected_probe models plans ~value ~t1 ~t2 =
  List.fold_left2
    (fun acc m plan ->
      if slot_live (Dayset.of_int_list plan.p_days) ~t1 ~t2 then begin
        ignore (Index.probe m.m_idx value);
        let bucket = Option.value ~default:[] (List.assoc_opt value m.m_buckets) in
        acc @ List.filter (in_window ~t1 ~t2) bucket
      end
      else acc)
    [] models plans

let expected_scan models plans ~t1 ~t2 =
  List.fold_left2
    (fun acc m plan ->
      if slot_live (Dayset.of_int_list plan.p_days) ~t1 ~t2 then begin
        ignore (Index.scan m.m_idx);
        acc @ List.filter (in_window ~t1 ~t2) (List.concat_map snd m.m_buckets)
      end
      else acc)
    [] models plans

type query = Frame_probe | Frame_scan | Epoch_probe | Epoch_scan

let epoch_of disk frame =
  Epoch.attach disk;
  Epoch.open_ disk
    ~slots:
      (List.map
         (fun (idx, days) -> (idx, fun ~t1 ~t2 -> slot_live days ~t1 ~t2))
         (Frame.snapshot frame))

let answer_order_prop (seed, pool, plans, queries) =
  let disk_a, frame, _ = build_twin ~seed ~pool plans in
  let disk_b, frame_b, models = build_twin ~seed ~pool plans in
  (* Both twins open an epoch, so both pools hold the same pins. *)
  let ea = epoch_of disk_a frame in
  ignore (epoch_of disk_b frame_b);
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun d ->
          Epoch.on_crash d;
          Cache.detach d)
        [ disk_a; disk_b ])
    (fun () ->
      List.for_all
        (fun (q, value, t1, t2) ->
          let got =
            match q with
            | Frame_probe -> Frame.timed_index_probe frame ~t1 ~t2 ~value
            | Frame_scan -> Frame.timed_segment_scan frame ~t1 ~t2
            | Epoch_probe -> Epoch.probe ea ~value ~t1 ~t2
            | Epoch_scan -> Epoch.scan ea ~t1 ~t2
          in
          let want =
            match q with
            | Frame_probe | Epoch_probe -> expected_probe models plans ~value ~t1 ~t2
            | Frame_scan | Epoch_scan -> expected_scan models plans ~t1 ~t2
          in
          List.equal Entry.equal got want
          && Disk.elapsed disk_a = Disk.elapsed disk_b)
        queries)

let qcheck_answer_order =
  let open QCheck2.Gen in
  let plan =
    let* days = list_size (int_range 0 3) (int_range 1 8) in
    let+ mode = oneofl [ `Packed; `Appended; `Expired ] in
    { p_days = List.sort_uniq Int.compare days; p_mode = mode }
  in
  let query =
    let* q = oneofl [ Frame_probe; Frame_scan; Epoch_probe; Epoch_scan ] in
    let* value = int_range 0 5 in
    let* t1 = int_range 0 9 in
    let+ len = int_range (-1) 8 in
    (q, value, t1, t1 + len)
  in
  QCheck2.Test.make ~name:"frame and epoch answers keep slot order" ~count:150
    (let* seed = int_bound 10_000 in
     let* pool =
       oneof
         [ pure None; map2 (fun f r -> Some (f, r)) (int_range 1 24) (int_range 0 2) ]
     in
     let* plans = list_size (int_range 1 4) plan in
     let+ queries = list_size (int_range 1 12) query in
     (seed, pool, plans, queries))
    answer_order_prop

(* ------------------------------------------------------------------ *)
(* Runner: concurrent serving                                         *)
(* ------------------------------------------------------------------ *)

let store day =
  Entry.batch_create ~day
    (Array.init 8 (fun i ->
         {
           Entry.value = 1 + ((day + i) mod 6);
           entry = { Entry.rid = (day * 100) + i; day; info = i + 1 };
         }))

let queries =
  {
    Wave_workload.Query_gen.seed = 7;
    probes_per_day = 12;
    probe_range = Wave_workload.Query_gen.Whole_window;
    scans_per_day = 1;
    scan_range = Wave_workload.Query_gen.Whole_window;
    value_dist = Wave_workload.Query_gen.Uniform 6;
  }

let run_sim ?(concurrent = false) ?(query_rate = 50.0) ~scheme ~technique () =
  Wave_sim.Runner.run
    {
      (Wave_sim.Runner.default_config ~scheme ~store ~w:6 ~n:3) with
      Wave_sim.Runner.technique;
      run_days = 8;
      queries = Some queries;
      concurrent;
      query_rate;
    }

(* Golden digests shared with test_cache: the exact MD5s pinned on the
   pre-pool build.  A concurrent run on the same process must not
   perturb a later stop-the-world run (global gates detach cleanly). *)
let digest_of (r : Wave_sim.Runner.result) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (d : Wave_sim.Runner.day_metrics) ->
      Buffer.add_string buf
        (Printf.sprintf "%d|%.17g|%.17g|%.17g|%.17g|%d|%d|%d|%d|%d|%d|%d;"
           d.day d.precompute_seconds d.transition_seconds
           d.maintenance_seconds d.query_seconds d.probe_entries d.scan_entries
           d.space_bytes d.wave_length d.seeks d.blocks_read d.blocks_written))
    r.Wave_sim.Runner.days;
  Buffer.add_string buf
    (Printf.sprintf "max=%d avg=%.17g m=%.17g q=%.17g" r.max_space_bytes
       r.avg_space_bytes r.total_maintenance_seconds r.total_query_seconds);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_concurrent_off_bit_identical () =
  (* Run WITH concurrency first so any leaked global state would show. *)
  ignore (run_sim ~concurrent:true ~scheme:Scheme.Del
            ~technique:Env.Simple_shadow ());
  List.iter
    (fun (scheme, technique, golden) ->
      let r = run_sim ~scheme ~technique () in
      Alcotest.(check string)
        (Scheme.name scheme ^ "/" ^ Env.technique_name technique)
        golden (digest_of r);
      Alcotest.(check bool) "no concurrent stats when off" true
        (r.Wave_sim.Runner.concurrent = None))
    [
      (Scheme.Del, Env.Simple_shadow, "57ae513533419766e72d54015d150bd9");
      (Scheme.Reindex_plus, Env.Packed_shadow, "b6e934135b219dedd7e08c595ee0c623");
      (Scheme.Rata_star, Env.In_place, "122cb2d2deb4d5db9e7c8a32a6fb51f4");
    ]

let test_concurrent_shadow_beats_stopworld () =
  let r = run_sim ~concurrent:true ~scheme:Scheme.Del
            ~technique:Env.Simple_shadow () in
  match r.Wave_sim.Runner.concurrent with
  | None -> Alcotest.fail "concurrent run lost its stats"
  | Some c ->
    Alcotest.(check bool) "mid-transition arrivals happened" true
      (c.Wave_sim.Runner.mid_queries > 0);
    Alcotest.(check bool) "some served against the live snapshot" true
      (c.Wave_sim.Runner.snapshot_served > 0);
    Alcotest.(check int) "every arrival accounted"
      c.Wave_sim.Runner.mid_queries
      (c.Wave_sim.Runner.snapshot_served + c.Wave_sim.Runner.drained_served
      + c.Wave_sim.Runner.queued_served);
    Alcotest.(check int) "one sample per mid query"
      c.Wave_sim.Runner.mid_queries
      (Array.length c.Wave_sim.Runner.concurrent_samples);
    Alcotest.(check int) "counterfactual same schedule"
      c.Wave_sim.Runner.mid_queries
      (Array.length c.Wave_sim.Runner.stopworld_samples);
    Alcotest.(check bool)
      (Printf.sprintf "snapshot serving beats stop-the-world (%.4f < %.4f)"
         c.Wave_sim.Runner.concurrent_latency.Wave_sim.Runner.p95
         c.Wave_sim.Runner.stopworld_latency.Wave_sim.Runner.p95)
      true
      (c.Wave_sim.Runner.concurrent_latency.Wave_sim.Runner.p95
      < c.Wave_sim.Runner.stopworld_latency.Wave_sim.Runner.p95);
    Alcotest.(check int) "all epochs drained" 0
      (int_of_float
         (Wave_obs.Metrics.gauge_value (Wave_obs.Metrics.gauge "epoch.active")))

let test_concurrent_in_place_equals_stopworld () =
  (* In-place mutation cannot isolate readers: every mid arrival queues
     until the commit, so the measured latencies ARE the stop-the-world
     counterfactual.  Honest result, asserted exactly. *)
  let r = run_sim ~concurrent:true ~scheme:Scheme.Del ~technique:Env.In_place () in
  match r.Wave_sim.Runner.concurrent with
  | None -> Alcotest.fail "concurrent run lost its stats"
  | Some c ->
    Alcotest.(check bool) "arrivals queued" true
      (c.Wave_sim.Runner.queued_served > 0);
    Alcotest.(check int) "nothing snapshot-served" 0
      (c.Wave_sim.Runner.snapshot_served + c.Wave_sim.Runner.drained_served);
    let conc = c.Wave_sim.Runner.concurrent_samples
    and stw = c.Wave_sim.Runner.stopworld_samples in
    Alcotest.(check int) "same schedule" (Array.length conc)
      (Array.length stw);
    (* Equal up to the counterfactual's re-accumulated rounding: the
       measured latency telescopes the same sums the counterfactual
       re-adds term by term. *)
    Array.iteri
      (fun i m ->
        Alcotest.(check bool)
          (Printf.sprintf "sample %d: %.17g vs %.17g" i m stw.(i))
          true
          (Float.abs (m -. stw.(i)) <= 1e-9 *. Float.max 1.0 (Float.abs m)))
      conc

(* ------------------------------------------------------------------ *)
(* Crash sweep under concurrent probes                                *)
(* ------------------------------------------------------------------ *)

let test_concurrent_crash_sweep () =
  List.iter
    (fun (scheme, technique) ->
      let r =
        Crash_harness.sweep ~op:Crash_harness.Concurrent_transition ~scheme
          ~technique ~w:6 ~n:3 ~day:7 ()
      in
      if not r.Crash_harness.passed then
        Alcotest.failf "%s/%s failed:\n%s" (Scheme.name scheme)
          (Env.technique_name technique)
          (Format.asprintf "%a" Crash_harness.pp_report r))
    [
      (Scheme.Del, Env.Simple_shadow);
      (Scheme.Reindex_pp, Env.Packed_shadow);
      (Scheme.Wata_star, Env.In_place);
    ]

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "epoch.lifecycle",
      [
        Alcotest.test_case "open/commit/drain" `Quick test_lifecycle;
        Alcotest.test_case "open requires attach" `Quick
          test_open_requires_attach;
        Alcotest.test_case "single current epoch" `Quick
          test_single_current_epoch;
        Alcotest.test_case "acquire/release errors" `Quick
          test_acquire_release_errors;
        Alcotest.test_case "detach with live epoch fails" `Quick
          test_detach_live_fails;
      ] );
    ( "epoch.gates",
      [
        Alcotest.test_case "drop gate defers index teardown" `Quick
          test_drop_gate_defers_index;
        Alcotest.test_case "free gate defers extent free" `Quick
          test_free_gate_defers_extent;
        Alcotest.test_case "re-deferral to later epoch" `Quick
          test_redeferral_to_later_epoch;
        Alcotest.test_case "on_crash discards without executing" `Quick
          test_on_crash_discards_deferred;
      ] );
    ( "epoch.cache",
      [
        Alcotest.test_case "retired epoch pins survive eviction" `Quick
          test_retired_epoch_pins_survive_eviction;
        Alcotest.test_case "open pins thousands of extents" `Quick
          test_open_pins_many_extents;
      ] );
    ( "epoch.obs",
      [
        Alcotest.test_case "flight records epoch events" `Quick
          test_flight_records_epoch_events;
        Alcotest.test_case "interleave ticks per op" `Quick
          test_interleave_ticks_per_op;
        Alcotest.test_case "interleave observer removed on raise" `Quick
          test_interleave_removed_on_raise;
      ] );
    ("epoch.prop", qcheck [ qcheck_interleaving; qcheck_answer_order ]);
    ( "epoch.concurrent",
      [
        Alcotest.test_case "off: day_metrics bit-identical" `Quick
          test_concurrent_off_bit_identical;
        Alcotest.test_case "shadow beats stop-the-world" `Quick
          test_concurrent_shadow_beats_stopworld;
        Alcotest.test_case "in-place equals stop-the-world" `Quick
          test_concurrent_in_place_equals_stopworld;
        Alcotest.test_case "crash sweep with probes in flight" `Slow
          test_concurrent_crash_sweep;
      ] );
  ]
