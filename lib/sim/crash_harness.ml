open Wave_core
open Wave_disk
open Wave_storage
open Wave_shard

(* Deterministic day batches: 8 postings per day over 6 values, same
   shape as the unit-test stores, so every run of a configuration is
   bit-identical and twin comparison is exact. *)
let vocab = 6

let default_store day =
  Entry.batch_create ~day
    (Array.init 8 (fun i ->
         {
           Entry.value = 1 + ((day + i) mod vocab);
           entry = { Entry.rid = (day * 100) + i; day; info = i + 1 };
         }))

type operation =
  | Transition
  | Concurrent_transition
  | Split of { partition : Partition.kind; shards : int }

type kill = In_memory | Reopen of string | Double

type point_result = {
  point : Disk.fault_point;
  mode : Disk.fault_mode;
  on_sibling : bool;
  second : Disk.fault_point option;
  torn_tail : bool;
  fired : bool;
  rolled_forward : bool;
  recovered_day : int;
  consistent : bool;
  space_ok : bool;
  iso_ok : bool;
  redo_ok : bool;
  recovery_seconds : float;
  wasted_seconds : float;
}

type report = {
  scheme : Scheme.kind;
  technique : Env.technique;
  w : int;
  n : int;
  day : int;
  points : point_result list;
  passed : bool;
}

(* --- the sweep ------------------------------------------------------- *)

(* A recovered instance (a reopen kill replaces the crashed one),
   whether recovery rolled the operation forward, and its model cost. *)
type 'i recovered = { survivor : 'i; forward : bool; seconds : float }

(* What the sweep needs of an operation under test.  ['i] is one live
   instance, ['r] a capture of the answers it serves. *)
type ('i, 'r) subject = {
  start : string option -> 'i;
      (* a fresh instance brought up to just before the operation,
         file-backed in the directory when one is given *)
  disk : 'i -> Disk.t;  (* the disk the operation runs on *)
  day : 'i -> int;
  capture : 'i -> 'r;
  operate : 'i -> sibling:(Disk.t -> unit) -> unit;
      (* raises [Disk.Disk_error] where an armed fault fires; [sibling]
         sees every disk the operation creates *)
  isolation : 'i -> before:'r -> 'i -> bool;
      (* given the twin after the operation: the served-probe oracle *)
  rolls_forward : bool;  (* recovery may complete the operation *)
  recover : tail:bool -> 'i -> 'i recovered;
      (* by the sweep's kill mode; [tail] also truncates the block
         file behind a reopen kill *)
  space_ok : 'i -> bool;
  redo : ('i -> unit) option;
      (* re-run the operation after recovery; it must reach the twin *)
  release : 'i -> unit;
}

(* One point of the sweep: the fault, where it is armed, and the kill
   mode's variants (a recovery-time second fault, a truncated tail). *)
type plan = {
  p_point : Disk.fault_point;
  p_mode : Disk.fault_mode;
  p_sibling : bool;
  p_second : Disk.fault_point option;
  p_tail : bool;
}

(* Run [operate] bracketed by counter snapshots of [disk] and of every
   disk it creates: the operation's fault points, each tagged with
   whether it lands on a created (sibling) disk. *)
let discover disk operate =
  let sibling = ref None in
  let before = Disk.counters disk in
  operate ~sibling:(fun d -> sibling := Some (d, Disk.counters d));
  let points d before on_sibling =
    List.map
      (fun p -> (p, on_sibling))
      (Disk.fault_schedule ~before ~after:(Disk.counters d))
  in
  points disk before false
  @ match !sibling with Some (d, b) -> points d b true | None -> []

(* Seeks and flushes fail-stop; writes fail-stop and tear. *)
let modes (p : Disk.fault_point) =
  match p.Disk.target with
  | Disk.On_write -> [ Disk.Fail_stop; Disk.Torn ]
  | Disk.On_seek | Disk.On_flush -> [ Disk.Fail_stop ]

(* First, middle and last of a list — the bounded selection that keeps
   the quadratic double kill affordable while still covering both
   edges and the bulk of each schedule. *)
let ends_and_middle = function
  | [] -> []
  | [ x ] -> [ x ]
  | l ->
    let n = List.length l in
    List.sort_uniq compare
      [ List.nth l 0; List.nth l (n / 2); List.nth l (n - 1) ]

(* A fresh instance run into [plan]'s fault: the instance, whether the
   fault fired, the model time the doomed operation burnt, and a
   disarm for every disk the point armed. *)
let crash_at s ~dir plan =
  (* Each point gets a fresh flight-recorder window, so a failing
     point's dump holds exactly the events of that point's run. *)
  Wave_obs.Recorder.clear ();
  let inst = s.start dir in
  (* Replay the twin's pre-operation capture: with a buffer pool
     attached those probes and scans change the pool's residency, and
     the instance must enter the operation with the exact pool state
     the twin had when the schedule was discovered. *)
  ignore (s.capture inst);
  let disk = s.disk inst in
  let faults =
    (plan.p_point, plan.p_mode)
    :: List.map (fun p -> (p, Disk.Fail_stop)) (Option.to_list plan.p_second)
  in
  if not plan.p_sibling then Disk.arm_faults disk faults;
  let armed = ref [ disk ] in
  let sibling d =
    armed := d :: !armed;
    if plan.p_sibling then Disk.arm_faults d faults
  in
  let t0 = Disk.elapsed disk in
  let fired =
    match s.operate inst ~sibling with
    | () -> false
    | exception Disk.Disk_error _ -> true
  in
  ( inst,
    fired,
    Disk.elapsed disk -. t0,
    fun () -> List.iter Disk.clear_fault !armed )

let run_point s ~before ~after ~isolated ~dir plan =
  let inst, fired, wasted_seconds, disarm = crash_at s ~dir plan in
  (* Double kill: the fault queue popped to the second plan when the
     first fired, so recovery itself crashes at its own point. *)
  let fired =
    fired
    && (plan.p_second = None
       ||
       match s.recover ~tail:false inst with
       | _ -> false
       | exception Disk.Disk_error _ -> true)
  in
  disarm ();
  let iso_ok = isolated inst in
  (* Without a fire the schedule was not exact — the twin and the
     instance diverged; the point is reported as failed. *)
  let r =
    if fired then s.recover ~tail:plan.p_tail inst
    else { survivor = inst; forward = false; seconds = 0.0 }
  in
  let inst = r.survivor in
  let now = s.capture inst in
  let res =
    {
      point = plan.p_point;
      mode = plan.p_mode;
      on_sibling = plan.p_sibling;
      second = plan.p_second;
      torn_tail = plan.p_tail;
      fired;
      rolled_forward = r.forward;
      recovered_day = s.day inst;
      consistent = now = before || (s.rolls_forward && now = after);
      space_ok = s.space_ok inst;
      iso_ok;
      redo_ok =
        (match s.redo with
        | None -> true
        | Some redo -> (
          match redo inst with
          | () -> s.capture inst = after && s.space_ok inst
          | exception _ -> false));
      recovery_seconds = r.seconds;
      wasted_seconds;
    }
  in
  s.release inst;
  res

let point_passed r =
  r.fired && r.consistent && r.space_ok && r.iso_ok && r.redo_ok

(* Double kill: crash at [first] once and enumerate the fault points of
   the recovery that follows. *)
let recovery_points s first =
  let inst, fired, _, disarm = crash_at s ~dir:None first in
  disarm ();
  let points =
    if fired then
      discover (s.disk inst) (fun ~sibling:_ ->
          ignore (s.recover ~tail:false inst))
    else []
  in
  s.release inst;
  List.map fst points

let plans s ~kill schedule =
  let single (p_point, p_sibling) =
    List.map
      (fun p_mode ->
        { p_point; p_mode; p_sibling; p_second = None; p_tail = false })
      (modes p_point)
  in
  match kill with
  | In_memory -> List.concat_map single schedule
  | Reopen _ ->
    (* The last write's torn point also runs with the block file's tail
       truncated behind the kill. *)
    let last_write =
      List.fold_left
        (fun acc ((p : Disk.fault_point), _) ->
          if p.Disk.target = Disk.On_write then Some p else acc)
        None schedule
    in
    List.concat_map
      (fun pl ->
        if pl.p_mode = Disk.Torn && Some pl.p_point = last_write then
          [ pl; { pl with p_tail = true } ]
        else [ pl ])
      (List.concat_map single schedule)
  | Double ->
    List.concat_map
      (fun first ->
        List.map
          (fun p -> { first with p_second = Some p })
          (ends_and_middle (recovery_points s first)))
      (List.concat_map single (ends_and_middle schedule))

let mode_name = function
  | Disk.Fail_stop -> "fail-stop"
  | Disk.Torn -> "torn"
  | Disk.Stall _ -> "stall"

let slug pl =
  Format.asprintf "%s%a_%s%s%s"
    (if pl.p_sibling then "sibling_" else "")
    Disk.pp_fault_point pl.p_point (mode_name pl.p_mode)
    (if pl.p_tail then "_tail" else "")
    (match pl.p_second with
    | None -> ""
    | Some p -> Format.asprintf "_then_%a" Disk.pp_fault_point p)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter
      (fun name -> rm_rf (Filename.concat path name))
      (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

(* A failing point's flight dump, creating missing parent directories.
   It never fails the sweep: a dump that cannot be written is reported
   on stderr. *)
let dump_flight ~reason path =
  match
    Store_dir.init (Filename.dirname path);
    Wave_obs.Recorder.dump_to ~reason path
  with
  | () -> ()
  | exception ((Sys_error _ | Unix.Unix_error _) as e) ->
    Printf.eprintf "crash sweep: flight dump %s not written: %s\n%!" path
      (Printexc.to_string e)

let drive s ~kill ~artifact_dir =
  (* Under a reopen kill every instance — the twin included — lives in
     its own checkpoint directory under the kill directory. *)
  let root =
    match kill with Reopen dir -> Some dir | In_memory | Double -> None
  in
  Option.iter Store_dir.init root;
  let twin_dir = Option.map (fun d -> Filename.concat d "twin") root in
  Option.iter rm_rf twin_dir;
  (* Uncrashed twin: the operation's fault points and the reference
     answers on both sides of it. *)
  let twin = s.start twin_dir in
  let before = s.capture twin in
  let schedule = discover (s.disk twin) (s.operate twin) in
  let after = s.capture twin in
  let isolated = s.isolation twin ~before in
  s.release twin;
  Option.iter rm_rf twin_dir;
  List.map
    (fun pl ->
      let slug = slug pl in
      let dir = Option.map (fun d -> Filename.concat d slug) root in
      Option.iter rm_rf dir;
      let res = run_point s ~before ~after ~isolated ~dir pl in
      (* Passing points clean up after themselves; a failing point
         keeps its checkpoint directory with the flight dump inside, or
         leaves the dump under [artifact_dir]. *)
      (if point_passed res then Option.iter rm_rf dir
       else
         let flight =
           match dir with
           | Some d -> Some (Filename.concat d "flight.jsonl")
           | None ->
             Option.map
               (fun a -> Filename.concat a (slug ^ ".flight.jsonl"))
               artifact_dir
         in
         Option.iter (dump_flight ~reason:("sweep failure: " ^ slug)) flight);
      res)
    (plans s ~kill schedule)

(* --- the wave transition -------------------------------------------- *)

(* Canonical answers of the wave at a day: every value's window-bounded
   TimedIndexProbe plus the window TimedSegmentScan, each sorted by rid
   (packed rebuilds may reorder equal keys). *)
type reference = {
  ref_day : int;
  probes : (int * int list) list;
  scan : int list;
}

let rids entries =
  List.sort compare (List.map (fun (e : Entry.t) -> e.Entry.rid) entries)

let capture ~w frame day =
  let t1 = day - w + 1 and t2 = day in
  {
    ref_day = day;
    probes =
      List.init vocab (fun v ->
          (v + 1, rids (Frame.timed_index_probe frame ~t1 ~t2 ~value:(v + 1))));
    scan = rids (Frame.timed_segment_scan frame ~t1 ~t2);
  }

(* Probes a concurrent sweep serves mid-transition all use the
   pre-transition window [day-w, day-1] — the window a reader that
   arrived before the swap is entitled to; that is exactly the window
   the pre-transition capture records, so its probes double as the
   snapshot-isolation reference. *)
let old_window_probes ~w frame day =
  List.init vocab (fun v ->
      ( v + 1,
        rids
          (Frame.timed_index_probe frame ~t1:(day - w) ~t2:(day - 1)
             ~value:(v + 1)) ))

(* A wave instance and the probes it served as [(value, rids,
   against_snapshot)]. *)
type wave = { cp : Checkpoint.t; mutable served : (int * int list * bool) list }

let wave_disk i = (Checkpoint.env i.cp).Env.disk

(* Drive one transition with a deterministic mid-transition arrival
   schedule under epoch isolation: six probes (one per value), 0.05
   model-seconds apart, starting when the transition does.  Shadow
   techniques serve due arrivals against the snapshot epoch at every
   completed disk operation and drain the stragglers against the
   retired epoch after the commit; In_place cannot isolate readers from
   its own mutation, so its arrivals queue until the commit and run
   against the new wave.  The drain runs with the fault still armed,
   so the discovered schedule — the twin runs this same function —
   includes points inside the epoch-swap and reader-drain window, not
   just the transition proper. *)
let drive_concurrent i ~w ~day =
  let cp = i.cp in
  let disk = wave_disk i in
  let in_place = (Checkpoint.env cp).Env.technique = Env.In_place in
  Wave_epoch.Epoch.attach disk;
  let slots =
    List.map
      (fun (idx, ds) ->
        (idx, fun ~t1 ~t2 -> Dayset.exists (fun d -> d >= t1 && d <= t2) ds))
      (Frame.snapshot (Checkpoint.frame cp))
  in
  let ep = Wave_epoch.Epoch.open_ disk ~slots in
  let t1 = day - w and t2 = day - 1 in
  let t0 = Disk.elapsed disk in
  let arrivals =
    ref (List.init 6 (fun i -> (t0 +. (0.05 *. float_of_int (i + 1)), i + 1)))
  in
  let serve_snapshot v =
    Wave_epoch.Epoch.acquire ep;
    Fun.protect
      ~finally:(fun () -> Wave_epoch.Epoch.release ep)
      (fun () ->
        i.served <-
          (v, rids (Wave_epoch.Epoch.probe ep ~value:v ~t1 ~t2), true)
          :: i.served)
  in
  let rec tick () =
    match !arrivals with
    | (a, v) :: rest when a <= Disk.elapsed disk ->
      arrivals := rest;
      serve_snapshot v;
      tick ()
    | _ -> ()
  in
  match
    (if in_place then Checkpoint.transition cp
     else
       Wave_epoch.Epoch.Interleave.run disk ~on_op:tick (fun () ->
           Checkpoint.transition cp));
    (* Post-commit drain: stragglers resolve against the retired
       snapshot (or, In_place, the new wave), then the owner lease
       drops and the epoch drains for real. *)
    List.iter
      (fun (_, v) ->
        if in_place then
          i.served <-
            ( v,
              rids
                (Frame.timed_index_probe (Checkpoint.frame cp) ~t1 ~t2
                   ~value:v),
              false )
            :: i.served
        else serve_snapshot v)
      !arrivals;
    arrivals := [];
    Wave_epoch.Epoch.release ep;
    Wave_epoch.Epoch.detach disk
  with
  | () -> ()
  | exception (Disk.Disk_error _ as e) ->
    (* A mid-transition fault already ran the checkpoint crash path
       (which tears the epoch down); a fault in the drain above did
       not — make the teardown unconditional (idempotent). *)
    Wave_epoch.Epoch.on_crash disk;
    raise e

(* Snapshot isolation held iff every probe served against the snapshot
   matches the pre-transition reference and every queued (In_place)
   probe matches the post-transition wave over the same window — and no
   epoch outlived the run. *)
let iso_consistent disk ~before_ref ~after_conc served =
  Wave_epoch.Epoch.live_epochs disk = 0
  && List.for_all
       (fun (v, answer, snap) ->
         match
           if snap then List.assoc_opt v before_ref.probes
           else List.assoc_opt v after_conc
         with
         | Some expect -> answer = expect
         | None -> false)
       served

(* No leaked and no double-freed space: the allocator's live count is
   exactly what the surviving constituents claim, and nothing is left
   marked torn. *)
let space_consistent cp =
  let disk = (Checkpoint.env cp).Env.disk in
  let frame = Checkpoint.frame cp in
  let claimed = ref 0 in
  for j = 1 to Frame.n frame do
    claimed := !claimed + Index.allocated_blocks (Frame.slot_index frame j)
  done;
  Disk.live_blocks disk = !claimed && Disk.torn_count disk = 0

(* Each instance's disk dies with it: free its buffer-pool registry
   slot (a no-op when running uncached) and close its block file (a
   no-op on the simulated disk). *)
let release_wave i =
  let disk = wave_disk i in
  Wave_cache.Cache.detach disk;
  Disk.close disk

let transition_subject ~store ?icfg ~concurrent ~kill ~scheme ~technique ~w
    ~n ~day () =
  let file_icfg dir =
    {
      (Option.value icfg ~default:Index.default_config) with
      Index.disk_backend = Disk.File (Store_dir.blocks_path dir);
    }
  in
  let start dir =
    Option.iter Store_dir.init dir;
    let icfg = match dir with Some d -> Some (file_icfg d) | None -> icfg in
    let cp =
      Checkpoint.start ?dir scheme (Env.create ?icfg ~technique ~store ~w ~n ())
    in
    Checkpoint.advance_to cp (day - 1);
    { cp; served = [] }
  in
  let recover ~tail i =
    let cp, r =
      match kill with
      | In_memory | Double ->
        (* A fault in the post-commit drain window fires outside
           [Checkpoint.transition]: the transition is durable, but the
           process still dies there — model it before recovering. *)
        if not (Checkpoint.crashed i.cp) then Checkpoint.kill i.cp;
        (i.cp, Checkpoint.recover i.cp)
      | Reopen _ ->
        (* The kill: the process dies here.  Scheme, buffer pool, epoch
           registry and allocator evaporate; only the checkpoint
           directory survives. *)
        Wave_epoch.Epoch.on_crash (wave_disk i);
        release_wave i;
        let dir = Option.get (Checkpoint.dir i.cp) in
        let icfg = file_icfg dir in
        if tail then begin
          (* The platter also lost the tail of the block file — the
             torn last write taken to its worst case. *)
          let blocks = Store_dir.blocks_path dir in
          let size = (Unix.stat blocks).Unix.st_size in
          let bs = icfg.Index.entry_bytes in
          Unix.truncate blocks (size / bs / 2 * bs)
        end;
        Checkpoint.reopen ~icfg ~dir ~store ()
    in
    {
      survivor = { cp; served = [] };
      forward = r.Checkpoint.rolled_forward;
      seconds = r.Checkpoint.recovery_seconds;
    }
  in
  let day_of i = Checkpoint.current_day i.cp in
  {
    start;
    disk = wave_disk;
    day = day_of;
    capture = (fun i -> capture ~w (Checkpoint.frame i.cp) (day_of i));
    operate =
      (fun i ~sibling:_ ->
        if concurrent then drive_concurrent i ~w ~day
        else Checkpoint.transition i.cp);
    isolation =
      (fun twin ~before ->
        let after_conc =
          if concurrent then old_window_probes ~w (Checkpoint.frame twin.cp) day
          else []
        in
        fun i ->
          iso_consistent (wave_disk i) ~before_ref:before ~after_conc i.served);
    rolls_forward = true;
    recover;
    space_ok = (fun i -> space_consistent i.cp);
    redo = None;
    release = release_wave;
  }

(* --- the router split ----------------------------------------------- *)

(* The router's answers at its current day, plus its committed shard
   map as (partition generation, arms, completed splits). *)
type shard_reference = {
  map : int * int * int;
  shard_probes : Entry.t list array;
  shard_scan : Entry.t list;
}

let capture_router ~w r =
  let day = Router.current_day r in
  let t1 = day - w + 1 and t2 = day in
  {
    map =
      (Partition.generation (Router.partition r), Router.arms r, Router.splits r);
    shard_probes =
      Array.init vocab (fun i -> fst (Router.probe r ~value:(i + 1) ~t1 ~t2));
    shard_scan = fst (Router.scan r ~t1 ~t2);
  }

(* Split arm 0 at [day].  Recovery always lands on the pre-split map: a
   fault on the victim's disk or on the fresh sibling's must roll back,
   serve mid-split probes from the pre-split snapshot, leak nothing,
   and leave a split that re-runs to the twin's post-split answers. *)
let split_subject ~store ?icfg ~partition ~shards ~scheme ~technique ~w ~n ~day
    () =
  (* Two mid-split probes of values the victim owns. *)
  let serve =
    let p0 = Partition.create partition ~arms:shards ~vocab in
    List.init vocab (fun i -> i + 1)
    |> List.filter (fun v -> Partition.arm_of_value p0 v = 0)
    |> List.filteri (fun i _ -> i < 2)
    |> List.map (fun v -> (v, day - w + 1, day))
  in
  let split r ~sibling =
    ignore (Router.split r ~arm:0 ~serve ~on_sibling:sibling)
  in
  let no_leaks r =
    match Router.check_no_leaks r with
    | () -> true
    | exception Failure _ -> false
  in
  {
    start =
      (fun _ ->
        let r =
          Router.create ?icfg ~kind:scheme ~technique ~partition ~shards ~vocab
            ~store ~w ~n ()
        in
        while Router.current_day r < day do
          ignore (Router.advance r)
        done;
        r);
    disk = (fun r -> Router.arm_disk r 0);
    day = Router.current_day;
    capture = capture_router ~w;
    operate = split;
    isolation =
      (fun _ ~before ->
        let expected =
          List.map (fun (v, _, _) -> before.shard_probes.(v - 1)) serve
        in
        fun r ->
          let served = Router.last_served r in
          List.filteri (fun i _ -> i < List.length served) expected = served);
    rolls_forward = false;
    recover =
      (fun ~tail:_ r ->
        Router.recover r;
        { survivor = r; forward = false; seconds = 0.0 });
    space_ok = no_leaks;
    redo = Some (fun r -> split r ~sibling:ignore);
    release = ignore;
  }

let sweep ?(store = default_store) ?icfg ?artifact_dir ?(op = Transition)
    ?(kill = In_memory) ~scheme ~technique ~w ~n ~day () =
  if day <= w then invalid_arg "Crash_harness.sweep: day must exceed w";
  let points =
    match op with
    | Transition | Concurrent_transition ->
      let concurrent = op = Concurrent_transition in
      if concurrent && kill = Double then
        invalid_arg
          "Crash_harness.sweep: a double kill runs no concurrent probes";
      drive ~kill ~artifact_dir
        (transition_subject ~store ?icfg ~concurrent ~kill ~scheme ~technique ~w
           ~n ~day ())
    | Split { partition; shards } ->
      if kill <> In_memory then
        invalid_arg "Crash_harness.sweep: a split is killed in memory only";
      drive ~kill ~artifact_dir
        (split_subject ~store ?icfg ~partition ~shards ~scheme ~technique ~w ~n
           ~day ())
  in
  (* A double kill whose recoveries charge no I/O has no second fault to
     inject: it passes vacuously, the single-fault sweep covers it. *)
  let passed =
    (points <> [] || kill = Double) && List.for_all point_passed points
  in
  { scheme; technique; w; n; day; points; passed }

let pp_point_result ppf r =
  let flags =
    List.filter_map
      (fun (ok, flag) -> if ok then None else Some (" " ^ flag))
      [
        (r.fired, "DID-NOT-FIRE");
        (r.consistent, "INCONSISTENT");
        (r.space_ok, "SPACE-LEAK");
        (r.iso_ok, "ISO-VIOLATION");
        (r.redo_ok, "REDO-FAILED");
      ]
  in
  Format.fprintf ppf "%s%a %s%s%s: %s day=%d recover=%.3fs wasted=%.3fs%s"
    (if r.on_sibling then "sibling " else "")
    Disk.pp_fault_point r.point (mode_name r.mode)
    (if r.torn_tail then "+tail" else "")
    (match r.second with
    | None -> ""
    | Some p -> Format.asprintf " then %a fail-stop" Disk.pp_fault_point p)
    (if r.rolled_forward then "roll-forward" else "roll-back")
    r.recovered_day r.recovery_seconds r.wasted_seconds
    (String.concat "" flags)

let pp_report ppf t =
  Format.fprintf ppf "%s x %s (W=%d n=%d day=%d): %d points %s@."
    (Scheme.name t.scheme)
    (Env.technique_name t.technique)
    t.w t.n t.day (List.length t.points)
    (if t.passed then "PASS" else "FAIL");
  List.iter
    (fun r ->
      if not (point_passed r) then Format.fprintf ppf "  %a@." pp_point_result r)
    t.points
