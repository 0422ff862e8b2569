(* The three workloads.

   Each is a closed loop with one client: a round builds the initial
   W-day wave (timed as set-up, several times), then for every simulated
   day absorbs that day's batch and afterwards serves that day's
   queries, each query issued when the previous one returned (the
   paper's order).  A run repeats whole rounds over the same generated
   inputs until its time is spent, so the deterministic figures (space,
   writes, model-seconds) can be compared across rounds, and every timed
   operation has a fastest repetition ({!Pctl.best}).

   Every answer is checked against {!Oracle} outside the timed region.
   With [~tr] a round is traced: each call into a layer is wrapped in a
   {!Spans} span, Frame queries are issued as the per-constituent Index
   calls Frame itself makes, and counters are read as deltas around the
   calls they are charged to. *)

open Wave_core
open Wave_storage
open Wave_disk
module Cache = Wave_cache.Cache
module Epoch = Wave_epoch.Epoch
module Metrics = Wave_obs.Metrics
module Recorder = Wave_obs.Recorder
module Router = Wave_shard.Router
module Partition = Wave_shard.Partition
module Parallel = Wave_model.Parallel
module Netnews = Wave_workload.Netnews
module Tpcd = Wave_workload.Tpcd
module Query_gen = Wave_workload.Query_gen

let entry_bytes = Index.default_config.Index.entry_bytes

(* ------------------------------------------------------------------ *)
(* Counter snapshots                                                   *)
(* ------------------------------------------------------------------ *)

(* One float per counter, summed over the workload's disks, so phase
   deltas are plain array arithmetic. *)
let k_seeks = 0
let k_blocks_read = 1
let k_blocks_written = 2
let k_preads = 3
let k_pwrites = 4
let k_fsyncs = 5
let k_renames = 6
let k_bytes_read = 7
let k_bytes_written = 8
let k_retries = 9
let k_io_wall_s = 10
let k_hits = 11
let k_misses = 12
let k_meta_hits = 13
let k_meta_misses = 14
let k_evictions = 15
let k_flushed = 16
let k_events = 17
let n_keys = 18

let counter name =
  match Metrics.lookup name with Some (`Counter v) -> v | _ -> 0.0

let hist_total name =
  match Metrics.lookup name with
  | Some (`Histogram (Some h)) -> float_of_int h.Metrics.count *. h.Metrics.mean
  | _ -> 0.0

let snap disks =
  let s = Array.make n_keys 0.0 in
  let bump k v = s.(k) <- s.(k) +. float_of_int v in
  List.iter
    (fun d ->
      let c = Disk.counters d in
      bump k_seeks c.Disk.seeks;
      bump k_blocks_read c.Disk.blocks_read;
      bump k_blocks_written c.Disk.blocks_written;
      match Cache.find d with
      | None -> ()
      | Some p ->
        let st = Cache.stats p in
        bump k_hits st.Cache.hits;
        bump k_misses st.Cache.misses;
        bump k_meta_hits st.Cache.meta_hits;
        bump k_meta_misses st.Cache.meta_misses;
        bump k_evictions st.Cache.evictions;
        bump k_flushed st.Cache.flushed_blocks)
    disks;
  s.(k_preads) <- counter "disk.file.preads";
  s.(k_pwrites) <- counter "disk.file.pwrites";
  s.(k_fsyncs) <- counter "disk.file.fsyncs";
  s.(k_renames) <- counter "disk.file.renames";
  s.(k_bytes_read) <- counter "disk.file.bytes_read";
  s.(k_bytes_written) <- counter "disk.file.bytes_written";
  s.(k_retries) <- counter "disk.file.retries";
  s.(k_io_wall_s) <- hist_total "disk.file.io_wall_s";
  s.(k_events) <- float_of_int (Recorder.total ());
  s

let zero () = Array.make n_keys 0.0

(* [acc += after - before] *)
let accumulate acc ~before ~after =
  Array.iteri (fun i x -> acc.(i) <- acc.(i) +. (x -. before.(i))) after

(* ------------------------------------------------------------------ *)
(* Accumulators                                                        *)
(* ------------------------------------------------------------------ *)

(* End-to-end samples, over every round of the run. *)
type e2e = {
  tally : Oracle.tally;
  setup : Pctl.samples;  (** s *)
  recovery : Pctl.samples;  (** s *)
  probe : Pctl.samples;  (** µs *)
  scan : Pctl.samples;  (** ms, scans and aggregates *)
  transition : Pctl.samples;  (** ms *)
  best_query : Pctl.best;  (** s, each query of a round: its fastest repetition *)
  best_scan : Pctl.best;  (** ms, each scan or aggregate of a round *)
  best_transition : Pctl.best;  (** ms, each day of a round *)
  mutable ingested : int;  (** postings absorbed by timed transitions *)
  mutable queries : int;
  mutable serve_s : float;  (** wall seconds spent inside queries *)
  mutable transition_s : float;
  mutable rounds : int;
  mutable determ : (float * float * float) option;
      (** space_amp, write_amp, model_s_per_day of the first round *)
  mutable determ_repeats : bool;  (** every later round matched it *)
  mutable op_s_traced : float list;  (** per traced round: Σ op wall *)
  mutable op_s_untraced : float list;  (** per untraced round after the first *)
  round_ingest : Pctl.samples;  (** per round: postings / transition wall s *)
  day_qps : Pctl.samples;  (** per day: that day's queries / their serving wall s *)
  mutable mark : mark;  (** the accumulators when this round began *)
  mutable round_lines : string list;  (** per-round summaries, newest first *)
}

and mark = {
  at_probes : int;
  at_scans : int;
  at_transitions : int;
  at_ingested : int;
  at_transition_s : float;
  at_queries : int;
  at_serve_s : float;
}

(* Per-layer sums over the traced rounds. *)
type layer = {
  mutable days : int;
  loop : float array;  (** counter deltas over the day loops *)
  mutable probes : int;  (** probes of every kind *)
  probe_phase : float array;  (** deltas over probe phases *)
  mutable frame_probes : int;
  frame_probe_phase : float array;  (** deltas over live-frame probe phases *)
  mutable scans : int;  (** scans and aggregates *)
  scan_phase : float array;
  mutable examined : int;  (** entries held by the buckets/constituents queries touched *)
  mutable returned : int;
  mutable minor_words : float;  (** allocated by frame probes *)
  mutable deferred_peak : int;
  mutable pinned : int;
  mutable opens : int;
  mutable ops : int;  (** transitions + queries, for recorder events per op *)
  mutable rebuilt : int;
  mutable peak_blocks : int;
  mutable fragmentation : float;
  mutable skew : float;
  mutable speedup : float;
}

type run = {
  e2e : e2e;
  layer : layer;
  spans : Spans.t;
  oracle : Oracle.t;
  days : Inputs.days;
  work_dir : string;
}

let make_run ~days ~work_dir =
  {
    e2e =
      {
        tally = Oracle.tally ();
        setup = Pctl.samples ();
        recovery = Pctl.samples ();
        probe = Pctl.samples ();
        scan = Pctl.samples ();
        transition = Pctl.samples ();
        best_query = Pctl.best ();
        best_scan = Pctl.best ();
        best_transition = Pctl.best ();
        ingested = 0;
        queries = 0;
        serve_s = 0.0;
        transition_s = 0.0;
        rounds = 0;
        determ = None;
        determ_repeats = true;
        op_s_traced = [];
        op_s_untraced = [];
        round_ingest = Pctl.samples ();
        day_qps = Pctl.samples ();
        mark =
          {
            at_probes = 0;
            at_scans = 0;
            at_transitions = 0;
            at_ingested = 0;
            at_transition_s = 0.0;
            at_queries = 0;
            at_serve_s = 0.0;
          };
        round_lines = [];
      };
    layer =
      {
        days = 0;
        loop = zero ();
        probes = 0;
        probe_phase = zero ();
        frame_probes = 0;
        frame_probe_phase = zero ();
        scans = 0;
        scan_phase = zero ();
        examined = 0;
        returned = 0;
        minor_words = 0.0;
        deferred_peak = 0;
        pinned = 0;
        opens = 0;
        ops = 0;
        rebuilt = 0;
        peak_blocks = 0;
        fragmentation = 0.0;
        skew = 0.0;
        speedup = 0.0;
      };
    spans = Spans.create ();
    oracle = Oracle.build days;
    days;
    work_dir;
  }

let ns_to_s ns = float_of_int ns *. 1e-9

let note_query r ns ~samples ~scale =
  Pctl.add samples (float_of_int ns *. scale);
  Pctl.offer r.e2e.best_query (ns_to_s ns);
  r.e2e.queries <- r.e2e.queries + 1;
  r.e2e.serve_s <- r.e2e.serve_s +. ns_to_s ns

let note_probe r ns = note_query r ns ~samples:r.e2e.probe ~scale:1e-3

let note_scan r ns =
  note_query r ns ~samples:r.e2e.scan ~scale:1e-6;
  Pctl.offer r.e2e.best_scan (float_of_int ns *. 1e-6)

(* A day's query throughput, from the query totals when its queries
   began; the median day is printed as query_qps. *)
let note_day_queries r ~queries0 ~serve_s0 =
  let e = r.e2e in
  if e.queries > queries0 then
    Pctl.add e.day_qps (float_of_int (e.queries - queries0) /. (e.serve_s -. serve_s0))

let note_transition r ns ~postings =
  let ms = float_of_int ns *. 1e-6 in
  Pctl.add r.e2e.transition ms;
  Pctl.offer r.e2e.best_transition ms;
  r.e2e.transition_s <- r.e2e.transition_s +. ns_to_s ns;
  r.e2e.ingested <- r.e2e.ingested + postings

(* A query that raised is counted and its answer treated as missing. *)
let guarded r f =
  try Some (f ())
  with e ->
    let t = r.e2e.tally in
    t.Oracle.attempted <- t.Oracle.attempted + 1;
    t.Oracle.exceptions <- t.Oracle.exceptions + 1;
    prerr_endline ("perfbench: query raised " ^ Printexc.to_string e);
    None

(* The median day's model-seconds.  On scam-probe some seeds hit seek
   storms on the weekend days (the new constituent lands on blocks the
   pool does not hold, its writes evict hot frames, and the next probes
   miss and seek about twice as often), so the mean day falls into
   clusters by seed while the median day does not; the mean is printed
   in the round line and the storms show in disk.seeks_per_day. *)
let median_day samples = Pctl.median (Pctl.sorted samples)

let note_round r ~traced ~op_s ~space_amp ~write_amp ~model_s_per_day ~model_mean =
  let e = r.e2e in
  let d = (space_amp, write_amp, model_s_per_day) in
  (match e.determ with
  | None -> e.determ <- Some d
  | Some d0 -> if d0 <> d then e.determ_repeats <- false);
  if traced then e.op_s_traced <- op_s :: e.op_s_traced
  else if e.rounds > 0 then e.op_s_untraced <- op_s :: e.op_s_untraced;
  (* Ingest throughput is reported as the median round: each round
     repeats the same work, so one round slowed by the machine does not
     move it. *)
  let m = e.mark in
  let ingest =
    float_of_int (e.ingested - m.at_ingested) /. (e.transition_s -. m.at_transition_s)
  and qps = float_of_int (e.queries - m.at_queries) /. (e.serve_s -. m.at_serve_s) in
  Pctl.add e.round_ingest ingest;
  let med s from =
    if Pctl.count s > from then Pctl.median (Pctl.sorted_from s ~from) else Float.nan
  in
  e.round_lines <-
    Printf.sprintf
      "round %d%s: set-up %.4g s, transition p50 %.4g ms, probe p50 %.4g us, scan p50 %.4g \
       ms, ingest %.4g postings/s, %.4g queries/s, model-s per day %.4g median %.4g mean"
      e.rounds (if traced then " (traced)" else "") (Pctl.last e.setup)
      (med e.transition m.at_transitions) (med e.probe m.at_probes) (med e.scan m.at_scans)
      ingest qps model_s_per_day model_mean
    :: e.round_lines;
  e.mark <-
    {
      at_probes = Pctl.count e.probe;
      at_scans = Pctl.count e.scan;
      at_transitions = Pctl.count e.transition;
      at_ingested = e.ingested;
      at_transition_s = e.transition_s;
      at_queries = e.queries;
      at_serve_s = e.serve_s;
    };
  (* Every round repeats the same operations in the same order. *)
  List.iter Pctl.restart [ e.best_query; e.best_scan; e.best_transition ];
  e.rounds <- e.rounds + 1

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir r name =
  let dir = Filename.concat r.work_dir name in
  rm_rf dir;
  Store_dir.init dir;
  dir

let in_range days ~t1 ~t2 = Dayset.exists (fun d -> d >= t1 && d <= t2) days

(* Set-up is timed [setups_per_round] times a round: [discard k] builds
   and throws away waves 1 .. setups_per_round - 1, and the round goes on
   with the last.  The heap is compacted before each, outside the timed
   region, so every set-up starts from the same clean heap. *)
let setups_per_round = 5

let repeat_setup discard =
  for k = 1 to setups_per_round - 1 do
    discard k;
    Gc.compact ()
  done

(* ------------------------------------------------------------------ *)
(* Traced and untraced query paths                                     *)
(* ------------------------------------------------------------------ *)

(* TimedIndexProbe on the live frame.  Traced, it is issued as the
   per-constituent calls Frame.timed_index_probe makes (same slots, same
   order, same charges), each under an index.probe child span. *)
let frame_probe tr frame ~value ~t1 ~t2 =
  match tr with
  | None -> Frame.timed_index_probe frame ~t1 ~t2 ~value
  | Some s ->
    let qid = Spans.new_query s in
    let sp = Spans.enter s Spans.Frame_probe ~parent:(-1) ~qid in
    let acc = ref [] in
    for j = 1 to Frame.n frame do
      if in_range (Frame.slot_days frame j) ~t1 ~t2 then begin
        let c = Spans.enter s Spans.Index_probe ~parent:sp ~qid in
        let got = Index.probe_timed (Frame.slot_index frame j) value ~t1 ~t2 in
        Spans.leave s c;
        acc := !acc @ got
      end
    done;
    Spans.leave s sp;
    !acc

(* TimedSegmentScan on the live frame, traced as per-constituent
   Index.scan_timed calls. *)
let frame_scan tr frame ~t1 ~t2 =
  match tr with
  | None -> Frame.timed_segment_scan frame ~t1 ~t2
  | Some s ->
    let qid = Spans.new_query s in
    let sp = Spans.enter s Spans.Frame_scan ~parent:(-1) ~qid in
    let acc = ref [] in
    for j = 1 to Frame.n frame do
      if in_range (Frame.slot_days frame j) ~t1 ~t2 then begin
        let c = Spans.enter s Spans.Index_scan ~parent:sp ~qid in
        let got = Index.scan_timed (Frame.slot_index frame j) ~t1 ~t2 in
        Spans.leave s c;
        acc := !acc @ got
      end
    done;
    Spans.leave s sp;
    !acc

(* Q1-style Sum_info aggregate; traced as the scan Frame.timed_aggregate
   runs plus the same fold. *)
let frame_sum tr frame ~t1 ~t2 =
  match tr with
  | None -> Frame.timed_aggregate frame ~t1 ~t2 ~op:Frame.Sum_info
  | Some _ ->
    let entries = frame_scan tr frame ~t1 ~t2 in
    Some (List.fold_left (fun acc (e : Entry.t) -> acc + e.Entry.info) 0 entries)

let span tr nm f =
  match tr with
  | None -> f ()
  | Some s -> Spans.with_span s nm ~parent:(-1) ~qid:(Spans.new_query s) (fun _ -> f ())

(* A pre-swap reader of the retired epoch: acquire, probe, release. *)
let epoch_read tr e ~value ~t1 ~t2 =
  match tr with
  | None ->
    Epoch.acquire e;
    let got = Epoch.probe e ~value ~t1 ~t2 in
    Epoch.release e;
    got
  | Some s ->
    let qid = Spans.new_query s in
    Spans.with_span s Spans.Epoch_read ~parent:(-1) ~qid (fun sp ->
        Epoch.acquire e;
        let got =
          Spans.with_span s Spans.Epoch_probe ~parent:sp ~qid (fun _ ->
              Epoch.probe e ~value ~t1 ~t2)
        in
        Epoch.release e;
        got)

(* Time one query and add it to the round's operation total; its answer
   is checked after the clock has stopped.  [alloc] receives the minor
   words allocated between the two clock reads (the query and the
   option that carries its answer), read outside the timed region. *)
let timed_query ?alloc r op_ns ~note ~check f =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let got = guarded r f in
  let ns = Clock.now_ns () - t0 in
  Option.iter (fun k -> k (Gc.minor_words () -. w0)) alloc;
  op_ns := !op_ns + ns;
  Option.iter
    (fun got ->
      note r ns;
      check got)
    got

let check_probe r ~value ~t1 ~t2 got =
  Oracle.check r.e2e.tally ~expected:(Oracle.probe r.oracle ~value ~t1 ~t2)
    ~actual:(Oracle.digest got)

let check_scan r ~t1 ~t2 got =
  Oracle.check r.e2e.tally ~expected:(Oracle.scan r.oracle ~t1 ~t2) ~actual:(Oracle.digest got)

(* Traced rounds, after the clock has stopped: the entries the queried
   constituents hold ([held j days] for slot [j]) against the entries
   the query returned. *)
let note_examined r frame ~t1 ~t2 ~held ~returned =
  let l = r.layer in
  for j = 1 to Frame.n frame do
    let days = Frame.slot_days frame j in
    if in_range days ~t1 ~t2 then l.examined <- l.examined + held j days
  done;
  l.returned <- l.returned + returned

let slot_entries frame j _days = Index.entry_count (Frame.slot_index frame j)

let timed_transition r op_ns ~postings f =
  let t0 = Clock.now_ns () in
  f ();
  let ns = Clock.now_ns () - t0 in
  op_ns := !op_ns + ns;
  note_transition r ns ~postings;
  r.e2e.tally.Oracle.attempted <- r.e2e.tally.Oracle.attempted + 1

(* Counter deltas over one phase of calls, read in traced rounds only. *)
let phase ~traced disks accs f =
  if traced then begin
    let before = snap disks in
    f ();
    let after = snap disks in
    List.iter (fun acc -> accumulate acc ~before ~after) accs
  end
  else f ()

(* ------------------------------------------------------------------ *)
(* Durable (Checkpoint) workloads: scam-probe and tpcd-ingest          *)
(* ------------------------------------------------------------------ *)

type durable = {
  name : string;
  kind : Scheme.kind;
  technique : Env.technique;
  w : int;
  n : int;
  growth : float;
  pool_share : float option;  (** write-back pool frames / largest window *)
  days_per_round : int;
  probes_per_day : int;
  epoch_share : int;  (** one probe in [epoch_share] is a pre-swap reader; 0 = none *)
  scans_per_day : int;
  scan_current_day : bool;  (** current-day scans, or whole-window aggregates *)
  restart_probes : int;
  data : seed:int -> Env.day_store;  (** the day batches the workload absorbs *)
  values : Query_gen.value_dist;  (** probe values *)
}

(* Write-back pool frames: [pool_share] of the largest window. *)
let pool_frames d days =
  Option.map
    (fun share ->
      let window = Inputs.max_window days ~w:d.w ~last:days.Inputs.last_day in
      max 64 (int_of_float (share *. float_of_int window)))
    d.pool_share

let durable_icfg d days ~dir =
  let pool = pool_frames d days in
  {
    Index.default_config with
    Index.growth_factor = d.growth;
    cache_blocks = pool;
    cache_write_back = Option.is_some pool;
    disk_backend = Disk.File (Store_dir.blocks_path dir);
  }

let last_day d = d.w + d.days_per_round

(* Whole-window probes only: scans are issued by the round itself. *)
let probe_spec ~seed ~probes_per_day value_dist =
  {
    Query_gen.seed;
    probes_per_day;
    probe_range = Query_gen.Whole_window;
    scans_per_day = 0;
    scan_range = Query_gen.Whole_window;
    value_dist;
  }

(* The fixed restart sample: the last day's first probes and every one
   of its scans, asked on the pre-restart wave and again after reopen. *)
let restart_answers (d : durable) r frame =
  let day = last_day d in
  let w0 = day - d.w + 1 in
  let values = r.days.Inputs.probe_values.(day) in
  let probes =
    List.init (min d.restart_probes (Array.length values)) (fun i ->
        let value = values.(i) in
        ( Oracle.digest (Frame.timed_index_probe frame ~t1:w0 ~t2:day ~value),
          Oracle.probe r.oracle ~value ~t1:w0 ~t2:day ))
  in
  let scans =
    List.init d.scans_per_day (fun _ ->
        if d.scan_current_day then
          (Oracle.digest (Frame.timed_segment_scan frame ~t1:day ~t2:day),
           Oracle.scan r.oracle ~t1:day ~t2:day)
        else
          (* an aggregate's answer is one number, carried in [fp] *)
          let sum = Frame.timed_aggregate frame ~t1:w0 ~t2:day ~op:Frame.Sum_info in
          ( { Oracle.n = 1; fp = Option.value sum ~default:(-1) },
            { Oracle.n = 1; fp = Oracle.sum_info r.oracle ~t1:w0 ~t2:day } ))
  in
  probes @ scans

(* A wave over a fresh store directory, built by a timed
   Checkpoint.start. *)
let durable_setup (d : durable) r ~tr ~name =
  let days = r.days in
  let dir = fresh_dir r name in
  let icfg = durable_icfg d days ~dir in
  let disk = Index.make_disk icfg in
  let env =
    Env.create ~disk ~icfg ~technique:d.technique ~store:(Inputs.store days) ~w:d.w ~n:d.n ()
  in
  let t0 = Clock.now_ns () in
  let cp = span tr Spans.Checkpoint_start (fun () -> Checkpoint.start ~dir d.kind env) in
  Pctl.add r.e2e.setup (Clock.seconds_since t0);
  (dir, icfg, disk, cp)

let durable_round (d : durable) r ~tr ~round =
  let days = r.days in
  let store = Inputs.store days in
  repeat_setup (fun k ->
      let name = Printf.sprintf "%s-r%d-s%d" d.name round k in
      let dir, _, disk, _ = durable_setup d r ~tr ~name in
      Disk.close disk;
      Cache.detach disk;
      rm_rf dir);
  let dir, icfg, disk, cp = durable_setup d r ~tr ~name:(Printf.sprintf "%s-r%d" d.name round) in
  let epochs = d.epoch_share > 0 in
  if epochs then Epoch.attach disk;
  let l = r.layer in
  let traced = Option.is_some tr in
  let loop0 = snap [ disk ] and model0 = Disk.elapsed disk in
  let written0 = counter "disk.file.bytes_written" in
  let op_ns = ref 0 in
  let tally = r.e2e.tally in
  let day_model = Pctl.samples () in
  for day = d.w + 1 to last_day d do
    let m0 = Disk.elapsed disk in
    let w0 = day - d.w + 1 in
    let values = days.Inputs.probe_values.(day) in
    (* Readers that arrive before the swap hold the epoch opened over
       the pre-transition wave. *)
    let ep =
      if not epochs then None
      else begin
        let slots =
          List.map
            (fun (idx, ds) -> (idx, fun ~t1 ~t2 -> in_range ds ~t1 ~t2))
            (Frame.snapshot (Checkpoint.frame cp))
        in
        let e = span tr Spans.Epoch_open (fun () -> Epoch.open_ disk ~slots) in
        if traced then begin
          l.pinned <- l.pinned + Epoch.pinned_blocks disk;
          l.opens <- l.opens + 1
        end;
        Some e
      end
    in
    timed_transition r op_ns ~postings:(Inputs.postings days day) (fun () ->
        span tr Spans.Checkpoint_transition (fun () -> Checkpoint.transition cp));
    let queries0 = r.e2e.queries and serve_s0 = r.e2e.serve_s in
    let n_epoch = if epochs then d.probes_per_day / d.epoch_share else 0 in
    Option.iter
      (fun e ->
        if traced then
          l.deferred_peak <- max l.deferred_peak (Epoch.deferred_blocks disk);
        let t1 = w0 - 1 and t2 = day - 1 in
        phase ~traced [ disk ] [ l.probe_phase ] (fun () ->
            for i = 0 to n_epoch - 1 do
              let value = values.(i) in
              timed_query r op_ns ~note:note_probe ~check:(check_probe r ~value ~t1 ~t2)
                (fun () -> epoch_read tr e ~value ~t1 ~t2)
            done);
        (* The owner's lease is the last reference: releasing it drains
           the retired epoch and re-issues its deferred frees. *)
        span tr Spans.Epoch_drain (fun () -> Epoch.release e))
      ep;
    let frame = Checkpoint.frame cp in
    let alloc = if traced then Some (fun w -> l.minor_words <- l.minor_words +. w) else None in
    phase ~traced [ disk ] [ l.probe_phase; l.frame_probe_phase ] (fun () ->
        for i = n_epoch to d.probes_per_day - 1 do
          let value = values.(i) in
          timed_query ?alloc r op_ns ~note:note_probe
            ~check:(fun got ->
              check_probe r ~value ~t1:w0 ~t2:day got;
              if traced then
                note_examined r frame ~t1:w0 ~t2:day
                  ~held:(fun _ days -> Oracle.held r.oracle ~value days)
                  ~returned:(List.length got))
            (fun () -> frame_probe tr frame ~value ~t1:w0 ~t2:day)
        done);
    phase ~traced [ disk ] [ l.scan_phase ] (fun () ->
        for _ = 1 to d.scans_per_day do
          if d.scan_current_day then
            timed_query r op_ns ~note:note_scan
              ~check:(fun got ->
                check_scan r ~t1:day ~t2:day got;
                if traced then
                  note_examined r frame ~t1:day ~t2:day ~held:(slot_entries frame)
                    ~returned:(List.length got))
              (fun () -> frame_scan tr frame ~t1:day ~t2:day)
          else
            timed_query r op_ns ~note:note_scan
              ~check:(fun got ->
                let expected = Oracle.scan r.oracle ~t1:w0 ~t2:day in
                Oracle.check tally
                  ~expected:(Some (Oracle.sum_info r.oracle ~t1:w0 ~t2:day))
                  ~actual:got;
                (* the sum is checked, so the scan under it returned
                   the oracle's entry count *)
                if traced then
                  note_examined r frame ~t1:w0 ~t2:day ~held:(slot_entries frame)
                    ~returned:expected.Oracle.n)
              (fun () -> frame_sum tr frame ~t1:w0 ~t2:day)
        done);
    if traced then begin
      l.probes <- l.probes + d.probes_per_day;
      l.frame_probes <- l.frame_probes + (d.probes_per_day - n_epoch);
      l.scans <- l.scans + d.scans_per_day;
      l.ops <- l.ops + 1 + d.probes_per_day + d.scans_per_day
    end;
    note_day_queries r ~queries0 ~serve_s0;
    Pctl.add day_model (Disk.elapsed disk -. m0)
  done;
  let loop1 = snap [ disk ] in
  let run_days = d.days_per_round in
  let ingested = Inputs.postings_between days (d.w + 1) (last_day d) in
  let window = Inputs.max_window days ~w:d.w ~last:(last_day d) in
  let space_amp =
    float_of_int (Disk.peak_blocks disk * entry_bytes) /. float_of_int (window * entry_bytes)
  in
  let write_amp =
    (counter "disk.file.bytes_written" -. written0) /. float_of_int (ingested * entry_bytes)
  in
  let model_mean = (Disk.elapsed disk -. model0) /. float_of_int run_days in
  if traced then begin
    accumulate l.loop ~before:loop0 ~after:loop1;
    l.days <- l.days + run_days;
    l.peak_blocks <- Disk.peak_blocks disk;
    l.fragmentation <- Disk.fragmentation disk
  end;
  (* Restart: close the disk, reopen the store directory, and re-ask a
     fixed sample; every answer must equal the pre-restart wave's. *)
  let before = restart_answers d r (Checkpoint.frame cp) in
  if epochs then Epoch.detach disk;
  Disk.close disk;
  Cache.detach disk;
  let t0 = Clock.now_ns () in
  let cp2, recovery =
    span tr Spans.Checkpoint_reopen (fun () -> Checkpoint.reopen ~icfg ~dir ~store ())
  in
  Pctl.add r.e2e.recovery (Clock.seconds_since t0);
  let after = restart_answers d r (Checkpoint.frame cp2) in
  List.iter2
    (fun (pre, expected) (post, _) ->
      tally.Oracle.attempted <- tally.Oracle.attempted + 1;
      if pre <> post || pre <> expected then
        tally.Oracle.restart_failures <- tally.Oracle.restart_failures + 1)
    before after;
  if traced then l.rebuilt <- l.rebuilt + List.length recovery.Checkpoint.rebuilt_slots;
  let disk2 = (Checkpoint.env cp2).Env.disk in
  Disk.close disk2;
  Cache.detach disk2;
  rm_rf dir;
  note_round r ~traced ~op_s:(ns_to_s !op_ns) ~space_amp ~write_amp
    ~model_s_per_day:(median_day day_model) ~model_mean

(* SCAM copy detection (Table 12: W = 7; REINDEX with n = 3; simple
   shadowing; g = 2.0) over Netnews postings with Zipf words.  The
   write-back pool holds an eighth of the largest window, so the probe
   working set does not fit and CLOCK evicts under every day's probes;
   a quarter of the probes are pre-swap readers served from the
   retired epoch.  Ten current-day scans a day, as in the paper. *)
let scam =
  {
    name = "scam-probe";
    kind = Scheme.Reindex;
    technique = Env.Simple_shadow;
    w = 7;
    n = 3;
    growth = 2.0;
    pool_share = Some 0.125;
    days_per_round = 7;
    probes_per_day = 1000;
    epoch_share = 4;
    scans_per_day = 10;
    scan_current_day = true;
    restart_probes = 200;
    data =
      (fun ~seed ->
        Netnews.store
          { Netnews.seed; vocab = 50_000; zipf_s = 1.0; mean_postings = 10_000; jitter = 0.02 });
    values = Query_gen.Zipfian { vocab = 50_000; s = 1.0 };
  }

(* TPC-D warehouse (Table 12: W = 100; packed shadowing; g = 1.08; DEL
   with n = 1) on uniform SUPPKEY keys.  No pool and no probes: every
   day repacks the whole window onto the real block file, and every
   aggregate is a real pread of the window. *)
let tpcd =
  {
    name = "tpcd-ingest";
    kind = Scheme.Del;
    technique = Env.Packed_shadow;
    w = 100;
    n = 1;
    growth = 1.08;
    pool_share = None;
    days_per_round = 4;
    probes_per_day = 0;
    epoch_share = 0;
    scans_per_day = 3;
    scan_current_day = false;
    restart_probes = 0;
    data =
      (fun ~seed ->
        Tpcd.store { Tpcd.seed; suppliers = 10_000; mean_rows = 1_600; jitter = 0.02 });
    values = Query_gen.Uniform 10_000;
  }

(* ------------------------------------------------------------------ *)
(* Sharded workload: wse-shard                                         *)
(* ------------------------------------------------------------------ *)

type sharded = {
  s_name : string;
  s_w : int;
  arms : int;
  s_days_per_round : int;
  s_probes_per_day : int;
  s_scans_per_day : int;
  vocab : int;
  mean_postings : int;
}

(* WSE (Table 12: W = 35; packed shadowing; DEL with n = 1) over
   Netnews Zipf keys, hash-partitioned over 2 arms on the simulated
   backend.  Each arm's write-through pool holds every block a round
   makes resident (see [arm_pool_frames]), so the window fits: no
   syscalls, no evictions. *)
let wse =
  {
    s_name = "wse-shard";
    s_w = 35;
    arms = 2;
    s_days_per_round = 7;
    s_probes_per_day = 2000;
    s_scans_per_day = 2;
    vocab = 50_000;
    mean_postings = 1_000;
  }

let s_last_day s = s.s_w + s.s_days_per_round

(* Frames per arm: every block the round can make resident.  Each day's
   repack moves the whole window to fresh extents and the pool never
   drops the stale frames, so a pool sized to the live window alone
   would evict, and evict differently for every seed.  With one frame
   for each day's window (plus directory nodes) nothing is ever
   evicted: the window fits. *)
let arm_pool_frames s (days : Inputs.days) =
  let part = Partition.create Partition.Hash ~arms:s.arms ~vocab:s.vocab in
  let per_arm = Array.make_matrix s.arms (days.Inputs.last_day + 1) 0 in
  Array.iteri
    (fun d (b : Entry.batch) ->
      Array.iter
        (fun (p : Entry.posting) ->
          let a = Partition.arm_of_value part p.Entry.value in
          per_arm.(a).(d) <- per_arm.(a).(d) + 1)
        b.Entry.postings)
    days.Inputs.batches;
  let window a d =
    let n = ref 0 in
    for x = max 1 (d - s.s_w + 1) to d do
      n := !n + per_arm.(a).(x)
    done;
    !n
  in
  let best = ref 0 in
  for a = 0 to s.arms - 1 do
    let total = ref 0 in
    for d = s.s_w to days.Inputs.last_day do
      total := !total + window a d
    done;
    best := max !best !total
  done;
  !best + (!best / 8)

let sharded_setup s r ~tr ~pool =
  let store = Inputs.store r.days in
  let icfg = { Index.default_config with Index.cache_blocks = Some pool } in
  let t0 = Clock.now_ns () in
  let router =
    span tr Spans.Router_create (fun () ->
        Router.create ~icfg ~technique:Env.Packed_shadow ~kind:Scheme.Del
          ~partition:Partition.Hash ~shards:s.arms ~vocab:s.vocab ~store ~w:s.s_w ~n:1 ())
  in
  Pctl.add r.e2e.setup (Clock.seconds_since t0);
  (router, List.init s.arms (Router.arm_disk router))

let sharded_round s r ~tr ~pool =
  let days = r.days in
  repeat_setup (fun _ -> List.iter Cache.detach (snd (sharded_setup s r ~tr ~pool)));
  let router, disks = sharded_setup s r ~tr ~pool in
  let l = r.layer in
  let traced = Option.is_some tr in
  let loop0 = snap disks in
  let model0 = Parallel.elapsed (Router.clock router) in
  let op_ns = ref 0 in
  let day_model = Pctl.samples () in
  for day = s.s_w + 1 to s_last_day s do
    let m0 = Parallel.elapsed (Router.clock router) in
    let w0 = day - s.s_w + 1 in
    timed_transition r op_ns ~postings:(Inputs.postings days day) (fun () ->
        ignore (span tr Spans.Router_advance (fun () -> Router.advance router)));
    let queries0 = r.e2e.queries and serve_s0 = r.e2e.serve_s in
    let values = days.Inputs.probe_values.(day) in
    phase ~traced disks [ l.probe_phase ] (fun () ->
        Array.iter
          (fun value ->
            timed_query r op_ns ~note:note_probe ~check:(check_probe r ~value ~t1:w0 ~t2:day)
              (fun () ->
                span tr Spans.Router_probe (fun () ->
                    fst (Router.probe router ~value ~t1:w0 ~t2:day))))
          values);
    phase ~traced disks [ l.scan_phase ] (fun () ->
        for _ = 1 to s.s_scans_per_day do
          timed_query r op_ns ~note:note_scan ~check:(check_scan r ~t1:w0 ~t2:day) (fun () ->
              span tr Spans.Router_scan (fun () -> fst (Router.scan router ~t1:w0 ~t2:day)))
        done);
    if traced then begin
      l.probes <- l.probes + s.s_probes_per_day;
      l.scans <- l.scans + s.s_scans_per_day;
      l.ops <- l.ops + 1 + s.s_probes_per_day + s.s_scans_per_day
    end;
    note_day_queries r ~queries0 ~serve_s0;
    Pctl.add day_model (Parallel.elapsed (Router.clock router) -. m0)
  done;
  let loop1 = snap disks in
  let run_days = s.s_days_per_round in
  let ingested = Inputs.postings_between days (s.s_w + 1) (s_last_day s) in
  let window = Inputs.max_window days ~w:s.s_w ~last:(s_last_day s) in
  let peak = List.fold_left (fun a d -> a + Disk.peak_blocks d) 0 disks in
  let space_amp = float_of_int peak /. float_of_int window in
  let write_amp =
    (loop1.(k_blocks_written) -. loop0.(k_blocks_written)) /. float_of_int ingested
  in
  let clock = Router.clock router in
  let model_mean = (Parallel.elapsed clock -. model0) /. float_of_int run_days in
  if traced then begin
    accumulate l.loop ~before:loop0 ~after:loop1;
    l.days <- l.days + run_days;
    l.peak_blocks <- peak;
    l.fragmentation <-
      List.fold_left (fun a d -> a +. Disk.fragmentation d) 0.0 disks
      /. float_of_int s.arms;
    l.skew <- Parallel.skew_ratio clock;
    l.speedup <- Parallel.speedup clock
  end;
  List.iter Cache.detach disks;
  note_round r ~traced ~op_s:(ns_to_s !op_ns) ~space_amp ~write_amp
    ~model_s_per_day:(median_day day_model) ~model_mean

(* ------------------------------------------------------------------ *)
(* Workload registry and reporting                                     *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type workload = {
  id : string;
  describe : Inputs.days -> string;
  generate : seed:int -> Inputs.days;
  round : run -> tr:Spans.t option -> round:int -> unit;
  durable : bool;  (** has a restart, so recovery_s applies *)
  probes : bool;
}

let durable_workload (d : durable) =
  {
    id = d.name;
    describe =
      (fun days ->
        let window = Inputs.max_window days ~w:d.w ~last:(last_day d) in
        let pool =
          match pool_frames d days with
          | None -> "no pool"
          | Some frames ->
            Printf.sprintf "write-back pool %d frames = %.3f of the window" frames
              (float_of_int frames /. float_of_int window)
        in
        Printf.sprintf
          "%s: %s %s W=%d n=%d g=%.2f, %d days/round, largest window %d postings \
           (%.1f MB), %s, %d probes/day (%s pre-swap epoch readers), %d %s/day, file \
           backend, fsync at every checkpoint commit"
          d.name (Scheme.name d.kind) (Env.technique_name d.technique) d.w d.n d.growth
          d.days_per_round window
          (float_of_int (window * entry_bytes) /. 1e6)
          pool d.probes_per_day
          (if d.epoch_share > 0 then Printf.sprintf "1/%d" d.epoch_share else "no")
          d.scans_per_day
          (if d.scan_current_day then "current-day scans" else "whole-window Sum_info aggregates"));
    generate =
      (fun ~seed ->
        Inputs.generate ~store:(d.data ~seed)
          ~queries:(probe_spec ~seed ~probes_per_day:d.probes_per_day d.values)
          ~w:d.w ~last_day:(last_day d));
    round = (fun r ~tr ~round -> durable_round d r ~tr ~round);
    durable = true;
    probes = d.probes_per_day > 0;
  }

let sharded_workload (s : sharded) =
  {
    id = s.s_name;
    describe =
      (fun days ->
        let window = Inputs.max_window days ~w:s.s_w ~last:(s_last_day s) in
        let pool = arm_pool_frames s days in
        Printf.sprintf
          "%s: DEL packed-shadow W=%d n=1, %d hash arms on the simulated backend, %d \
           days/round, largest window %d postings (%.1f MB), write-through pool %d \
           frames per arm = %.1fx the arm's share of the window, %d probes/day, %d \
           fan-out scans/day"
          s.s_name s.s_w s.arms s.s_days_per_round window
          (float_of_int (window * entry_bytes) /. 1e6)
          pool
          (float_of_int (pool * s.arms) /. float_of_int window)
          s.s_probes_per_day s.s_scans_per_day);
    generate =
      (fun ~seed ->
        Inputs.generate
          ~store:
            (Netnews.store
               {
                 Netnews.seed;
                 vocab = s.vocab;
                 zipf_s = 1.0;
                 mean_postings = s.mean_postings;
                 jitter = 0.02;
               })
          ~queries:
            (probe_spec ~seed ~probes_per_day:s.s_probes_per_day
               (Query_gen.Zipfian { vocab = s.vocab; s = 1.0 }))
          ~w:s.s_w ~last_day:(s_last_day s));
    round = (fun r ~tr ~round:_ -> sharded_round s r ~tr ~pool:(arm_pool_frames s r.days));
    durable = false;
    probes = true;
  }

let all = [ durable_workload scam; durable_workload tpcd; sharded_workload wse ]
let find id = List.find_opt (fun w -> w.id = id) all

(* NaN (printed as null) when a failed run took no samples. *)
let percentile_of s ~per_mille =
  if Pctl.count s = 0 then Float.nan else Pctl.percentile (Pctl.sorted s) ~per_mille

let median_of s = percentile_of s ~per_mille:500

(* The mean over a round's operations of each one's fastest repetition.
   A round's operations differ by design (REINDEX rebuilds a different
   constituent each day, the weekly volume swings, current-day scans
   read one constituent or several), so a percentile over them can sit
   in a gap between two kinds and jump across it when the machine
   slows; a mean has no gap to jump. *)
let best_mean b =
  if Pctl.best_count b = 0 then Float.nan else Pctl.best_sum b /. float_of_int (Pctl.best_count b)

(* Every end-to-end metric that applies to the workload. *)
let end_to_end wl r =
  let e = r.e2e in
  let m name value unit_ = { name; value; unit_ } in
  let space, write, model =
    Option.value e.determ ~default:(Float.nan, Float.nan, Float.nan)
  in
  let probe =
    if wl.probes then
      [
        m "probe_p50_us" (median_of e.probe) "us";
        m "probe_p99_us" (percentile_of e.probe ~per_mille:990) "us";
      ]
    else []
  in
  [ m "setup_s" (median_of e.setup) "s" ]
  @ (if wl.durable then [ m "recovery_s" (median_of e.recovery) "s" ] else [])
  @ probe
  @ [
      m "scan_p50_ms" (median_of e.scan) "ms";
      m "scan_best_ms" (best_mean e.best_scan) "ms";
      m "transition_p50_ms" (median_of e.transition) "ms";
      m "transition_best_ms" (best_mean e.best_transition) "ms";
      m "ingest_postings_per_s" (median_of e.round_ingest) "1/s";
      m "query_qps" (median_of e.day_qps) "1/s";
      m "query_best_qps" (1.0 /. best_mean e.best_query) "1/s";
      m "heap_peak_mb"
        (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6)
        "MB";
      m "space_amp" space "ratio";
      m "write_amp" write "ratio";
      m "model_s_per_day" model "model-s";
      m "error_rate" (Oracle.error_rate e.tally) "ratio";
    ]

(* Tails with their percentile and sample count: the highest percentile
   with at least ten samples beyond it. *)
let tails r =
  let e = r.e2e in
  List.filter_map
    (fun (label, s, unit_) ->
      let n = Pctl.count s in
      if n = 0 then None
      else
        let sorted = Pctl.sorted s in
        let tail =
          match Pctl.supported_tail n with
          | Some pm ->
            Printf.sprintf ", %s %.4g %s" (Pctl.label pm)
              (Pctl.percentile sorted ~per_mille:pm) unit_
          | None -> ""
        in
        Some (Printf.sprintf "%s: n=%d p50 %.4g %s%s" label n (Pctl.median sorted) unit_ tail))
    [
      ("probe", e.probe, "us");
      ("scan", e.scan, "ms");
      ("transition", e.transition, "ms");
      ("setup", e.setup, "s");
      ("recovery", e.recovery, "s");
    ]

let per_layer r =
  let l = r.layer and e = r.e2e in
  let agg = Spans.aggregate r.spans in
  let us nm = Spans.mean_duration (agg nm) ~scale:1e-3 in
  let ms nm = Spans.mean_duration (agg nm) ~scale:1e-6 in
  let per num den = if den = 0.0 then 0.0 else num /. den in
  let fi = float_of_int in
  let days = fi l.days and probes = fi l.probes and scans = fi l.scans in
  let lp k = l.loop.(k) and pp k = l.probe_phase.(k) and sp k = l.scan_phase.(k) in
  let fp k = l.frame_probe_phase.(k) in
  let fprobe = agg Spans.Frame_probe in
  let iprobe = agg Spans.Index_probe in
  let reopen = agg Spans.Checkpoint_reopen in
  let mean xs = per (List.fold_left ( +. ) 0.0 xs) (fi (List.length xs)) in
  let m name value unit_ = { name; value; unit_ } in
  [
    m "checkpoint.transition_ms" (ms Spans.Checkpoint_transition) "ms";
    m "checkpoint.reopen_ms" (ms Spans.Checkpoint_reopen) "ms";
    m "checkpoint.fsyncs_per_day" (per (lp k_fsyncs) days) "count";
    m "checkpoint.renames_per_day" (per (lp k_renames) days) "count";
    m "checkpoint.reopen_rebuilt_slots" (per (fi l.rebuilt) (fi reopen.Spans.count)) "count";
    m "frame.probe_us" (us Spans.Frame_probe) "us";
    m "frame.probe_self_us"
      (per (fi fprobe.Spans.self_ns *. 1e-3) (fi fprobe.Spans.count))
      "us";
    m "frame.scan_ms" (ms Spans.Frame_scan) "ms";
    m "frame.constituents_per_probe" (per (fi fprobe.Spans.children) (fi fprobe.Spans.count))
      "count";
    m "frame.examined_per_returned" (per (fi l.examined) (fi l.returned)) "ratio";
    m "frame.minor_words_per_probe" (per l.minor_words (fi l.frame_probes)) "words";
    m "index.probe_us" (us Spans.Index_probe) "us";
    m "index.scan_ms" (ms Spans.Index_scan) "ms";
    m "index.blocks_per_probe"
      (per (fp k_blocks_read +. fp k_hits) (fi iprobe.Spans.count))
      "count";
    m "cache.hit_ratio" (per (pp k_hits) (pp k_hits +. pp k_misses)) "ratio";
    m "cache.meta_hit_ratio"
      (per (pp k_meta_hits) (pp k_meta_hits +. pp k_meta_misses))
      "ratio";
    m "cache.lookups_per_probe"
      (per (pp k_hits +. pp k_misses +. pp k_meta_hits +. pp k_meta_misses) probes)
      "count";
    m "cache.evictions_per_probe" (per (pp k_evictions) probes) "count";
    m "cache.flushed_blocks_per_day" (per (lp k_flushed) days) "count";
    m "disk.seeks_per_day" (per (lp k_seeks) days) "count";
    m "disk.blocks_read_per_day" (per (lp k_blocks_read) days) "count";
    m "disk.blocks_written_per_day" (per (lp k_blocks_written) days) "count";
    m "disk.peak_blocks" (fi l.peak_blocks) "count";
    m "disk.fragmentation" l.fragmentation "ratio";
    m "io.preads_per_scan" (per (sp k_preads) scans) "count";
    m "io.read_mb_per_scan" (per (sp k_bytes_read /. 1e6) scans) "MB";
    m "io.pwrites_per_day" (per (lp k_pwrites) days) "count";
    m "io.write_mb_per_day" (per (lp k_bytes_written /. 1e6) days) "MB";
    m "io.syscall_ms_per_day" (per (lp k_io_wall_s *. 1e3) days) "ms";
    m "io.retries" (lp k_retries) "count";
    m "epoch.open_us" (us Spans.Epoch_open) "us";
    m "epoch.probe_us" (us Spans.Epoch_probe) "us";
    m "epoch.drain_ms" (ms Spans.Epoch_drain) "ms";
    m "epoch.deferred_blocks_peak" (fi l.deferred_peak) "count";
    m "epoch.pinned_blocks" (per (fi l.pinned) (fi l.opens)) "count";
    m "router.probe_us" (us Spans.Router_probe) "us";
    m "router.scan_ms" (ms Spans.Router_scan) "ms";
    m "router.advance_ms" (ms Spans.Router_advance) "ms";
    m "router.skew_ratio" l.skew "ratio";
    m "router.model_speedup" l.speedup "ratio";
    m "obs.recorder_events_per_op" (per (lp k_events) (fi l.ops)) "count";
    m "obs.trace_overhead_pct"
      (let u = mean e.op_s_untraced and t = mean e.op_s_traced in
       if u = 0.0 then 0.0 else ((t /. u) -. 1.0) *. 100.0)
      "%";
  ]
