type params = {
  seek_time : float;
  transfer_rate : float;
  block_size : int;
}

let default_params =
  { seek_time = 0.014; transfer_rate = 10e6; block_size = 4096 }

type extent = { start : int; length : int }

type counters = {
  seeks : int;
  blocks_read : int;
  blocks_written : int;
  write_ops : int;
  flushes : int;
  elapsed : float;
}

(* Real-I/O failures from the file backend surface through the same
   exception all cost-model violations use, so every existing
   [Disk_error] handler — checkpoint, crash harness, tests — catches
   shim errors with no call-site changes. *)
exception Disk_error = Io.Io_error

(* --- fault plans ---------------------------------------------------- *)

type fault_target = On_seek | On_write | On_flush

type fault_mode = Fail_stop | Torn | Stall of float

type fault_point = { target : fault_target; at : int }

let pp_fault_point ppf p =
  Format.fprintf ppf "%s#%d"
    (match p.target with
    | On_seek -> "seek"
    | On_write -> "write"
    | On_flush -> "flush")
    p.at

module Extent_key = struct
  type t = int (* start block; extents never overlap, so start is a key *)

  let compare = Int.compare
end

module Live = Map.Make (Extent_key)

(* One armed injection: the [p_in]-th next op of class [p_target] is
   hit.  Plans queue: only the head counts down; firing pops it, so a
   second plan can name a point inside recovery from the first. *)
type plan = {
  p_target : fault_target;
  p_mode : fault_mode;
  mutable p_in : int;
}

type backend = Sim | File of string

type t = {
  uid : int; (* process-unique disk identity, for client-side attachments *)
  params : params;
  mutable free_list : (int * int) list; (* (start, length), address-sorted *)
  mutable live : int Live.t; (* start -> length *)
  mutable frontier : int;
  mutable live_blocks : int;
  mutable peak_blocks : int;
  mutable seeks : int;
  mutable blocks_read : int;
  mutable blocks_written : int;
  mutable write_ops : int;
  mutable flushes : int;
  mutable elapsed : float;
  mutable faults : plan list; (* [] = disarmed; head counts down first *)
  mutable stalls : int; (* stall plans fired *)
  torn : (int, unit) Hashtbl.t; (* start block -> extent contents invalid *)
  mutable alloc_seq : int; (* allocations ever made; generation source *)
  gen : (int, int) Hashtbl.t; (* start block -> allocation generation *)
  backing : Block_file.t option; (* the real block file, [File] backend only *)
  mutable write_seq : int; (* write ops ever stamped into the backing file *)
  mutable free_gate : (extent -> bool) option;
      (* epoch layer veto: a gated [free] leaves the extent live *)
  mutable op_observer : (unit -> unit) option;
      (* fires after every successfully charged operation *)
}

let m_stalls = Wave_obs.Metrics.counter "disk.stalls"

let next_uid = ref 0

let make ?(params = default_params) backing =
  if params.seek_time < 0.0 || params.transfer_rate <= 0.0 || params.block_size <= 0
  then raise (Disk_error "invalid parameters");
  incr next_uid;
  {
    uid = !next_uid;
    params;
    free_list = [];
    live = Live.empty;
    frontier = 0;
    live_blocks = 0;
    peak_blocks = 0;
    seeks = 0;
    blocks_read = 0;
    blocks_written = 0;
    write_ops = 0;
    flushes = 0;
    elapsed = 0.0;
    faults = [];
    stalls = 0;
    torn = Hashtbl.create 8;
    alloc_seq = 0;
    gen = Hashtbl.create 64;
    backing;
    write_seq = 0;
    free_gate = None;
    op_observer = None;
  }

let create ?params () = make ?params None

let params t = t.params
let id t = t.uid

let backend t =
  match t.backing with None -> Sim | Some bf -> File (Block_file.path bf)

let backing t = t.backing

let block_seconds t blocks =
  float_of_int (blocks * t.params.block_size) /. t.params.transfer_rate

let set_free_gate t gate = t.free_gate <- gate
let set_op_observer t obs = t.op_observer <- obs

(* Fired after an operation has been fully charged (never on the
   faulting path — an injected fault raises before the charge).  The
   epoch interleaver uses this as its logical clock: each completed
   disk operation is one tick at which a queued probe may arrive. *)
let notify t = match t.op_observer with Some f -> f () | None -> ()

(* Every counter/elapsed mutation below is mirrored into the ambient
   trace context (Wave_obs.Trace hooks), so open spans attribute the
   exact same increments the disk's own counters see.  The hooks are
   single-flag no-ops when tracing is disabled. *)

(* Countdown on the queue head for one op of class [target].  Returns
   the fired plan's mode for the caller to act on; a [Stall] is fully
   handled here — charge the delay, pop, let the operation proceed.
   Every firing also lands in the flight recorder under the op-class
   name, so a crash-sweep artifact's last event is the injected fault
   that killed the run. *)
let target_name = function
  | On_seek -> "seek"
  | On_write -> "write"
  | On_flush -> "flush"

let record_fault target ~outcome ~bytes =
  Wave_obs.Recorder.record_io ~syscall:(target_name target) ~outcome ~bytes

let fault_check t target =
  match t.faults with
  | [] -> None
  | { p_target; _ } :: _ when p_target <> target -> None
  | ({ p_mode; _ } as p) :: rest ->
    p.p_in <- p.p_in - 1;
    if p.p_in > 0 then None
    else begin
      t.faults <- rest;
      match p_mode with
      | Stall d ->
        t.stalls <- t.stalls + 1;
        Wave_obs.Metrics.inc m_stalls;
        record_fault target ~outcome:"stall" ~bytes:0;
        t.elapsed <- t.elapsed +. d;
        Wave_obs.Trace.on_model_seconds d;
        None
      | mode ->
        record_fault target
          ~outcome:(match mode with Torn -> "torn" | _ -> "fault")
          ~bytes:0;
        Some mode
    end

let charge_seek t =
  (match fault_check t On_seek with
  | Some _ -> raise (Disk_error "injected fault")
  | None -> ());
  t.seeks <- t.seeks + 1;
  t.elapsed <- t.elapsed +. t.params.seek_time;
  Wave_obs.Trace.on_seek ();
  Wave_obs.Trace.on_model_seconds t.params.seek_time;
  notify t

(* Countdown for write-targeted faults; called with the destination
   range before any cost is charged.  In [Torn] mode the extent's
   contents are marked invalid before the crash is raised: the space
   stays allocated but reads of it fail until it is freed or fully
   rewritten — the classic torn write.  With a backing file the tear
   is also physical: stamps for roughly half the range reach the file
   before the "crash". *)
let write_fault_check t ext ~off ~blocks =
  match fault_check t On_write with
  | None -> ()
  | Some (Stall _) -> assert false (* consumed inside [fault_check] *)
  | Some Fail_stop -> raise (Disk_error "injected fault")
  | Some Torn ->
    (match t.backing with
    | Some bf when blocks > 0 ->
      t.write_seq <- t.write_seq + 1;
      let gen =
        match Hashtbl.find_opt t.gen ext.start with Some g -> g | None -> 0
      in
      ignore
        (Block_file.write_torn_prefix bf ~start:(ext.start + off) ~blocks
           ~ext_start:ext.start ~gen ~seq:t.write_seq)
    | _ -> ());
    Hashtbl.replace t.torn ext.start ();
    raise (Disk_error "injected fault: torn write")

let charge_delay t seconds =
  if seconds < 0.0 then raise (Disk_error "negative delay");
  t.elapsed <- t.elapsed +. seconds;
  Wave_obs.Trace.on_model_seconds seconds;
  notify t

(* Raw streamed transfers (shadow-copy flushes) move bytes without a
   block-granular write, so the trace sees bytes but zero blocks. *)
let charge_transfer_bytes t bytes =
  if bytes < 0 then raise (Disk_error "negative transfer");
  t.elapsed <- t.elapsed +. (float_of_int bytes /. t.params.transfer_rate);
  Wave_obs.Trace.on_write ~blocks:0 ~bytes;
  Wave_obs.Trace.on_model_seconds (float_of_int bytes /. t.params.transfer_rate);
  notify t

let note_alloc t blocks =
  t.live_blocks <- t.live_blocks + blocks;
  if t.live_blocks > t.peak_blocks then t.peak_blocks <- t.live_blocks

let alloc t ~blocks =
  if blocks <= 0 then raise (Disk_error "alloc: non-positive size");
  (* First fit over the address-sorted free list. *)
  let rec fit acc = function
    | [] -> None
    | (start, len) :: rest when len >= blocks ->
      let remainder =
        if len = blocks then [] else [ (start + blocks, len - blocks) ]
      in
      Some (start, List.rev_append acc (remainder @ rest))
    | hole :: rest -> fit (hole :: acc) rest
  in
  let start =
    match fit [] t.free_list with
    | Some (start, free_list) ->
      t.free_list <- free_list;
      start
    | None ->
      let start = t.frontier in
      t.frontier <- t.frontier + blocks;
      start
  in
  t.live <- Live.add start blocks t.live;
  t.alloc_seq <- t.alloc_seq + 1;
  Hashtbl.replace t.gen start t.alloc_seq;
  note_alloc t blocks;
  (* Zero the range so the valid-stamp-or-zero read rule is sound for
     reused space (stale stamps from a freed tenant would otherwise
     look like damage — or worse, like valid old data). *)
  (match t.backing with
  | Some bf -> Block_file.zero_range bf ~start ~blocks
  | None -> ());
  { start; length = blocks }

let lookup_live t ext =
  match Live.find_opt ext.start t.live with
  | Some len when len = ext.length -> ()
  | Some _ -> raise (Disk_error "extent shape mismatch (stale handle?)")
  | None -> raise (Disk_error "extent is not live")

let is_live t ext =
  match Live.find_opt ext.start t.live with
  | Some len -> len = ext.length
  | None -> false

let live_at t ~start ~length =
  match Live.find_opt start t.live with
  | Some len -> len = length
  | None -> false

let generation_at t ~start =
  if Live.mem start t.live then Hashtbl.find_opt t.gen start else None

let extent_covering t ~addr =
  match Live.find_last_opt (fun s -> s <= addr) t.live with
  | Some (start, length) when addr < start + length -> Some { start; length }
  | _ -> None

let live_extents t =
  Live.fold (fun start length acc -> { start; length } :: acc) t.live []
  |> List.rev

(* Insert (start, len) into the address-sorted free list, merging with
   adjacent holes so repeated alloc/free cycles do not fragment forever. *)
let insert_free free_list (start, len) =
  let rec go = function
    | [] -> [ (start, len) ]
    | (s, l) :: rest when s + l = start -> go_merge (s, l + len) rest
    | (s, l) :: rest when start + len = s -> (start, len + l) :: rest
    | (s, l) :: rest when s > start -> (start, len) :: (s, l) :: rest
    | hole :: rest -> hole :: go rest
  and go_merge (s, l) = function
    | (s2, l2) :: rest when s + l = s2 -> (s, l + l2) :: rest
    | rest -> (s, l) :: rest
  in
  go free_list

let free t ext =
  lookup_live t ext;
  (* A live epoch may still be serving probes out of this extent; the
     gate defers the free, leaving the extent live so the allocator
     cannot reuse the space and its generation stays valid.  The epoch
     layer re-issues the free once the last snapshot drains. *)
  if match t.free_gate with Some claims -> claims ext | None -> false then ()
  else begin
    t.live <- Live.remove ext.start t.live;
    Hashtbl.remove t.torn ext.start;
    Hashtbl.remove t.gen ext.start;
    t.live_blocks <- t.live_blocks - ext.length;
    t.free_list <- insert_free t.free_list (ext.start, ext.length)
  end

let check_readable t ext =
  if Hashtbl.mem t.torn ext.start then
    raise (Disk_error "torn extent: contents invalid after interrupted write")

(* Physical read + stamp verification of a prefix of a live extent.
   Damage found in the file is remembered in the torn table (the next
   read fails without re-reading) and raised like any torn extent. *)
let backed_read t ext ~blocks =
  match t.backing with
  | None -> ()
  | Some bf ->
    if blocks > 0 then begin
      let gen =
        match Hashtbl.find_opt t.gen ext.start with Some g -> g | None -> 0
      in
      if
        not
          (Block_file.verify_range bf ~start:ext.start ~blocks
             ~ext_start:ext.start ~gen)
      then begin
        Hashtbl.replace t.torn ext.start ();
        raise (Disk_error "torn extent: contents invalid after interrupted write")
      end
    end

(* Physical stamped write of a run inside a live extent. *)
let backed_write t ext ~off ~blocks =
  match t.backing with
  | None -> ()
  | Some bf ->
    if blocks > 0 then begin
      t.write_seq <- t.write_seq + 1;
      let gen =
        match Hashtbl.find_opt t.gen ext.start with Some g -> g | None -> 0
      in
      Block_file.write_range bf ~start:(ext.start + off) ~blocks
        ~ext_start:ext.start ~gen ~seq:t.write_seq
    end

let assert_readable t ext =
  lookup_live t ext;
  check_readable t ext

let charge_read_transfer t ~blocks =
  if blocks < 0 then raise (Disk_error "negative transfer");
  t.blocks_read <- t.blocks_read + blocks;
  t.elapsed <- t.elapsed +. block_seconds t blocks;
  Wave_obs.Trace.on_read ~blocks ~bytes:(blocks * t.params.block_size);
  Wave_obs.Trace.on_model_seconds (block_seconds t blocks);
  notify t

let read_blocks t ext ~blocks =
  lookup_live t ext;
  check_readable t ext;
  if blocks < 0 || blocks > ext.length then
    raise (Disk_error "read_blocks: out of extent bounds");
  charge_seek t;
  t.blocks_read <- t.blocks_read + blocks;
  t.elapsed <- t.elapsed +. block_seconds t blocks;
  Wave_obs.Trace.on_read ~blocks ~bytes:(blocks * t.params.block_size);
  Wave_obs.Trace.on_model_seconds (block_seconds t blocks);
  backed_read t ext ~blocks;
  notify t

let read t ext = read_blocks t ext ~blocks:ext.length

(* Charged write of a run inside a live extent, starting [off] blocks
   in: one seek, one write op (the fault point), the run's transfer.  A
   torn fault marks the whole destination extent, and only a complete
   rewrite ([off = 0], [blocks = length]) clears an existing tear.
   Buffer-pool flushes drain coalesced dirty runs through it, and every
   partial write (a bucket append, a write-through sub-range) lands at
   its true offset. *)
let write_run t ext ~off ~blocks =
  lookup_live t ext;
  if off < 0 || blocks < 0 || off + blocks > ext.length then
    raise (Disk_error "write_run: out of extent bounds");
  write_fault_check t ext ~off ~blocks;
  charge_seek t;
  t.write_ops <- t.write_ops + 1;
  t.blocks_written <- t.blocks_written + blocks;
  t.elapsed <- t.elapsed +. block_seconds t blocks;
  Wave_obs.Trace.on_write ~blocks ~bytes:(blocks * t.params.block_size);
  Wave_obs.Trace.on_model_seconds (block_seconds t blocks);
  if off = 0 && blocks = ext.length then Hashtbl.remove t.torn ext.start;
  backed_write t ext ~off ~blocks;
  notify t

let write_blocks t ext ~blocks = write_run t ext ~off:0 ~blocks
let write t ext = write_run t ext ~off:0 ~blocks:ext.length

(* One buffer-pool flush drain.  The drain itself moves no bytes (its
   runs charge their own seeks and transfers through [write_run]); it
   exists as an operation so crash plans can name "the k-th flush" and
   the sweep can crash with a dirty pool before any deferred write of
   the drain has happened. *)
let note_flush t =
  (match fault_check t On_flush with
  | Some _ -> raise (Disk_error "injected fault: flush")
  | None -> ());
  t.flushes <- t.flushes + 1;
  notify t

let sequential_read t exts =
  List.iter
    (fun ext ->
      lookup_live t ext;
      check_readable t ext)
    exts;
  charge_seek t;
  List.iter
    (fun ext ->
      t.blocks_read <- t.blocks_read + ext.length;
      t.elapsed <- t.elapsed +. block_seconds t ext.length;
      Wave_obs.Trace.on_read ~blocks:ext.length
        ~bytes:(ext.length * t.params.block_size);
      Wave_obs.Trace.on_model_seconds (block_seconds t ext.length);
      backed_read t ext ~blocks:ext.length)
    exts;
  notify t

let counters t =
  {
    seeks = t.seeks;
    blocks_read = t.blocks_read;
    blocks_written = t.blocks_written;
    write_ops = t.write_ops;
    flushes = t.flushes;
    elapsed = t.elapsed;
  }

let elapsed t = t.elapsed

let reset_counters t =
  t.seeks <- 0;
  t.blocks_read <- 0;
  t.blocks_written <- 0;
  t.write_ops <- 0;
  t.flushes <- 0;
  t.elapsed <- 0.0

let live_blocks t = t.live_blocks
let peak_blocks t = t.peak_blocks
let reset_peak t = t.peak_blocks <- t.live_blocks
let high_water t = t.frontier

let fragmentation t =
  if t.frontier = 0 then 0.0
  else 1.0 -. (float_of_int t.live_blocks /. float_of_int t.frontier)

let pp_counters ppf (c : counters) =
  Format.fprintf ppf
    "seeks=%d read=%d blocks written=%d blocks (%d ops, %d flushes) \
     elapsed=%.4fs"
    c.seeks c.blocks_read c.blocks_written c.write_ops c.flushes c.elapsed

(* --- fault arming --------------------------------------------------- *)

let validate_plan (point, mode) =
  if point.at < 1 then raise (Disk_error "arm_fault: need at >= 1");
  match mode with
  | Torn ->
    if point.target <> On_write then
      raise (Disk_error "arm_fault: torn mode applies to writes only")
  | Stall d -> if d < 0.0 then raise (Disk_error "arm_fault: negative stall")
  | Fail_stop -> ()

let arm_faults t plans =
  List.iter validate_plan plans;
  t.faults <-
    List.map
      (fun ((point : fault_point), mode) ->
        { p_target = point.target; p_mode = mode; p_in = point.at })
      plans

let arm_fault t ?(mode = Fail_stop) point = arm_faults t [ (point, mode) ]

let set_fault t ~after_seeks =
  if after_seeks < 1 then raise (Disk_error "set_fault: need after_seeks >= 1");
  arm_fault t { target = On_seek; at = after_seeks }

let clear_fault t = t.faults <- []
let fault_armed t = t.faults <> []

let armed_fault t =
  match t.faults with
  | [] -> None
  | p :: _ -> Some ({ target = p.p_target; at = p.p_in }, p.p_mode)

let armed_faults t =
  List.map (fun p -> ({ target = p.p_target; at = p.p_in }, p.p_mode)) t.faults

let stall_count t = t.stalls

let fault_schedule ~(before : counters) ~(after : counters) =
  let seeks = max 0 (after.seeks - before.seeks) in
  let writes = max 0 (after.write_ops - before.write_ops) in
  let flushes = max 0 (after.flushes - before.flushes) in
  List.init seeks (fun i -> { target = On_seek; at = i + 1 })
  @ List.init writes (fun i -> { target = On_write; at = i + 1 })
  @ List.init flushes (fun i -> { target = On_flush; at = i + 1 })

(* --- torn extent introspection -------------------------------------- *)

let is_torn t ext = Hashtbl.mem t.torn ext.start
let torn_at t ~start = Hashtbl.mem t.torn start
let torn_count t = Hashtbl.length t.torn

(* --- file backend lifecycle ------------------------------------------ *)

let close t =
  match t.backing with Some bf -> Block_file.close bf | None -> ()

let fsync t = match t.backing with Some bf -> Block_file.fsync bf | None -> ()

let create_file ?(params = default_params) ~path () =
  make ~params (Some (Block_file.create ~path ~block_size:params.block_size))

let alloc_sidecar path = path ^ ".alloc"

(* Allocator snapshot: a versioned line-oriented sidecar naming the
   frontier, sequence counters and every live extent with its
   generation.  Written with {!Io.write_file} (tmp, fsync, rename,
   directory fsync) so a crash leaves either the old snapshot or the
   new one, never a partial file. *)
let checkpoint_alloc t =
  match t.backing with
  | None -> ()
  | Some bf ->
    let path = alloc_sidecar (Block_file.path bf) in
    let buf = Buffer.create 256 in
    Buffer.add_string buf "waveidx-alloc/1\n";
    Printf.ksprintf (Buffer.add_string buf) "block_size %d\n"
      t.params.block_size;
    Printf.ksprintf (Buffer.add_string buf) "frontier %d\n" t.frontier;
    Printf.ksprintf (Buffer.add_string buf) "alloc_seq %d\n" t.alloc_seq;
    Printf.ksprintf (Buffer.add_string buf) "write_seq %d\n" t.write_seq;
    Live.iter
      (fun start length ->
        let g =
          match Hashtbl.find_opt t.gen start with Some g -> g | None -> 0
        in
        Printf.ksprintf (Buffer.add_string buf) "extent %d %d %d\n" start
          length g)
      t.live;
    Io.write_file path (Buffer.contents buf)

let open_file ?(params = default_params) ~path () =
  let sidecar = alloc_sidecar path in
  (* A crash inside [checkpoint_alloc] can leave its temp file behind;
     it lost the commit race, so drop it. *)
  (try Sys.remove (sidecar ^ ".tmp") with Sys_error _ -> ());
  let corrupt () =
    raise
      (Disk_error
         (Printf.sprintf "open_file: corrupt allocator snapshot %s" sidecar))
  in
  let lines =
    match open_in sidecar with
    | exception Sys_error _ ->
      raise
        (Disk_error
           (Printf.sprintf "open_file: missing allocator snapshot %s" sidecar))
    | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file ->
          close_in ic;
          List.rev acc
      in
      go []
  in
  let int s = match int_of_string_opt s with Some n -> n | None -> corrupt () in
  (match lines with
  | "waveidx-alloc/1" :: _ -> ()
  | _ -> corrupt ());
  let frontier = ref 0
  and alloc_seq = ref 0
  and write_seq = ref 0
  and extents = ref [] in
  List.iteri
    (fun i line ->
      if i > 0 then
        match String.split_on_char ' ' line with
        | [ "block_size"; b ] ->
          if int b <> params.block_size then
            raise
              (Disk_error
                 (Printf.sprintf
                    "open_file: block size mismatch (file %s, params %d)" b
                    params.block_size))
        | [ "frontier"; n ] -> frontier := int n
        | [ "alloc_seq"; n ] -> alloc_seq := int n
        | [ "write_seq"; n ] -> write_seq := int n
        | [ "extent"; s; l; g ] -> extents := (int s, int l, int g) :: !extents
        | [ "" ] | [] -> ()
        | _ -> corrupt ())
    lines;
  let extents = List.rev !extents in
  let bf = Block_file.open_existing ~path ~block_size:params.block_size in
  let t = make ~params (Some bf) in
  t.frontier <- !frontier;
  t.alloc_seq <- !alloc_seq;
  t.write_seq <- !write_seq;
  List.iter
    (fun (start, len, g) ->
      if
        len <= 0 || start < 0 || start + len > t.frontier
        || Live.mem start t.live (* a repeated start *)
      then corrupt ();
      t.live <- Live.add start len t.live;
      Hashtbl.replace t.gen start g;
      t.live_blocks <- t.live_blocks + len)
    extents;
  t.peak_blocks <- t.live_blocks;
  (* Free list: the holes below the frontier not covered by a live
     extent (Live iterates in address order).  An extent starting below
     the previous one's end overlaps it. *)
  let holes = ref [] and cursor = ref 0 in
  Live.iter
    (fun start len ->
      if start < !cursor then corrupt ();
      if start > !cursor then holes := (!cursor, start - !cursor) :: !holes;
      cursor := start + len)
    t.live;
  if t.frontier > !cursor then holes := (!cursor, t.frontier - !cursor) :: !holes;
  t.free_list <- List.rev !holes;
  (* Verify what the file really holds against the snapshot: every
     block of a live extent must carry that extent's stamp or be
     zero.  Failures — truncation, foreign or stale-generation stamps,
     CRC damage — mark the extent torn, exactly like an interrupted
     simulated write, so recovery's intactness test sees them. *)
  List.iter
    (fun (start, len, g) ->
      let intact =
        try
          Block_file.verify_range bf ~start ~blocks:len ~ext_start:start ~gen:g
        with Disk_error _ -> false
      in
      if not intact then Hashtbl.replace t.torn start ())
    extents;
  t
