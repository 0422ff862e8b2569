open Wave_disk

exception Cache_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Cache_error s)) fmt

(* A frame caches one block, named by a packed int key (DESIGN.md §5c):

     data block:  key = addr lsl 1
     metadata:    key = dir lsl 33  lor  node lsl 1  lor  1

   Data blocks (tag 0) are tagged with the allocation generation of the
   extent that covered them when loaded, and go stale when the extent
   is freed and the address reallocated (generation mismatch).
   Metadata blocks (B+tree nodes, tag 1) are named by the directory's
   namespace and the node id; node ids are never reused, so metadata
   frames cannot go stale.  Block addresses and node ids must lie in
   [0, 2^31) and namespaces in [0, 2^29), so every key is a distinct
   non-negative int.

   Residency needs no hashing.  The pool maps a block address straight
   to its frame through an int array ([map], -1 when absent), and
   metadata frames sit in a table keyed by the packed key.  A frame's
   key names the entry that points back at it, so an eviction clears
   that entry with one store. *)
let field_limit = 1 lsl 31
let ns_limit = 1 lsl 29
let free_key = -1 (* key of an unoccupied frame; never a packed key *)

let check_ns what ns =
  if ns < 0 || ns >= ns_limit then
    fail "%s %d outside the pool's key range [0, 2^29)" what ns

let data_key addr =
  if addr < 0 || addr >= field_limit then
    fail "block address %d outside the pool's key range [0, 2^31)" addr;
  addr lsl 1

let meta_key dir node =
  if node < 0 || node >= field_limit then
    fail "node id %d outside the pool's key range [0, 2^31)" node;
  (dir lsl 33) lor (node lsl 1) lor 1

let is_data key = key land 1 = 0
let addr_of_key key = key lsr 1

module Meta = Hashtbl.Make (Int)

type stats = {
  hits : int;
  misses : int;
  meta_hits : int;
  meta_misses : int;
  evictions : int;
  readaheads : int;
  stale_drops : int;
  writes_coalesced : int;
  dirty_evictions : int;
  flushes : int;
  flush_writes : int;
  flushed_blocks : int;
  dirty_discards : int;
  saved_seconds : float;
  meta_seconds : float;
}

(* The frames, as parallel arrays indexed by frame number, their
   policy, and the pool's counters (the mutable twin of [stats]). *)
type t = {
  disk : Disk.t;
  keys : int array; (* packed key, [free_key] when unoccupied *)
  gens : int array;
  pins : int array;
  refbits : Bytes.t; (* '\001' = referenced since the hand last passed *)
  dirty : Bytes.t; (* '\001' = deferred (write-back) contents not on disk *)
  meta : int Meta.t; (* packed metadata key -> frame number *)
  readahead : int;
  write_back : bool;
  mutable in_flush : bool; (* reentrancy guard: eviction inside a flush
                              must not start a nested drain *)
  mutable hand : int;
  mutable map : int array;
      (* block address -> frame, -1 when absent; as long as the highest
         address installed, or up to twice that *)
  mutable pending : int array;
      (* stack of block addresses a charged read has yet to install;
         each read pushes above [top] and pops back on exit, so a read
         re-entered from a disk-operation observer keeps its own span *)
  mutable top : int;
  mutable hits : int;
  mutable misses : int;
  mutable meta_hits : int;
  mutable meta_misses : int;
  mutable evictions : int;
  mutable readaheads : int;
  mutable stale_drops : int;
  mutable writes_coalesced : int;
  mutable dirty_evictions : int;
  mutable flushes : int;
  mutable flush_writes : int;
  mutable flushed_blocks : int;
  mutable dirty_discards : int;
  mutable saved_seconds : float;
  mutable meta_seconds : float;
}

(* Fleet-wide counters: pools also feed the always-on metrics registry
   so perf artifacts can report hit ratios without a pool handle. *)
let m_hits = Wave_obs.Metrics.counter "cache.hits"
let m_misses = Wave_obs.Metrics.counter "cache.misses"
let m_meta_hits = Wave_obs.Metrics.counter "cache.meta_hits"
let m_meta_misses = Wave_obs.Metrics.counter "cache.meta_misses"
let m_evictions = Wave_obs.Metrics.counter "cache.evictions"
let m_readaheads = Wave_obs.Metrics.counter "cache.readaheads"
let m_writes_coalesced = Wave_obs.Metrics.counter "cache.writes_coalesced"
let m_dirty_evictions = Wave_obs.Metrics.counter "cache.dirty_evictions"
let m_flushes = Wave_obs.Metrics.counter "cache.flushes"
let m_flushed_blocks = Wave_obs.Metrics.counter "cache.flushed_blocks"
let m_dirty_discards = Wave_obs.Metrics.counter "cache.dirty_discards"

let create disk ~frames ?(readahead = 0) ?(write_back = false) () =
  if frames < 1 then fail "create: need at least one frame (got %d)" frames;
  if readahead < 0 then fail "create: negative readahead";
  {
    disk;
    keys = Array.make frames free_key;
    gens = Array.make frames 0;
    pins = Array.make frames 0;
    refbits = Bytes.make frames '\000';
    dirty = Bytes.make frames '\000';
    meta = Meta.create 16;
    readahead;
    write_back;
    in_flush = false;
    hand = 0;
    map = [||];
    pending = Array.make 64 0;
    top = 0;
    hits = 0;
    misses = 0;
    meta_hits = 0;
    meta_misses = 0;
    evictions = 0;
    readaheads = 0;
    stale_drops = 0;
    writes_coalesced = 0;
    dirty_evictions = 0;
    flushes = 0;
    flush_writes = 0;
    flushed_blocks = 0;
    dirty_discards = 0;
    saved_seconds = 0.0;
    meta_seconds = 0.0;
  }

(* --- per-disk attachment -------------------------------------------- *)

let pools : (int, t) Hashtbl.t = Hashtbl.create 16

let attach disk ~frames ?(readahead = 0) ?(write_back = false) () =
  match Hashtbl.find_opt pools (Disk.id disk) with
  | Some pool -> pool
  | None ->
    let pool = create disk ~frames ~readahead ~write_back () in
    Hashtbl.replace pools (Disk.id disk) pool;
    pool

let find disk = Hashtbl.find_opt pools (Disk.id disk)
let detach disk = Hashtbl.remove pools (Disk.id disk)

(* --- frame management ----------------------------------------------- *)

let occupied t i = t.keys.(i) <> free_key
let referenced t i = Bytes.get t.refbits i <> '\000'
let set_refbit t i b = Bytes.set t.refbits i (if b then '\001' else '\000')
let is_dirty t i = Bytes.get t.dirty i <> '\000'
let clean t i = Bytes.set t.dirty i '\000'

let params t = Disk.params t.disk

let block_seconds t blocks =
  float_of_int (blocks * (params t).Disk.block_size)
  /. (params t).Disk.transfer_rate

let note_discard t =
  t.dirty_discards <- t.dirty_discards + 1;
  Wave_obs.Metrics.inc m_dirty_discards

(* Deferred write of one dirty frame, performed at eviction (or
   discarded if the covering extent is gone or reallocated — its
   contents belong to a dead extent and must never reach the disk). *)
let evict_dirty t i =
  let addr = addr_of_key t.keys.(i) in
  (match Disk.extent_covering t.disk ~addr with
  | Some ext when Disk.generation_at t.disk ~start:ext.Disk.start = Some t.gens.(i) ->
    Disk.write_run t.disk ext ~off:(addr - ext.Disk.start) ~blocks:1;
    t.dirty_evictions <- t.dirty_evictions + 1;
    Wave_obs.Metrics.inc m_dirty_evictions
  | _ -> note_discard t);
  clean t i

(* CLOCK second chance: sweep from the hand, skipping pinned frames and
   giving referenced frames one more revolution.  Two full revolutions
   ([budget]) guarantee a victim unless every frame is pinned.  The
   sweep takes everything it reads as an argument, so an eviction
   allocates no closure. *)
let rec sweep t budget =
  let n = Array.length t.keys in
  if budget = 0 then fail "no evictable frame: all %d frames pinned" n;
  let i = t.hand in
  t.hand <- (if i + 1 = n then 0 else i + 1);
  if not (occupied t i) then i
  else if t.pins.(i) > 0 then sweep t (budget - 1)
  else if referenced t i then begin
    set_refbit t i false;
    sweep t (budget - 1)
  end
  else i

(* Frame of data block [addr], or -1. *)
let data_frame t addr = if addr >= 0 && addr < Array.length t.map then t.map.(addr) else -1

(* Point [addr]'s map entry at frame [i], first growing the map
   geometrically when [addr] lies past its end. *)
let map_set t addr i =
  let len = Array.length t.map in
  if addr >= len then begin
    let bigger = Array.make (max (addr + 1) (2 * len)) (-1) in
    Array.blit t.map 0 bigger 0 len;
    t.map <- bigger
  end;
  t.map.(addr) <- i

(* Take the CLOCK victim's frame for [key], evicting its block: the
   deferred write, if dirty, then its residency entry. *)
let claim t key ~gen ~refbit =
  let i = sweep t (2 * Array.length t.keys) in
  if occupied t i then begin
    if is_dirty t i then evict_dirty t i;
    let old = t.keys.(i) in
    if is_data old then t.map.(addr_of_key old) <- -1 else Meta.remove t.meta old;
    t.evictions <- t.evictions + 1;
    Wave_obs.Metrics.inc m_evictions
  end;
  t.keys.(i) <- key;
  t.gens.(i) <- gen;
  t.pins.(i) <- 0;
  set_refbit t i refbit;
  clean t i;
  i

let install t addr ~gen ~refbit =
  let i = claim t (data_key addr) ~gen ~refbit in
  map_set t addr i;
  i

let live_gen t (ext : Disk.extent) =
  match Disk.generation_at t.disk ~start:ext.Disk.start with
  | Some g -> g
  | None -> fail "extent at %d is not live" ext.Disk.start

(* A stale frame refreshed in place carries deferred contents of a
   {e dead} extent: discard them, never write them. *)
let drop_stale_dirty t i =
  if is_dirty t i then begin
    clean t i;
    note_discard t
  end

(* Classify one data block by its frame [i] (-1 if absent): a hit gets
   its reference bit set and answers [true]; a stale or absent block
   answers [false] and is left for the caller to fetch in one batched
   charge. *)
let classify t i ~gen =
  if i >= 0 && t.gens.(i) = gen then begin
    set_refbit t i true;
    true
  end
  else false

(* Install a fetched block.  The block is looked up again rather than
   trusted to its classification: an install earlier in the same read
   may have evicted a frame the read classified as stale, and a read
   re-entered from a disk-operation observer may have installed it. *)
let settle t addr ~gen ~refbit =
  let i = data_frame t addr in
  if i >= 0 then begin
    (* Stale frame refreshed in place: same key, new generation. *)
    drop_stale_dirty t i;
    t.gens.(i) <- gen;
    set_refbit t i refbit;
    t.stale_drops <- t.stale_drops + 1
  end
  else ignore (install t addr ~gen ~refbit)

let push t x =
  if t.top = Array.length t.pending then begin
    let bigger = Array.make (2 * t.top) 0 in
    Array.blit t.pending 0 bigger 0 t.top;
    t.pending <- bigger
  end;
  t.pending.(t.top) <- x;
  t.top <- t.top + 1

(* Run [f] with the pending stack's height restored afterwards, also
   when a charge raises. *)
let with_pending t f x =
  let mark = t.top in
  match f t x mark with
  | () -> t.top <- mark
  | exception e ->
    t.top <- mark;
    raise e

(* [saved] accumulates as [saved + uncached - charged], in that order,
   so the float totals repeat the uncached model's rounding. *)
let note_data t ~hits ~misses ~uncached ~charged =
  t.saved_seconds <- t.saved_seconds +. uncached -. charged;
  t.hits <- t.hits + hits;
  t.misses <- t.misses + misses;
  if hits > 0 then Wave_obs.Metrics.inc ~by:(float_of_int hits) m_hits;
  if misses > 0 then Wave_obs.Metrics.inc ~by:(float_of_int misses) m_misses

let note_readaheads t n =
  t.readaheads <- t.readaheads + n;
  if n > 0 then Wave_obs.Metrics.inc ~by:(float_of_int n) m_readaheads

(* --- charged accesses ----------------------------------------------- *)

(* The body of [read_range] for a live, readable extent: demand misses
   and then readahead candidates are pushed above [mark], charged as
   one seek plus one transfer, and installed in address order. *)
let read_blocks t ((ext : Disk.extent), off, blocks) mark =
  let gen = live_gen t ext in
  let base = ext.Disk.start + off in
  let hits = ref 0 in
  for a = base to base + blocks - 1 do
    if classify t (data_frame t a) ~gen then incr hits else push t a
  done;
  let m = t.top - mark in
  if m > 0 && t.readahead > 0 then begin
    (* Prefetch up to [readahead] blocks following the demand range
       inside the same extent — the arm is already positioned, so they
       ride the same seek (extra transfer only). *)
    let last = ext.Disk.start + min ext.Disk.length (off + blocks + t.readahead) - 1 in
    for a = base + blocks to last do
      if not (classify t (data_frame t a) ~gen) then push t a
    done
  end;
  let n_ra = t.top - mark - m in
  if m > 0 then begin
    Disk.charge_seek t.disk;
    Disk.charge_read_transfer t.disk ~blocks:(m + n_ra);
    for k = 0 to m + n_ra - 1 do
      settle t t.pending.(mark + k) ~gen ~refbit:(k < m)
    done;
    note_readaheads t n_ra
  end;
  (* Saved versus the uncached charge (seek + whole range), net of any
     readahead transfer spent speculatively. *)
  let seek = (params t).Disk.seek_time in
  let uncached = seek +. block_seconds t blocks in
  let charged = if m = 0 then 0.0 else seek +. block_seconds t (m + n_ra) in
  note_data t ~hits:!hits ~misses:m ~uncached ~charged

let read_range t (ext : Disk.extent) ~off ~blocks =
  if off < 0 || blocks < 0 || off + blocks > ext.Disk.length then
    fail "read_range: [%d, %d) outside extent of %d blocks" off (off + blocks)
      ext.Disk.length;
  if blocks > 0 then begin
    Disk.assert_readable t.disk ext;
    with_pending t read_blocks (ext, off, blocks)
  end

let read t ext = read_range t ext ~off:0 ~blocks:ext.Disk.length

(* The body of [sequential_read]: every missing block of every extent is
   pushed above [mark] as an (address, generation) pair, then the lot
   is charged behind one seek and installed cold in scan order. *)
let scan_blocks t exts mark =
  let total = ref 0 and hits = ref 0 and runs = ref 0 and in_run = ref false in
  List.iter
    (fun (e : Disk.extent) ->
      let gen = live_gen t e in
      for a = e.Disk.start to e.Disk.start + e.Disk.length - 1 do
        incr total;
        if classify t (data_frame t a) ~gen then begin
          incr hits;
          in_run := false
        end
        else begin
          push t a;
          push t gen;
          if not !in_run then begin
            incr runs;
            in_run := true
          end
        end
      done)
    exts;
  let m = (t.top - mark) / 2 in
  if m > 0 then begin
    Disk.charge_seek t.disk;
    Disk.charge_read_transfer t.disk ~blocks:m;
    (* Scan-loaded frames enter cold (reference bit clear): a scan
       longer than the pool drains behind itself instead of evicting
       the probe working set — drop-behind readahead. *)
    for k = 0 to m - 1 do
      let p = mark + (2 * k) in
      settle t t.pending.(p) ~gen:t.pending.(p + 1) ~refbit:false
    done;
    note_readaheads t (m - !runs)
  end;
  let seek = (params t).Disk.seek_time in
  let uncached = seek +. block_seconds t !total in
  let charged = if m = 0 then 0.0 else seek +. block_seconds t m in
  note_data t ~hits:!hits ~misses:m ~uncached ~charged

let sequential_read t exts =
  if exts <> [] then begin
    List.iter (fun e -> Disk.assert_readable t.disk e) exts;
    with_pending t scan_blocks exts
  end

(* Write-back: dirty the resident frames instead of charging the disk;
   the deferred write happens at eviction ({!evict_dirty}) or at the
   next {!flush} drain, where contiguous dirty runs coalesce into one
   physical write each. *)
let write_back_range t (ext : Disk.extent) ~off ~blocks =
  if not (Disk.live_at t.disk ~start:ext.Disk.start ~length:ext.Disk.length)
  then raise (Disk.Disk_error "write: extent is not live");
  if blocks > 0 then
    if blocks > Array.length t.keys then begin
      (* The range cannot be held dirty: fall back to write-through for
         this one write (same cost and fault point as uncached). *)
      Disk.write_run t.disk ext ~off ~blocks;
      let gen = live_gen t ext in
      let base = ext.Disk.start + off in
      for a = base to base + blocks - 1 do
        let i = data_frame t a in
        if i >= 0 then begin
          drop_stale_dirty t i;
          t.gens.(i) <- gen;
          set_refbit t i true
        end
      done
    end
    else begin
      let gen = live_gen t ext in
      let base = ext.Disk.start + off in
      for a = base to base + blocks - 1 do
        let i = data_frame t a in
        let i =
          if i < 0 then install t a ~gen ~refbit:true
          else if t.gens.(i) = gen then begin
            if is_dirty t i then begin
              (* A rewrite absorbed by an already-dirty frame: the
                 whole point of write-back. *)
              t.writes_coalesced <- t.writes_coalesced + 1;
              Wave_obs.Metrics.inc m_writes_coalesced
            end;
            i
          end
          else begin
            drop_stale_dirty t i;
            t.gens.(i) <- gen;
            t.stale_drops <- t.stale_drops + 1;
            i
          end
        in
        set_refbit t i true;
        Bytes.set t.dirty i '\001'
      done
    end

let write_range t (ext : Disk.extent) ~off ~blocks =
  if off < 0 || blocks < 0 || off + blocks > ext.Disk.length then
    fail "write_range: [%d, %d) outside extent of %d blocks" off (off + blocks)
      ext.Disk.length;
  if t.write_back then write_back_range t ext ~off ~blocks
  else begin
    (* Write-through: the disk is charged exactly as an uncached write —
       same seek, same write op, same fault point.  Only if it succeeds
       do resident frames pick up the new contents (and generation). *)
    Disk.write_run t.disk ext ~off ~blocks;
    if blocks > 0 then begin
      let gen = live_gen t ext in
      let base = ext.Disk.start + off in
      for a = base to base + blocks - 1 do
        let i = data_frame t a in
        if i >= 0 then begin
          t.gens.(i) <- gen;
          set_refbit t i true
        end
        (* no write allocation *)
      done
    end
  end

let write t ext = write_range t ext ~off:0 ~blocks:ext.Disk.length

(* --- flush ----------------------------------------------------------- *)

let count_frames t p =
  let n = ref 0 in
  for i = 0 to Array.length t.keys - 1 do
    if p t i then incr n
  done;
  !n

let dirty_frames t = count_frames t (fun t i -> occupied t i && is_dirty t i)

(* Drain every dirty frame: one {!Disk.note_flush} fault point, then
   the dirty set sorted by address and written as contiguous runs — a
   shadow build's repeated bucket rewrites land as one physical write
   per bucket.  Frames are marked clean only after their run's write
   succeeds, so an injected fault mid-drain leaves the remaining frames
   dirty and a later flush resumes exactly there.  Reentrant calls (an
   eviction during the drain installing frames) are no-ops, as is any
   flush of a write-through pool or a clean pool. *)
let flush t =
  if t.write_back && not t.in_flush then begin
    let dirty = ref [] in
    for i = 0 to Array.length t.keys - 1 do
      if occupied t i && is_dirty t i then dirty := (addr_of_key t.keys.(i), i) :: !dirty
    done;
    let dirty = List.sort (fun (a1, _) (a2, _) -> Int.compare a1 a2) !dirty in
    if dirty <> [] then begin
      t.in_flush <- true;
      Fun.protect
        ~finally:(fun () -> t.in_flush <- false)
        (fun () ->
          Disk.note_flush t.disk;
          t.flushes <- t.flushes + 1;
          Wave_obs.Metrics.inc m_flushes;
          (* Resolve each frame to its covering live extent; a frame
             whose extent is gone or reallocated is discarded. *)
          let writable =
            List.filter_map
              (fun (addr, i) ->
                match Disk.extent_covering t.disk ~addr with
                | Some ext
                  when Disk.generation_at t.disk ~start:ext.Disk.start = Some t.gens.(i) ->
                  Some (addr, i, ext)
                | _ ->
                  clean t i;
                  note_discard t;
                  None)
              dirty
          in
          (* Coalesce into maximal contiguous runs within one extent,
             then write each run with a single operation. *)
          let write_run_group = function
            | [] -> ()
            | (addr0, _, (ext : Disk.extent)) :: _ as group ->
              let n = List.length group in
              Disk.write_run t.disk ext ~off:(addr0 - ext.Disk.start) ~blocks:n;
              List.iter (fun (_, i, _) -> clean t i) group;
              t.flush_writes <- t.flush_writes + 1;
              t.flushed_blocks <- t.flushed_blocks + n;
              Wave_obs.Metrics.inc ~by:(float_of_int n) m_flushed_blocks
          in
          let rec drain group = function
            | [] -> write_run_group (List.rev group)
            | ((addr, _, (ext : Disk.extent)) as item) :: rest -> (
              match group with
              | (prev, _, (ext0 : Disk.extent)) :: _
                when addr = prev + 1 && ext0.Disk.start = ext.Disk.start ->
                drain (item :: group) rest
              | [] -> drain [ item ] rest
              | _ ->
                write_run_group (List.rev group);
                drain [ item ] rest)
          in
          drain [] writable)
    end
  end

let discard_dirty t =
  let n = ref 0 in
  for i = 0 to Array.length t.keys - 1 do
    if occupied t i && is_dirty t i then begin
      note_discard t;
      clean t i;
      incr n
    end
  done;
  !n

let rec meta_read_nodes t dir = function
  | [] -> ()
  | node :: rest ->
    let key = meta_key dir node in
    (match Meta.find t.meta key with
    | i ->
      set_refbit t i true;
      t.meta_hits <- t.meta_hits + 1;
      Wave_obs.Metrics.inc m_meta_hits
    | exception Not_found ->
      (* A cold upper-level block: pointer-chased, so each miss pays
         its own seek — exactly the term a warm pool removes. *)
      Disk.charge_seek t.disk;
      Disk.charge_read_transfer t.disk ~blocks:1;
      t.meta_seconds <- t.meta_seconds +. (params t).Disk.seek_time +. block_seconds t 1;
      t.meta_misses <- t.meta_misses + 1;
      Wave_obs.Metrics.inc m_meta_misses;
      Meta.replace t.meta key (claim t key ~gen:0 ~refbit:true));
    meta_read_nodes t dir rest

let meta_read t ~dir ~nodes =
  check_ns "directory namespace" dir;
  meta_read_nodes t dir nodes

(* --- pinning --------------------------------------------------------- *)

(* Epoch pinning: keep what is already resident of a snapshot extent in
   the pool for the epoch's lifetime, without charging any I/O.  Only
   frames whose generation matches the extent's current live generation
   are pinned — a stale frame is not snapshot contents.  [budget] bounds
   how many frames one epoch may pin so that a small pool can never end
   up fully pinned (eviction would then have no victim); the returned
   addresses are exactly the blocks pinned, to be released with
   [unpin_blocks].

   Eviction invariant (see [sweep]): a frame with [pins > 0] is never
   selected, whatever its reference bit — so a frame pinned by a
   retired-but-undrained epoch survives any amount of cache pressure
   until the epoch's last reader drains and unpins it. *)
let pin_resident_blocks t (ext : Disk.extent) ~budget =
  let gen = live_gen t ext in
  let pinned = ref [] in
  let left = ref budget in
  for a = ext.Disk.start to ext.Disk.start + ext.Disk.length - 1 do
    let i = data_frame t a in
    if !left > 0 && i >= 0 && t.gens.(i) = gen then begin
      t.pins.(i) <- t.pins.(i) + 1;
      decr left;
      pinned := a :: !pinned
    end
  done;
  List.rev !pinned

let unpin_blocks t addrs =
  (* Validate first so a failed unpin changes nothing; pinned frames
     cannot be evicted, so every address must still be resident. *)
  List.iter
    (fun addr ->
      let i = data_frame t addr in
      if i < 0 then fail "unpin_blocks: pinned block %d is not resident" addr
      else if t.pins.(i) <= 0 then
        fail "unpin_blocks: block %d pin count would drop below zero" addr)
    addrs;
  List.iter
    (fun addr ->
      let i = data_frame t addr in
      t.pins.(i) <- t.pins.(i) - 1)
    addrs

let pinned_frames t = count_frames t (fun t i -> t.pins.(i) > 0)

(* --- observation ----------------------------------------------------- *)

let capacity t = Array.length t.keys
let resident t = count_frames t occupied

let contains t (ext : Disk.extent) =
  match Disk.generation_at t.disk ~start:ext.Disk.start with
  | None -> false
  | Some gen ->
    let rec go a =
      a = ext.Disk.start + ext.Disk.length
      ||
      let i = data_frame t a in
      i >= 0 && t.gens.(i) = gen && go (a + 1)
    in
    go ext.Disk.start

(* Every occupied frame is the entry of its key, and every entry points
   back at a frame holding its key. *)
let validate t =
  let n = Array.length t.keys in
  let holds key i = i >= 0 && i < n && t.keys.(i) = key in
  let entry key =
    if is_data key then data_frame t (addr_of_key key)
    else Option.value (Meta.find_opt t.meta key) ~default:(-1)
  in
  Array.iteri
    (fun i key ->
      if key <> free_key && entry key <> i then
        fail "validate: frame %d holds key %d, whose entry is %d" i key (entry key))
    t.keys;
  Array.iteri
    (fun addr i ->
      if i <> -1 && not (holds (data_key addr) i) then
        fail "validate: block %d maps to frame %d, which holds another key" addr i)
    t.map;
  Meta.iter
    (fun key i ->
      if not (holds key i) then
        fail "validate: node key %d maps to frame %d, which holds another key" key i)
    t.meta

let stats t : stats =
  {
    hits = t.hits;
    misses = t.misses;
    meta_hits = t.meta_hits;
    meta_misses = t.meta_misses;
    evictions = t.evictions;
    readaheads = t.readaheads;
    stale_drops = t.stale_drops;
    writes_coalesced = t.writes_coalesced;
    dirty_evictions = t.dirty_evictions;
    flushes = t.flushes;
    flush_writes = t.flush_writes;
    flushed_blocks = t.flushed_blocks;
    dirty_discards = t.dirty_discards;
    saved_seconds = t.saved_seconds;
    meta_seconds = t.meta_seconds;
  }

let add_stats (a : stats) (b : stats) : stats =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    meta_hits = a.meta_hits + b.meta_hits;
    meta_misses = a.meta_misses + b.meta_misses;
    evictions = a.evictions + b.evictions;
    readaheads = a.readaheads + b.readaheads;
    stale_drops = a.stale_drops + b.stale_drops;
    writes_coalesced = a.writes_coalesced + b.writes_coalesced;
    dirty_evictions = a.dirty_evictions + b.dirty_evictions;
    flushes = a.flushes + b.flushes;
    flush_writes = a.flush_writes + b.flush_writes;
    flushed_blocks = a.flushed_blocks + b.flushed_blocks;
    dirty_discards = a.dirty_discards + b.dirty_discards;
    saved_seconds = a.saved_seconds +. b.saved_seconds;
    meta_seconds = a.meta_seconds +. b.meta_seconds;
  }

let hit_ratio (s : stats) =
  Wave_util.Stats.ratio (float_of_int s.hits) (float_of_int (s.hits + s.misses))

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "hits=%d misses=%d (ratio %.3f) meta=%d/%d evictions=%d readahead=%d \
     stale=%d saved=%.4fs meta-cost=%.4fs"
    s.hits s.misses (hit_ratio s) s.meta_hits
    (s.meta_hits + s.meta_misses)
    s.evictions s.readaheads s.stale_drops s.saved_seconds s.meta_seconds;
  if
    s.writes_coalesced > 0 || s.flushes > 0 || s.dirty_evictions > 0
    || s.dirty_discards > 0
  then
    Format.fprintf ppf
      " wb[coalesced=%d flushes=%d runs=%d blocks=%d evict-writes=%d \
       discards=%d]"
      s.writes_coalesced s.flushes s.flush_writes s.flushed_blocks
      s.dirty_evictions s.dirty_discards
