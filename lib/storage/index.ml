open Wave_disk
module Cache = Wave_cache.Cache

type config = {
  entry_bytes : int;
  growth_factor : float;
  min_alloc_entries : int;
  build_cpu_per_entry : float;
  add_cpu_per_entry : float;
  cache_blocks : int option;
  cache_readahead : int;
  cache_write_back : bool;
  disk_backend : Disk.backend;
}

let default_config =
  {
    entry_bytes = 100;
    growth_factor = 2.0;
    min_alloc_entries = 4;
    build_cpu_per_entry = 0.0;
    add_cpu_per_entry = 0.0;
    cache_blocks = None;
    cache_readahead = 0;
    cache_write_back = false;
    disk_backend = Disk.Sim;
  }

exception Index_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Index_error s)) fmt

(* Tracing: one span per index-level operation.  Tag lists are only
   built when tracing is enabled so the disabled path stays
   allocation-free. *)
let span = Wave_obs.Trace.with_span

let make_disk ?(seek_time = 0.014) ?(transfer_rate = 10e6) cfg =
  let params =
    { Disk.seek_time; transfer_rate; block_size = cfg.entry_bytes }
  in
  match cfg.disk_backend with
  | Disk.Sim -> Disk.create ~params ()
  | Disk.File path -> Disk.create_file ~params ~path ()

(* Disk extents are allocated with a granularity of one entry per block,
   so that packed indexes are charged exactly their minimal size.  The
   disk's [block_size] must therefore equal [entry_bytes]; [make_disk]
   (in the mli's companion helpers) builds a consistent disk. *)

type shared_ext = { sext : Disk.extent; mutable refs : int }

(* A packed install gives all its buckets one [In_shared] home. *)
type home = Own of Disk.extent | In_shared of shared_ext

type bucket = {
  value : int;
  mutable entries : Entry.t array; (* length = used, copied on change *)
  mutable home : home;
  mutable cap : int; (* capacity in entries *)
  off : int; (* offset in the shared extent, while the home is shared *)
}

type t = {
  cfg : config;
  dsk : Disk.t;
  cache : Cache.t option; (* per-disk buffer pool; None = paper's cost model *)
  dir : bucket Btree.t; (* the memory-resident directory of Section 2 *)
  mutable packed : bool;
  mutable shared : shared_ext option;
  mutable total_used : int;
  mutable total_alloc : int; (* entries of capacity held, incl. dead shared space *)
}

let config t = t.cfg
let disk t = t.dsk
let cache t = t.cache

(* The pool is attached to the disk, not the index: every constituent
   sharing the disk shares frames, and Multi_disk gets one per arm. *)
let cache_of_config dsk cfg =
  match cfg.cache_blocks with
  | None -> None
  | Some frames ->
    if frames < 1 then fail "cache_blocks must be >= 1 (got %d)" frames;
    Some
      (Cache.attach dsk ~frames ~readahead:cfg.cache_readahead
         ~write_back:cfg.cache_write_back ())

let check_disk_compat disk cfg =
  if (Disk.params disk).Disk.block_size <> cfg.entry_bytes then
    fail "disk block size %d must equal entry_bytes %d (one entry per block)"
      (Disk.params disk).Disk.block_size cfg.entry_bytes;
  if cfg.growth_factor <= 1.0 then fail "growth_factor must exceed 1.0";
  if cfg.min_alloc_entries < 1 then fail "min_alloc_entries must be >= 1";
  if cfg.entry_bytes < 1 then fail "entry_bytes must be >= 1"

let create_empty dsk cfg =
  check_disk_compat dsk cfg;
  {
    cfg;
    dsk;
    cache = cache_of_config dsk cfg;
    dir = Btree.create ();
    packed = true;
    shared = None;
    total_used = 0;
    total_alloc = 0;
  }

let used_of b = Array.length b.entries

(* ------------------------------------------------------------------ *)
(* Shared-extent bookkeeping                                          *)
(* ------------------------------------------------------------------ *)

let decref_shared t s =
  s.refs <- s.refs - 1;
  if s.refs = 0 then begin
    Disk.free t.dsk s.sext;
    t.total_alloc <- t.total_alloc - s.sext.Disk.length;
    match t.shared with
    | Some s' when s' == s -> t.shared <- None
    | _ -> ()
  end

let release_home t b =
  match b.home with
  | Own e ->
    Disk.free t.dsk e;
    t.total_alloc <- t.total_alloc - e.Disk.length
  | In_shared s -> decref_shared t s

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let bucket_read_charge t b =
  let used = used_of b in
  if used > 0 then
    match (t.cache, b.home) with
    | None, Own e -> Disk.read_blocks t.dsk e ~blocks:used
    | None, In_shared s ->
      Disk.read_blocks t.dsk s.sext ~blocks:(min used s.sext.Disk.length)
    | Some c, Own e -> Cache.read_range c e ~off:0 ~blocks:used
    | Some c, In_shared s ->
      (* The pool is block-granular, so unlike the prefix-proxy charge
         above it can use the bucket's true address range. *)
      Cache.read_range c s.sext ~off:b.off
        ~blocks:(min used (s.sext.Disk.length - b.off))

(* Directory lookups are free in the paper's model (the directory is
   memory-resident).  With a pool attached, the model instead treats
   directory pages as disk blocks cached like any other: a probe
   charges each cold node on its root-to-leaf path one seek + one
   block, and a warm pool holds the upper levels so repeat probes pay
   nothing — the cache-aware cost accounting of DESIGN.md §5c. *)
let dir_read_charge t v =
  match t.cache with
  | None -> ()
  | Some c ->
    Cache.meta_read c ~dir:(Btree.uid t.dir)
      ~nodes:(Btree.search_path t.dir v)

let charged_sequential_read t exts =
  if exts <> [] then
    match t.cache with
    | None -> Disk.sequential_read t.dsk exts
    | Some c -> Cache.sequential_read c exts

(* Write-through: the disk sees the identical write (cost, counters,
   fault points, file offset) whether or not a pool is attached;
   resident frames in the written range are refreshed, never
   allocated. *)
let charged_write_blocks t ext ~off ~blocks =
  match t.cache with
  | None -> Disk.write_run t.dsk ext ~off ~blocks
  | Some c -> Cache.write_range c ext ~off ~blocks

let entries_in groups = Array.fold_left (fun acc es -> acc + Array.length es) 0 groups

(* Install packed contents: one extent, the buckets [groups] of the
   ascending [values] at cumulative offsets, zero slack. *)
let install_packed t (values, groups) =
  let total = entries_in groups in
  if total = 0 then begin
    t.packed <- true;
    t.shared <- None
  end
  else begin
    let ext = Disk.alloc t.dsk ~blocks:total in
    charged_write_blocks t ext ~off:0 ~blocks:total;
    let s = { sext = ext; refs = Array.length groups } in
    let home = In_shared s and off = ref 0 in
    for i = 0 to Array.length groups - 1 do
      let v = values.(i) and es = groups.(i) in
      Btree.add_last t.dir v
        { value = v; entries = es; home; cap = Array.length es; off = !off };
      off := !off + Array.length es
    done;
    t.shared <- Some s;
    t.total_alloc <- t.total_alloc + total;
    t.total_used <- total;
    t.packed <- true
  end

let build dsk cfg batches =
  span "index.build" (fun () ->
      check_disk_compat dsk cfg;
      let t = create_empty dsk cfg in
      let groups = Entry.group_by_value batches in
      Disk.charge_delay dsk
        (cfg.build_cpu_per_entry *. float_of_int (entries_in (snd groups)));
      install_packed t groups;
      t)

(* ------------------------------------------------------------------ *)
(* Observation                                                        *)
(* ------------------------------------------------------------------ *)

let entry_count t = t.total_used
let distinct_values t = Btree.length t.dir
let is_packed t = t.packed

let days t =
  let seen = Hashtbl.create 16 in
  Btree.iter t.dir (fun _ b ->
      Array.iter
        (fun (e : Entry.t) ->
          if not (Hashtbl.mem seen e.Entry.day) then Hashtbl.add seen e.Entry.day ())
        b.entries);
  Hashtbl.fold (fun d () acc -> d :: acc) seen [] |> List.sort Int.compare

let used_bytes t = t.total_used * t.cfg.entry_bytes
let allocated_bytes t = t.total_alloc * t.cfg.entry_bytes
let allocated_blocks t = t.total_alloc

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)
(* ------------------------------------------------------------------ *)

let probe_bucket t v =
  span "index.probe" (fun () ->
      dir_read_charge t v;
      match Btree.find t.dir v with
      | None -> [||]
      | Some b ->
        bucket_read_charge t b;
        b.entries)

let probe t v = Array.to_list (probe_bucket t v)

let timed_onto (es : Entry.t array) ~t1 ~t2 tail =
  let acc = ref tail in
  for i = Array.length es - 1 downto 0 do
    let e = es.(i) in
    if e.Entry.day >= t1 && e.Entry.day <= t2 then acc := e :: !acc
  done;
  !acc

let probe_timed t v ~t1 ~t2 = timed_onto (probe_bucket t v) ~t1 ~t2 []

let scan_extents t =
  (* Every extent this index holds: the shared home (live part or not —
     a scan of an unpacked index pays for its slack and dead space, the
     paper's S' accounting) plus each bucket-owned extent. *)
  let own =
    Btree.fold t.dir ~init:[] ~f:(fun acc _ b ->
        match b.home with Own e -> e :: acc | In_shared _ -> acc)
  in
  match t.shared with Some s -> s.sext :: List.rev own | None -> List.rev own

let extents t = scan_extents t

let scan_charge t =
  span "index.scan" (fun () ->
      if t.total_used > 0 || t.total_alloc > 0 then
        charged_sequential_read t (scan_extents t))

(* Buckets from the highest value down, each consed from its end, so
   the result is in value order then bucket order.  Several indexes
   are merged the same way: each one's buckets are listed from the
   highest value down, and the merge conses the highest head first,
   the last index's on a tie, so a shared value ends up in list order. *)
let scan_onto idxs ~t1 ~t2 tail =
  match idxs with
  | [] -> tail
  | [ t ] ->
    Btree.fold_descending t.dir ~init:tail ~f:(fun acc _ b ->
        timed_onto b.entries ~t1 ~t2 acc)
  | _ ->
    let heads =
      Array.of_list
        (List.map
           (fun t ->
             Btree.fold t.dir ~init:[] ~f:(fun l _ b -> b :: l))
           idxs)
    in
    let rec merge acc =
      let top = ref (-1) and top_v = ref min_int in
      for i = 0 to Array.length heads - 1 do
        match heads.(i) with
        | b :: _ when !top < 0 || b.value >= !top_v ->
          top := i;
          top_v := b.value
        | _ -> ()
      done;
      if !top < 0 then acc
      else
        match heads.(!top) with
        | b :: rest ->
          heads.(!top) <- rest;
          merge (timed_onto b.entries ~t1 ~t2 acc)
        | [] -> assert false
    in
    merge tail

(* A loop rather than [Array.iter], so the accumulator stays local:
   nothing is allocated per bucket. *)
let fold_timed t ~t1 ~t2 ~init ~f =
  Btree.fold t.dir ~init ~f:(fun acc _ b ->
      let es = b.entries in
      let acc = ref acc in
      for i = 0 to Array.length es - 1 do
        let e = es.(i) in
        if e.Entry.day >= t1 && e.Entry.day <= t2 then acc := f !acc e
      done;
      !acc)

let scan t =
  scan_charge t;
  scan_onto [ t ] ~t1:min_int ~t2:max_int []

let scan_timed t ~t1 ~t2 =
  scan_charge t;
  scan_onto [ t ] ~t1 ~t2 []

(* ------------------------------------------------------------------ *)
(* Mutation                                                           *)
(* ------------------------------------------------------------------ *)

(* The entries of [es] whose day [expired] rejects, counted first and
   then copied.  When nothing expired this is [es] itself: entry arrays
   are never mutated in place, so buckets may share them. *)
let survivors es expired =
  let kept = ref 0 in
  Array.iter (fun (e : Entry.t) -> if not (expired e.Entry.day) then incr kept) es;
  if !kept = Array.length es then es
  else begin
    let out = Array.make !kept es.(0) in
    let j = ref 0 in
    Array.iter
      (fun (e : Entry.t) ->
        if not (expired e.Entry.day) then begin
          out.(!j) <- e;
          incr j
        end)
      es;
    out
  end

let grow_target t needed =
  let g = t.cfg.growth_factor in
  let by_g = int_of_float (ceil (float_of_int needed *. g)) in
  max t.cfg.min_alloc_entries (max needed by_g)

(* Move bucket [b] to a fresh extent of capacity [new_cap], charging the
   copy (read old contents + write them to the new home). *)
let relocate t b ~new_cap ~extra_entries =
  let old_used = used_of b in
  if old_used > 0 then bucket_read_charge t b;
  let ext = Disk.alloc t.dsk ~blocks:new_cap in
  let new_used = old_used + Array.length extra_entries in
  charged_write_blocks t ext ~off:0 ~blocks:new_used;
  release_home t b;
  b.home <- Own ext;
  b.cap <- new_cap;
  t.total_alloc <- t.total_alloc + new_cap;
  if Array.length extra_entries > 0 then
    b.entries <- Array.append b.entries extra_entries

let add_group t v es =
  let n_new = Array.length es in
  match Btree.find t.dir v with
  | None ->
    let cap = grow_target t n_new in
    let ext = Disk.alloc t.dsk ~blocks:cap in
    charged_write_blocks t ext ~off:0 ~blocks:n_new;
    t.total_alloc <- t.total_alloc + cap;
    Btree.insert t.dir v { value = v; entries = es; home = Own ext; cap; off = 0 }
  | Some b ->
    let used = used_of b in
    let fits = match b.home with Own _ -> used + n_new <= b.cap | In_shared _ -> false in
    if fits then begin
      (* Append into the existing allocation: seek + write of the tail. *)
      (match b.home with
      | Own e -> charged_write_blocks t e ~off:used ~blocks:n_new
      | In_shared _ -> assert false);
      b.entries <- Array.append b.entries es
    end
    else relocate t b ~new_cap:(grow_target t (used + n_new)) ~extra_entries:es

let add_batch t (batch : Entry.batch) =
  span "index.add" (fun () ->
      let values, groups = Entry.group_by_value [ batch ] in
      Disk.charge_delay t.dsk
        (t.cfg.add_cpu_per_entry *. float_of_int (Entry.batch_size batch));
      Array.iteri (fun i es -> add_group t values.(i) es) groups;
      t.total_used <- t.total_used + Entry.batch_size batch;
      if Entry.batch_size batch > 0 then t.packed <- false)

let delete_days t expired =
  span "index.delete" (fun () ->
  let removed = ref 0 in
  let to_delete = ref [] in
  Btree.iter t.dir (fun v b ->
      let keep = survivors b.entries expired in
      let dropped = used_of b - Array.length keep in
      if dropped > 0 then begin
        removed := !removed + dropped;
        (* Rewrite the bucket in place: read it, write back survivors. *)
        bucket_read_charge t b;
        b.entries <- keep;
        let used = Array.length keep in
        if used = 0 then to_delete := v :: !to_delete
        else begin
          (match b.home with
          | Own e -> charged_write_blocks t e ~off:0 ~blocks:used
          | In_shared s ->
            charged_write_blocks t s.sext ~off:b.off
              ~blocks:(min used (s.sext.Disk.length - b.off)));
          (* CONTIGUOUS shrink: if mostly empty, move to a tighter home. *)
          let g = t.cfg.growth_factor in
          let shrink_below = float_of_int b.cap /. (g *. g) in
          match b.home with
          | Own _ when float_of_int used < shrink_below
                       && grow_target t used < b.cap ->
            relocate t b ~new_cap:(grow_target t used) ~extra_entries:[||]
          | _ -> ()
        end
      end);
  List.iter
    (fun v ->
      match Btree.find t.dir v with
      | None -> ()
      | Some b ->
        release_home t b;
        ignore (Btree.remove t.dir v))
    !to_delete;
  Disk.charge_delay t.dsk (t.cfg.add_cpu_per_entry *. float_of_int !removed);
  t.total_used <- t.total_used - !removed;
  if !removed > 0 then t.packed <- false;
  !removed)

(* Epoch veto on whole-index teardown.  [drop] both frees extents and
   clears the in-memory directory, so a gated free alone would leave a
   snapshot probing an empty index; when the gate claims the index the
   entire drop is deferred — structure and extents stay intact — and
   the epoch layer re-calls [drop] (through this gate again, so a
   second still-live snapshot re-defers) once the last reader drains. *)
let drop_gate : (t -> bool) ref = ref (fun _ -> false)
let set_drop_gate f = drop_gate := f

let drop t =
  if !drop_gate t then ()
  else begin
  (* Constant-time unlink: free every extent without transfer charges. *)
  let seen_shared = ref [] in
  Btree.iter t.dir (fun _ b ->
      match b.home with
      | Own e ->
        Disk.free t.dsk e;
        t.total_alloc <- t.total_alloc - e.Disk.length
      | In_shared s ->
        if not (List.memq s !seen_shared) then seen_shared := s :: !seen_shared);
  List.iter
    (fun s ->
      Disk.free t.dsk s.sext;
      t.total_alloc <- t.total_alloc - s.sext.Disk.length)
    !seen_shared;
  (match t.shared with
  | Some s when not (List.memq s !seen_shared) ->
    (* Shared extent with buckets all gone but refcount drained lazily. *)
    if Disk.is_live t.dsk s.sext then begin
      Disk.free t.dsk s.sext;
      t.total_alloc <- t.total_alloc - s.sext.Disk.length
    end
  | _ -> ());
  t.shared <- None;
  Btree.clear t.dir;
  t.total_used <- 0;
  t.packed <- true;
  if t.total_alloc <> 0 then fail "drop: allocation accounting leak (%d)" t.total_alloc
  end

(* ------------------------------------------------------------------ *)
(* Shadow operations                                                  *)
(* ------------------------------------------------------------------ *)

(* The values of [t]'s buckets, ascending, and [f] of each bucket's
   entries, leaving out the buckets [f] empties: the arrays
   [install_packed] takes. *)
let buckets t f =
  let n = Btree.length t.dir in
  let values = Array.make n 0 and groups = Array.make n [||] and k = ref 0 in
  Btree.iter t.dir (fun v b ->
      let es = f b.entries in
      if Array.length es > 0 then begin
        values.(!k) <- v;
        groups.(!k) <- es;
        incr k
      end);
  if !k = n then (values, groups) else (Array.sub values 0 !k, Array.sub groups 0 !k)

let copy t =
  span "index.copy" (fun () ->
  let t' =
    {
      cfg = t.cfg;
      dsk = t.dsk;
      cache = t.cache;
      dir = Btree.create ();
      packed = t.packed;
      shared = None;
      total_used = 0;
      total_alloc = 0;
    }
  in
  (* Charge: stream the source out and the duplicate in. *)
  let exts = scan_extents t in
  charged_sequential_read t exts;
  (* The copy's buckets share the source's entry arrays: they are never
     mutated in place, so neither index can change the other's. *)
  if t.packed then install_packed t' (buckets t Fun.id)
  else begin
    (* Reproduce the unpacked layout bucket by bucket (same caps), but
       charge the flush as one sequential write: a shadow copy streams
       to a fresh contiguous region rather than seeking per bucket. *)
    let written = ref 0 in
    Btree.iter t.dir (fun v b ->
        let cap = b.cap in
        let ext = Disk.alloc t'.dsk ~blocks:cap in
        t'.total_alloc <- t'.total_alloc + cap;
        written := !written + used_of b;
        Btree.add_last t'.dir v
          { value = v; entries = b.entries; home = Own ext; cap; off = 0 });
    if !written > 0 then begin
      Disk.charge_seek t.dsk;
      Disk.charge_transfer_bytes t.dsk (!written * t.cfg.entry_bytes)
    end;
    t'.total_used <- t.total_used;
    t'.packed <- false
  end;
  t')

(* Merge two value-ordered bucket sets; a value in both gets [a]'s
   entries followed by [b]'s. *)
let merge_groups (av, ag) (bv, bg) =
  let na = Array.length av and nb = Array.length bv in
  let values = Array.make (na + nb) 0 and groups = Array.make (na + nb) [||] in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  let take v es =
    values.(!k) <- v;
    groups.(!k) <- es;
    incr k
  in
  while !i < na || !j < nb do
    if !j = nb || (!i < na && av.(!i) < bv.(!j)) then begin
      take av.(!i) ag.(!i);
      incr i
    end
    else if !i = na || bv.(!j) < av.(!i) then begin
      take bv.(!j) bg.(!j);
      incr j
    end
    else begin
      take av.(!i) (Array.append ag.(!i) bg.(!j));
      incr i;
      incr j
    end
  done;
  if !k = na + nb then (values, groups) else (Array.sub values 0 !k, Array.sub groups 0 !k)

let pack t ~drop_days ~extra =
  span "index.pack" (fun () ->
  (* Packed shadow update (Section 2.1, technique 3): build a temporary
     packed index for the inserts, then stream the source dropping
     expired entries while merging the temporary in, producing a fresh
     packed index.  The source is left untouched. *)
  let temp = build t.dsk t.cfg extra in
  (* Stream the source: one sequential read, dropping expired days. *)
  charged_sequential_read t (scan_extents t);
  let kept = buckets t (fun es -> survivors es drop_days) in
  (* Stream the temporary index in (one sequential read) and merge its
     buckets behind the survivors of the same value. *)
  charged_sequential_read t (scan_extents temp);
  let added = buckets temp Fun.id in
  drop temp;
  let t' = create_empty t.dsk t.cfg in
  install_packed t' (merge_groups kept added);
  t')

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

let validate t =
  let used = ref 0 in
  let alloc = ref 0 in
  let shared_seen = ref [] in
  Btree.iter t.dir (fun v b ->
      if b.value <> v then fail "bucket value %d filed under %d" b.value v;
      let u = used_of b in
      if u = 0 then fail "empty bucket for value %d retained" v;
      used := !used + u;
      match b.home with
      | Own e ->
        if not (Disk.is_live t.dsk e) then fail "dead extent for value %d" v;
        if b.cap <> e.Disk.length then
          fail "cap %d <> extent length %d for value %d" b.cap e.Disk.length v;
        if u > b.cap then fail "overfull bucket for value %d" v;
        alloc := !alloc + b.cap
      | In_shared s ->
        if not (Disk.is_live t.dsk s.sext) then fail "dead shared extent";
        if b.off < 0 || b.off + b.cap > s.sext.Disk.length then
          fail "bucket for value %d overflows shared extent" v;
        if u > b.cap then fail "overfull shared bucket for value %d" v;
        if not (List.memq s !shared_seen) then shared_seen := s :: !shared_seen);
  List.iter (fun s -> alloc := !alloc + s.sext.Disk.length) !shared_seen;
  (match t.shared with
  | Some s when not (List.memq s !shared_seen) ->
    (* A retained shared home with no remaining buckets would be a leak
       unless still live awaiting decref. *)
    if Disk.is_live t.dsk s.sext then alloc := !alloc + s.sext.Disk.length
  | _ -> ());
  if !used <> t.total_used then
    fail "used accounting: computed %d, recorded %d" !used t.total_used;
  if !alloc <> t.total_alloc then
    fail "alloc accounting: computed %d, recorded %d" !alloc t.total_alloc;
  if t.packed && t.total_alloc <> t.total_used then
    fail "packed index with slack: alloc %d <> used %d" t.total_alloc t.total_used;
  if t.packed then begin
    (* Packedness also requires a single shared extent (or emptiness). *)
    match (t.shared, !shared_seen) with
    | None, [] -> if t.total_used <> 0 then fail "packed, no extent, but entries"
    | Some _, [ _ ] | Some _, [] -> ()
    | _ -> fail "packed index with multiple homes"
  end
