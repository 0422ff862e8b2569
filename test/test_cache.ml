(* Tests for the Wave_cache buffer pool: CLOCK eviction, pinning,
   generation invalidation, write-through, readahead, cost accounting —
   and the two system-level guarantees: cache-off runs are bit-identical
   to the pre-pool build (golden digests), and cache-on runs return the
   same query answers for less model time. *)

open Wave_core
open Wave_disk
open Wave_storage
open Wave_cache

let icfg = Index.default_config
let mk_disk () = Index.make_disk icfg
let seek = 0.014

(* One-block-granular pool over a raw disk (no index on top). *)
let mk_pool ?(frames = 3) ?(readahead = 0) () =
  let disk = mk_disk () in
  (disk, Cache.create disk ~frames ~readahead ())

let check_stat name expect actual = Alcotest.(check int) name expect actual

(* --- hit / miss cost accounting -------------------------------------- *)

let test_miss_then_hit () =
  let disk, pool = mk_pool ~frames:8 () in
  let e = Disk.alloc disk ~blocks:4 in
  Disk.write disk e;
  let t0 = Disk.elapsed disk in
  Cache.read pool e;
  let cold = Disk.elapsed disk -. t0 in
  Alcotest.(check bool) "cold read charged" true (cold > 0.0);
  let t1 = Disk.elapsed disk in
  Cache.read pool e;
  Alcotest.(check (float 0.0)) "warm read free" 0.0 (Disk.elapsed disk -. t1);
  let s = Cache.stats pool in
  check_stat "hits" 4 s.Cache.hits;
  check_stat "misses" 4 s.Cache.misses;
  Alcotest.(check bool) "saved the warm read" true
    (s.Cache.saved_seconds > 0.0);
  Alcotest.(check bool) "contains" true (Cache.contains pool e)

let test_miss_charges_like_uncached () =
  (* A fully-cold read must charge exactly what Disk.read would. *)
  let disk, pool = mk_pool ~frames:8 () in
  let twin = mk_disk () in
  let e = Disk.alloc disk ~blocks:5 in
  Disk.write disk e;
  let e' = Disk.alloc twin ~blocks:5 in
  Disk.write twin e';
  let t0 = Disk.elapsed disk and u0 = Disk.elapsed twin in
  Cache.read pool e;
  Disk.read twin e';
  Alcotest.(check (float 1e-12))
    "cold pool read = uncached read"
    (Disk.elapsed twin -. u0)
    (Disk.elapsed disk -. t0)

(* --- CLOCK (second chance) ------------------------------------------- *)

let test_clock_second_chance () =
  let disk, pool = mk_pool ~frames:3 () in
  let block () =
    let e = Disk.alloc disk ~blocks:1 in
    Disk.write disk e;
    e
  in
  let a = block () and b = block () and c = block () in
  Cache.read pool a;
  Cache.read pool b;
  Cache.read pool c;
  (* All referenced; the hand sweeps clearing bits and comes back to the
     oldest frame: d evicts a. *)
  let d = block () in
  Cache.read pool d;
  Alcotest.(check bool) "a evicted" false (Cache.contains pool a);
  Alcotest.(check bool) "b survives" true (Cache.contains pool b);
  Alcotest.(check bool) "c survives" true (Cache.contains pool c);
  (* Re-reference b; the next victim is then c (b gets its second
     chance, c's bit was cleared by the previous sweep). *)
  Cache.read pool b;
  let f = block () in
  Cache.read pool f;
  Alcotest.(check bool) "b kept its second chance" true
    (Cache.contains pool b);
  Alcotest.(check bool) "c evicted" false (Cache.contains pool c);
  Alcotest.(check bool) "d survives" true (Cache.contains pool d);
  let s = Cache.stats pool in
  check_stat "two evictions" 2 s.Cache.evictions

(* --- pinning ---------------------------------------------------------- *)

let test_pinned_never_evicted () =
  let disk, pool = mk_pool ~frames:3 () in
  let p = Disk.alloc disk ~blocks:1 in
  Disk.write disk p;
  Cache.read pool p;
  let pinned = Cache.pin_resident_blocks pool p ~budget:1 in
  Alcotest.(check int) "one pinned frame" 1 (Cache.pinned_frames pool);
  for _ = 1 to 10 do
    let e = Disk.alloc disk ~blocks:1 in
    Disk.write disk e;
    Cache.read pool e
  done;
  Alcotest.(check bool) "pinned frame still resident" true
    (Cache.contains pool p);
  Cache.unpin_blocks pool pinned;
  Alcotest.(check int) "unpinned" 0 (Cache.pinned_frames pool)

let test_all_pinned_raises () =
  let disk, pool = mk_pool ~frames:2 () in
  let a = Disk.alloc disk ~blocks:1 and b = Disk.alloc disk ~blocks:1 in
  Disk.write disk a;
  Disk.write disk b;
  Cache.read pool a;
  Cache.read pool b;
  ignore (Cache.pin_resident_blocks pool a ~budget:1);
  ignore (Cache.pin_resident_blocks pool b ~budget:1);
  let c = Disk.alloc disk ~blocks:1 in
  Disk.write disk c;
  Alcotest.check_raises "no evictable frame"
    (Cache.Cache_error "no evictable frame: all 2 frames pinned") (fun () ->
      Cache.read pool c)

let test_unpin_below_zero_raises () =
  let disk, pool = mk_pool ~frames:4 () in
  let e = Disk.alloc disk ~blocks:2 in
  Disk.write disk e;
  Cache.read pool e;
  let pinned = Cache.pin_resident_blocks pool e ~budget:2 in
  Cache.unpin_blocks pool pinned;
  Alcotest.(check bool) "second unpin raises" true
    (match Cache.unpin_blocks pool pinned with
    | () -> false
    | exception Cache.Cache_error _ -> true)

let test_resident_pins_survive_pressure () =
  (* The epoch-snapshot pin: pin_resident_blocks pins what is already
     resident (no I/O), and eviction must never select those frames —
     a retired-but-undrained epoch's working set survives any cache
     pressure until the epoch drains and unpins. *)
  let disk, pool = mk_pool ~frames:4 () in
  let snap = Disk.alloc disk ~blocks:2 in
  Disk.write disk snap;
  Cache.read pool snap;
  let t0 = Disk.elapsed disk in
  let addrs = Cache.pin_resident_blocks pool snap ~budget:2 in
  Alcotest.(check (float 0.0)) "pinning charges no I/O" 0.0
    (Disk.elapsed disk -. t0);
  Alcotest.(check int) "both resident blocks pinned" 2 (List.length addrs);
  Alcotest.(check int) "pinned frames" 2 (Cache.pinned_frames pool);
  (* Budget respected: a second caller gets only what remains. *)
  let cold = Disk.alloc disk ~blocks:3 in
  Disk.write disk cold;
  Alcotest.(check int) "absent blocks skipped" 0
    (List.length (Cache.pin_resident_blocks pool cold ~budget:8));
  for _ = 1 to 12 do
    let e = Disk.alloc disk ~blocks:1 in
    Disk.write disk e;
    Cache.read pool e
  done;
  Alcotest.(check bool) "pinned snapshot blocks still resident" true
    (Cache.contains pool snap);
  Alcotest.(check int) "pins intact under pressure" 2
    (Cache.pinned_frames pool);
  Cache.unpin_blocks pool addrs;
  Alcotest.(check int) "drain unpins" 0 (Cache.pinned_frames pool);
  for _ = 1 to 12 do
    let e = Disk.alloc disk ~blocks:1 in
    Disk.write disk e;
    Cache.read pool e
  done;
  Alcotest.(check bool) "unpinned frames evict normally" false
    (Cache.contains pool snap)

(* --- invalidation on free / realloc ---------------------------------- *)

let test_generation_invalidation () =
  let disk, pool = mk_pool ~frames:8 () in
  let e = Disk.alloc disk ~blocks:2 in
  Disk.write disk e;
  Cache.read pool e;
  Alcotest.(check bool) "resident before free" true (Cache.contains pool e);
  Disk.free disk e;
  let e' = Disk.alloc disk ~blocks:2 in
  Alcotest.(check int) "allocator reused the address" e.Disk.start
    e'.Disk.start;
  Disk.write disk e';
  Alcotest.(check bool) "stale frames do not satisfy the new extent" false
    (Cache.contains pool e');
  let t0 = Disk.elapsed disk in
  Cache.read pool e';
  Alcotest.(check bool) "stale read recharged" true (Disk.elapsed disk > t0);
  let s = Cache.stats pool in
  check_stat "stale drops" 2 s.Cache.stale_drops;
  Alcotest.(check bool) "now resident under new generation" true
    (Cache.contains pool e')

let test_stale_block_evicted_by_its_own_read () =
  (* Frames hold blocks 1 and 2 of a freed extent when its addresses are
     reallocated.  A read of blocks 0-2 classifies 1 and 2 as stale, and
     installing block 0 then evicts block 1's frame: block 1 must be
     looked up again, found absent and installed, not refreshed in a
     frame that now holds block 0. *)
  let disk, pool = mk_pool ~frames:2 () in
  let e = Disk.alloc disk ~blocks:3 in
  Disk.write disk e;
  Cache.read_range pool e ~off:1 ~blocks:2;
  Disk.free disk e;
  let e' = Disk.alloc disk ~blocks:3 in
  Alcotest.(check int) "allocator reused the address" e.Disk.start e'.Disk.start;
  Disk.write disk e';
  Cache.read pool e';
  Cache.validate pool;
  let s = Cache.stats pool in
  check_stat "no block refreshed in place" 0 s.Cache.stale_drops;
  check_stat "each install evicted" 3 s.Cache.evictions;
  let t0 = Disk.elapsed disk in
  Cache.read_range pool e' ~off:1 ~blocks:2;
  Alcotest.(check (float 0.0)) "blocks 1 and 2 resident" 0.0 (Disk.elapsed disk -. t0)

let test_read_dead_extent_raises () =
  let disk, pool = mk_pool ~frames:8 () in
  let e = Disk.alloc disk ~blocks:2 in
  Disk.write disk e;
  Cache.read pool e;
  Disk.free disk e;
  Alcotest.(check bool) "reading a freed extent raises even when resident"
    true
    (match Cache.read pool e with
    | () -> false
    | exception Disk.Disk_error _ -> true
    | exception Cache.Cache_error _ -> true)

(* --- write-through ---------------------------------------------------- *)

let test_write_through_no_allocate () =
  let disk, pool = mk_pool ~frames:8 () in
  let twin = mk_disk () in
  let e = Disk.alloc disk ~blocks:3 in
  let e' = Disk.alloc twin ~blocks:3 in
  let t0 = Disk.elapsed disk and u0 = Disk.elapsed twin in
  Cache.write pool e;
  Disk.write twin e';
  Alcotest.(check (float 1e-12))
    "write-through charged exactly like uncached"
    (Disk.elapsed twin -. u0)
    (Disk.elapsed disk -. t0);
  Alcotest.(check int) "blocks_written counted" 3
    (Disk.counters disk).Disk.blocks_written;
  Alcotest.(check int) "no write allocation" 0 (Cache.resident pool);
  (* But a resident frame is refreshed, not invalidated, by a write. *)
  Cache.read pool e;
  Cache.write pool e;
  Alcotest.(check bool) "still resident after write" true
    (Cache.contains pool e);
  let t1 = Disk.elapsed disk in
  Cache.read pool e;
  Alcotest.(check (float 0.0)) "re-read after write is warm" 0.0
    (Disk.elapsed disk -. t1)

(* --- write-back -------------------------------------------------------- *)

let mk_wb_pool ?(frames = 8) () =
  let disk = mk_disk () in
  (disk, Cache.create disk ~frames ~write_back:true ())

let test_wb_defer_flush_coalesce () =
  let disk, pool = mk_wb_pool () in
  let e = Disk.alloc disk ~blocks:4 in
  let t0 = Disk.elapsed disk in
  Cache.write pool e;
  Alcotest.(check (float 0.0)) "deferred write charges nothing" 0.0
    (Disk.elapsed disk -. t0);
  check_stat "four dirty frames" 4 (Cache.dirty_frames pool);
  (* Rewrites are absorbed by the already-dirty frames. *)
  Cache.write pool e;
  check_stat "coalesced" 4 (Cache.stats pool).Cache.writes_coalesced;
  check_stat "nothing written yet" 0 (Disk.counters disk).Disk.blocks_written;
  (* The flush drains the whole extent as one physical write, at exactly
     the cost of one uncached write. *)
  let twin = mk_disk () in
  let e' = Disk.alloc twin ~blocks:4 in
  let u0 = Disk.elapsed twin in
  Disk.write twin e';
  let t1 = Disk.elapsed disk in
  Cache.flush pool;
  Alcotest.(check (float 1e-12)) "flush = one uncached write"
    (Disk.elapsed twin -. u0)
    (Disk.elapsed disk -. t1);
  let c = Disk.counters disk in
  check_stat "one write op" 1 c.Disk.write_ops;
  check_stat "four blocks" 4 c.Disk.blocks_written;
  check_stat "one flush noted" 1 c.Disk.flushes;
  let s = Cache.stats pool in
  check_stat "one drain" 1 s.Cache.flushes;
  check_stat "one run" 1 s.Cache.flush_writes;
  check_stat "four blocks flushed" 4 s.Cache.flushed_blocks;
  check_stat "clean after flush" 0 (Cache.dirty_frames pool);
  (* Flushing a clean pool is a complete no-op... *)
  Cache.flush pool;
  check_stat "no second drain" 1 (Cache.stats pool).Cache.flushes;
  check_stat "no second note" 1 (Disk.counters disk).Disk.flushes;
  (* ...and the flushed frames stay resident and warm. *)
  let t2 = Disk.elapsed disk in
  Cache.read pool e;
  Alcotest.(check (float 0.0)) "flushed frames still warm" 0.0
    (Disk.elapsed disk -. t2)

let test_wb_flush_splits_runs () =
  let disk, pool = mk_wb_pool () in
  let e = Disk.alloc disk ~blocks:3 in
  Cache.write_range pool e ~off:0 ~blocks:1;
  Cache.write_range pool e ~off:2 ~blocks:1;
  Cache.flush pool;
  let s = Cache.stats pool in
  check_stat "two runs (hole at block 1)" 2 s.Cache.flush_writes;
  check_stat "two blocks" 2 s.Cache.flushed_blocks;
  check_stat "two write ops" 2 (Disk.counters disk).Disk.write_ops

let test_wb_eviction_writes_only_victim () =
  let disk, pool = mk_wb_pool ~frames:2 () in
  let a = Disk.alloc disk ~blocks:1 and b = Disk.alloc disk ~blocks:1 in
  let c = Disk.alloc disk ~blocks:1 in
  Cache.write pool a;
  Cache.write pool b;
  (* Reading c needs a frame: the CLOCK hand evicts a, performing its
     deferred write — alone.  b stays dirty: no cascading drain. *)
  Cache.read pool c;
  let s = Cache.stats pool in
  check_stat "one dirty eviction" 1 s.Cache.dirty_evictions;
  check_stat "only the victim written" 1
    (Disk.counters disk).Disk.blocks_written;
  check_stat "b still dirty" 1 (Cache.dirty_frames pool);
  check_stat "no flush drain" 0 s.Cache.flushes;
  Alcotest.(check bool) "a evicted" false (Cache.contains pool a);
  Alcotest.(check bool) "b resident" true (Cache.contains pool b)

let test_wb_pinned_dirty_flushable () =
  let disk, pool = mk_wb_pool ~frames:3 () in
  let p = Disk.alloc disk ~blocks:1 in
  Cache.read pool p;
  let pinned = Cache.pin_resident_blocks pool p ~budget:1 in
  Cache.write pool p;
  check_stat "dirty" 1 (Cache.dirty_frames pool);
  (* Eviction pressure cannot claim the pinned dirty frame... *)
  for _ = 1 to 8 do
    let e = Disk.alloc disk ~blocks:1 in
    Cache.read pool e
  done;
  Alcotest.(check bool) "pinned dirty frame survives" true
    (Cache.contains pool p);
  check_stat "still dirty" 1 (Cache.dirty_frames pool);
  check_stat "never written at eviction" 0
    (Cache.stats pool).Cache.dirty_evictions;
  (* ...but a flush cleans it in place: pinning defers eviction, not
     durability. *)
  Cache.flush pool;
  check_stat "clean after flush" 0 (Cache.dirty_frames pool);
  check_stat "flushed one block" 1 (Cache.stats pool).Cache.flushed_blocks;
  Alcotest.(check int) "still pinned" 1 (Cache.pinned_frames pool);
  Alcotest.(check bool) "still resident" true (Cache.contains pool p);
  Cache.unpin_blocks pool pinned

let test_wb_dirty_discarded_on_free () =
  let disk, pool = mk_wb_pool () in
  let e = Disk.alloc disk ~blocks:2 in
  Cache.write pool e;
  Disk.free disk e;
  Cache.flush pool;
  check_stat "both frames discarded" 2 (Cache.stats pool).Cache.dirty_discards;
  check_stat "nothing written" 0 (Disk.counters disk).Disk.blocks_written;
  check_stat "clean" 0 (Cache.dirty_frames pool)

let test_wb_dirty_discarded_on_realloc () =
  (* Same address, new allocation generation: the deferred contents
     belong to the dead extent and must never clobber the new one. *)
  let disk, pool = mk_wb_pool () in
  let e = Disk.alloc disk ~blocks:2 in
  Cache.write pool e;
  Disk.free disk e;
  let e' = Disk.alloc disk ~blocks:2 in
  Alcotest.(check int) "allocator reused the address" e.Disk.start
    e'.Disk.start;
  Disk.write disk e';
  let w0 = (Disk.counters disk).Disk.blocks_written in
  Cache.flush pool;
  check_stat "stale deferred writes discarded" 2
    (Cache.stats pool).Cache.dirty_discards;
  check_stat "flush wrote nothing" w0 (Disk.counters disk).Disk.blocks_written

let test_wb_oversized_write_falls_through () =
  let disk, pool = mk_wb_pool ~frames:2 () in
  let e = Disk.alloc disk ~blocks:3 in
  Cache.write pool e;
  check_stat "written through" 3 (Disk.counters disk).Disk.blocks_written;
  check_stat "no dirty frames" 0 (Cache.dirty_frames pool)

let test_wb_flush_resumes_after_fault () =
  let disk, pool = mk_wb_pool () in
  let e1 = Disk.alloc disk ~blocks:2 in
  let e2 = Disk.alloc disk ~blocks:2 in
  Cache.write pool e1;
  Cache.write pool e2;
  (* Fail the drain's second run: e1's frames are already clean, e2's
     stay dirty. *)
  Disk.arm_fault disk { Disk.target = Disk.On_write; at = 2 };
  Alcotest.(check bool) "drain faulted" true
    (match Cache.flush pool with
    | () -> false
    | exception Disk.Disk_error _ -> true);
  Disk.clear_fault disk;
  check_stat "first run landed" 2 (Disk.counters disk).Disk.blocks_written;
  check_stat "second run still dirty" 2 (Cache.dirty_frames pool);
  (* A later flush resumes with exactly the remaining frames. *)
  Cache.flush pool;
  check_stat "all blocks on disk" 4 (Disk.counters disk).Disk.blocks_written;
  check_stat "clean" 0 (Cache.dirty_frames pool);
  let s = Cache.stats pool in
  check_stat "two drains" 2 s.Cache.flushes;
  check_stat "two runs landed" 2 s.Cache.flush_writes

let test_wb_flush_fault_point_precedes_drain () =
  let disk, pool = mk_wb_pool () in
  let e = Disk.alloc disk ~blocks:3 in
  Cache.write pool e;
  Disk.arm_fault disk { Disk.target = Disk.On_flush; at = 1 };
  Alcotest.(check bool) "flush point fired" true
    (match Cache.flush pool with
    | () -> false
    | exception Disk.Disk_error _ -> true);
  Disk.clear_fault disk;
  (* The crash hit before any deferred write reached the disk: the pool
     is still fully dirty and nothing was written or counted. *)
  check_stat "nothing written" 0 (Disk.counters disk).Disk.blocks_written;
  check_stat "no flush recorded" 0 (Disk.counters disk).Disk.flushes;
  check_stat "still fully dirty" 3 (Cache.dirty_frames pool);
  (* What a crash does next: recovery throws the deferred writes away;
     the frames stay resident but clean.  Idempotent. *)
  check_stat "three discards" 3 (Cache.discard_dirty pool);
  check_stat "clean" 0 (Cache.dirty_frames pool);
  check_stat "idempotent" 0 (Cache.discard_dirty pool)

let test_wb_torn_flush_heals_on_rewrite () =
  let disk, pool = mk_wb_pool () in
  let e = Disk.alloc disk ~blocks:2 in
  Cache.write pool e;
  Disk.arm_fault disk ~mode:Disk.Torn { Disk.target = Disk.On_write; at = 1 };
  Alcotest.(check bool) "torn drain raises" true
    (match Cache.flush pool with
    | () -> false
    | exception Disk.Disk_error _ -> true);
  Disk.clear_fault disk;
  Alcotest.(check bool) "extent torn" true (Disk.is_torn disk e);
  check_stat "frames stay dirty" 2 (Cache.dirty_frames pool);
  (* The retry rewrites the whole extent in one run, clearing the tear
     exactly as an uncached full rewrite would. *)
  Cache.flush pool;
  Alcotest.(check bool) "tear healed by full rewrite" false
    (Disk.is_torn disk e);
  check_stat "clean" 0 (Cache.dirty_frames pool)

(* --- residency ---------------------------------------------------------- *)

let test_map_grows_to_far_address () =
  (* A fresh pool's address map is empty.  Two near blocks go in first,
     then one at the far end of a large extent: the map grows past it,
     keeps the near entries, and all three blocks hit afterwards. *)
  let disk, pool = mk_pool ~frames:4 () in
  let e = Disk.alloc disk ~blocks:100_000 in
  Disk.write disk e;
  Cache.read_range pool e ~off:0 ~blocks:2;
  Cache.read_range pool e ~off:99_999 ~blocks:1;
  Cache.validate pool;
  let t0 = Disk.elapsed disk in
  Cache.read_range pool e ~off:0 ~blocks:2;
  Cache.read_range pool e ~off:99_999 ~blocks:1;
  Alcotest.(check (float 0.0)) "rereads free" 0.0 (Disk.elapsed disk -. t0);
  let s = Cache.stats pool in
  check_stat "hits" 3 s.Cache.hits;
  check_stat "misses" 3 s.Cache.misses;
  check_stat "resident" 3 (Cache.resident pool)

let test_eviction_allocates_nothing () =
  (* Bytecode boxes what native code keeps in registers, so only native
     code can hold the pool to zero words per block. *)
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let disk, pool = mk_pool ~frames:64 () in
  let small = Disk.alloc disk ~blocks:1_000 and large = Disk.alloc disk ~blocks:2_000 in
  Disk.write disk small;
  Disk.write disk large;
  (* Warm-up grows the address map past both extents and the pending
     stack past 2,000 entries.  Each read leaves only the tail of its
     own extent resident, so every measured read misses every block and
     evicts for each one. *)
  Cache.read pool small;
  Cache.read pool large;
  let words ext =
    let w0 = Gc.minor_words () in
    Cache.read pool ext;
    Gc.minor_words () -. w0
  in
  let w_small = words small in
  let w_large = words large in
  let s = Cache.stats pool in
  check_stat "every block missed" 6_000 s.Cache.misses;
  check_stat "every miss past the first 64 evicted" (6_000 - 64) s.Cache.evictions;
  Alcotest.(check (float 0.0)) "2,000 misses allocate what 1,000 do" w_small w_large

let test_full_hit_allocates_nothing () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let disk, pool = mk_pool ~frames:8 () in
  let e = Disk.alloc disk ~blocks:4 in
  Disk.write disk e;
  Cache.read pool e;
  let w0 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Cache.read_range pool e ~off:0 ~blocks:4
  done;
  let words = Gc.minor_words () -. w0 in
  check_stat "every read after the first hit every block" 400_000
    (Cache.stats pool).Cache.hits;
  Alcotest.(check (float 0.0)) "100,000 full hits allocate nothing" 0.0 words

(* A pool sized far past its use allocates its frame arrays only as
   frames are first taken, so creating it costs no per-frame memory and
   holding 100 blocks costs about 100 frames' worth. *)
let test_pool_grows_on_demand () =
  let disk = mk_disk () in
  let e = Disk.alloc disk ~blocks:100 in
  Disk.write disk e;
  let b0 = Gc.allocated_bytes () in
  let pool = Cache.create disk ~frames:1_000_000 () in
  let created = Gc.allocated_bytes () -. b0 in
  Cache.read pool e;
  let held = Gc.allocated_bytes () -. b0 in
  check_stat "capacity" 1_000_000 (Cache.capacity pool);
  check_stat "resident" 100 (Cache.resident pool);
  Cache.validate pool;
  Alcotest.(check bool)
    (Printf.sprintf "creating allocates %.0f bytes, under 4 KB" created)
    true (created < 4_096.);
  Alcotest.(check bool)
    (Printf.sprintf "holding 100 blocks allocated %.0f bytes, under 64 KB" held)
    true (held < 65_536.)

(* Map residency.  The pool finds a block's frame through its address
   map alone.  Each test below leaves a run of blocks in frames that an
   eviction, a wrap past the last frame or a reallocation has disturbed:
   every map entry must point at the block's own frame, under the
   block's own generation, or at no frame.  (The suite keeps the name of
   the frame-after-predecessor hint these cases were written for; the
   pool no longer has one.) *)

let test_hint_run_broken_by_eviction () =
  (* Four one-block extents scanned into frames 0-3, then a demand read
     evicts the second: frames [a0; z; a2; a3].  a1's map entry is
     cleared, so a rescan misses a1 and still finds a2 and a3. *)
  let disk, pool = mk_pool ~frames:4 () in
  let a = List.init 4 (fun _ -> Disk.alloc disk ~blocks:1) in
  let z = Disk.alloc disk ~blocks:1 in
  List.iter (Disk.write disk) (z :: a);
  Cache.sequential_read pool a;
  Cache.read pool (List.hd a);
  Cache.read pool z;
  let s = Cache.stats pool in
  check_stat "z evicted one block" 1 s.Cache.evictions;
  Alcotest.(check (list bool))
    "the run's second block is gone" [ true; false; true; true ]
    (List.map (Cache.contains pool) a);
  let t0 = Disk.elapsed disk in
  Cache.sequential_read pool a;
  Alcotest.(check (float 1e-12))
    "rescan charged one seek and one block" (seek +. (100.0 /. 10e6))
    (Disk.elapsed disk -. t0);
  let s = Cache.stats pool in
  check_stat "hits: a0, then a0 a2 a3" 4 s.Cache.hits;
  check_stat "misses: a0-a3, z, a1" 6 s.Cache.misses;
  check_stat "a1 evicted a2" 2 s.Cache.evictions;
  Alcotest.(check (list bool))
    "a1 back, a2 out" [ true; true; false; true ]
    (List.map (Cache.contains pool) a);
  Alcotest.(check bool) "z kept" true (Cache.contains pool z)

let test_hint_run_wraps_last_frame () =
  (* A four-block extent read after one other block fills frames 1-3
     and wraps to frame 0: [e3; e0; e1; e2].  The extent's blocks sit in
     frames out of address order, and every reread, scan, pin and write
     must still find all four through the map. *)
  let disk, pool = mk_pool ~frames:4 () in
  let x = Disk.alloc disk ~blocks:1 in
  let e = Disk.alloc disk ~blocks:4 in
  Disk.write disk x;
  Disk.write disk e;
  Cache.read pool x;
  Cache.read pool e;
  Alcotest.(check bool) "x evicted" false (Cache.contains pool x);
  let t0 = Disk.elapsed disk in
  Cache.read pool e;
  Cache.sequential_read pool [ e ];
  Cache.read pool e;
  let pinned = Cache.pin_resident_blocks pool e ~budget:4 in
  check_stat "pinned" 4 (Cache.pinned_frames pool);
  Cache.write pool e;
  Cache.unpin_blocks pool pinned;
  check_stat "unpinned" 0 (Cache.pinned_frames pool);
  let s = Cache.stats pool in
  check_stat "every reread hit" 12 s.Cache.hits;
  check_stat "only the first reads missed" 5 s.Cache.misses;
  Alcotest.(check (float 1e-12))
    "rereads free; the write charged as uncached"
    (seek +. (4.0 *. 100.0 /. 10e6))
    (Disk.elapsed disk -. t0)

let test_hint_stale_run () =
  (* Frames still hold a freed extent's blocks, in consecutive frames,
     when the address is reallocated: every block's map entry finds its
     frame under the old generation, which must not count as resident. *)
  let disk, pool = mk_pool ~frames:8 () in
  let e = Disk.alloc disk ~blocks:3 in
  Disk.write disk e;
  Cache.read pool e;
  Disk.free disk e;
  let e' = Disk.alloc disk ~blocks:3 in
  Alcotest.(check int) "allocator reused the address" e.Disk.start
    e'.Disk.start;
  Disk.write disk e';
  Alcotest.(check bool) "stale run does not satisfy the new extent" false
    (Cache.contains pool e');
  let t0 = Disk.elapsed disk in
  Cache.read pool e';
  Alcotest.(check bool) "stale run recharged" true (Disk.elapsed disk > t0);
  Cache.read pool e';
  let s = Cache.stats pool in
  check_stat "refreshed in place" 3 s.Cache.stale_drops;
  check_stat "misses" 6 s.Cache.misses;
  check_stat "hits" 3 s.Cache.hits;
  check_stat "no eviction" 0 s.Cache.evictions;
  (* Write-back: the dead extent's dirty run is discarded, not written,
     and the new extent's run flushes as one write. *)
  let disk, pool = mk_wb_pool () in
  let e = Disk.alloc disk ~blocks:3 in
  Cache.write pool e;
  Disk.free disk e;
  let e' = Disk.alloc disk ~blocks:3 in
  Cache.write pool e';
  Cache.flush pool;
  let s = Cache.stats pool in
  check_stat "dead run discarded" 3 s.Cache.dirty_discards;
  check_stat "refreshed in place" 3 s.Cache.stale_drops;
  check_stat "one flush write" 1 s.Cache.flush_writes;
  check_stat "of the new run" 3 s.Cache.flushed_blocks;
  check_stat "nothing else written" 3 (Disk.counters disk).Disk.blocks_written

(* --- readahead -------------------------------------------------------- *)

let test_demand_readahead () =
  let disk, pool = mk_pool ~frames:16 ~readahead:4 () in
  let e = Disk.alloc disk ~blocks:6 in
  Disk.write disk e;
  Cache.read_range pool e ~off:0 ~blocks:1;
  let s = Cache.stats pool in
  check_stat "one demand miss" 1 s.Cache.misses;
  check_stat "four blocks prefetched" 4 s.Cache.readaheads;
  (* The prefetched blocks are warm... *)
  let t0 = Disk.elapsed disk in
  Cache.read_range pool e ~off:1 ~blocks:4;
  Alcotest.(check (float 0.0)) "prefetched blocks are free" 0.0
    (Disk.elapsed disk -. t0);
  (* ...but the sixth block was beyond the prefetch window. *)
  Cache.read_range pool e ~off:5 ~blocks:1;
  check_stat "sixth block missed" 2 (Cache.stats pool).Cache.misses

let test_scan_batches_runs () =
  let disk, pool = mk_pool ~frames:32 () in
  let e1 = Disk.alloc disk ~blocks:4 in
  let e2 = Disk.alloc disk ~blocks:4 in
  Disk.write disk e1;
  Disk.write disk e2;
  let s0 = (Disk.counters disk).Disk.seeks in
  let t0 = Disk.elapsed disk in
  Cache.sequential_read pool [ e1; e2 ];
  let cold = Disk.elapsed disk -. t0 in
  (* One seek for the whole scan, like Disk.sequential_read. *)
  Alcotest.(check int) "one seek" 1 ((Disk.counters disk).Disk.seeks - s0);
  Alcotest.(check bool) "cold scan charged" true (cold > 0.0);
  check_stat "blocks beyond first-of-run count as readahead" 7
    (Cache.stats pool).Cache.readaheads;
  let t1 = Disk.elapsed disk in
  Cache.sequential_read pool [ e1; e2 ];
  Alcotest.(check (float 0.0)) "warm scan free" 0.0 (Disk.elapsed disk -. t1)

(* --- metadata (directory) caching ------------------------------------- *)

let test_meta_read () =
  let disk, pool = mk_pool ~frames:16 () in
  let t0 = Disk.elapsed disk in
  Cache.meta_read pool ~dir:1 ~nodes:[ 10; 11; 12 ];
  let cold = Disk.elapsed disk -. t0 in
  Alcotest.(check (float 1e-12)) "each cold node pays seek + block"
    (3.0 *. (seek +. (100.0 /. 10e6)))
    cold;
  let t1 = Disk.elapsed disk in
  Cache.meta_read pool ~dir:1 ~nodes:[ 10; 11; 12 ];
  Alcotest.(check (float 0.0)) "warm walk free" 0.0 (Disk.elapsed disk -. t1);
  (* Same node ids in a different namespace are distinct blocks. *)
  Cache.meta_read pool ~dir:2 ~nodes:[ 10 ];
  let s = Cache.stats pool in
  check_stat "meta hits" 3 s.Cache.meta_hits;
  check_stat "meta misses" 4 s.Cache.meta_misses;
  Alcotest.(check bool) "meta seconds accounted" true
    (s.Cache.meta_seconds > 0.0);
  (* Node ids count up from 0: a negative one is refused by name. *)
  Alcotest.check_raises "negative node id"
    (Cache.Cache_error "node id -1 outside the pool's key range [0, 2^31)")
    (fun () -> Cache.meta_read pool ~dir:1 ~nodes:[ -1 ]);
  check_stat "nothing charged" 4 (Cache.stats pool).Cache.meta_misses

(* --- index integration ------------------------------------------------ *)

let store day =
  Entry.batch_create ~day
    (Array.init 8 (fun i ->
         {
           Entry.value = 1 + ((day + i) mod 6);
           entry = { Entry.rid = (day * 100) + i; day; info = i + 1 };
         }))

let cached_icfg ?(frames = 256) ?(readahead = 4) () =
  { icfg with Index.cache_blocks = Some frames; cache_readahead = readahead }

let test_warm_probe_speedup () =
  (* Acceptance: warm cached probes at least 2x faster than uncached. *)
  let cold_env = Env.create ~store ~w:6 ~n:3 () in
  let cold = Scheme.start Scheme.Del cold_env in
  Scheme.advance_to cold 12;
  let warm_env = Env.create ~icfg:(cached_icfg ()) ~store ~w:6 ~n:3 () in
  let warm = Scheme.start Scheme.Del warm_env in
  Scheme.advance_to warm 12;
  let time env f =
    let d = env.Env.disk in
    let t0 = Disk.elapsed d in
    ignore (f ());
    Disk.elapsed d -. t0
  in
  let probe_all frame =
    List.init 6 (fun v ->
        Frame.timed_index_probe frame ~t1:7 ~t2:12 ~value:(v + 1))
  in
  let uncached = time cold_env (fun () -> probe_all (Scheme.frame cold)) in
  (* Warm-up pass, then the measured pass. *)
  ignore (probe_all (Scheme.frame warm));
  let cached = time warm_env (fun () -> probe_all (Scheme.frame warm)) in
  Alcotest.(check bool)
    (Printf.sprintf "warm probes >= 2x faster (%.4f vs %.4f)" cached uncached)
    true
    (cached *. 2.0 <= uncached);
  let pool = Option.get (Index.cache (Frame.slot_index (Scheme.frame warm) 1)) in
  Alcotest.(check bool) "pool saw hits" true ((Cache.stats pool).Cache.hits > 0)

let queries =
  {
    Wave_workload.Query_gen.seed = 7;
    probes_per_day = 12;
    probe_range = Wave_workload.Query_gen.Whole_window;
    scans_per_day = 1;
    scan_range = Wave_workload.Query_gen.Whole_window;
    value_dist = Wave_workload.Query_gen.Uniform 6;
  }

let run_sim ?icfg:(cfg = icfg) ~scheme ~technique ~queries () =
  Wave_sim.Runner.run
    {
      (Wave_sim.Runner.default_config ~scheme ~store ~w:6 ~n:3) with
      Wave_sim.Runner.technique;
      run_days = 8;
      queries = Some queries;
      icfg = cfg;
    }

(* Golden digests of full-precision day_metrics captured on the pre-pool
   build (PR 2 head): the default cache-off configuration must keep
   every scheme x technique simulation bit-identical.  Zero tolerance —
   any drift in charging order or float arithmetic fails here. *)
let golden =
  [
    ("DEL/in-place", "c194da751668c6dd35f7989fdf7a2e66");
    ("DEL/simple-shadow", "57ae513533419766e72d54015d150bd9");
    ("DEL/packed-shadow", "383ef529dd7f92d5f9bd38249d809e55");
    ("REINDEX/in-place", "685b723819649c8b5d2cb9fa92c85e31");
    ("REINDEX/simple-shadow", "685b723819649c8b5d2cb9fa92c85e31");
    ("REINDEX/packed-shadow", "685b723819649c8b5d2cb9fa92c85e31");
    ("REINDEX+/in-place", "daa2ba199dd5bd4f7a507edab4ed8d0b");
    ("REINDEX+/simple-shadow", "daa2ba199dd5bd4f7a507edab4ed8d0b");
    ("REINDEX+/packed-shadow", "b6e934135b219dedd7e08c595ee0c623");
    ("REINDEX++/in-place", "6281b4c1b53ab78460669ef6f5070e8a");
    ("REINDEX++/simple-shadow", "6281b4c1b53ab78460669ef6f5070e8a");
    ("REINDEX++/packed-shadow", "a0f02ce1a66e6df7da6ead7c861d75a7");
    ("WATA*/in-place", "c13e9b61d80da9dff9aeb16c3f120727");
    ("WATA*/simple-shadow", "0dac12b437f26886c49ee3b80df45b61");
    ("WATA*/packed-shadow", "79bd5a2140f75706a935182808ebb755");
    ("RATA*/in-place", "122cb2d2deb4d5db9e7c8a32a6fb51f4");
    ("RATA*/simple-shadow", "bc1c01fc5d3bbb2da925f320a8bbc43e");
    ("RATA*/packed-shadow", "546da938cd2b8ea04696aaa076951659");
  ]

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

let test_cache_off_bit_identical () =
  List.iter
    (fun scheme ->
      List.iter
        (fun technique ->
          let r = run_sim ~scheme ~technique ~queries () in
          let name =
            Printf.sprintf "%s/%s" (Scheme.name scheme)
              (Env.technique_name technique)
          in
          Alcotest.(check string) name (List.assoc name golden) (digest_of r))
        [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ])
    Scheme.all

let test_cache_on_same_answers_cheaper () =
  List.iter
    (fun scheme ->
      let off = run_sim ~scheme ~technique:Env.Packed_shadow ~queries () in
      let on =
        run_sim
          ~icfg:(cached_icfg ~frames:512 ())
          ~scheme ~technique:Env.Packed_shadow ~queries ()
      in
      let entries (r : Wave_sim.Runner.result) =
        List.map
          (fun (d : Wave_sim.Runner.day_metrics) ->
            (d.day, d.probe_entries, d.scan_entries))
          r.Wave_sim.Runner.days
      in
      Alcotest.(check bool)
        (Scheme.name scheme ^ ": identical entries")
        true
        (entries off = entries on);
      Alcotest.(check bool)
        (Scheme.name scheme ^ ": cheaper queries")
        true
        (on.Wave_sim.Runner.total_query_seconds
        < off.Wave_sim.Runner.total_query_seconds);
      match on.Wave_sim.Runner.cache_stats with
      | None -> Alcotest.fail "cached run lost its pool stats"
      | Some s ->
        Alcotest.(check bool)
          (Scheme.name scheme ^ ": pool hit")
          true
          (s.Cache.hits > 0))
    Scheme.all

let wb_icfg ?(frames = 256) ?(readahead = 4) () =
  { (cached_icfg ~frames ~readahead ()) with Index.cache_write_back = true }

let entries_and_space (r : Wave_sim.Runner.result) =
  List.map
    (fun (d : Wave_sim.Runner.day_metrics) ->
      (d.day, d.probe_entries, d.scan_entries, d.space_bytes))
    r.Wave_sim.Runner.days

let test_wb_sim_transparent_and_fewer_writes () =
  List.iter
    (fun scheme ->
      let wt =
        run_sim
          ~icfg:(cached_icfg ~frames:512 ())
          ~scheme ~technique:Env.Packed_shadow ~queries ()
      in
      let wb =
        run_sim
          ~icfg:(wb_icfg ~frames:512 ())
          ~scheme ~technique:Env.Packed_shadow ~queries ()
      in
      Alcotest.(check bool)
        (Scheme.name scheme ^ ": same answers, same space")
        true
        (entries_and_space wt = entries_and_space wb);
      let writes (r : Wave_sim.Runner.result) =
        List.fold_left
          (fun acc (d : Wave_sim.Runner.day_metrics) -> acc + d.blocks_written)
          0 r.Wave_sim.Runner.days
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: write-back wrote %d <= write-through %d"
           (Scheme.name scheme) (writes wb) (writes wt))
        true
        (writes wb <= writes wt);
      match wb.Wave_sim.Runner.cache_stats with
      | None -> Alcotest.fail "write-back run lost its pool stats"
      | Some s ->
        Alcotest.(check bool)
          (Scheme.name scheme ^ ": flush drains happened")
          true (s.Cache.flushes > 0))
    Scheme.all

(* PRNG property: deferring writes through the pool and flushing at the
   technique barriers leaves the simulation's observable state — every
   day's query answers and the allocator image (space) — identical to
   the write-through run, over random pool geometries. *)
let prop_write_back_transparent =
  QCheck2.Test.make ~name:"write-back on/off disk image agrees" ~count:10
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 1 128) (int_range 0 6))
    (fun (seed, frames, readahead) ->
      let q = { queries with Wave_workload.Query_gen.seed } in
      let off =
        run_sim ~scheme:Scheme.Rata_star ~technique:Env.Packed_shadow
          ~queries:q ()
      in
      let on =
        run_sim
          ~icfg:(wb_icfg ~frames ~readahead ())
          ~scheme:Scheme.Rata_star ~technique:Env.Packed_shadow ~queries:q ()
      in
      entries_and_space off = entries_and_space on)

(* PRNG property: over random query mixes and pool geometries, cache-on
   and cache-off runs return identical per-day probe and scan entries. *)
let prop_cache_transparent =
  QCheck2.Test.make ~name:"cache on/off answers agree" ~count:12
    QCheck2.Gen.(
      triple (int_range 1 10_000) (int_range 1 128) (int_range 0 6))
    (fun (seed, frames, readahead) ->
      let q = { queries with Wave_workload.Query_gen.seed } in
      let off =
        run_sim ~scheme:Scheme.Rata_star ~technique:Env.In_place ~queries:q ()
      in
      let on =
        run_sim
          ~icfg:(cached_icfg ~frames ~readahead ())
          ~scheme:Scheme.Rata_star ~technique:Env.In_place ~queries:q ()
      in
      let entries (r : Wave_sim.Runner.result) =
        List.map
          (fun (d : Wave_sim.Runner.day_metrics) ->
            (d.day, d.probe_entries, d.scan_entries))
          r.Wave_sim.Runner.days
      in
      entries off = entries on)

(* --- reference model ------------------------------------------------------ *)

(* The pool's algorithm in its plainest form — a record per frame, a
   [Hashtbl] from structured keys to frame numbers, the same CLOCK
   sweep — for one disk.  [Cache] must agree with it step for step:
   same stats, residency, pins, dirty set and disk charges. *)
module Ref_pool = struct
  type key = Data of int | Meta of int * int

  type frame = {
    mutable key : key;
    mutable occupied : bool;
    mutable gen : int;
    mutable pins : int;
    mutable refbit : bool;
    mutable dirty : bool;
  }

  type t = {
    disk : Disk.t;
    frames : frame array;
    map : (key, int) Hashtbl.t;
    readahead : int;
    write_back : bool;
    mutable hand : int;
    mutable in_flush : bool;
    mutable s : Cache.stats;
    mutable stale_evicted : int;
        (* blocks a read classified stale that its own earlier installs
           evicted before they were settled *)
  }

  let create disk ~frames ~readahead ~write_back =
    {
      disk;
      frames =
        Array.init frames (fun _ ->
            {
              key = Data (-1);
              occupied = false;
              gen = 0;
              pins = 0;
              refbit = false;
              dirty = false;
            });
      map = Hashtbl.create 16;
      readahead;
      write_back;
      hand = 0;
      in_flush = false;
      s =
        {
          Cache.hits = 0;
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
        };
      stale_evicted = 0;
    }

  let fail fmt = Printf.ksprintf (fun s -> raise (Cache.Cache_error s)) fmt
  let params t = Disk.params t.disk

  let block_seconds t blocks =
    float_of_int (blocks * (params t).Disk.block_size) /. (params t).Disk.transfer_rate

  let frame_of t key = Option.map (fun i -> t.frames.(i)) (Hashtbl.find_opt t.map key)

  let live_gen t (ext : Disk.extent) =
    match Disk.generation_at t.disk ~start:ext.Disk.start with
    | Some g -> g
    | None -> fail "extent at %d is not live" ext.Disk.start

  let discard t = t.s <- { t.s with dirty_discards = t.s.dirty_discards + 1 }

  let evict_dirty t f =
    (match f.key with
    | Data addr -> (
      match Disk.extent_covering t.disk ~addr with
      | Some ext when Disk.generation_at t.disk ~start:ext.Disk.start = Some f.gen ->
        Disk.write_run t.disk ext ~off:(addr - ext.Disk.start) ~blocks:1;
        t.s <- { t.s with dirty_evictions = t.s.dirty_evictions + 1 }
      | _ -> discard t)
    | Meta _ -> ());
    f.dirty <- false

  let victim t =
    let n = Array.length t.frames in
    let rec go budget =
      if budget = 0 then fail "no evictable frame: all %d frames pinned" n;
      let i = t.hand in
      t.hand <- (t.hand + 1) mod n;
      let f = t.frames.(i) in
      if not f.occupied then i
      else if f.pins > 0 then go (budget - 1)
      else if f.refbit then begin
        f.refbit <- false;
        go (budget - 1)
      end
      else i
    in
    go (2 * n)

  let install t key ~gen ~refbit =
    let i = victim t in
    let f = t.frames.(i) in
    if f.occupied then begin
      if f.dirty then evict_dirty t f;
      Hashtbl.remove t.map f.key;
      t.s <- { t.s with evictions = t.s.evictions + 1 }
    end;
    f.key <- key;
    f.occupied <- true;
    f.gen <- gen;
    f.pins <- 0;
    f.refbit <- refbit;
    f.dirty <- false;
    Hashtbl.replace t.map key i;
    f

  let drop_stale_dirty t f =
    if f.dirty then begin
      f.dirty <- false;
      discard t
    end

  (* [`Hit], [`Stale] or [`Absent]; hits get their reference bit. *)
  let classify t addr ~gen =
    match frame_of t (Data addr) with
    | Some f when f.gen = gen ->
      f.refbit <- true;
      `Hit
    | Some _ -> `Stale
    | None -> `Absent

  let settle t (addr, cls) ~gen ~refbit =
    match frame_of t (Data addr) with
    | Some f ->
      drop_stale_dirty t f;
      f.gen <- gen;
      f.refbit <- refbit;
      t.s <- { t.s with stale_drops = t.s.stale_drops + 1 }
    | None ->
      if cls = `Stale then t.stale_evicted <- t.stale_evicted + 1;
      ignore (install t (Data addr) ~gen ~refbit)

  let note_data t ~hits ~misses ~uncached ~charged =
    t.s <-
      {
        t.s with
        saved_seconds = t.s.saved_seconds +. uncached -. charged;
        hits = t.s.hits + hits;
        misses = t.s.misses + misses;
      }

  let read_range t (ext : Disk.extent) ~off ~blocks =
    if blocks > 0 then begin
      Disk.assert_readable t.disk ext;
      let gen = live_gen t ext in
      let base = ext.Disk.start + off in
      let missing = ref [] and hits = ref 0 in
      for a = base to base + blocks - 1 do
        match classify t a ~gen with
        | `Hit -> incr hits
        | cls -> missing := (a, cls) :: !missing
      done;
      let missing = List.rev !missing in
      let m = List.length missing in
      let ra = ref [] in
      if m > 0 then
        for a = base + blocks to min ext.Disk.length (off + blocks + t.readahead) - 1 + ext.Disk.start do
          match classify t a ~gen with `Hit -> () | cls -> ra := (a, cls) :: !ra
        done;
      let ra = List.rev !ra in
      let n_ra = List.length ra in
      if m > 0 then begin
        Disk.charge_seek t.disk;
        Disk.charge_read_transfer t.disk ~blocks:(m + n_ra);
        List.iter (fun b -> settle t b ~gen ~refbit:true) missing;
        List.iter (fun b -> settle t b ~gen ~refbit:false) ra;
        t.s <- { t.s with readaheads = t.s.readaheads + n_ra }
      end;
      let seek = (params t).Disk.seek_time in
      let uncached = seek +. block_seconds t blocks in
      let charged = if m = 0 then 0.0 else seek +. block_seconds t (m + n_ra) in
      note_data t ~hits:!hits ~misses:m ~uncached ~charged
    end

  let sequential_read t exts =
    if exts <> [] then begin
      List.iter (fun e -> Disk.assert_readable t.disk e) exts;
      let missing = ref [] and total = ref 0 and hits = ref 0 in
      let runs = ref 0 and in_run = ref false in
      List.iter
        (fun (e : Disk.extent) ->
          let gen = live_gen t e in
          for a = e.Disk.start to e.Disk.start + e.Disk.length - 1 do
            incr total;
            match classify t a ~gen with
            | `Hit ->
              incr hits;
              in_run := false
            | cls ->
              missing := ((a, cls), gen) :: !missing;
              if not !in_run then incr runs;
              in_run := true
          done)
        exts;
      let missing = List.rev !missing in
      let m = List.length missing in
      if m > 0 then begin
        Disk.charge_seek t.disk;
        Disk.charge_read_transfer t.disk ~blocks:m;
        List.iter (fun (b, gen) -> settle t b ~gen ~refbit:false) missing;
        t.s <- { t.s with readaheads = t.s.readaheads + m - !runs }
      end;
      let seek = (params t).Disk.seek_time in
      let uncached = seek +. block_seconds t !total in
      let charged = if m = 0 then 0.0 else seek +. block_seconds t m in
      note_data t ~hits:!hits ~misses:m ~uncached ~charged
    end

  let write_range t (ext : Disk.extent) ~off ~blocks =
    if not t.write_back then begin
      Disk.write_run t.disk ext ~off ~blocks;
      if blocks > 0 then begin
        let gen = live_gen t ext in
        for a = ext.Disk.start + off to ext.Disk.start + off + blocks - 1 do
          match frame_of t (Data a) with
          | Some f ->
            f.gen <- gen;
            f.refbit <- true
          | None -> ()
        done
      end
    end
    else begin
      if not (Disk.live_at t.disk ~start:ext.Disk.start ~length:ext.Disk.length) then
        raise (Disk.Disk_error "write: extent is not live");
      if blocks > Array.length t.frames then begin
        Disk.write_run t.disk ext ~off ~blocks;
        let gen = live_gen t ext in
        for a = ext.Disk.start + off to ext.Disk.start + off + blocks - 1 do
          match frame_of t (Data a) with
          | Some f ->
            drop_stale_dirty t f;
            f.gen <- gen;
            f.refbit <- true
          | None -> ()
        done
      end
      else if blocks > 0 then begin
        let gen = live_gen t ext in
        for a = ext.Disk.start + off to ext.Disk.start + off + blocks - 1 do
          let f =
            match frame_of t (Data a) with
            | Some f when f.gen = gen ->
              if f.dirty then
                t.s <- { t.s with writes_coalesced = t.s.writes_coalesced + 1 };
              f
            | Some f ->
              drop_stale_dirty t f;
              f.gen <- gen;
              t.s <- { t.s with stale_drops = t.s.stale_drops + 1 };
              f
            | None -> install t (Data a) ~gen ~refbit:true
          in
          f.refbit <- true;
          f.dirty <- true
        done
      end
    end

  let meta_read t ~dir ~nodes =
    List.iter
      (fun node ->
        match frame_of t (Meta (dir, node)) with
        | Some f ->
          f.refbit <- true;
          t.s <- { t.s with meta_hits = t.s.meta_hits + 1 }
        | None ->
          Disk.charge_seek t.disk;
          Disk.charge_read_transfer t.disk ~blocks:1;
          t.s <-
            {
              t.s with
              meta_seconds =
                t.s.meta_seconds +. (params t).Disk.seek_time +. block_seconds t 1;
              meta_misses = t.s.meta_misses + 1;
            };
          ignore (install t (Meta (dir, node)) ~gen:0 ~refbit:true))
      nodes

  let flush t =
    if t.write_back && not t.in_flush then begin
      let dirty = ref [] in
      Array.iter
        (fun f ->
          if f.occupied && f.dirty then
            match f.key with Data a -> dirty := (a, f) :: !dirty | Meta _ -> ())
        t.frames;
      let dirty = List.sort (fun (a, _) (b, _) -> Int.compare a b) !dirty in
      if dirty <> [] then begin
        Disk.note_flush t.disk;
        t.s <- { t.s with flushes = t.s.flushes + 1 };
        let writable =
          List.filter_map
            (fun (a, f) ->
              match Disk.extent_covering t.disk ~addr:a with
              | Some ext when Disk.generation_at t.disk ~start:ext.Disk.start = Some f.gen
                ->
                Some (a, f, ext)
              | _ ->
                f.dirty <- false;
                discard t;
                None)
            dirty
        in
        let write_group = function
          | [] -> ()
          | (a0, _, (ext : Disk.extent)) :: _ as group ->
            let n = List.length group in
            Disk.write_run t.disk ext ~off:(a0 - ext.Disk.start) ~blocks:n;
            List.iter (fun (_, f, _) -> f.dirty <- false) group;
            t.s <-
              {
                t.s with
                flush_writes = t.s.flush_writes + 1;
                flushed_blocks = t.s.flushed_blocks + n;
              }
        in
        let rec drain group = function
          | [] -> write_group (List.rev group)
          | ((a, _, (ext : Disk.extent)) as item) :: rest -> (
            match group with
            | (prev, _, (ext0 : Disk.extent)) :: _
              when a = prev + 1 && ext0.Disk.start = ext.Disk.start ->
              drain (item :: group) rest
            | [] -> drain [ item ] rest
            | _ ->
              write_group (List.rev group);
              drain [ item ] rest)
        in
        drain [] writable
      end
    end

  let pin_resident_blocks t (ext : Disk.extent) ~budget =
    let gen = live_gen t ext in
    let pinned = ref [] and left = ref budget in
    for a = ext.Disk.start to ext.Disk.start + ext.Disk.length - 1 do
      match frame_of t (Data a) with
      | Some f when !left > 0 && f.gen = gen ->
        f.pins <- f.pins + 1;
        decr left;
        pinned := a :: !pinned
      | _ -> ()
    done;
    List.rev !pinned

  let unpin_blocks t addrs =
    let frames =
      List.map
        (fun a ->
          match frame_of t (Data a) with
          | Some f when f.pins > 0 -> f
          | Some _ -> fail "unpin_blocks: block %d pin count would drop below zero" a
          | None -> fail "unpin_blocks: pinned block %d is not resident" a)
        addrs
    in
    List.iter (fun f -> f.pins <- f.pins - 1) frames

  let count t p = Array.fold_left (fun n f -> if p f then n + 1 else n) 0 t.frames
  let resident t = count t (fun f -> f.occupied)
  let pinned_frames t = count t (fun f -> f.pins > 0)
  let dirty_frames t = count t (fun f -> f.occupied && f.dirty)
end

(* One step of a random trace.  Extents are named by their allocation
   index; an operation on an extent that is gone is still issued (both
   sides must refuse it the same way). *)
type op =
  | Alloc of int
  | Free of int
  | Read of int * int * int (* extent, off, blocks (clamped) *)
  | Scan of int list
  | Write of int * int * int
  | Meta of int * int list
  | Pin_resident of int * int (* extent, budget *)
  | Unpin_resident
  | Flush

let pp_op = function
  | Alloc n -> Printf.sprintf "alloc %d" n
  | Free e -> Printf.sprintf "free #%d" e
  | Read (e, o, b) -> Printf.sprintf "read #%d +%d x%d" e o b
  | Scan es -> Printf.sprintf "scan [%s]" (String.concat ";" (List.map string_of_int es))
  | Write (e, o, b) -> Printf.sprintf "write #%d +%d x%d" e o b
  | Meta (d, ns) ->
    Printf.sprintf "meta %d [%s]" d (String.concat ";" (List.map string_of_int ns))
  | Pin_resident (e, b) -> Printf.sprintf "pin-resident #%d budget %d" e b
  | Unpin_resident -> "unpin-resident"
  | Flush -> "flush"

type trace = { frames : int; readahead : int; wb : bool; ops : op list }

let gen_trace =
  let open QCheck2.Gen in
  let ext = int_bound 7 in
  let op =
    frequency
      [
        (3, map (fun n -> Alloc n) (int_range 1 6));
        (2, map (fun e -> Free e) ext);
        (6, map3 (fun e o b -> Read (e, o, b)) ext (int_bound 5) (int_range 1 6));
        (2, map (fun es -> Scan es) (list_size (int_range 1 3) ext));
        (4, map3 (fun e o b -> Write (e, o, b)) ext (int_bound 5) (int_range 0 6));
        (2, map2 (fun d ns -> Meta (d, ns)) (int_range 1 2) (list_size (int_range 1 3) (int_range 0 4)));
        (2, map2 (fun e b -> Pin_resident (e, b)) ext (int_range 1 3));
        (2, pure Unpin_resident);
        (1, pure Flush);
      ]
  in
  let* frames = int_range 1 6 in
  let* readahead = int_range 0 2 in
  let* wb = bool in
  let+ ops = list_size (int_range 1 60) op in
  { frames; readahead; wb; ops }

let print_trace tr =
  Printf.sprintf "frames=%d readahead=%d write_back=%b\n%s" tr.frames tr.readahead tr.wb
    (String.concat "\n" (List.map pp_op tr.ops))

let outcome f = match f () with () -> "ok" | exception e -> Printexc.to_string e

(* Run the trace on [Cache] over one disk and on [Ref_pool] over a twin
   disk; [Error] names the first step where they disagree or where the
   pool's residency entries stop matching its frames ([Cache.validate]). *)
let run_against_reference tr =
  let disk = mk_disk () and twin = mk_disk () in
  let pool = Cache.create disk ~frames:tr.frames ~readahead:tr.readahead ~write_back:tr.wb () in
  let rf = Ref_pool.create twin ~frames:tr.frames ~readahead:tr.readahead ~write_back:tr.wb in
  let exts = ref [] (* (ours, theirs), in allocation order *) in
  let ext i = List.nth_opt !exts i in
  let resident_pins = ref [] in
  let clamp (e : Disk.extent) off blocks =
    let off = min off (e.Disk.length - 1) in
    (off, min blocks (e.Disk.length - off))
  in
  let both f g = (outcome f, outcome g) in
  let step op =
    match op with
    | Alloc n ->
      let e = Disk.alloc disk ~blocks:n and e' = Disk.alloc twin ~blocks:n in
      exts := !exts @ [ (e, e') ];
      ("ok", "ok")
    | Free i -> (
      match ext i with
      | Some (e, e') -> both (fun () -> Disk.free disk e) (fun () -> Disk.free twin e')
      | None -> ("ok", "ok"))
    | Read (i, off, blocks) -> (
      match ext i with
      | Some (e, e') ->
        let off, blocks = clamp e off blocks in
        both
          (fun () -> Cache.read_range pool e ~off ~blocks)
          (fun () -> Ref_pool.read_range rf e' ~off ~blocks)
      | None -> ("ok", "ok"))
    | Scan is ->
      let picked = List.filter_map ext is in
      both
        (fun () -> Cache.sequential_read pool (List.map fst picked))
        (fun () -> Ref_pool.sequential_read rf (List.map snd picked))
    | Write (i, off, blocks) -> (
      match ext i with
      | Some (e, e') ->
        let off, blocks = clamp e off blocks in
        both
          (fun () -> Cache.write_range pool e ~off ~blocks)
          (fun () -> Ref_pool.write_range rf e' ~off ~blocks)
      | None -> ("ok", "ok"))
    | Meta (dir, nodes) ->
      both
        (fun () -> Cache.meta_read pool ~dir ~nodes)
        (fun () -> Ref_pool.meta_read rf ~dir ~nodes)
    | Pin_resident (i, budget) -> (
      match ext i with
      | Some (e, e') ->
        let ours = ref [] and theirs = ref [] in
        let r =
          both
            (fun () -> ours := Cache.pin_resident_blocks pool e ~budget)
            (fun () -> theirs := Ref_pool.pin_resident_blocks rf e' ~budget)
        in
        if !ours <> !theirs then ("pinned " ^ String.concat "," (List.map string_of_int !ours), "differs")
        else begin
          if !ours <> [] then resident_pins := !ours :: !resident_pins;
          r
        end
      | None -> ("ok", "ok"))
    | Unpin_resident -> (
      match !resident_pins with
      | [] -> ("ok", "ok")
      | addrs :: rest ->
        resident_pins := rest;
        both (fun () -> Cache.unpin_blocks pool addrs) (fun () -> Ref_pool.unpin_blocks rf addrs))
    | Flush -> both (fun () -> Cache.flush pool) (fun () -> Ref_pool.flush rf)
  in
  let observe () =
    ( Cache.stats pool,
      (Cache.resident pool, Cache.pinned_frames pool, Cache.dirty_frames pool),
      Disk.counters disk )
  and observe_ref () =
    ( rf.Ref_pool.s,
      (Ref_pool.resident rf, Ref_pool.pinned_frames rf, Ref_pool.dirty_frames rf),
      Disk.counters twin )
  in
  let rec go k = function
    | [] -> Ok rf.Ref_pool.stale_evicted
    | op :: rest ->
      let ours, theirs = step op in
      if ours <> theirs then
        Error (Printf.sprintf "step %d (%s): cache %s, reference %s" k (pp_op op) ours theirs)
      else if observe () <> observe_ref () then
        Error (Printf.sprintf "step %d (%s): state differs" k (pp_op op))
      else
        match Cache.validate pool with
        | () -> go (k + 1) rest
        | exception Cache.Cache_error msg ->
          Error (Printf.sprintf "step %d (%s): %s" k (pp_op op) msg)
  in
  go 1 tr.ops

(* [QCHECK_LONG=1] (the @cache alias) runs 10x the traces. *)
let prop_matches_reference =
  QCheck2.Test.make ~name:"pool agrees with the reference model" ~count:400
    ~long_factor:10 ~print:print_trace gen_trace (fun tr ->
      match run_against_reference tr with
      | Ok _ -> true
      | Error msg -> QCheck2.Test.fail_report msg)

(* The same comparison over a fixed sample of traces, which must also
   reach the case the pool re-looks blocks up for: an install in a read
   evicting a frame the same read classified as stale. *)
let test_reference_sample () =
  let traces =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 14 |]) ~n:300 gen_trace
  in
  let stale_evicted =
    List.fold_left
      (fun acc tr ->
        match run_against_reference tr with
        | Ok n -> acc + n
        | Error msg -> Alcotest.failf "%s\n%s" msg (print_trace tr))
      0 traces
  in
  Alcotest.(check bool) "a read evicted a block it classified stale" true
    (stale_evicted > 0)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "cache.pool",
      [
        Alcotest.test_case "miss then hit" `Quick test_miss_then_hit;
        Alcotest.test_case "miss charges like uncached" `Quick
          test_miss_charges_like_uncached;
        Alcotest.test_case "CLOCK second chance" `Quick
          test_clock_second_chance;
        Alcotest.test_case "pinned never evicted" `Quick
          test_pinned_never_evicted;
        Alcotest.test_case "all pinned raises" `Quick test_all_pinned_raises;
        Alcotest.test_case "unpin below zero raises" `Quick
          test_unpin_below_zero_raises;
        Alcotest.test_case "resident pins survive pressure" `Quick
          test_resident_pins_survive_pressure;
        Alcotest.test_case "generation invalidation" `Quick
          test_generation_invalidation;
        Alcotest.test_case "stale block evicted by its own read" `Quick
          test_stale_block_evicted_by_its_own_read;
        Alcotest.test_case "dead extent raises" `Quick
          test_read_dead_extent_raises;
        Alcotest.test_case "write-through no allocate" `Quick
          test_write_through_no_allocate;
        Alcotest.test_case "demand readahead" `Quick test_demand_readahead;
        Alcotest.test_case "scan batches runs" `Quick test_scan_batches_runs;
        Alcotest.test_case "metadata caching" `Quick test_meta_read;
        Alcotest.test_case "map grows to a far address" `Quick
          test_map_grows_to_far_address;
        Alcotest.test_case "eviction allocates nothing" `Quick
          test_eviction_allocates_nothing;
        Alcotest.test_case "full hit allocates nothing" `Quick
          test_full_hit_allocates_nothing;
        Alcotest.test_case "a million-frame pool costs what it holds" `Quick
          test_pool_grows_on_demand;
      ] );
    ( "cache.write_back",
      [
        Alcotest.test_case "defer, coalesce, flush" `Quick
          test_wb_defer_flush_coalesce;
        Alcotest.test_case "flush splits runs" `Quick test_wb_flush_splits_runs;
        Alcotest.test_case "eviction writes only the victim" `Quick
          test_wb_eviction_writes_only_victim;
        Alcotest.test_case "pinned dirty frame flushable" `Quick
          test_wb_pinned_dirty_flushable;
        Alcotest.test_case "discard on free" `Quick
          test_wb_dirty_discarded_on_free;
        Alcotest.test_case "discard on realloc" `Quick
          test_wb_dirty_discarded_on_realloc;
        Alcotest.test_case "oversized write falls through" `Quick
          test_wb_oversized_write_falls_through;
        Alcotest.test_case "flush resumes after fault" `Quick
          test_wb_flush_resumes_after_fault;
        Alcotest.test_case "flush fault precedes drain" `Quick
          test_wb_flush_fault_point_precedes_drain;
        Alcotest.test_case "torn flush heals on rewrite" `Quick
          test_wb_torn_flush_heals_on_rewrite;
      ] );
    ( "cache.hint",
      [
        Alcotest.test_case "run broken by an eviction" `Quick
          test_hint_run_broken_by_eviction;
        Alcotest.test_case "run wraps past the last frame" `Quick
          test_hint_run_wraps_last_frame;
        Alcotest.test_case "stale run of a reallocated extent" `Quick
          test_hint_stale_run;
      ] );
    ( "cache.integration",
      [
        Alcotest.test_case "warm probe speedup" `Quick test_warm_probe_speedup;
        Alcotest.test_case "cache-off bit-identical (golden)" `Quick
          test_cache_off_bit_identical;
        Alcotest.test_case "cache-on same answers cheaper" `Quick
          test_cache_on_same_answers_cheaper;
        Alcotest.test_case "write-back transparent, fewer writes" `Quick
          test_wb_sim_transparent_and_fewer_writes;
      ] );
    ( "cache.property",
      qcheck [ prop_cache_transparent; prop_write_back_transparent ] );
    ( "cache.reference",
      Alcotest.test_case "fixed traces match the reference" `Quick
        test_reference_sample
      :: qcheck [ prop_matches_reference ] );
  ]
