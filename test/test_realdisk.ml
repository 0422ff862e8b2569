(* Tests for the real file-backed disk: the Io syscall shim (fault
   injection, retry/backoff), the block-file stamp verification on
   reopen, checkpoint directory atomicity, and the kill-and-recover
   crash sweeps. *)

open Wave_core
open Wave_disk
open Wave_storage
open Wave_sim
module Metrics = Wave_obs.Metrics
module Alert = Wave_obs.Alert
module Cache = Wave_cache.Cache

let store = Crash_harness.default_store

(* Every test gets its own directory under the dune sandbox cwd. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_dir name f =
  rm_rf name;
  Unix.mkdir name 0o755;
  Fun.protect ~finally:(fun () -> rm_rf name) (fun () -> f name)

(* Install a sleep recorder so retry/stall schedules are asserted
   without real delays, and guarantee the global shim state (plan,
   sleeper, policy) is restored whatever the test does. *)
let with_recorded_sleeps f =
  let sleeps = ref [] in
  Io.set_sleeper (fun s -> sleeps := s :: !sleeps);
  Fun.protect
    ~finally:(fun () ->
      Io.clear ();
      Io.set_sleeper Io.default_sleeper;
      Io.set_retry_policy Io.default_retry_policy)
    (fun () -> f (fun () -> List.rev !sleeps))

let counter_delta name f =
  let c = Metrics.counter name in
  let before = Metrics.counter_value c in
  let r = f () in
  (r, Metrics.counter_value c -. before)

let small_params =
  { Disk.default_params with Disk.block_size = 64; transfer_rate = 1e9 }

(* --- Io shim --------------------------------------------------------- *)

let with_scratch_fd f =
  let path = "rd_scratch.bin" in
  let fd = Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      try Sys.remove path with Sys_error _ -> ())
    (fun () -> f fd)

let test_io_transient_retries () =
  with_recorded_sleeps @@ fun sleeps ->
  with_scratch_fd @@ fun fd ->
  let payload = Bytes.make 64 'x' in
  Io.arm Io.Pwrite (Io.Transient (Io.Eintr, 2));
  let (), retries =
    counter_delta "disk.file.retries" (fun () -> Io.pwrite fd payload ~off:0)
  in
  Alcotest.(check (list (float 1e-9)))
    "exponential backoff" [ 0.001; 0.002 ] (sleeps ());
  Alcotest.(check (float 0.)) "two retries" 2.0 retries;
  let back = Bytes.create 64 in
  Io.pread fd back ~off:0;
  Alcotest.(check bool) "payload round-trips" true (Bytes.equal payload back)

let test_io_transient_giveup () =
  with_recorded_sleeps @@ fun sleeps ->
  with_scratch_fd @@ fun fd ->
  Io.arm Io.Pwrite (Io.Transient (Io.Eio, 99));
  let caught, giveups =
    counter_delta "disk.file.giveups" (fun () ->
        (* the shim's failure must be catchable as Disk_error: the
           rebinding is what lets every existing handler see real I/O
           faults *)
        try
          Io.pwrite fd (Bytes.make 32 'y') ~off:0;
          false
        with Disk.Disk_error msg ->
          let contains s sub =
            let n = String.length s and m = String.length sub in
            let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
            at 0
          in
          Alcotest.(check bool)
            "message names the giveup" true
            (contains msg "giving up");
          true)
  in
  Alcotest.(check bool) "raised" true caught;
  Alcotest.(check (float 0.)) "one giveup" 1.0 giveups;
  Alcotest.(check int) "budget exhausted"
    Io.default_retry_policy.Io.max_retries
    (List.length (sleeps ()))

let test_io_short_write_progress () =
  with_recorded_sleeps @@ fun sleeps ->
  with_scratch_fd @@ fun fd ->
  let payload = Bytes.init 64 (fun i -> Char.chr (i land 0xff)) in
  Io.arm Io.Pwrite (Io.Transient (Io.Short, 1));
  Io.pwrite fd payload ~off:0;
  (* a short transfer that makes progress continues without backoff *)
  Alcotest.(check (list (float 0.))) "no backoff" [] (sleeps ());
  let back = Bytes.create 64 in
  Io.pread fd back ~off:0;
  Alcotest.(check bool) "whole payload landed" true (Bytes.equal payload back)

let test_io_stall () =
  with_recorded_sleeps @@ fun sleeps ->
  with_scratch_fd @@ fun fd ->
  Io.arm Io.Fsync (Io.Stall 0.25);
  let (), stalls = counter_delta "disk.file.stalls" (fun () -> Io.fsync fd) in
  Alcotest.(check (list (float 1e-9))) "slept the stall" [ 0.25 ] (sleeps ());
  Alcotest.(check (float 0.)) "counted" 1.0 stalls;
  Alcotest.(check bool) "plan consumed" true (Io.armed () = None)

(* EIO from fsync is fail-stop: the kernel may already have dropped the
   dirty pages and cleared the error, so a retried fsync that succeeds
   proves nothing.  EINTR still retries. *)
let test_io_fsync_eio_fail_stop () =
  with_recorded_sleeps @@ fun sleeps ->
  with_scratch_fd @@ fun fd ->
  Io.arm Io.Fsync (Io.Transient (Io.Eio, 1));
  let raised, retries =
    counter_delta "disk.file.retries" (fun () ->
        match Io.fsync fd with
        | () -> false
        | exception Io.Io_error _ -> true)
  in
  Alcotest.(check bool) "fsync EIO raised" true raised;
  Alcotest.(check (float 0.)) "not retried" 0.0 retries;
  Alcotest.(check (list (float 0.))) "no backoff" [] (sleeps ());
  Io.arm Io.Fsync (Io.Transient (Io.Eintr, 1));
  Io.fsync fd;
  Alcotest.(check (list (float 1e-9))) "EINTR retried" [ 0.001 ] (sleeps ())

let test_io_torn_write_visible () =
  with_recorded_sleeps @@ fun _ ->
  with_scratch_fd @@ fun fd ->
  ignore (Unix.write fd (Bytes.make 64 '\000') 0 64);
  Io.arm Io.Pwrite (Io.Torn_write 0.5);
  (try
     Io.pwrite fd (Bytes.make 64 'z') ~off:0;
     Alcotest.fail "torn write did not raise"
   with Io.Io_error _ -> ());
  let back = Bytes.create 64 in
  Io.pread fd back ~off:0;
  let wrote = ref 0 in
  Bytes.iter (fun c -> if c = 'z' then incr wrote) back;
  Alcotest.(check int) "exactly the torn prefix landed" 32 !wrote

(* A chunked read hands over the range in order, one chunk fill at a
   time, and is one pread of the whole range to the fault plan and the
   counters, with or without transients along the way. *)
let test_io_pread_chunked () =
  with_recorded_sleeps @@ fun _ ->
  with_scratch_fd @@ fun fd ->
  let off = 37 in
  let file = Bytes.init (off + 250_000) (fun i -> Char.chr (((i * 7) + 3) land 0xff)) in
  Io.pwrite fd file ~off:0;
  List.iter
    (fun (size, len, fault) ->
      let name =
        Printf.sprintf "chunk %d of %d%s" size len
          (if fault = None then "" else " + transient")
      in
      Option.iter (Io.arm Io.Pread) fault;
      let got = Buffer.create len and fills = ref [] in
      let (), preads =
        counter_delta "disk.file.preads" (fun () ->
            Io.pread_chunked fd ~off ~len ~chunk:(Bytes.create size) (fun buf ~len ->
                fills := len :: !fills;
                Buffer.add_subbytes got buf 0 len))
      in
      Alcotest.(check string) (name ^ ": bytes in order") (Bytes.sub_string file off len)
        (Buffer.contents got);
      Alcotest.(check (list int))
        (name ^ ": one delivery per fill")
        (List.init ((len + size - 1) / size) (fun i -> min size (len - (i * size))))
        (List.rev !fills);
      Alcotest.(check (float 0.)) (name ^ ": one pread") 1.0 preads;
      Alcotest.(check bool) (name ^ ": plan consumed") true (Io.armed () = None))
    [
      (1000, 1000, None);
      (4096, 1000, None);
      (64, 1000, None);
      (1, 1000, None);
      (64, 1000, Some (Io.Transient (Io.Short, 3)));
      (7, 1000, Some (Io.Transient (Io.Short, 1)));
      (100, 1000, Some (Io.Transient (Io.Eintr, 2)));
      (* one [Unix.read] moves at most 64 KiB, so a fill of a larger
         chunk takes several reads *)
      (100_000, 250_000, None);
      (100_000, 250_000, Some (Io.Transient (Io.Short, 2)));
    ];
  (* the second call is the second fault point, however many chunks the
     first one took *)
  let len = 1000 in
  Io.arm ~at:2 Io.Pread Io.Fail_stop;
  let read () =
    Io.pread_chunked fd ~off ~len ~chunk:(Bytes.create 10) (fun _ ~len:_ -> ())
  in
  read ();
  Alcotest.(check bool) "second call fails" true
    (match read () with () -> false | exception Io.Io_error _ -> true);
  Alcotest.check_raises "empty chunk"
    (Invalid_argument "Io.pread_chunked: negative length or empty chunk") (fun () ->
      Io.pread_chunked fd ~off ~len ~chunk:Bytes.empty (fun _ ~len:_ -> ()));
  (* the wall histogram measures I/O: time spent in [deliver] is left out *)
  let wall = Metrics.histogram "disk.file.io_wall_s" in
  let total () =
    match Metrics.hist_summary wall with
    | None -> 0.0
    | Some h -> h.Metrics.mean *. float_of_int h.Metrics.count
  in
  let n0 = Metrics.hist_count wall and s0 = total () in
  Io.pread_chunked fd ~off ~len:300 ~chunk:(Bytes.create 100) (fun _ ~len:_ ->
      Unix.sleepf 0.02);
  Alcotest.(check int) "one wall observation" (n0 + 1) (Metrics.hist_count wall);
  Alcotest.(check bool) "deliver time left out" true (total () -. s0 < 0.03)

(* The write twin: the range's bytes land exactly, asked for one chunk
   at a time, in one pwrite to the fault plan and the counters, with or
   without transients along the way. *)
let test_io_pwrite_chunked () =
  with_recorded_sleeps @@ fun _ ->
  with_scratch_fd @@ fun fd ->
  let off = 37 in
  let source len = Bytes.init len (fun i -> Char.chr (((i * 13) + 5) land 0xff)) in
  let file () =
    let n = (Unix.fstat fd).Unix.st_size in
    let b = Bytes.create n in
    Io.pread fd b ~off:0;
    Bytes.to_string b
  in
  (* [len] bytes of [want] through a chunk of [size], the fills recorded *)
  let write ~size ~len want =
    let fills = ref [] and pos = ref 0 in
    let result =
      counter_delta "disk.file.pwrites" (fun () ->
          counter_delta "disk.file.bytes_written" (fun () ->
              match
                Io.pwrite_chunked fd ~off ~len ~chunk:(Bytes.create size)
                  (fun buf ~len ->
                    fills := len :: !fills;
                    Bytes.blit want !pos buf 0 len;
                    pos := !pos + len)
              with
              | () -> true
              | exception Io.Io_error _ -> false))
    in
    (result, List.rev !fills)
  in
  let fills_of ~size ~len =
    List.init ((len + size - 1) / size) (fun i -> min size (len - (i * size)))
  in
  let cases =
    List.concat_map
      (fun len ->
        List.map (fun size -> (size, len, None)) [ 1; 7; 64; 100; 1000; 4096; 100_000 ])
      [ 1000; 250_000 ]
    @ [
        (64, 1000, Some (Io.Transient (Io.Short, 3)));
        (7, 1000, Some (Io.Transient (Io.Short, 1)));
        (1000, 1000, Some (Io.Transient (Io.Short, 2)));
        (100, 1000, Some (Io.Transient (Io.Eintr, 2)));
        (100, 1000, Some (Io.Transient (Io.Eio, 1)));
        (100_000, 250_000, Some (Io.Transient (Io.Short, 2)));
        (4096, 250_000, Some (Io.Transient (Io.Eintr, 1)));
      ]
  in
  List.iter
    (fun (size, len, fault) ->
      let name =
        Printf.sprintf "chunk %d of %d%s" size len
          (if fault = None then "" else " + transient")
      in
      (* over bytes the write must replace *)
      Unix.ftruncate fd 0;
      Io.pwrite fd (Bytes.make (off + len + 5) '\xAA') ~off:0;
      let want = source len in
      Option.iter (Io.arm Io.Pwrite) fault;
      let ((ok, bytes), pwrites), fills = write ~size ~len want in
      Alcotest.(check bool) (name ^ ": completes") true ok;
      Alcotest.(check string) (name ^ ": exact bytes")
        (String.make off '\xAA' ^ Bytes.to_string want ^ String.make 5 '\xAA')
        (file ());
      Alcotest.(check (list int)) (name ^ ": one fill per chunk") (fills_of ~size ~len)
        fills;
      Alcotest.(check (float 0.)) (name ^ ": one pwrite") 1.0 pwrites;
      Alcotest.(check (float 0.)) (name ^ ": bytes counted once")
        (float_of_int len) bytes;
      Alcotest.(check bool) (name ^ ": plan consumed") true (Io.armed () = None))
    cases;
  (* a torn write lands exactly its prefix, even one that ends inside a
     later chunk, and fills only the chunks that prefix reaches *)
  List.iter
    (fun (size, len, frac) ->
      let name = Printf.sprintf "torn %.2f of %d by %d" frac len size in
      Unix.ftruncate fd 0;
      Io.pwrite fd (Bytes.make (off + len) '\xAA') ~off:0;
      let want = source len in
      let torn = int_of_float (frac *. float_of_int len) in
      Io.arm Io.Pwrite (Io.Torn_write frac);
      let ((ok, bytes), pwrites), fills = write ~size ~len want in
      Alcotest.(check bool) (name ^ ": raises") false ok;
      Alcotest.(check string) (name ^ ": exactly the prefix")
        (String.make off '\xAA' ^ Bytes.sub_string want 0 torn
        ^ String.make (len - torn) '\xAA')
        (file ());
      Alcotest.(check (list int)) (name ^ ": fills up to the prefix")
        (List.filteri (fun i _ -> i * size < torn) (fills_of ~size ~len))
        fills;
      Alcotest.(check (float 0.)) (name ^ ": one pwrite") 1.0 pwrites;
      Alcotest.(check (float 0.)) (name ^ ": prefix counted") (float_of_int torn) bytes)
    [ (100, 1000, 0.55); (7, 1000, 0.5); (64, 1000, 0.999); (1000, 1000, 0.3);
      (4096, 250_000, 0.61); (100, 1000, 0.0) ];
  (* the k-th call is the k-th fault point, however many chunks the
     calls before it took, for a torn plan too *)
  let len = 1000 in
  let want = source len in
  List.iter
    (fun (at, fault) ->
      Io.arm ~at Io.Pwrite fault;
      let outcomes =
        List.init (at + 1) (fun _ ->
            let ((ok, _), _), _ = write ~size:10 ~len want in
            ok)
      in
      Alcotest.(check (list bool))
        (Printf.sprintf "call %d fails" at)
        (List.init (at + 1) (fun i -> i + 1 <> at))
        outcomes)
    [ (2, Io.Fail_stop); (2, Io.Torn_write 0.5); (3, Io.Torn_write 0.5) ];
  Alcotest.check_raises "empty chunk"
    (Invalid_argument "Io.pwrite_chunked: negative length or empty chunk") (fun () ->
      Io.pwrite_chunked fd ~off ~len ~chunk:Bytes.empty (fun _ ~len:_ -> ()));
  (* the wall histogram measures I/O: time spent in [fill] is left out *)
  let wall = Metrics.histogram "disk.file.io_wall_s" in
  let total () =
    match Metrics.hist_summary wall with
    | None -> 0.0
    | Some h -> h.Metrics.mean *. float_of_int h.Metrics.count
  in
  let n0 = Metrics.hist_count wall and s0 = total () in
  Io.pwrite_chunked fd ~off ~len:300 ~chunk:(Bytes.create 100) (fun _ ~len:_ ->
      Unix.sleepf 0.02);
  Alcotest.(check int) "one wall observation" (n0 + 1) (Metrics.hist_count wall);
  Alcotest.(check bool) "fill time left out" true (total () -. s0 < 0.03)

let test_io_arm_validation () =
  Alcotest.check_raises "at < 1" (Invalid_argument "Io.arm: need at >= 1")
    (fun () -> Io.arm ~at:0 Io.Pread Io.Fail_stop);
  Alcotest.check_raises "torn targets pwrite"
    (Invalid_argument "Io.arm: torn fault targets pwrite") (fun () ->
      Io.arm Io.Fsync (Io.Torn_write 0.5))

(* --- file-backed disk: persistence and verification ------------------ *)

let test_file_disk_roundtrip () =
  with_dir "rd_roundtrip" @@ fun dir ->
  let path = Filename.concat dir "BLOCKS" in
  let d = Disk.create_file ~params:small_params ~path () in
  let e = Disk.alloc d ~blocks:3 in
  Disk.write d e;
  Disk.read d e;
  let gen = Disk.generation_at d ~start:e.Disk.start in
  Disk.checkpoint_alloc d;
  Disk.close d;
  let d2 = Disk.open_file ~params:small_params ~path () in
  Alcotest.(check int) "one live extent" 1 (List.length (Disk.live_extents d2));
  Alcotest.(check bool) "same shape" true
    (Disk.live_at d2 ~start:e.Disk.start ~length:3);
  Alcotest.(check bool) "generation survives" true
    (Disk.generation_at d2 ~start:e.Disk.start = gen);
  Alcotest.(check int) "nothing torn" 0 (Disk.torn_count d2);
  (* reads on the reopened disk verify the stamps for real *)
  List.iter (Disk.read d2) (Disk.live_extents d2);
  Disk.close d2

let test_file_disk_unwritten_extent_intact () =
  with_dir "rd_zero" @@ fun dir ->
  let path = Filename.concat dir "BLOCKS" in
  let d = Disk.create_file ~params:small_params ~path () in
  let e = Disk.alloc d ~blocks:2 in
  Disk.checkpoint_alloc d;
  Disk.close d;
  ignore e;
  (* never written: all-zero blocks satisfy valid-stamp-or-zero *)
  let d2 = Disk.open_file ~params:small_params ~path () in
  Alcotest.(check int) "live" 1 (List.length (Disk.live_extents d2));
  Alcotest.(check int) "not torn" 0 (Disk.torn_count d2);
  Disk.close d2

let test_file_disk_stale_generation_detected () =
  with_dir "rd_gen" @@ fun dir ->
  let path = Filename.concat dir "BLOCKS" in
  let d = Disk.create_file ~params:small_params ~path () in
  let a = Disk.alloc d ~blocks:3 in
  Disk.write d a;
  Disk.checkpoint_alloc d;
  (* after the snapshot: free and reallocate the same space, write the
     new generation's stamps, then die without a new snapshot *)
  Disk.free d a;
  let b = Disk.alloc d ~blocks:3 in
  Alcotest.(check int) "first-fit reused the space" a.Disk.start b.Disk.start;
  Disk.write d b;
  Disk.close d;
  let d2 = Disk.open_file ~params:small_params ~path () in
  Alcotest.(check bool) "snapshot's extent is back" true
    (Disk.live_at d2 ~start:a.Disk.start ~length:3);
  Alcotest.(check bool) "but marked torn (stale generation)" true
    (Disk.torn_at d2 ~start:a.Disk.start);
  Disk.close d2

let test_file_disk_truncated_tail_detected () =
  with_dir "rd_trunc" @@ fun dir ->
  let path = Filename.concat dir "BLOCKS" in
  let d = Disk.create_file ~params:small_params ~path () in
  let e = Disk.alloc d ~blocks:4 in
  Disk.write d e;
  Disk.checkpoint_alloc d;
  Disk.close d;
  Unix.truncate path (2 * small_params.Disk.block_size);
  let d2 = Disk.open_file ~params:small_params ~path () in
  Alcotest.(check bool) "truncated extent torn" true
    (Disk.torn_at d2 ~start:e.Disk.start);
  Disk.close d2

(* The stamp format is pinned by known answers: these are the 40 bytes
   the encoder wrote while the block file kept its own boxed-Int32 CRC. *)
let read_block path ~block_size block =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      let off = block * block_size in
      if off + Block_file.stamp_bytes > len then String.make Block_file.stamp_bytes '\000'
      else begin
        seek_in ic off;
        really_input_string ic Block_file.stamp_bytes
      end)

let hex s = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let test_stamp_known_answer () =
  with_dir "rd_stamp" @@ fun dir ->
  let path = Filename.concat dir "BLOCKS" in
  let bf = Block_file.create ~path ~block_size:64 in
  Block_file.write_range bf ~start:5 ~blocks:1 ~ext_start:3 ~gen:7 ~seq:11;
  Block_file.write_range bf ~start:6 ~blocks:1 ~ext_start:0x123456789
    ~gen:0x7FFFFFFF ~seq:(-1);
  Alcotest.(check bool) "verifies" true
    (Block_file.verify_range bf ~start:5 ~blocks:1 ~ext_start:3 ~gen:7);
  Block_file.close bf;
  Alcotest.(check string) "small fields"
    "5756424b0300000000000000070000000000000005000000000000000b00000000000000a957c165"
    (hex (read_block path ~block_size:64 5));
  Alcotest.(check string) "wide fields"
    "5756424b8967452301000000ffffff7f000000000600000000000000ffffffffffffffffb583d6bc"
    (hex (read_block path ~block_size:64 6))

(* (block index, write sequence) stamped into one block, [None] if the
   block is all zero. *)
let stamp_at path ~block_size block =
  let s = read_block path ~block_size block in
  if String.for_all (fun c -> c = '\000') s then None
  else
    Some
      ( Int64.to_int (String.get_int64_le s 20),
        Int64.to_int (String.get_int64_le s 28) )

(* Two appends into a 6-block extent — 3 blocks, then 2 — must leave
   the second write's stamps at blocks 3-4, not over blocks 0-1.  Every
   charged path that writes a sub-range is checked: the uncached index,
   the write-through pool and the write-back pool's oversized-write
   fallback. *)
let test_partial_writes_land_at_offset () =
  with_dir "rd_offsets" @@ fun dir ->
  let expect name path ~block_size =
    let want =
      [ Some (0, 1); Some (1, 1); Some (2, 1); Some (3, 2); Some (4, 2); None ]
    in
    List.iteri
      (fun b w ->
        Alcotest.(check (option (pair int int)))
          (Printf.sprintf "%s: block %d" name b)
          w (stamp_at path ~block_size b))
      want
  in
  (* uncached index: a new bucket of 3 entries gets a 6-block extent,
     the second batch appends 2 in place *)
  let path = Filename.concat dir "INDEX" in
  let cfg = { Index.default_config with Index.disk_backend = Disk.File path } in
  let d = Index.make_disk cfg in
  let idx = Index.create_empty d cfg in
  let batch day n =
    Entry.batch_create ~day
      (Array.init n (fun i ->
           { Entry.value = 7; entry = { Entry.rid = (day * 10) + i; day; info = 0 } }))
  in
  Index.add_batch idx (batch 1 3);
  Index.add_batch idx (batch 2 2);
  Alcotest.(check (list int)) "one 6-block bucket at block 0" [ 0 ]
    (List.map (fun (e : Disk.extent) -> e.Disk.start) (Index.extents idx));
  List.iter (Disk.read d) (Index.extents idx);
  Disk.close d;
  expect "uncached index" path ~block_size:cfg.Index.entry_bytes;
  (* the pool's two sub-range write paths *)
  List.iter
    (fun (name, frames, write_back) ->
      let path = Filename.concat dir name in
      let d = Disk.create_file ~params:small_params ~path () in
      let e = Disk.alloc d ~blocks:6 in
      let pool = Cache.create d ~frames ~write_back () in
      Cache.write_range pool e ~off:0 ~blocks:3;
      Cache.write_range pool e ~off:3 ~blocks:2;
      Alcotest.(check int) (name ^ ": nothing deferred") 0 (Cache.dirty_frames pool);
      Disk.read d e;
      Disk.close d;
      expect name path ~block_size:small_params.Disk.block_size)
    [ ("write-through", 8, false); ("write-back fallback", 1, true) ]

let test_file_disk_missing_sidecar () =
  with_dir "rd_nosidecar" @@ fun dir ->
  let path = Filename.concat dir "BLOCKS" in
  let d = Disk.create_file ~params:small_params ~path () in
  Disk.close d;
  Alcotest.(check bool) "open without snapshot refused" true
    (try
       ignore (Disk.open_file ~params:small_params ~path ());
       false
     with Disk.Disk_error _ -> true)

(* A hand-edited allocator snapshot whose extents overlap or repeat a
   start would let the allocator hand out live blocks again. *)
let test_file_disk_overlapping_sidecar () =
  with_dir "rd_overlap" @@ fun dir ->
  let path = Filename.concat dir "BLOCKS" in
  let d = Disk.create_file ~params:small_params ~path () in
  ignore (Disk.alloc d ~blocks:10);
  Disk.checkpoint_alloc d;
  Disk.close d;
  let sidecar = path ^ ".alloc" in
  let original = In_channel.with_open_bin sidecar In_channel.input_all in
  Alcotest.(check bool) "snapshot names the extent" true
    (List.mem "extent 0 10 1" (String.split_on_char '\n' original));
  List.iter
    (fun (name, line) ->
      Out_channel.with_open_bin sidecar (fun oc ->
          output_string oc (original ^ line ^ "\n"));
      match Disk.open_file ~params:small_params ~path () with
      | d ->
        Disk.close d;
        Alcotest.failf "%s: accepted" name
      | exception Disk.Disk_error msg ->
        Alcotest.(check bool)
          (name ^ ": corrupt allocator snapshot")
          true
          (String.starts_with ~prefix:"open_file: corrupt allocator snapshot" msg))
    [ ("overlap", "extent 5 2 1"); ("repeated start", "extent 0 3 1") ]

(* The per-block check and stamp encoder of the one-table-CRC block file,
   kept verbatim as the reference the shared-prefix codec must agree
   with. *)
let reference_block_intact ~block_size buf ~boff ~block ~ext_start ~gen =
  let has_magic buf boff =
    let rec go i = i = 4 || (Bytes.get buf (boff + i) = "WVBK".[i] && go (i + 1)) in
    go 0
  in
  let rec all_zero i =
    i >= block_size || (Bytes.get buf (boff + i) = '\000' && all_zero (i + 1))
  in
  (has_magic buf boff
  && Int32.to_int (Bytes.get_int32_le buf (boff + 36)) land 0xFFFF_FFFF
     = Wave_util.Crc32.bytes buf ~off:boff ~len:36
  && Bytes.get_int64_le buf (boff + 4) = Int64.of_int ext_start
  && Bytes.get_int64_le buf (boff + 12) = Int64.of_int gen
  && Bytes.get_int64_le buf (boff + 20) = Int64.of_int block)
  || all_zero 0

let reference_stamp_into buf ~boff ~block ~ext_start ~gen ~seq =
  Bytes.blit_string "WVBK" 0 buf boff 4;
  Bytes.set_int64_le buf (boff + 4) (Int64.of_int ext_start);
  Bytes.set_int64_le buf (boff + 12) (Int64.of_int gen);
  Bytes.set_int64_le buf (boff + 20) (Int64.of_int block);
  Bytes.set_int64_le buf (boff + 28) (Int64.of_int seq);
  Bytes.set_int32_le buf (boff + 36)
    (Int32.of_int (Wave_util.Crc32.bytes buf ~off:boff ~len:36))

let test_verify_matches_reference () =
  with_dir "rd_verify_ref" @@ fun dir ->
  List.iter
    (fun block_size ->
      let path = Filename.concat dir (Printf.sprintf "BLOCKS_%d" block_size) in
      let bf = Block_file.create ~path ~block_size in
      (* blocks 1-3: one range of extent 1, generation 0x1234_5678_9A;
         blocks 4-5: allocated, never written *)
      let ext_start = 1 and gen = 0x1234_5678_9A in
      Block_file.write_range bf ~start:1 ~blocks:3 ~ext_start ~gen ~seq:77;
      Block_file.ensure_blocks bf 6;
      let file () = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      let want = Bytes.make (3 * block_size) '\000' in
      for i = 0 to 2 do
        reference_stamp_into want ~boff:(i * block_size) ~block:(1 + i) ~ext_start
          ~gen ~seq:77
      done;
      Alcotest.(check string)
        (Printf.sprintf "bs %d: stamps as the reference encoder writes them" block_size)
        (Bytes.to_string want)
        (Bytes.sub_string (file ()) block_size (3 * block_size));
      let agree name ~start ~blocks ~ext_start ~gen =
        let buf = file () in
        let expect =
          List.for_all
            (fun i ->
              reference_block_intact ~block_size buf
                ~boff:((start + i) * block_size)
                ~block:(start + i) ~ext_start ~gen)
            (List.init blocks Fun.id)
        in
        Alcotest.(check bool)
          (Printf.sprintf "bs %d: %s" block_size name)
          expect
          (Block_file.verify_range bf ~start ~blocks ~ext_start ~gen);
        expect
      in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
      let poke off c =
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        ignore (Unix.write_substring fd (String.make 1 c) 0 1)
      in
      let byte_at off = Bytes.get (file ()) off in
      Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
      Alcotest.(check bool) "intact range" true
        (agree "intact" ~start:1 ~blocks:3 ~ext_start ~gen);
      Alcotest.(check bool) "zero blocks" true
        (agree "zero blocks" ~start:4 ~blocks:2 ~ext_start:4 ~gen:9);
      Alcotest.(check bool) "wrong extent" false
        (agree "wrong extent" ~start:1 ~blocks:3 ~ext_start:0 ~gen);
      Alcotest.(check bool) "wrong generation" false
        (agree "wrong generation" ~start:1 ~blocks:3 ~ext_start ~gen:(gen + 1));
      (* every value of every stamp byte of the middle block *)
      let mid = 2 * block_size in
      for pos = 0 to Block_file.stamp_bytes - 1 do
        let orig = byte_at (mid + pos) in
        for x = 1 to 255 do
          poke (mid + pos) (Char.chr (Char.code orig lxor x));
          ignore
            (agree (Printf.sprintf "stamp byte %d xor %d" pos x) ~start:1 ~blocks:3
               ~ext_start ~gen)
        done;
        poke (mid + pos) orig
      done;
      (* a valid stamp for the wrong index: block 1's stamp copied over
         block 2 *)
      let first = Bytes.sub_string (file ()) block_size Block_file.stamp_bytes in
      let saved = Bytes.sub_string (file ()) mid Block_file.stamp_bytes in
      String.iteri (fun i c -> poke (mid + i) c) first;
      Alcotest.(check bool) "wrong index" false
        (agree "wrong index" ~start:1 ~blocks:3 ~ext_start ~gen);
      String.iteri (fun i c -> poke (mid + i) c) saved;
      (* a non-zero byte after the stamp: ignored behind a valid stamp,
         damage in an unwritten block *)
      for pos = Block_file.stamp_bytes to block_size - 1 do
        poke (mid + pos) '\x01';
        ignore (agree (Printf.sprintf "byte %d after a stamp" pos) ~start:1 ~blocks:3
                  ~ext_start ~gen);
        poke (mid + pos) '\000'
      done;
      for pos = 0 to block_size - 1 do
        poke ((5 * block_size) + pos) '\x01';
        ignore (agree (Printf.sprintf "byte %d of a zero block" pos) ~start:4 ~blocks:2
                  ~ext_start:4 ~gen:9);
        poke ((5 * block_size) + pos) '\000'
      done;
      (* Blocks 6-10: one range of an extent whose start and generation
         lie above 2^32, its blocks under different write sequences —
         the whole range at one, a sub-range at another, one block back
         at the first, then -1 and a sequence above 2^56 (top bytes
         set). *)
      let base = 6 and blocks = 5 in
      let ext_start = (1 lsl 33) + 6 and gen = (1 lsl 40) + 0x5A in
      let want = Bytes.make (blocks * block_size) '\000' in
      List.iter
        (fun (off, n, seq) ->
          Block_file.write_range bf ~start:(base + off) ~blocks:n ~ext_start ~gen ~seq;
          for i = off to off + n - 1 do
            reference_stamp_into want ~boff:(i * block_size) ~block:(base + i) ~ext_start
              ~gen ~seq
          done;
          let name = Printf.sprintf "seq %d over blocks %d-%d" seq off (off + n - 1) in
          Alcotest.(check string)
            (Printf.sprintf "bs %d: %s as the reference encoder writes it" block_size name)
            (Bytes.to_string want)
            (Bytes.sub_string (file ()) (base * block_size) (blocks * block_size));
          Alcotest.(check bool) name true (agree name ~start:base ~blocks ~ext_start ~gen))
        [ (0, 5, 3); (1, 3, 4); (2, 1, 3); (0, 2, -1); (3, 2, (1 lsl 56) + 3) ];
      Alcotest.(check bool) "extent start off by 2^33" false
        (agree "extent start off by 2^33" ~start:base ~blocks ~ext_start:6 ~gen);
      Alcotest.(check bool) "generation off by 2^40" false
        (agree "generation off by 2^40" ~start:base ~blocks ~ext_start ~gen:0x5A);
      (* damage to a sequence byte, in blocks whose neighbours carry the
         same sequence and in blocks whose neighbours do not *)
      for b = base to base + blocks - 1 do
        for pos = 28 to 35 do
          let off = (b * block_size) + pos in
          let orig = byte_at off in
          List.iter
            (fun x ->
              poke off (Char.chr (Char.code orig lxor x));
              ignore
                (agree (Printf.sprintf "block %d byte %d xor %d" b pos x) ~start:base
                   ~blocks ~ext_start ~gen))
            [ 0x01; 0x80 ];
          poke off orig
        done
      done;
      Block_file.close bf)
    [ Block_file.stamp_bytes; 64; 100 ]

(* The stamped buffer of the block file that stamped a whole range in
   one buffer, kept as the reference the chunked writes must agree
   with. *)
let reference_stamped_buffer ~block_size ~start ~blocks ~ext_start ~gen ~seq =
  let buf = Bytes.make (blocks * block_size) '\000' in
  let prefix = Bytes.create 20 in
  Bytes.blit_string "WVBK" 0 prefix 0 4;
  Bytes.set_int64_le prefix 4 (Int64.of_int ext_start);
  Bytes.set_int64_le prefix 12 (Int64.of_int gen);
  let crc = Wave_util.Crc32.update Wave_util.Crc32.init prefix ~off:0 ~len:20 in
  for i = 0 to blocks - 1 do
    let boff = i * block_size in
    Bytes.blit prefix 0 buf boff 20;
    Bytes.set_int64_le buf (boff + 20) (Int64.of_int (start + i));
    Bytes.set_int64_le buf (boff + 28) (Int64.of_int seq);
    Bytes.set_int32_le buf (boff + 36)
      (Int32.of_int
         (Wave_util.Crc32.finish (Wave_util.Crc32.update crc buf ~off:(boff + 20) ~len:16)))
  done;
  buf

(* Writes that span several chunks: stamps, zeros and torn prefixes land
   as the one-buffer writer put them, each in one pwrite. *)
let test_stamps_across_write_chunks () =
  with_dir "rd_write_chunks" @@ fun dir ->
  List.iter
    (fun block_size ->
      let per_chunk = max 1 (Block_file.chunk_bytes / block_size) in
      List.iter
        (fun (what, blocks) ->
          let name = Printf.sprintf "bs %d, %s (%d blocks)" block_size what blocks in
          let path = Filename.concat dir (Printf.sprintf "B_%d_%d" block_size blocks) in
          let bf = Block_file.create ~path ~block_size in
          let start = 2 and ext_start = 2 and gen = 0x51_2345 and seq = 41 in
          let file () =
            Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
          in
          let range () = Bytes.sub_string (file ()) (start * block_size) (blocks * block_size) in
          let one_pwrite step f =
            let (), n = counter_delta "disk.file.pwrites" f in
            Alcotest.(check (float 0.)) (Printf.sprintf "%s: %s is one pwrite" name step) 1.0 n
          in
          (* an earlier tenant's stamps, one block of zeros either side *)
          Block_file.write_range bf ~start ~blocks ~ext_start:7 ~gen:3 ~seq:1;
          Block_file.ensure_blocks bf (start + blocks + 1);
          one_pwrite "zeroing" (fun () -> Block_file.zero_range bf ~start ~blocks);
          Alcotest.(check string) (name ^ ": reused space reads back zero")
            (String.make (blocks * block_size) '\000') (range ());
          one_pwrite "stamping" (fun () ->
              Block_file.write_range bf ~start ~blocks ~ext_start ~gen ~seq);
          let want = reference_stamped_buffer ~block_size ~start ~blocks ~ext_start ~gen ~seq in
          Alcotest.(check string) (name ^ ": stamps as the reference writes them")
            (Bytes.to_string want) (range ());
          Alcotest.(check int) (name ^ ": nothing past the range")
            ((start + blocks + 1) * block_size) (Bytes.length (file ()));
          Alcotest.(check bool) (name ^ ": verifies") true
            (Block_file.verify_range bf ~start ~blocks ~ext_start ~gen);
          Block_file.zero_range bf ~start ~blocks;
          let torn =
            Block_file.write_torn_prefix bf ~start ~blocks ~ext_start ~gen ~seq
          in
          Alcotest.(check string) (name ^ ": a torn prefix writes exactly its blocks")
            (Bytes.sub_string want 0 (torn * block_size)
            ^ String.make ((blocks - torn) * block_size) '\000')
            (range ());
          Block_file.close bf)
        [
          ("one block", 1);
          ("one chunk", per_chunk);
          ("a chunk and a block", per_chunk + 1);
          ("2.5 chunks", (2 * per_chunk) + (per_chunk / 2));
        ])
    [ Block_file.stamp_bytes; 64; 100 ]

(* A range longer than one read chunk: the same verdict as the
   reference check for damage in the first and last block of every
   chunk, read with one pread of the whole range. *)
let test_verify_across_chunks () =
  with_dir "rd_verify_chunks" @@ fun dir ->
  let block_size = Block_file.stamp_bytes in
  let per_chunk = max 1 (Block_file.chunk_bytes / block_size) in
  let blocks = (2 * per_chunk) + (per_chunk / 2) and ext_start = 3 and gen = 5 in
  let path = Filename.concat dir "BLOCKS" in
  let bf = Block_file.create ~path ~block_size in
  Block_file.write_range bf ~start:ext_start ~blocks ~ext_start ~gen ~seq:9;
  Block_file.ensure_blocks bf (ext_start + (2 * blocks));
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  Fun.protect ~finally:(fun () -> Unix.close fd; Block_file.close bf) @@ fun () ->
  let poke off c =
    ignore (Unix.lseek fd off Unix.SEEK_SET);
    ignore (Unix.write_substring fd (String.make 1 c) 0 1)
  in
  let agree name ~start ~ext_start =
    let buf = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
    let expect =
      List.for_all
        (fun i ->
          reference_block_intact ~block_size buf
            ~boff:((start + i) * block_size)
            ~block:(start + i) ~ext_start ~gen)
        (List.init blocks Fun.id)
    in
    let got, preads =
      counter_delta "disk.file.preads" (fun () ->
          Block_file.verify_range bf ~start ~blocks ~ext_start ~gen)
    in
    Alcotest.(check bool) name expect got;
    Alcotest.(check (float 0.)) (name ^ ": one pread") 1.0 preads;
    got
  in
  Alcotest.(check bool) "range spans three chunks" true (blocks > 2 * per_chunk);
  Alcotest.(check bool) "intact" true (agree "intact" ~start:ext_start ~ext_start);
  Alcotest.(check bool) "unwritten" true
    (agree "unwritten" ~start:(ext_start + blocks) ~ext_start:(ext_start + blocks));
  List.iter
    (fun i ->
      (* the low byte of the block index in the stamp *)
      let off = ((ext_start + i) * block_size) + 20 in
      let orig = (ext_start + i) land 0xff in
      poke off (Char.chr (orig lxor 0xff));
      Alcotest.(check bool)
        (Printf.sprintf "block %d damaged" i)
        false
        (agree (Printf.sprintf "block %d damaged" i) ~start:ext_start ~ext_start);
      poke off (Char.chr orig))
    [ 0; per_chunk - 1; per_chunk; (2 * per_chunk) - 1; 2 * per_chunk; blocks - 1 ];
  Alcotest.(check bool) "restored" true (agree "restored" ~start:ext_start ~ext_start)

(* --- simulated disk: fault queue and stalls -------------------------- *)

let test_sim_fault_queue () =
  let d = Disk.create () in
  let e = Disk.alloc d ~blocks:1 in
  Disk.write d e;
  Disk.arm_faults d
    [
      ({ Disk.target = Disk.On_seek; at = 2 }, Disk.Fail_stop);
      ({ Disk.target = Disk.On_seek; at = 1 }, Disk.Fail_stop);
    ];
  Disk.read d e;
  (* first plan fires on the second seek after arming *)
  Alcotest.check_raises "head fires" (Disk.Disk_error "injected fault")
    (fun () -> Disk.read d e);
  Alcotest.(check int) "queue popped" 1 (List.length (Disk.armed_faults d));
  (* the popped queue's head counts from here: the very next seek *)
  Alcotest.check_raises "second fires" (Disk.Disk_error "injected fault")
    (fun () -> Disk.read d e);
  Alcotest.(check bool) "queue drained" true (Disk.armed_faults d = []);
  Disk.read d e

let test_sim_stall () =
  let d = Disk.create () in
  let e = Disk.alloc d ~blocks:1 in
  Disk.write d e;
  Disk.arm_fault d ~mode:(Disk.Stall 5.0) { Disk.target = Disk.On_seek; at = 1 };
  let t0 = Disk.elapsed d in
  let (), stalled =
    counter_delta "disk.stalls" (fun () -> Disk.read d e)
  in
  Alcotest.(check bool) "operation completed and charged the stall" true
    (Disk.elapsed d -. t0 >= 5.0);
  Alcotest.(check int) "stall_count" 1 (Disk.stall_count d);
  Alcotest.(check (float 0.)) "disk.stalls metric" 1.0 stalled;
  Alcotest.(check bool) "plan consumed" true (not (Disk.fault_armed d))

let test_sim_stall_validation () =
  let d = Disk.create () in
  Alcotest.(check bool) "negative stall rejected" true
    (try
       Disk.arm_fault d ~mode:(Disk.Stall (-1.0))
         { Disk.target = Disk.On_seek; at = 1 };
       false
     with Disk.Disk_error _ -> true)

(* --- runner: backend equivalence and the stall alert ----------------- *)

let test_runner_file_backend_equivalence () =
  with_recorded_sleeps @@ fun _ ->
  with_dir "rd_eqv" @@ fun dir ->
  let base = Runner.default_config ~scheme:Scheme.Del ~store ~w:6 ~n:3 in
  let base = { base with Runner.run_days = 6 } in
  let r_sim = Runner.run base in
  let icfg =
    {
      Index.default_config with
      Index.disk_backend = Disk.File (Filename.concat dir "BLOCKS");
    }
  in
  (* a transient fault mid-run is absorbed by the retry loop: the run
     completes and stays bit-identical to the simulator *)
  Io.arm ~at:40 Io.Pwrite (Io.Transient (Io.Eio, 2));
  let r_file, retries =
    counter_delta "disk.file.retries" (fun () ->
        Runner.run { base with Runner.icfg })
  in
  Alcotest.(check bool) "model metrics bit-identical to simulator" true
    (r_sim.Runner.days = r_file.Runner.days);
  Alcotest.(check bool) "retries happened and were counted" true
    (retries >= 2.0);
  Alcotest.(check bool) "real writes happened" true
    (Metrics.counter_value (Metrics.counter "disk.file.pwrites") > 0.0)

let test_runner_stall_alert () =
  let rule =
    Alert.rule ~name:"stalled-disk" ~metric:"runner.day.transition_seconds"
      Alert.Gt 10.0
  in
  let base = Runner.default_config ~scheme:Scheme.Del ~store ~w:6 ~n:3 in
  let stall_everything env =
    Disk.arm_faults env.Env.disk
      (List.init 1000 (fun _ ->
           ({ Disk.target = Disk.On_write; at = 1 }, Disk.Stall 30.0)))
  in
  let cfg =
    {
      base with
      Runner.run_days = 4;
      alerts = [ rule ];
      on_env = Some stall_everything;
    }
  in
  let r = Runner.run cfg in
  Alcotest.(check bool) "alert fired on the stalled transitions" true
    (List.exists
       (fun e -> e.Alert.e_rule.Alert.name = "stalled-disk")
       r.Runner.alerts);
  (* the same run without the stalls stays quiet *)
  let quiet = Runner.run { cfg with Runner.on_env = None } in
  Alcotest.(check (list reject)) "no alerts unstalled" [] quiet.Runner.alerts

(* --- checkpoint directory: atomicity under syscall faults ------------ *)

let dir_instance ?(kind = Scheme.Del) ?(technique = Env.Packed_shadow) ?(w = 6)
    ?(n = 3) dir =
  Store_dir.init dir;
  let icfg =
    {
      Index.default_config with
      Index.disk_backend = Disk.File (Store_dir.blocks_path dir);
    }
  in
  let disk = Index.make_disk icfg in
  let env = Env.create ~disk ~icfg ~technique ~store ~w ~n () in
  Checkpoint.start ~dir kind env

let kill cp =
  let disk = (Checkpoint.env cp).Env.disk in
  Cache.detach disk;
  Disk.close disk

let reopened_consistent dir ~day =
  let cp2, rcv = Checkpoint.reopen ~dir ~store () in
  let ok =
    (rcv.Checkpoint.recovered_day = day - 1
    || rcv.Checkpoint.recovered_day = day)
    && Checkpoint.current_day cp2 = rcv.Checkpoint.recovered_day
    && Disk.torn_count (Checkpoint.env cp2).Env.disk = 0
    && Disk.live_blocks (Checkpoint.env cp2).Env.disk > 0
  in
  kill cp2;
  ok

let sorted_scan frame = List.sort Entry.compare (Frame.segment_scan frame)

(* The day store is the system of record: a wave killed between
   transitions and reopened from its checkpoint directory answers a
   whole-window scan exactly as before the kill, for every scheme. *)
let prop_reopen_query_equivalent =
  QCheck2.Test.make ~name:"reopen is query-equivalent" ~count:30
    ~print:QCheck2.Print.(quad int int int int)
    QCheck2.Gen.(
      quad (int_range 0 5) (int_range 0 2) (int_range 3 9) (int_range 2 4))
    (fun (kind_i, tech_i, w, n) ->
      let kind = List.nth Scheme.all kind_i in
      let technique =
        List.nth [ Env.In_place; Env.Simple_shadow; Env.Packed_shadow ] tech_i
      in
      let n = max (Scheme.min_indexes kind) (min n w) in
      with_dir "rd_equiv" @@ fun dir ->
      let cp = dir_instance ~kind ~technique ~w ~n dir in
      Checkpoint.advance_to cp (w + 9);
      let before = sorted_scan (Checkpoint.frame cp) in
      kill cp;
      let cp2, rcv = Checkpoint.reopen ~dir ~store () in
      let after = sorted_scan (Checkpoint.frame cp2) in
      kill cp2;
      rcv.Checkpoint.recovered_day = w + 9 && after = before)

(* Kill the transition at every fsync and every rename it performs —
   counted on a clean twin — and prove a committed manifest plus a
   consistent wave always survives.  This is the behavioral check that
   each rename really is preceded by its fsync: killing at any fsync
   leaves the pre-commit files, killing at any rename leaves either the
   old or the new commit, never a half-written one. *)
let test_checkpoint_syscall_kill_matrix () =
  with_recorded_sleeps @@ fun _ ->
  with_dir "rd_sys" @@ fun root ->
  let day = 9 in
  let twin_dir = Filename.concat root "twin" in
  let twin = dir_instance twin_dir in
  Checkpoint.advance_to twin (day - 1);
  let count name f =
    let c = Metrics.counter name in
    let before = Metrics.counter_value c in
    f ();
    int_of_float (Metrics.counter_value c -. before)
  in
  let fsyncs = ref 0 and renames = ref 0 in
  let c_ren = Metrics.counter "disk.file.renames" in
  let before_ren = Metrics.counter_value c_ren in
  fsyncs := count "disk.file.fsyncs" (fun () -> Checkpoint.transition twin);
  renames := int_of_float (Metrics.counter_value c_ren -. before_ren);
  kill twin;
  Alcotest.(check bool) "transition fsyncs" true (!fsyncs >= 3);
  Alcotest.(check bool) "transition renames" true (!renames >= 3);
  let run_point syscall at label =
    let dir = Filename.concat root label in
    let cp = dir_instance dir in
    Checkpoint.advance_to cp (day - 1);
    Io.arm ~at syscall Io.Fail_stop;
    let fired =
      match Checkpoint.transition cp with
      | () -> false
      | exception Disk.Disk_error _ -> true
    in
    Io.clear ();
    kill cp;
    Alcotest.(check bool) (label ^ " fired") true fired;
    Alcotest.(check bool) (label ^ " recovers") true
      (reopened_consistent dir ~day)
  in
  for at = 1 to !fsyncs do
    run_point Io.Fsync at (Printf.sprintf "fsync%d" at)
  done;
  for at = 1 to !renames do
    run_point Io.Rename at (Printf.sprintf "rename%d" at)
  done

(* A durable whole-file write ends with a directory fsync, so the
   committed rename survives power loss — for the journal and manifest
   rewrites and the allocator sidecar alike. *)
let test_durable_write_fsyncs_directory () =
  with_recorded_sleeps @@ fun _ ->
  with_dir "rd_dirsync" @@ fun dir ->
  let syscalls f =
    Wave_obs.Recorder.clear ();
    f ();
    List.filter_map
      (fun (e : Wave_obs.Recorder.event) ->
        match e.Wave_obs.Recorder.kind with
        | Wave_obs.Recorder.Io { io_syscall; _ } -> Some io_syscall
        | _ -> None)
      (Wave_obs.Recorder.events ())
  in
  Alcotest.(check (list string))
    "journal rewrite" [ "pwrite"; "fsync"; "rename"; "fsync" ]
    (syscalls (fun () -> Store_dir.write_journal dir (Journal.create ())));
  let d =
    Disk.create_file ~params:small_params ~path:(Store_dir.blocks_path dir) ()
  in
  Alcotest.(check (list string))
    "allocator sidecar" [ "pwrite"; "fsync"; "rename"; "fsync" ]
    (syscalls (fun () -> Disk.checkpoint_alloc d));
  Disk.close d

let test_checkpoint_stale_tmp_cleanup () =
  with_recorded_sleeps @@ fun _ ->
  with_dir "rd_tmp" @@ fun dir ->
  let cp = dir_instance dir in
  Checkpoint.advance_to cp 8;
  kill cp;
  let stale = Store_dir.manifest_path dir ^ ".tmp" in
  let oc = open_out stale in
  output_string oc "half a manifest";
  close_out oc;
  Alcotest.(check bool) "reopen consistent" true
    (reopened_consistent dir ~day:9);
  Alcotest.(check bool) "stale tmp removed" false (Sys.file_exists stale)

let test_checkpoint_corrupt_manifest_falls_back () =
  with_recorded_sleeps @@ fun _ ->
  with_dir "rd_corrupt" @@ fun dir ->
  let cp = dir_instance dir in
  Checkpoint.advance_to cp 9;
  kill cp;
  (* smash the newest commit; the rotated previous checkpoint (day 8)
     must take over *)
  let oc = open_out (Store_dir.manifest_path dir) in
  output_string oc "{ not a manifest";
  close_out oc;
  let cp2, rcv = Checkpoint.reopen ~dir ~store () in
  Alcotest.(check int) "previous checkpoint's day" 8
    rcv.Checkpoint.recovered_day;
  Alcotest.(check int) "frame serves it" 8 (Checkpoint.current_day cp2);
  kill cp2

(* --- kill-and-recover sweeps ----------------------------------------- *)

let check_kill_report (r : Crash_harness.report) =
  if not r.Crash_harness.passed then
    Alcotest.failf "kill sweep failed:@\n%a" Crash_harness.pp_report r;
  Alcotest.(check bool) "has points" true (r.Crash_harness.points <> []);
  Alcotest.(check bool) "torn-tail variant ran" true
    (List.exists (fun p -> p.Crash_harness.torn_tail) r.Crash_harness.points)

let test_kill_sweep_packed_shadow () =
  with_recorded_sleeps @@ fun _ ->
  with_dir "rd_kill" @@ fun dir ->
  check_kill_report
    (Crash_harness.sweep ~kill:(Crash_harness.Reopen dir) ~scheme:Scheme.Del
       ~technique:Env.Packed_shadow ~w:6 ~n:3 ~day:9 ())

let test_kill_sweep_write_back () =
  with_recorded_sleeps @@ fun _ ->
  with_dir "rd_kill_wb" @@ fun dir ->
  let icfg =
    {
      Index.default_config with
      Index.cache_blocks = Some 64;
      cache_write_back = true;
    }
  in
  check_kill_report
    (Crash_harness.sweep ~icfg ~kill:(Crash_harness.Reopen dir)
       ~scheme:Scheme.Del ~technique:Env.Packed_shadow ~w:6 ~n:3 ~day:9 ())

(* A store that poisons [poison_day]'s batch for every instantiation
   after the first: the twin sees canonical data, every kill replay an
   extra posting, so roll-forward recovery disagrees with the twin and
   the point fails — on purpose, to exercise the failure artifacts.  An
   instantiation is counted when it fetches day 2, which only the
   initial build reads: a DEL transition also fetches its expiring
   day 1. *)
let divergent_store ~poison_day =
  let instances = ref 0 in
  fun day ->
    if day = 2 then incr instances;
    if day = poison_day && !instances > 1 then
      Entry.batch_create ~day
        (Array.init 9 (fun i ->
             {
               Entry.value = 1 + ((day + i) mod 6);
               entry = { Entry.rid = (day * 100) + i; day; info = i + 1 };
             }))
    else Crash_harness.default_store day

let test_kill_sweep_failure_keeps_flight () =
  with_recorded_sleeps @@ fun _ ->
  with_dir "rd_kill_fail" @@ fun dir ->
  let r =
    Crash_harness.sweep
      ~store:(divergent_store ~poison_day:7)
      ~kill:(Crash_harness.Reopen dir) ~scheme:Scheme.Del
      ~technique:Env.In_place ~w:6 ~n:3 ~day:7 ()
  in
  Alcotest.(check bool) "sweep fails by construction" false
    r.Crash_harness.passed;
  (* Failing points keep their directories; each must contain a
     validated flight dump of the killed run's last events. *)
  let kept =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun n -> Sys.is_directory (Filename.concat dir n))
  in
  Alcotest.(check bool) "kept artifact dirs" true (kept <> []);
  List.iter
    (fun sub ->
      let f = Filename.concat (Filename.concat dir sub) "flight.jsonl" in
      Alcotest.(check bool) (sub ^ " has flight.jsonl") true
        (Sys.file_exists f);
      match Wave_obs.Sink.validate_flight_file f with
      | Ok n ->
        (* The ring was cleared at the point's start: the dump is the
           killed run's own syscall tail, ending in the injected
           fault. *)
        Alcotest.(check bool) (sub ^ " flight non-empty") true (n > 0)
      | Error e -> Alcotest.failf "%s flight invalid: %s" sub e)
    kept

let test_double_fault_sweep () =
  (* In-place updating always rolls forward, so recovery charges real
     I/O and the second fault has somewhere to land. *)
  let r =
    Crash_harness.sweep ~kill:Crash_harness.Double ~scheme:Scheme.Del
      ~technique:Env.In_place ~w:6 ~n:3 ~day:9 ()
  in
  if not r.Crash_harness.passed then
    Alcotest.failf "double-fault sweep failed:@\n%a" Crash_harness.pp_report r;
  Alcotest.(check bool) "has double points" true
    (r.Crash_harness.points <> [])

let test_double_fault_rollback_vacuous () =
  (* Packed shadow's recovery is a pure roll-back: every pair is
     skipped and the sweep passes vacuously with zero points. *)
  let r =
    Crash_harness.sweep ~kill:Crash_harness.Double ~scheme:Scheme.Del
      ~technique:Env.Packed_shadow ~w:6 ~n:3 ~day:9 ()
  in
  Alcotest.(check bool) "passes" true r.Crash_harness.passed;
  Alcotest.(check bool) "all pairs skipped" true
    (r.Crash_harness.points = [])

let suites =
  [
    ( "disk.io",
      [
        Alcotest.test_case "transient retries with backoff" `Quick
          test_io_transient_retries;
        Alcotest.test_case "giveup after budget" `Quick test_io_transient_giveup;
        Alcotest.test_case "short write makes progress" `Quick
          test_io_short_write_progress;
        Alcotest.test_case "stall" `Quick test_io_stall;
        Alcotest.test_case "torn write visible in file" `Quick
          test_io_torn_write_visible;
        Alcotest.test_case "fsync EIO is fail-stop" `Quick
          test_io_fsync_eio_fail_stop;
        Alcotest.test_case "arm validation" `Quick test_io_arm_validation;
        Alcotest.test_case "chunked pread is one pread" `Quick test_io_pread_chunked;
        Alcotest.test_case "chunked pwrite is one pwrite" `Quick test_io_pwrite_chunked;
      ] );
    ( "disk.file_backend",
      [
        Alcotest.test_case "roundtrip through reopen" `Quick
          test_file_disk_roundtrip;
        Alcotest.test_case "unwritten extent intact" `Quick
          test_file_disk_unwritten_extent_intact;
        Alcotest.test_case "stale generation detected" `Quick
          test_file_disk_stale_generation_detected;
        Alcotest.test_case "truncated tail detected" `Quick
          test_file_disk_truncated_tail_detected;
        Alcotest.test_case "missing sidecar refused" `Quick
          test_file_disk_missing_sidecar;
        Alcotest.test_case "overlapping sidecar refused" `Quick
          test_file_disk_overlapping_sidecar;
        Alcotest.test_case "verify agrees with the reference check" `Quick
          test_verify_matches_reference;
        Alcotest.test_case "verify across read chunks" `Quick
          test_verify_across_chunks;
        Alcotest.test_case "stamps across write chunks" `Quick
          test_stamps_across_write_chunks;
        Alcotest.test_case "stamp format known answer" `Quick
          test_stamp_known_answer;
        Alcotest.test_case "partial writes land at their offset" `Quick
          test_partial_writes_land_at_offset;
      ] );
    ( "disk.fault_queue",
      [
        Alcotest.test_case "fault queue ordering" `Quick test_sim_fault_queue;
        Alcotest.test_case "stall charges and continues" `Quick test_sim_stall;
        Alcotest.test_case "stall validation" `Quick test_sim_stall_validation;
      ] );
    ( "sim.realdisk",
      [
        Alcotest.test_case "file backend bit-identical + transient" `Quick
          test_runner_file_backend_equivalence;
        Alcotest.test_case "stall alert fires" `Quick test_runner_stall_alert;
      ] );
    ( "core.store_dir",
      [
        Alcotest.test_case "syscall kill matrix" `Quick
          test_checkpoint_syscall_kill_matrix;
        Alcotest.test_case "durable write fsyncs the directory" `Quick
          test_durable_write_fsyncs_directory;
        Alcotest.test_case "stale tmp cleanup" `Quick
          test_checkpoint_stale_tmp_cleanup;
        Alcotest.test_case "corrupt manifest falls back" `Quick
          test_checkpoint_corrupt_manifest_falls_back;
        QCheck_alcotest.to_alcotest prop_reopen_query_equivalent;
      ] );
    ( "sim.kill_recover",
      [
        Alcotest.test_case "kill sweep packed shadow" `Quick
          test_kill_sweep_packed_shadow;
        Alcotest.test_case "kill sweep write-back pool" `Quick
          test_kill_sweep_write_back;
        Alcotest.test_case "failing kill sweep keeps flight dumps" `Quick
          test_kill_sweep_failure_keeps_flight;
        Alcotest.test_case "double-fault sweep" `Quick test_double_fault_sweep;
        Alcotest.test_case "double-fault rollback vacuous" `Quick
          test_double_fault_rollback_vacuous;
      ] );
  ]
