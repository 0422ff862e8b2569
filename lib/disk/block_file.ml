(* Stamp layout, little-endian, CRC over bytes [0, 36):
     0  magic "WVBK"
     4  extent start block (int64)
    12  allocation generation (int64)
    20  absolute block index (int64)
    28  write sequence (int64)
    36  CRC-32 of bytes 0..35
    40  zeros to block_size *)

module Crc32 = Wave_util.Crc32

let magic = "WVBK"
let stamp_bytes = 40

type t = {
  path : string;
  block_size : int;
  mutable fd : Unix.file_descr option;
  mutable size_blocks : int;
}

let fd t =
  match t.fd with
  | Some fd -> fd
  | None -> raise (Io.Io_error "block file is closed")

let of_fd ~path ~block_size fd =
  let size = (Unix.fstat fd).Unix.st_size / block_size in
  { path; block_size; fd = Some fd; size_blocks = size }

let create ~path ~block_size =
  if block_size < stamp_bytes then
    invalid_arg
      (Printf.sprintf "Block_file.create: block_size %d < stamp size %d"
         block_size stamp_bytes);
  let fd =
    try Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    with Unix.Unix_error (e, _, _) ->
      raise (Io.Io_error (Printf.sprintf "open %s: %s" path (Unix.error_message e)))
  in
  of_fd ~path ~block_size fd

let open_existing ~path ~block_size =
  if block_size < stamp_bytes then
    invalid_arg
      (Printf.sprintf "Block_file.open_existing: block_size %d < stamp size %d"
         block_size stamp_bytes);
  let fd =
    try Unix.openfile path [ Unix.O_RDWR ] 0o644
    with Unix.Unix_error (e, _, _) ->
      raise (Io.Io_error (Printf.sprintf "open %s: %s" path (Unix.error_message e)))
  in
  of_fd ~path ~block_size fd

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
    t.fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let path t = t.path
let block_size t = t.block_size
let size_blocks t = t.size_blocks
let fsync t = Io.fsync (fd t)

let ensure_blocks t blocks =
  if blocks > t.size_blocks then begin
    (try Unix.ftruncate (fd t) (blocks * t.block_size)
     with Unix.Unix_error (e, _, _) ->
       raise (Io.Io_error (Printf.sprintf "ftruncate: %s" (Unix.error_message e))));
    t.size_blocks <- blocks
  end

(* The stamp bytes every block of a range shares — magic, extent start
   and generation, bytes [0, 20) — built once per range together with
   the CRC state after them.  Per block only the index and sequence
   remain, so a block's CRC continues that state over 16 bytes. *)
let prefix_bytes = 20

type prefix = { bytes : Bytes.t; crc : Crc32.state }

let prefix ~ext_start ~gen =
  let bytes = Bytes.create prefix_bytes in
  Bytes.blit_string magic 0 bytes 0 4;
  Bytes.set_int64_le bytes 4 (Int64.of_int ext_start);
  Bytes.set_int64_le bytes 12 (Int64.of_int gen);
  { bytes; crc = Crc32.update Crc32.init bytes ~off:0 ~len:prefix_bytes }

let stamp_crc p buf boff =
  Crc32.finish
    (Crc32.update p.crc buf ~off:(boff + prefix_bytes) ~len:(36 - prefix_bytes))

(* Block I/O streams through a chunk of at most [chunk_bytes] — whole
   blocks, and no more than one [Unix.read] or [Unix.write] moves at a
   time.  With a buffer as large as the range, every whole-window scan
   allocated the window's size on the major heap; the major slices and
   page faults that came with it fell on some scans and not on others,
   so scans of one window differed by up to 3x.  A repack's stamped
   write and the zeroing of reused space did the same. *)
let chunk_bytes = 65536

(* The bytes of a chunk for a range of [blocks]: whole blocks, at most
   [chunk_bytes] unless one block is larger. *)
let chunk_len t ~blocks =
  Int.min blocks (max 1 (chunk_bytes / t.block_size)) * t.block_size

(* One pwrite of the range, the chunk restamped for each piece.  A
   stamp covers bytes [0, 40) of its block, so the zeros after it stay
   in place from one piece to the next. *)
let write_range t ~start ~blocks ~ext_start ~gen ~seq =
  if blocks > 0 then begin
    ensure_blocks t (start + blocks);
    let p = prefix ~ext_start ~gen in
    let next = ref start in
    Io.pwrite_chunked (fd t) ~off:(start * t.block_size)
      ~len:(blocks * t.block_size)
      ~chunk:(Bytes.make (chunk_len t ~blocks) '\000')
      (fun buf ~len ->
        let first = !next and n = len / t.block_size in
        for i = 0 to n - 1 do
          let boff = i * t.block_size in
          Bytes.blit p.bytes 0 buf boff prefix_bytes;
          Bytes.set_int64_le buf (boff + 20) (Int64.of_int (first + i));
          Bytes.set_int64_le buf (boff + 28) (Int64.of_int seq);
          Bytes.set_int32_le buf (boff + 36) (Int32.of_int (stamp_crc p buf boff))
        done;
        next := first + n)
  end

let write_torn_prefix t ~start ~blocks ~ext_start ~gen ~seq =
  let torn = if blocks <= 1 then blocks else max 1 (blocks / 2) in
  write_range t ~start ~blocks:torn ~ext_start ~gen ~seq;
  torn

let zero_range t ~start ~blocks =
  if blocks > 0 then begin
    (* Blocks past the current end are already zero once the file is
       extended; only reused space below it needs an explicit write. *)
    let dirty = min blocks (t.size_blocks - start) in
    ensure_blocks t (start + blocks);
    if dirty > 0 then
      Io.pwrite_chunked (fd t) ~off:(start * t.block_size)
        ~len:(dirty * t.block_size)
        ~chunk:(Bytes.make (chunk_len t ~blocks:dirty) '\000')
        (fun _ ~len:_ -> ())
  end

let all_zero buf ~off ~len =
  let i = ref off and stop = off + len in
  while !i < stop && Bytes.unsafe_get buf !i = '\000' do
    incr i
  done;
  !i = stop

(* Valid-stamp-or-zero.  Comparing bytes [0, 20) with the range's
   prefix checks the magic, extent start and generation at once, and
   once they match, the CRC of bytes [0, 36) is the prefix state
   continued over [20, 36). *)
let block_intact t p buf ~boff ~block =
  (Bytes.get_int64_le buf boff = Bytes.get_int64_le p.bytes 0
  && Bytes.get_int64_le buf (boff + 8) = Bytes.get_int64_le p.bytes 8
  && Bytes.get_int32_le buf (boff + 16) = Bytes.get_int32_le p.bytes 16
  && Bytes.get_int64_le buf (boff + 20) = Int64.of_int block
  && Int32.to_int (Bytes.get_int32_le buf (boff + 36)) land 0xFFFF_FFFF
     = stamp_crc p buf boff)
  || all_zero buf ~off:boff ~len:t.block_size

let verify_range t ~start ~blocks ~ext_start ~gen =
  if blocks = 0 then true
  else if start + blocks > t.size_blocks then false (* truncated tail *)
  else begin
    let p = prefix ~ext_start ~gen in
    let next = ref start and ok = ref true in
    (* each chunk is checked as it arrives, while it is still in cache *)
    Io.pread_chunked (fd t) ~off:(start * t.block_size)
      ~len:(blocks * t.block_size)
      ~chunk:(Bytes.create (chunk_len t ~blocks))
      (fun buf ~len ->
        let first = !next and n = len / t.block_size in
        if !ok then begin
          let i = ref 0 in
          while
            !i < n
            && block_intact t p buf ~boff:(!i * t.block_size) ~block:(first + !i)
          do
            incr i
          done;
          ok := !i = n
        end;
        next := first + n);
    !ok
  end
