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

(* What every stamp of a range shares — magic, extent start and
   generation, bytes [0, 20) — held as the two 64-bit words and one
   32-bit word a block's first 20 bytes are written from and compared
   with, built once per range.  CRC-32 is affine, so once a block's
   first 20 bytes are these, its state after bytes [0, 36) is the state
   of the same bytes with the index zeroed, plus the index's term
   ([Crc32.field]).  The first part is the prefix's state continued
   over 8 zero bytes and then the sequence's 8 bytes.  A write stamps
   one sequence over its range, and every range the file-backed
   benchmark workloads verify carries one (DESIGN §5f), so that state
   is kept with the bytes it was computed from and recomputed only
   when a block's sequence bytes differ: once per range there.
   Recomputed per block, it cost the check about as much as the
   16-byte walk it replaced. *)
type prefix = {
  w0 : int64;
  w1 : int64;
  w2 : int32;
  zeroed : Crc32.state; (* the prefix's state over 8 zero bytes *)
  mutable seq : int64;
  mutable zs : Crc32.state; (* [zeroed] continued over [seq]'s bytes *)
}

let prefix ~ext_start ~gen =
  let b = Bytes.create 20 in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int64_le b 4 (Int64.of_int ext_start);
  Bytes.set_int64_le b 12 (Int64.of_int gen);
  let zeroed = Crc32.zeros (Crc32.update Crc32.init b ~off:0 ~len:20) 8 in
  {
    w0 = Bytes.get_int64_le b 0;
    w1 = Bytes.get_int64_le b 8;
    w2 = Bytes.get_int32_le b 16;
    zeroed;
    seq = 0L;
    zs = Crc32.zeros zeroed 8;
  }

(* The CRC of bytes [0, 36) of the stamp at [boff], whose first 20
   bytes are the prefix's and whose index field holds [index]. *)
let[@inline] stamp_crc p buf ~boff ~index =
  if Bytes.get_int64_le buf (boff + 28) <> p.seq then begin
    p.seq <- Bytes.get_int64_le buf (boff + 28);
    p.zs <- Crc32.update p.zeroed buf ~off:(boff + 28) ~len:8
  end;
  Crc32.finish (Crc32.field p.zs index ~after:8)

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
          Bytes.set_int64_le buf boff p.w0;
          Bytes.set_int64_le buf (boff + 8) p.w1;
          Bytes.set_int32_le buf (boff + 16) p.w2;
          Bytes.set_int64_le buf (boff + 20) (Int64.of_int (first + i));
          Bytes.set_int64_le buf (boff + 28) (Int64.of_int seq);
          Bytes.set_int32_le buf (boff + 36)
            (Int32.of_int (stamp_crc p buf ~boff ~index:(first + i)))
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
   once they match, [stamp_crc] is the CRC of bytes [0, 36). *)
let[@inline] block_intact t p buf ~boff ~block =
  (Bytes.get_int64_le buf boff = p.w0
  && Bytes.get_int64_le buf (boff + 8) = p.w1
  && Bytes.get_int32_le buf (boff + 16) = p.w2
  && Bytes.get_int64_le buf (boff + 20) = Int64.of_int block
  && Int32.to_int (Bytes.get_int32_le buf (boff + 36)) land 0xFFFF_FFFF
     = stamp_crc p buf ~boff ~index:block)
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
