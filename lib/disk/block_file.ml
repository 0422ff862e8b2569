(* Stamp layout, little-endian, CRC over bytes [0, 36):
     0  magic "WVBK"
     4  extent start block (int64)
    12  allocation generation (int64)
    20  absolute block index (int64)
    28  write sequence (int64)
    36  CRC-32 of bytes 0..35
    40  zeros to block_size *)

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

let zero_range t ~start ~blocks =
  if blocks > 0 then begin
    (* Blocks past the current end are already zero once the file is
       extended; only reused space below it needs an explicit write. *)
    let dirty = min blocks (t.size_blocks - start) in
    ensure_blocks t (start + blocks);
    if dirty > 0 then
      Io.pwrite (fd t)
        (Bytes.make (dirty * t.block_size) '\000')
        ~off:(start * t.block_size)
  end

let stamp_into buf ~boff ~block ~ext_start ~gen ~seq =
  Bytes.blit_string magic 0 buf boff 4;
  Bytes.set_int64_le buf (boff + 4) (Int64.of_int ext_start);
  Bytes.set_int64_le buf (boff + 12) (Int64.of_int gen);
  Bytes.set_int64_le buf (boff + 20) (Int64.of_int block);
  Bytes.set_int64_le buf (boff + 28) (Int64.of_int seq);
  Bytes.set_int32_le buf (boff + 36)
    (Int32.of_int (Wave_util.Crc32.bytes buf ~off:boff ~len:36))

let stamped_buffer t ~start ~blocks ~ext_start ~gen ~seq =
  let buf = Bytes.make (blocks * t.block_size) '\000' in
  for i = 0 to blocks - 1 do
    stamp_into buf ~boff:(i * t.block_size) ~block:(start + i) ~ext_start ~gen
      ~seq
  done;
  buf

let write_range t ~start ~blocks ~ext_start ~gen ~seq =
  if blocks > 0 then begin
    ensure_blocks t (start + blocks);
    Io.pwrite (fd t)
      (stamped_buffer t ~start ~blocks ~ext_start ~gen ~seq)
      ~off:(start * t.block_size)
  end

let write_torn_prefix t ~start ~blocks ~ext_start ~gen ~seq =
  let torn = if blocks <= 1 then blocks else max 1 (blocks / 2) in
  if torn > 0 then begin
    ensure_blocks t (start + torn);
    Io.pwrite (fd t)
      (stamped_buffer t ~start ~blocks:torn ~ext_start ~gen ~seq)
      ~off:(start * t.block_size)
  end;
  torn

let has_magic buf boff =
  let rec go i = i = 4 || (Bytes.get buf (boff + i) = magic.[i] && go (i + 1)) in
  go 0

let block_intact t buf ~boff ~block ~ext_start ~gen =
  let rec all_zero i =
    i >= t.block_size || (Bytes.get buf (boff + i) = '\000' && all_zero (i + 1))
  in
  (has_magic buf boff
  && Int32.to_int (Bytes.get_int32_le buf (boff + 36)) land 0xFFFF_FFFF
     = Wave_util.Crc32.bytes buf ~off:boff ~len:36
  && Bytes.get_int64_le buf (boff + 4) = Int64.of_int ext_start
  && Bytes.get_int64_le buf (boff + 12) = Int64.of_int gen
  && Bytes.get_int64_le buf (boff + 20) = Int64.of_int block)
  || all_zero 0

let verify_range t ~start ~blocks ~ext_start ~gen =
  if blocks = 0 then true
  else if start + blocks > t.size_blocks then false (* truncated tail *)
  else begin
    let buf = Bytes.create (blocks * t.block_size) in
    Io.pread (fd t) buf ~off:(start * t.block_size);
    let rec ok i =
      i >= blocks
      || block_intact t buf ~boff:(i * t.block_size) ~block:(start + i)
           ~ext_start ~gen
         && ok (i + 1)
    in
    ok 0
  end

let truncate_tail t ~blocks =
  if blocks < t.size_blocks then begin
    (try Unix.ftruncate (fd t) (blocks * t.block_size)
     with Unix.Unix_error (e, _, _) ->
       raise (Io.Io_error (Printf.sprintf "ftruncate: %s" (Unix.error_message e))));
    t.size_blocks <- blocks
  end
