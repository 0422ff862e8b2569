let magic = "WVB2"

(* --- varint (LEB128) + ZigZag ------------------------------------- *)

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag n = (n lsr 1) lxor (-(n land 1))

let put_varint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let byte = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr byte);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (byte lor 0x80))
  done

let put_signed buf n = put_varint buf (zigzag n)

type reader = { data : string; mutable pos : int }

exception Malformed of string

let get_varint r =
  let shift = ref 0 and acc = ref 0 and continue = ref true in
  while !continue do
    if r.pos >= String.length r.data then raise (Malformed "truncated varint");
    if !shift > Sys.int_size - 7 then raise (Malformed "varint overflow");
    let byte = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    acc := !acc lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then continue := false
  done;
  !acc

let get_signed r = unzigzag (get_varint r)

(* --- batch ---------------------------------------------------------- *)

(* The payload's checksum is CRC-32 ({!Wave_util.Crc32}).  The previous
   additive checksum missed transpositions and many two-bit flips;
   CRC-32 detects all single-burst errors up to 32 bits and any odd
   number of bit flips. *)
let encode_batch (b : Entry.batch) =
  let buf = Buffer.create (64 + (Entry.batch_size b * 6)) in
  put_signed buf b.Entry.day;
  put_varint buf (Entry.batch_size b);
  Array.iter
    (fun (p : Entry.posting) ->
      put_signed buf p.Entry.value;
      put_signed buf p.Entry.entry.Entry.rid;
      put_signed buf p.Entry.entry.Entry.info)
    b.Entry.postings;
  let payload = Buffer.contents buf in
  let out = Buffer.create (String.length payload + 12) in
  Buffer.add_string out magic;
  Buffer.add_string out payload;
  put_varint out (Wave_util.Crc32.string payload ~off:0 ~len:(String.length payload));
  Buffer.contents out

let decode_batch_reader r =
  let start = r.pos in
  if r.pos + 4 > String.length r.data then raise (Malformed "missing magic");
  if String.sub r.data r.pos 4 <> magic then raise (Malformed "bad magic");
  r.pos <- r.pos + 4;
  let payload_start = r.pos in
  let day = get_signed r in
  let count = get_varint r in
  if count < 0 then raise (Malformed "negative count");
  (* Each posting takes at least three bytes (three varints), so with a
     count the rest of the input cannot hold, decoding must run out of
     bytes inside a varint.  Say so before allocating [count] slots. *)
  if count > (String.length r.data - r.pos) / 3 then
    raise (Malformed "truncated varint");
  let postings =
    Array.init count (fun _ ->
        let value = get_signed r in
        let rid = get_signed r in
        let info = get_signed r in
        { Entry.value; entry = { Entry.rid; day; info } })
  in
  let crc =
    Wave_util.Crc32.string r.data ~off:payload_start ~len:(r.pos - payload_start)
  in
  let expect = get_varint r in
  if crc <> expect then raise (Malformed "checksum mismatch");
  ignore start;
  Entry.batch_create ~day postings

let decode_batch s =
  let r = { data = s; pos = 0 } in
  match decode_batch_reader r with
  | b ->
    if r.pos <> String.length s then Error "trailing bytes"
    else Ok b
  | exception Malformed m -> Error m
  | exception Invalid_argument m -> Error m

let encode_batches bs =
  let buf = Buffer.create 1024 in
  put_varint buf (List.length bs);
  List.iter
    (fun b ->
      let s = encode_batch b in
      put_varint buf (String.length s);
      Buffer.add_string buf s)
    bs;
  Buffer.contents buf

let decode_batches s =
  let r = { data = s; pos = 0 } in
  match
    let count = get_varint r in
    if count < 0 then raise (Malformed "negative batch count");
    let out =
      List.init count (fun _ ->
          let len = get_varint r in
          if r.pos + len > String.length s then raise (Malformed "truncated batch");
          let sub = String.sub s r.pos len in
          r.pos <- r.pos + len;
          let inner = { data = sub; pos = 0 } in
          let b = decode_batch_reader inner in
          if inner.pos <> String.length sub then raise (Malformed "trailing bytes in batch");
          b)
    in
    if r.pos <> String.length s then raise (Malformed "trailing bytes");
    out
  with
  | bs -> Ok bs
  | exception Malformed m -> Error m
  | exception Invalid_argument m -> Error m
