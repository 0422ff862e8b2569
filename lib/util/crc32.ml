(* Sixteen 256-entry tables laid end to end.  Table 0 is the classic
   byte table; table k maps a byte to its contribution to the CRC once
   k more bytes follow it.  [update] is slicing-by-8 (Kounavis & Berry,
   ISCC 2005): tables 0-7 make the eight lookups of an 8-byte step
   independent of each other instead of each waiting on the previous
   one.  Tables 8-15 serve [field], whose bytes may have up to 15 more
   bytes after them. *)
let tables =
  let t = Array.make (16 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 15 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

type state = int

let init = 0xFFFFFFFF
let finish crc = crc lxor 0xFFFFFFFF

let[@inline] tbl k x = Array.unsafe_get tables ((k lsl 8) lor x)
let[@inline] byte b i = Char.code (Bytes.unsafe_get b i)

let update crc b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32: range outside the buffer";
  let crc = ref crc and i = ref off in
  let stop = off + len in
  while !i + 8 <= stop do
    let c = !crc and p = !i in
    crc :=
      tbl 7 ((c lxor byte b p) land 0xFF)
      lxor tbl 6 (((c lsr 8) lxor byte b (p + 1)) land 0xFF)
      lxor tbl 5 (((c lsr 16) lxor byte b (p + 2)) land 0xFF)
      lxor tbl 4 ((c lsr 24) lxor byte b (p + 3))
      lxor tbl 3 (byte b (p + 4))
      lxor tbl 2 (byte b (p + 5))
      lxor tbl 1 (byte b (p + 6))
      lxor tbl 0 (byte b (p + 7));
    i := p + 8
  done;
  while !i < stop do
    crc := tbl 0 ((!crc lxor byte b !i) land 0xFF) lxor (!crc lsr 8);
    incr i
  done;
  !crc

(* [update] over zero bytes, a byte at a time: it runs once per block
   range, not per block. *)
let zeros crc n =
  if n < 0 then invalid_arg "Crc32.zeros: negative length";
  let crc = ref crc in
  for _ = 1 to n do
    crc := tbl 0 (!crc land 0xFF) lxor (!crc lsr 8)
  done;
  !crc

(* Byte i of [Int64.of_int x] is [(x asr (8 * i)) land 0xFF]: [asr]
   repeats the sign into byte 7, as [Int64.of_int] does.  A
   non-negative value stops at its last non-zero byte. *)
let field crc x ~after =
  if after < 0 || after > 8 then invalid_arg "Crc32.field: after outside [0, 8]";
  let crc = ref crc and x = ref x and k = ref (after + 7) in
  while !x <> 0 && !k >= after do
    crc := !crc lxor tbl !k (!x land 0xFF);
    x := !x asr 8;
    decr k
  done;
  !crc

let bytes b ~off ~len = finish (update init b ~off ~len)
let string s ~off ~len = bytes (Bytes.unsafe_of_string s) ~off ~len
