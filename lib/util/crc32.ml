let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let bytes b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then
    invalid_arg "Crc32: range outside the buffer";
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc :=
      Array.unsafe_get table ((!crc lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF

let string s ~off ~len = bytes (Bytes.unsafe_of_string s) ~off ~len
