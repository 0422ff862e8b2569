type t = { slots : int array; (* frame number, or -1 when empty *) bits : int }

let empty = -1

let create n =
  if n < 1 then invalid_arg "Key_table.create: need room for at least one key";
  let bits = ref 1 in
  while 1 lsl !bits < 2 * n do
    incr bits
  done;
  { slots = Array.make (1 lsl !bits) empty; bits = !bits }

let slots t = Array.length t.slots

(* Fibonacci hashing: the top [bits] bits of the key times an odd
   constant near 2^63 / phi spread consecutive block addresses across
   the table. *)
let home t k = (k * 0x1E3779B97F4A7C15) lsr (63 - t.bits)

let next t i = (i + 1) land (Array.length t.slots - 1)

(* Slot holding the key's binding, or the empty slot ending its probe
   sequence. *)
let rec probe t keys k i =
  let f = t.slots.(i) in
  if f = empty || keys.(f) = k then i else probe t keys k (next t i)

let find t keys k = t.slots.(probe t keys k (home t k))

let replace t keys k f = t.slots.(probe t keys k (home t k)) <- f

(* Backward-shift deletion: walk the cluster after the hole and move
   back every entry whose home does not lie cyclically in (hole, j], so
   no probe sequence ever crosses an empty slot it should not. *)
let remove t keys k =
  let hole = probe t keys k (home t k) in
  if t.slots.(hole) <> empty then begin
    let rec shift hole j =
      let j = next t j in
      let f = t.slots.(j) in
      if f = empty then t.slots.(hole) <- empty
      else begin
        let h = home t keys.(f) in
        let stays = if hole <= j then hole < h && h <= j else hole < h || h <= j in
        if stays then shift hole j
        else begin
          t.slots.(hole) <- f;
          shift j j
        end
      end
    in
    shift hole hole
  end
