type t = { rid : int; day : int; info : int }

let compare a b =
  match Int.compare a.day b.day with
  | 0 -> ( match Int.compare a.rid b.rid with 0 -> Int.compare a.info b.info | c -> c)
  | c -> c

let equal a b = compare a b = 0

let pp ppf e = Format.fprintf ppf "{rid=%d; day=%d; info=%d}" e.rid e.day e.info

type posting = { value : int; entry : t }
type batch = { day : int; postings : posting array }

let batch_create ~day postings =
  Array.iter
    (fun p ->
      if p.entry.day <> day then
        invalid_arg "Entry.batch_create: posting day mismatch")
    postings;
  { day; postings }

let batch_size b = Array.length b.postings

(* Counted, then copied: [keep] runs twice per posting, and a batch
   that keeps every posting is returned as it is. *)
let batch_filter b ~keep =
  let ps = b.postings in
  let kept = ref 0 in
  for i = 0 to Array.length ps - 1 do
    if keep ps.(i).value then incr kept
  done;
  if !kept = Array.length ps then b
  else begin
    let out = Array.make !kept ps.(0) and j = ref 0 in
    for i = 0 to Array.length ps - 1 do
      let p = ps.(i) in
      if keep p.value then begin
        out.(!j) <- p;
        incr j
      end
    done;
    { b with postings = out }
  end

(* Search values to dense group numbers, in order of first appearance:
   linear probing over a power-of-two slot array at most half full.  A
   slot holds a group number, or -1; [values] and [counts] are indexed
   by group number and have half as many cells as [slots], which
   doubles when they are full. *)
type table = {
  mutable slots : int array;
  mutable bits : int;
  mutable values : int array;
  mutable counts : int array;
  mutable n : int;
}

(* Fibonacci hashing: the top [bits] bits of the value times an odd
   constant near 2^63 / phi, so strided values (multiples of 1024, say)
   spread over the table instead of sharing a few home slots. *)
let home g v = (v * 0x1E3779B97F4A7C15) lsr (63 - g.bits)

let rec slot_of g v i =
  let k = g.slots.(i) in
  if k < 0 || g.values.(k) = v then i
  else slot_of g v ((i + 1) land (Array.length g.slots - 1))

let grow g =
  g.bits <- g.bits + 1;
  g.slots <- Array.make (1 lsl g.bits) (-1);
  for k = 0 to g.n - 1 do
    g.slots.(slot_of g g.values.(k) (home g g.values.(k))) <- k
  done;
  let resize a = Array.append a (Array.make (Array.length a) 0) in
  g.values <- resize g.values;
  g.counts <- resize g.counts

(* The value's group number, counting one more posting in it. *)
let count_in g v =
  let i = slot_of g v (home g v) in
  let k = g.slots.(i) in
  if k >= 0 then begin
    g.counts.(k) <- g.counts.(k) + 1;
    k
  end
  else begin
    let k = g.n in
    g.slots.(i) <- k;
    g.values.(k) <- v;
    g.counts.(k) <- 1;
    g.n <- k + 1;
    if g.n = Array.length g.values then grow g;
    k
  end

let digit_bits = 11
let digit_mask = (1 lsl digit_bits) - 1

(* The first [n] of [values], distinct, sorted ascending, and their
   indexes in the same order: an LSD radix sort of [v - lo] in 11-bit
   digits, one stable counting pass per digit up to the span's highest
   set bit.  The span is read unsigned, as [lsr] reads it: from
   [min_int] to [max_int] it wraps to -1, all 63 bits set. *)
let sort_values values n =
  let vs = ref (Array.sub values 0 n) and ids = ref (Array.init n Fun.id) in
  if n > 1 then begin
    let lo = ref values.(0) and hi = ref values.(0) in
    for k = 1 to n - 1 do
      let v = values.(k) in
      if v < !lo then lo := v else if v > !hi then hi := v
    done;
    let lo = !lo and span = !hi - !lo in
    let vs' = ref (Array.make n 0) and ids' = ref (Array.make n 0) in
    let starts = Array.make (digit_mask + 1) 0 in
    let next = ref 0 in
    while !next < Sys.int_size && span lsr !next <> 0 do
      let src = !vs and dst = !vs' and src_ids = !ids and dst_ids = !ids' in
      let shift = !next in
      next := shift + digit_bits;
      Array.fill starts 0 (digit_mask + 1) 0;
      for k = 0 to n - 1 do
        let d = ((src.(k) - lo) lsr shift) land digit_mask in
        starts.(d) <- starts.(d) + 1
      done;
      let sum = ref 0 in
      for d = 0 to digit_mask do
        let c = starts.(d) in
        starts.(d) <- !sum;
        sum := !sum + c
      done;
      for k = 0 to n - 1 do
        let v = src.(k) in
        let d = ((v - lo) lsr shift) land digit_mask in
        let j = starts.(d) in
        starts.(d) <- j + 1;
        dst.(j) <- v;
        dst_ids.(j) <- src_ids.(k)
      done;
      vs := dst;
      vs' := src;
      ids := dst_ids;
      ids' := src_ids
    done
  end;
  (!vs, !ids)

(* Two passes over the postings around a radix sort of the distinct
   values, and no comparison.  The first pass looks each posting's value
   up once, noting its group and counting the group's postings.  The
   sort gives each group its rank in value order.  The second pass
   walks the postings back to front, so each group's array, allocated
   at its exact size when its last entry arrives, fills from its count
   down to 0. *)
let group_by_value batches =
  let total = List.fold_left (fun n b -> n + Array.length b.postings) 0 batches in
  let g =
    { slots = Array.make 16 (-1); bits = 4; values = Array.make 8 0;
      counts = Array.make 8 0; n = 0 }
  in
  let group = Array.make total 0 and i = ref 0 in
  List.iter
    (fun b ->
      let ps = b.postings in
      for j = 0 to Array.length ps - 1 do
        group.(!i + j) <- count_in g ps.(j).value
      done;
      i := !i + Array.length ps)
    batches;
  let values, ids = sort_values g.values g.n in
  let rank = Array.make g.n 0 in
  for r = 0 to g.n - 1 do
    rank.(ids.(r)) <- r
  done;
  let groups = Array.make g.n [||] in
  List.iter
    (fun b ->
      let ps = b.postings in
      for j = Array.length ps - 1 downto 0 do
        decr i;
        let k = group.(!i) and e = ps.(j).entry in
        let c = g.counts.(k) and r = rank.(k) in
        if Array.length groups.(r) = 0 then groups.(r) <- Array.make c e
        else groups.(r).(c - 1) <- e;
        g.counts.(k) <- c - 1
      done)
    (List.rev batches);
  (values, groups)
