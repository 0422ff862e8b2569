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

let batch_filter b ~keep =
  { b with postings = Array.of_list (List.filter (fun p -> keep p.value) (Array.to_list b.postings)) }

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

(* Two passes.  The first looks each posting's value up once, noting
   its group and counting the group's postings; the second copies every
   entry into its group's array, allocated at its exact size when the
   group's first entry arrives.  Sorting the group numbers by value
   gives the value order. *)
let group_by_value batches =
  let total = List.fold_left (fun n b -> n + Array.length b.postings) 0 batches in
  let g =
    { slots = Array.make 16 (-1); bits = 4; values = Array.make 8 0;
      counts = Array.make 8 0; n = 0 }
  in
  let group = Array.make total 0 and i = ref 0 in
  List.iter
    (fun b ->
      Array.iter
        (fun p ->
          group.(!i) <- count_in g p.value;
          incr i)
        b.postings)
    batches;
  let arrays = Array.make g.n [||] and filled = Array.make g.n 0 in
  i := 0;
  List.iter
    (fun b ->
      Array.iter
        (fun p ->
          let k = group.(!i) in
          if filled.(k) = 0 then arrays.(k) <- Array.make g.counts.(k) p.entry
          else arrays.(k).(filled.(k)) <- p.entry;
          filled.(k) <- filled.(k) + 1;
          incr i)
        b.postings)
    batches;
  let order = Array.init g.n Fun.id in
  Array.sort (fun a b -> Int.compare g.values.(a) g.values.(b)) order;
  (Array.map (fun k -> g.values.(k)) order, Array.map (fun k -> arrays.(k)) order)
