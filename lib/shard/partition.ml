open Wave_core

type kind = Hash | Range

let kind_name = function Hash -> "hash" | Range -> "range"

let kind_of_name s =
  match String.lowercase_ascii s with
  | "hash" -> Some Hash
  | "range" -> Some Range
  | _ -> None

let buckets = 64

type map =
  | Hash_map of int array  (** bucket -> arm *)
  | Range_map of (int * int) array  (** arm -> inclusive value slice *)

type t = { map : map; vocab : int; n_arms : int; generation : int }

let create k ~arms ~vocab =
  if arms < 1 then invalid_arg "Partition.create: need at least one arm";
  if vocab < 1 then invalid_arg "Partition.create: vocab must be >= 1";
  let map =
    match k with
    | Hash ->
      if arms > buckets then
        invalid_arg
          (Printf.sprintf "Partition.create: at most %d hash arms" buckets);
      Hash_map (Array.init buckets (fun b -> b mod arms))
    | Range ->
      if arms > vocab then
        invalid_arg "Partition.create: more range arms than values";
      Range_map
        (Array.of_list (Split.contiguous ~first_day:1 ~days:vocab ~parts:arms))
  in
  { map; vocab; n_arms = arms; generation = 1 }

let kind t = match t.map with Hash_map _ -> Hash | Range_map _ -> Range
let arms t = t.n_arms
let vocab t = t.vocab
let generation t = t.generation

(* Multiplicative mixer (Murmur3 finalizer constants): spreads adjacent
   values across buckets so Zipf-hot heads don't clump on one arm. *)
let bucket_of_value v =
  let h = v * 0x9E3779B1 in
  let h = h lxor (h lsr 16) in
  let h = h * 0x85EBCA6B in
  let h = h lxor (h lsr 13) in
  (h land max_int) mod buckets

let arm_of_value t v =
  match t.map with
  | Hash_map owner -> owner.(bucket_of_value v)
  | Range_map slices ->
    let v = max 1 (min t.vocab v) in
    let rec find i =
      if i >= Array.length slices - 1 then i
      else
        let lo, hi = slices.(i) in
        if v >= lo && v <= hi then i else find (i + 1)
    in
    find 0

let owned_buckets owner arm =
  Array.to_list owner
  |> List.mapi (fun b a -> (b, a))
  |> List.filter_map (fun (b, a) -> if a = arm then Some b else None)

let can_split t ~arm =
  if arm < 0 || arm >= t.n_arms then false
  else
    match t.map with
    | Hash_map owner -> List.length (owned_buckets owner arm) >= 2
    | Range_map slices ->
      let lo, hi = slices.(arm) in
      hi > lo

let split t ~arm =
  if not (can_split t ~arm) then
    invalid_arg (Printf.sprintf "Partition.split: arm %d not divisible" arm);
  let new_arm = t.n_arms in
  let map =
    match t.map with
    | Hash_map owner ->
      let mine = owned_buckets owner arm in
      let keep = List.length mine - (List.length mine / 2) in
      let moving = List.filteri (fun i _ -> i >= keep) mine in
      let owner = Array.copy owner in
      List.iter (fun b -> owner.(b) <- new_arm) moving;
      Hash_map owner
    | Range_map slices ->
      let lo, hi = slices.(arm) in
      let mid = (lo + hi) / 2 in
      let slices = Array.copy slices in
      slices.(arm) <- (lo, mid);
      Range_map (Array.append slices [| (mid + 1, hi) |])
  in
  { t with map; n_arms = new_arm + 1; generation = t.generation + 1 }

let place ~weights ~arms =
  if arms < 1 then invalid_arg "Partition.place: need at least one arm";
  let order =
    Array.to_list weights
    |> List.mapi (fun i w -> (i, w))
    |> List.sort (fun (i, a) (j, b) ->
           match Float.compare b a with 0 -> Int.compare i j | c -> c)
  in
  let load = Array.make arms 0.0 in
  let out = Array.make (Array.length weights) 0 in
  List.iter
    (fun (i, w) ->
      let best = ref 0 in
      for a = 1 to arms - 1 do
        if load.(a) < load.(!best) then best := a
      done;
      out.(i) <- !best;
      load.(!best) <- load.(!best) +. w)
    order;
  out
