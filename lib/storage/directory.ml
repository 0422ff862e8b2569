type kind = Hash | Bplus

type 'a impl =
  | Hash_dir of (int, 'a) Hashtbl.t
  | Bplus_dir of 'a Btree.t

type 'a t = { uid : int; impl : 'a impl }

let next_uid = ref 0

(* The hash directory is modelled as this many metadata pages: a search
   value hashes to one page, which the cost layer charges as one block. *)
let hash_pages = 256

let create kind =
  incr next_uid;
  {
    uid = !next_uid;
    impl =
      (match kind with
      | Hash -> Hash_dir (Hashtbl.create 256)
      | Bplus -> Bplus_dir (Btree.create ()));
  }

let kind t = match t.impl with Hash_dir _ -> Hash | Bplus_dir _ -> Bplus
let uid t = t.uid

let length t =
  match t.impl with
  | Hash_dir h -> Hashtbl.length h
  | Bplus_dir b -> Btree.length b

let find t v =
  match t.impl with
  | Hash_dir h -> Hashtbl.find_opt h v
  | Bplus_dir b -> Btree.find b v

let mem t v = Option.is_some (find t v)

let search_path t v =
  match t.impl with
  | Hash_dir _ -> [ v mod hash_pages ]
  | Bplus_dir b -> Btree.search_path b v

let set t v x =
  match t.impl with
  | Hash_dir h -> Hashtbl.replace h v x
  | Bplus_dir b -> Btree.insert b v x

let remove t v =
  match t.impl with
  | Hash_dir h -> Hashtbl.remove h v
  | Bplus_dir b -> ignore (Btree.remove b v)

let clear t =
  match t.impl with
  | Hash_dir h -> Hashtbl.reset h
  | Bplus_dir b -> Btree.clear b

let iter_ordered t f =
  match t.impl with
  | Bplus_dir b -> Btree.iter b f
  | Hash_dir h ->
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) h [] in
    List.iter (fun k -> f k (Hashtbl.find h k)) (List.sort Int.compare keys)

let fold_ordered t ~init ~f =
  let acc = ref init in
  iter_ordered t (fun k v -> acc := f !acc k v);
  !acc

let fold_descending t ~init ~f =
  match t.impl with
  | Bplus_dir b -> Btree.fold_descending b ~init ~f
  | Hash_dir h ->
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) h [] in
    List.fold_left
      (fun acc k -> f acc k (Hashtbl.find h k))
      init
      (List.sort (fun a b -> Int.compare b a) keys)
