(* In-memory B+tree with mutable nodes.  Convention: in an internal node
   with separators s_0 .. s_{k-1} and children c_0 .. c_k, child c_i holds
   keys strictly below s_i (for i < k) and c_k holds keys >= s_{k-1};
   equivalently every key in c_i satisfies s_{i-1} <= key < s_i.  All
   bindings live in leaves; leaves are chained left-to-right. *)

type 'a leaf = {
  lid : int; (* stable node id, unique within the tree, never reused *)
  mutable lkeys : int array;
  mutable lvals : 'a option array;
  mutable lsize : int;
  mutable lnext : 'a leaf option;
}

type 'a node = Leaf of 'a leaf | Internal of 'a internal

and 'a internal = {
  iid : int; (* stable node id, unique within the tree, never reused *)
  mutable seps : int array;
  mutable children : 'a node array;
  mutable isize : int; (* number of separator keys; children = isize + 1 *)
}

type 'a t = {
  ord : int; (* maximum keys per node *)
  uid : int; (* process-unique tree identity *)
  mutable root : 'a node option;
  mutable count : int;
  mutable next_id : int; (* node id source *)
}

let next_uid = ref 0

let create ?(order = 32) () =
  if order < 4 then invalid_arg "Btree.create: order must be >= 4";
  incr next_uid;
  { ord = order; uid = !next_uid; root = None; count = 0; next_id = 0 }

let uid t = t.uid

let fresh_id t =
  t.next_id <- t.next_id + 1;
  t.next_id

let order t = t.ord
let length t = t.count
let is_empty t = t.count = 0
let min_keys t = t.ord / 2

let new_leaf t =
  {
    lid = fresh_id t;
    lkeys = Array.make (t.ord + 1) 0;
    lvals = Array.make (t.ord + 1) None;
    lsize = 0;
    lnext = None;
  }

let new_internal t =
  {
    iid = fresh_id t;
    seps = Array.make (t.ord + 1) 0;
    children = Array.make (t.ord + 2) (Leaf (new_leaf t));
    isize = 0;
  }

(* Smallest i in [0, size) with keys.(i) >= k, else size. *)
let lower_bound keys size k =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if keys.(mid) >= k then go lo mid else go (mid + 1) hi
  in
  go 0 size

(* Child index to descend into for key k: first i with k < seps.(i). *)
let child_index node k =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if k < node.seps.(mid) then go lo mid else go (mid + 1) hi
  in
  go 0 node.isize

(* ------------------------------------------------------------------ *)
(* find                                                               *)
(* ------------------------------------------------------------------ *)

(* Directory traffic counters: always-on (a counter bump is a single
   float store, negligible next to the tree walk), surfaced through
   Wave_obs.Metrics.default for perf artifacts. *)
let m_finds = Wave_obs.Metrics.counter "btree.finds"
let m_inserts = Wave_obs.Metrics.counter "btree.inserts"
let m_removes = Wave_obs.Metrics.counter "btree.removes"
let m_splits = Wave_obs.Metrics.counter "btree.splits"

let rec find_node node k =
  match node with
  | Leaf l ->
    let i = lower_bound l.lkeys l.lsize k in
    if i < l.lsize && l.lkeys.(i) = k then l.lvals.(i) else None
  | Internal n -> find_node n.children.(child_index n k) k

let find t k =
  Wave_obs.Metrics.inc m_finds;
  match t.root with None -> None | Some r -> find_node r k
let mem t k = Option.is_some (find t k)

let node_id = function Leaf l -> l.lid | Internal n -> n.iid

let search_path t k =
  let rec go acc node =
    match node with
    | Leaf _ -> List.rev (node_id node :: acc)
    | Internal n -> go (node_id node :: acc) n.children.(child_index n k)
  in
  match t.root with None -> [] | Some r -> go [] r

(* ------------------------------------------------------------------ *)
(* insert                                                             *)
(* ------------------------------------------------------------------ *)

let leaf_insert_at l i k v =
  Array.blit l.lkeys i l.lkeys (i + 1) (l.lsize - i);
  Array.blit l.lvals i l.lvals (i + 1) (l.lsize - i);
  l.lkeys.(i) <- k;
  l.lvals.(i) <- Some v;
  l.lsize <- l.lsize + 1

let split_leaf t l =
  Wave_obs.Metrics.inc m_splits;
  let right = new_leaf t in
  let mid = l.lsize / 2 in
  let moved = l.lsize - mid in
  Array.blit l.lkeys mid right.lkeys 0 moved;
  Array.blit l.lvals mid right.lvals 0 moved;
  Array.fill l.lvals mid moved None;
  right.lsize <- moved;
  l.lsize <- mid;
  right.lnext <- l.lnext;
  l.lnext <- Some right;
  (right.lkeys.(0), Leaf right)

let split_internal t n =
  Wave_obs.Metrics.inc m_splits;
  let right = new_internal t in
  let mid = n.isize / 2 in
  (* Separator at [mid] moves up; keys right of it go to the new node. *)
  let up = n.seps.(mid) in
  let moved = n.isize - mid - 1 in
  Array.blit n.seps (mid + 1) right.seps 0 moved;
  Array.blit n.children (mid + 1) right.children 0 (moved + 1);
  right.isize <- moved;
  n.isize <- mid;
  (up, Internal right)

(* Returns [Some (sep, right)] if the node split. *)
let rec insert_node t node k v =
  match node with
  | Leaf l ->
    let i = lower_bound l.lkeys l.lsize k in
    if i < l.lsize && l.lkeys.(i) = k then begin
      l.lvals.(i) <- Some v;
      None
    end
    else begin
      leaf_insert_at l i k v;
      t.count <- t.count + 1;
      if l.lsize > t.ord then Some (split_leaf t l) else None
    end
  | Internal n -> (
    let ci = child_index n k in
    match insert_node t n.children.(ci) k v with
    | None -> None
    | Some (sep, right) ->
      Array.blit n.seps ci n.seps (ci + 1) (n.isize - ci);
      Array.blit n.children (ci + 1) n.children (ci + 2) (n.isize - ci);
      n.seps.(ci) <- sep;
      n.children.(ci + 1) <- right;
      n.isize <- n.isize + 1;
      if n.isize > t.ord then Some (split_internal t n) else None)

(* [insert_node] for a key above every key in the tree: [child_index]
   picks the last child at every level and [lower_bound] the end of the
   leaf, so the walk follows the right spine and splits as [insert]
   does.  The rightmost leaf holds the maximum, so the check that the
   key lies above it is made there, before anything changes. *)
let rec add_last_node t node k v =
  match node with
  | Leaf l ->
    if l.lsize > 0 && l.lkeys.(l.lsize - 1) >= k then
      invalid_arg "Btree.add_last: key not above the maximum";
    leaf_insert_at l l.lsize k v;
    t.count <- t.count + 1;
    if l.lsize > t.ord then Some (split_leaf t l) else None
  | Internal n -> (
    match add_last_node t n.children.(n.isize) k v with
    | None -> None
    | Some (sep, right) ->
      n.seps.(n.isize) <- sep;
      n.children.(n.isize + 1) <- right;
      n.isize <- n.isize + 1;
      if n.isize > t.ord then Some (split_internal t n) else None)

let[@inline] insert_with walk t k v =
  (match t.root with
  | None ->
    let l = new_leaf t in
    l.lkeys.(0) <- k;
    l.lvals.(0) <- Some v;
    l.lsize <- 1;
    t.root <- Some (Leaf l);
    t.count <- 1
  | Some root -> (
    match walk t root k v with
    | None -> ()
    | Some (sep, right) ->
      let n = new_internal t in
      n.seps.(0) <- sep;
      n.children.(0) <- root;
      n.children.(1) <- right;
      n.isize <- 1;
      t.root <- Some (Internal n)));
  Wave_obs.Metrics.inc m_inserts

let insert t k v = insert_with insert_node t k v
let add_last t k v = insert_with add_last_node t k v

(* ------------------------------------------------------------------ *)
(* remove                                                             *)
(* ------------------------------------------------------------------ *)

let leaf_remove_at l i =
  Array.blit l.lkeys (i + 1) l.lkeys i (l.lsize - i - 1);
  Array.blit l.lvals (i + 1) l.lvals i (l.lsize - i - 1);
  l.lsize <- l.lsize - 1;
  l.lvals.(l.lsize) <- None

let node_size = function Leaf l -> l.lsize | Internal n -> n.isize

(* Rebalance the underfull child at index [ci] of internal node [p] by
   borrowing from a sibling or merging with one. *)
let rebalance_child t p ci =
  let child = p.children.(ci) in
  let left = if ci > 0 then Some p.children.(ci - 1) else None in
  let right = if ci < p.isize then Some p.children.(ci + 1) else None in
  let remove_sep_and_child si =
    (* Drops separator [si] and child [si+1] from [p]. *)
    Array.blit p.seps (si + 1) p.seps si (p.isize - si - 1);
    Array.blit p.children (si + 2) p.children (si + 1) (p.isize - si - 1);
    p.isize <- p.isize - 1
  in
  match child with
  | Leaf l -> (
    let borrow_left ll =
      (* Move ll's last binding to the front of l. *)
      Array.blit l.lkeys 0 l.lkeys 1 l.lsize;
      Array.blit l.lvals 0 l.lvals 1 l.lsize;
      l.lkeys.(0) <- ll.lkeys.(ll.lsize - 1);
      l.lvals.(0) <- ll.lvals.(ll.lsize - 1);
      l.lsize <- l.lsize + 1;
      ll.lvals.(ll.lsize - 1) <- None;
      ll.lsize <- ll.lsize - 1;
      p.seps.(ci - 1) <- l.lkeys.(0)
    and borrow_right rl =
      l.lkeys.(l.lsize) <- rl.lkeys.(0);
      l.lvals.(l.lsize) <- rl.lvals.(0);
      l.lsize <- l.lsize + 1;
      leaf_remove_at rl 0;
      p.seps.(ci) <- rl.lkeys.(0)
    and merge_into_left ll =
      Array.blit l.lkeys 0 ll.lkeys ll.lsize l.lsize;
      Array.blit l.lvals 0 ll.lvals ll.lsize l.lsize;
      ll.lsize <- ll.lsize + l.lsize;
      ll.lnext <- l.lnext;
      remove_sep_and_child (ci - 1)
    and merge_right_into_self rl =
      Array.blit rl.lkeys 0 l.lkeys l.lsize rl.lsize;
      Array.blit rl.lvals 0 l.lvals l.lsize rl.lsize;
      l.lsize <- l.lsize + rl.lsize;
      l.lnext <- rl.lnext;
      remove_sep_and_child ci
    in
    match (left, right) with
    | Some (Leaf ll), _ when ll.lsize > min_keys t -> borrow_left ll
    | _, Some (Leaf rl) when rl.lsize > min_keys t -> borrow_right rl
    | Some (Leaf ll), _ -> merge_into_left ll
    | _, Some (Leaf rl) -> merge_right_into_self rl
    | _ -> failwith "Btree: leaf with no leaf sibling")
  | Internal n -> (
    let borrow_left ln =
      Array.blit n.seps 0 n.seps 1 n.isize;
      Array.blit n.children 0 n.children 1 (n.isize + 1);
      n.seps.(0) <- p.seps.(ci - 1);
      n.children.(0) <- ln.children.(ln.isize);
      n.isize <- n.isize + 1;
      p.seps.(ci - 1) <- ln.seps.(ln.isize - 1);
      ln.isize <- ln.isize - 1
    and borrow_right rn =
      n.seps.(n.isize) <- p.seps.(ci);
      n.children.(n.isize + 1) <- rn.children.(0);
      n.isize <- n.isize + 1;
      p.seps.(ci) <- rn.seps.(0);
      Array.blit rn.seps 1 rn.seps 0 (rn.isize - 1);
      Array.blit rn.children 1 rn.children 0 rn.isize;
      rn.isize <- rn.isize - 1
    and merge_into_left ln =
      ln.seps.(ln.isize) <- p.seps.(ci - 1);
      Array.blit n.seps 0 ln.seps (ln.isize + 1) n.isize;
      Array.blit n.children 0 ln.children (ln.isize + 1) (n.isize + 1);
      ln.isize <- ln.isize + 1 + n.isize;
      remove_sep_and_child (ci - 1)
    and merge_right_into_self rn =
      n.seps.(n.isize) <- p.seps.(ci);
      Array.blit rn.seps 0 n.seps (n.isize + 1) rn.isize;
      Array.blit rn.children 0 n.children (n.isize + 1) (rn.isize + 1);
      n.isize <- n.isize + 1 + rn.isize;
      remove_sep_and_child ci
    in
    match (left, right) with
    | Some (Internal ln), _ when ln.isize > min_keys t -> borrow_left ln
    | _, Some (Internal rn) when rn.isize > min_keys t -> borrow_right rn
    | Some (Internal ln), _ -> merge_into_left ln
    | _, Some (Internal rn) -> merge_right_into_self rn
    | _ -> failwith "Btree: internal with no internal sibling")

let rec remove_node t node k =
  match node with
  | Leaf l ->
    let i = lower_bound l.lkeys l.lsize k in
    if i < l.lsize && l.lkeys.(i) = k then begin
      leaf_remove_at l i;
      t.count <- t.count - 1;
      true
    end
    else false
  | Internal n ->
    let ci = child_index n k in
    let found = remove_node t n.children.(ci) k in
    if found && node_size n.children.(ci) < min_keys t then
      rebalance_child t n ci;
    found

let remove t k =
  Wave_obs.Metrics.inc m_removes;
  match t.root with
  | None -> false
  | Some root ->
    let found = remove_node t root k in
    (match t.root with
    | Some (Internal n) when n.isize = 0 -> t.root <- Some n.children.(0)
    | Some (Leaf l) when l.lsize = 0 -> t.root <- None
    | _ -> ());
    found

(* Every binding at once: the nodes are dropped whole, not merged away
   key by key.  The removal counter still counts each key, as [remove]
   would have. *)
let clear t =
  Wave_obs.Metrics.add m_removes t.count;
  t.root <- None;
  t.count <- 0

(* ------------------------------------------------------------------ *)
(* iteration                                                          *)
(* ------------------------------------------------------------------ *)

let rec leftmost_leaf = function
  | Leaf l -> l
  | Internal n -> leftmost_leaf n.children.(0)

let rec rightmost_leaf = function
  | Leaf l -> l
  | Internal n -> rightmost_leaf n.children.(n.isize)

let min_binding t =
  match t.root with
  | None -> None
  | Some r ->
    let l = leftmost_leaf r in
    if l.lsize = 0 then None
    else Some (l.lkeys.(0), Option.get l.lvals.(0))

let max_binding t =
  match t.root with
  | None -> None
  | Some r ->
    let l = rightmost_leaf r in
    if l.lsize = 0 then None
    else Some (l.lkeys.(l.lsize - 1), Option.get l.lvals.(l.lsize - 1))

let iter t f =
  match t.root with
  | None -> ()
  | Some r ->
    let rec walk l =
      for i = 0 to l.lsize - 1 do
        f l.lkeys.(i) (Option.get l.lvals.(i))
      done;
      match l.lnext with None -> () | Some next -> walk next
    in
    walk (leftmost_leaf r)

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun k v -> acc := f !acc k v);
  !acc

(* Right-to-left walk of the node structure (leaves are chained only
   left to right), so a caller can build a key-ordered list by consing. *)
let fold_descending t ~init ~f =
  let rec walk acc = function
    | Leaf l ->
      let acc = ref acc in
      for i = l.lsize - 1 downto 0 do
        acc := f !acc l.lkeys.(i) (Option.get l.lvals.(i))
      done;
      !acc
    | Internal n ->
      let acc = ref acc in
      for i = n.isize downto 0 do
        acc := walk !acc n.children.(i)
      done;
      !acc
  in
  match t.root with None -> init | Some r -> walk init r

let range t ~lo ~hi =
  match t.root with
  | None -> []
  | Some r ->
    (* Descend to the leaf that would contain [lo]. *)
    let rec descend = function
      | Leaf l -> l
      | Internal n -> descend n.children.(child_index n lo)
    in
    let out = ref [] in
    let rec walk l =
      let start = lower_bound l.lkeys l.lsize lo in
      let continue = ref true in
      for i = start to l.lsize - 1 do
        if l.lkeys.(i) <= hi then
          out := (l.lkeys.(i), Option.get l.lvals.(i)) :: !out
        else continue := false
      done;
      if !continue then
        match l.lnext with None -> () | Some next -> walk next
    in
    walk (descend r);
    List.rev !out

let to_list t = List.rev (fold t ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

(* ------------------------------------------------------------------ *)
(* invariants                                                         *)
(* ------------------------------------------------------------------ *)

let height t =
  let rec go acc = function
    | Leaf _ -> acc + 1
    | Internal n -> go (acc + 1) n.children.(0)
  in
  match t.root with None -> 0 | Some r -> go 0 r

let check_invariants t =
  let fail fmt = Printf.ksprintf failwith fmt in
  match t.root with
  | None -> if t.count <> 0 then fail "empty root but count = %d" t.count
  | Some root ->
    let seen = ref 0 in
    let leaf_depth = ref (-1) in
    (* Checks the subtree holds keys in [lo, hi) and returns unit. *)
    let rec check node lo hi depth is_root =
      match node with
      | Leaf l ->
        if !leaf_depth = -1 then leaf_depth := depth
        else if !leaf_depth <> depth then
          fail "leaves at depths %d and %d" !leaf_depth depth;
        if (not is_root) && l.lsize < min_keys t then
          fail "leaf underfull: %d < %d" l.lsize (min_keys t);
        if l.lsize > t.ord then fail "leaf overfull: %d" l.lsize;
        for i = 0 to l.lsize - 1 do
          let k = l.lkeys.(i) in
          if i > 0 && l.lkeys.(i - 1) >= k then fail "leaf keys unsorted";
          (match lo with
          | Some b when k < b -> fail "leaf key %d below bound %d" k b
          | _ -> ());
          (match hi with
          | Some b when k >= b -> fail "leaf key %d above bound %d" k b
          | _ -> ());
          if Option.is_none l.lvals.(i) then fail "missing value for key %d" k;
          incr seen
        done
      | Internal n ->
        if (not is_root) && n.isize < min_keys t then
          fail "internal underfull: %d < %d" n.isize (min_keys t);
        if is_root && n.isize < 1 then fail "root internal with no separator";
        if n.isize > t.ord then fail "internal overfull: %d" n.isize;
        for i = 1 to n.isize - 1 do
          if n.seps.(i - 1) >= n.seps.(i) then fail "separators unsorted"
        done;
        for i = 0 to n.isize do
          let clo = if i = 0 then lo else Some n.seps.(i - 1) in
          let chi = if i = n.isize then hi else Some n.seps.(i) in
          check n.children.(i) clo chi (depth + 1) false
        done
    in
    check root None None 0 true;
    if !seen <> t.count then fail "count mismatch: saw %d, recorded %d" !seen t.count;
    (* The leaf chain must enumerate exactly the same keys in order. *)
    let chained = ref 0 in
    let prev = ref min_int in
    let rec walk l =
      for i = 0 to l.lsize - 1 do
        if l.lkeys.(i) <= !prev then fail "leaf chain unsorted";
        prev := l.lkeys.(i);
        incr chained
      done;
      match l.lnext with None -> () | Some next -> walk next
    in
    walk (leftmost_leaf root);
    if !chained <> t.count then
      fail "leaf chain covers %d of %d bindings" !chained t.count
