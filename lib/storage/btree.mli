(** In-memory B+tree over integer keys.

    The paper's index directory is "a search structure (e.g., a B+Tree
    or a hash table) that given a search value identifies a bucket" and
    is assumed memory-resident.  This module is the B+tree variant,
    built from scratch: internal nodes hold only separator keys, all
    bindings live in linked leaves, so ordered iteration and range
    queries are cheap.  Nodes are mutable arrays of fixed capacity;
    insertion splits on overflow and deletion rebalances by borrowing
    from or merging with siblings, keeping every node (root excepted)
    at least half full.

    Complexity: [find], [insert], [remove] are O(log n); [iter],
    [range] are O(result). *)

type 'a t

val create : ?order:int -> unit -> 'a t
(** [create ~order ()] makes an empty tree.  [order] is the maximum
    number of keys per node (default 32, minimum 4). *)

val order : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool

val uid : 'a t -> int
(** Process-unique identity of this tree; the buffer pool's metadata
    namespace for its nodes. *)

val find : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val search_path : 'a t -> int -> int list
(** Stable ids of the nodes a {!find} for this key visits, root first,
    leaf last ([[]] on an empty tree).  Ids are unique within the tree
    and never reused after splits or merges, so a cache of "disk pages"
    keyed on them can never serve a stale node.  The cost-model layer
    charges one metadata block per id. *)

val insert : 'a t -> int -> 'a -> unit
(** Adds a binding; replaces the value if the key is already present. *)

val add_last : 'a t -> int -> 'a -> unit
(** [add_last t k v] adds a binding for a key above every key in [t]:
    {!insert}'s walk restricted to the right spine, with no search at
    any level.  The tree it leaves — node ids, fill and every
    {!search_path} — is the one {!insert} leaves, and [btree.inserts]
    counts it as one insert, so a tree built by ascending [add_last]s
    is the tree ascending {!insert}s build.  Raises [Invalid_argument]
    (and changes nothing) when [k] is not above the current maximum. *)

val remove : 'a t -> int -> bool
(** [remove t k] deletes the binding for [k]; returns whether a binding
    was present. *)

val clear : 'a t -> unit
(** Remove every binding in O(1).  The [btree.removes] counter grows by
    the number of bindings dropped, as one {!remove} per key would have
    made it; node ids keep counting, so nodes made by later inserts get
    ids no earlier node had. *)

val min_binding : 'a t -> (int * 'a) option
val max_binding : 'a t -> (int * 'a) option

val iter : 'a t -> (int -> 'a -> unit) -> unit
(** Visits bindings in increasing key order. *)

val fold : 'a t -> init:'b -> f:('b -> int -> 'a -> 'b) -> 'b

val fold_descending : 'a t -> init:'b -> f:('b -> int -> 'a -> 'b) -> 'b
(** Like {!fold}, visiting bindings in decreasing key order. *)

val range : 'a t -> lo:int -> hi:int -> (int * 'a) list
(** Bindings with [lo <= key <= hi], in increasing key order. *)

val to_list : 'a t -> (int * 'a) list

val check_invariants : 'a t -> unit
(** Validates the structural invariants (key ordering, node fill
    factors, leaf chaining, depth uniformity); raises [Failure] with a
    diagnostic if violated.  Used by the test suite. *)

val height : 'a t -> int
(** Number of levels (0 for an empty tree). *)
