(** Index directory: search value -> bucket.

    Section 2 assumes the directory is memory-resident; only the
    buckets live on disk.  Two interchangeable implementations are
    provided — a hash table and the {!Btree} — selected at index
    creation.  The B+tree keeps values ordered, which the packed
    builder uses to lay buckets out in value order, and which makes
    ordered scans deterministic. *)

type kind = Hash | Bplus

type 'a t

val create : kind -> 'a t
val kind : 'a t -> kind

val uid : 'a t -> int
(** Process-unique identity of this directory; the buffer pool's
    metadata namespace for its pages. *)

val length : 'a t -> int
val find : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool

val search_path : 'a t -> int -> int list
(** Stable page ids a lookup of this value touches: the root-to-leaf
    node ids for the B+tree (see {!Btree.search_path}), or the single
    hashed page for the hash directory.  The cache-aware cost model
    charges one metadata block per id on a cold read. *)

val set : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit

val clear : 'a t -> unit
(** Remove every binding at once ({!Btree.clear} for the B+tree), as
    one {!remove} per value would, without visiting them. *)

val iter_ordered : 'a t -> (int -> 'a -> unit) -> unit
(** Visits bindings in increasing value order for both implementations
    (the hash directory sorts its keys first: O(n log n)). *)

val fold_ordered : 'a t -> init:'b -> f:('b -> int -> 'a -> 'b) -> 'b

val fold_descending : 'a t -> init:'b -> f:('b -> int -> 'a -> 'b) -> 'b
(** Visits bindings in decreasing value order, so consing builds an
    increasing list. *)
