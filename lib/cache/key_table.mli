(** Open-addressing map from packed frame keys to frame numbers — the
    buffer pool's residency index.

    The table stores only frame numbers; a frame's key lives in the
    pool's own [keys] array, which every operation takes as its first
    argument after the table.  Invariant kept by the caller: whenever
    the table maps [k] to frame [f], [keys.(f) = k], and [k >= 0].

    Linear probing over a power-of-two slot array at most half full,
    with backward-shift deletion (no tombstones), so a lookup never
    allocates and never walks a chain longer than its key's cluster.
    Semantics are those of [Hashtbl.replace] / [find_opt] / [remove] on
    a table that never holds two bindings for one key. *)

type t

val create : int -> t
(** Room for this many keys (>= 1): the slot count is the smallest
    power of two at least twice that. *)

val slots : t -> int

val home : t -> int -> int
(** The slot a key's probe sequence starts from. *)

val find : t -> int array -> int -> int
(** The frame bound to the key, or [-1]. *)

val replace : t -> int array -> int -> int -> unit
(** [replace t keys k f] binds [k] to frame [f] ([keys.(f)] must
    already be [k]), overwriting any existing binding of [k].  The
    caller must not bind more keys than [create] made room for. *)

val remove : t -> int array -> int -> unit
(** Drop the binding of the key, if any. *)
