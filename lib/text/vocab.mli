(** Word interning: strings to the integer search values the index
    substrate works with, and back.

    The wave index's buckets are keyed by integer search values; an IR
    deployment needs a stable mapping from words to those values.  The
    vocabulary grows monotonically (ids are never reused), so a value
    written into an index on day 1 still resolves on day 100. *)

type t

val create : unit -> t
val size : t -> int

val intern : t -> string -> int
(** The id for a word, allocating the next id (starting at 1) on first
    sight.  The word is used verbatim — tokenise first. *)

val find : t -> string -> int option
(** Lookup without allocation. *)

val word_of : t -> int -> string
(** Reverse lookup; raises [Not_found] for unknown ids. *)
