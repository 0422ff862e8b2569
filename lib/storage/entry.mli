(** Index entries and day batches.

    Following Section 2 of the paper, the data to index consists of
    records; each record has one or more values for the search field
    [F].  An index {e entry} is a record pointer plus associated
    information, including the {e timestamp} (the day the record was
    inserted) needed by timed queries and packed-shadow expiry. *)

type t = {
  rid : int;  (** record identifier (the pointer [p_i]) *)
  day : int;  (** insertion day — the timestamp in [a_i] *)
  info : int;  (** extra payload, e.g. byte offset or sale amount *)
}

val compare : t -> t -> int
(** Orders by [day], then [rid], then [info]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

type posting = { value : int; entry : t }
(** One (search value, entry) pair produced by indexing a record. *)

type batch = {
  day : int;
  postings : posting array;  (** all postings generated on [day] *)
}
(** A day's worth of new data, delivered as a batch (Section 2.1). *)

val batch_create : day:int -> posting array -> batch
(** Validates that every posting's entry carries [day]. *)

val batch_size : batch -> int

val batch_filter : batch -> keep:(int -> bool) -> batch
(** Restricts a batch to the postings whose search value satisfies
    [keep], preserving order.  Used by the shard router to carve one
    day store into per-arm stores. *)

val group_by_value : batch list -> int array * t array array
(** Groups the batches' postings by search value: [(values, groups)]
    holds the distinct values ascending, and [groups.(i)] the entries
    of [values.(i)] in input order (batches in list order).  Two passes:
    one hash lookup per posting, then a fill of exact-size arrays. *)
