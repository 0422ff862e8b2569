(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]) on native
    ints: the checksum of the day-batch codec and of the block file's
    per-block stamps.  Results lie in [[0, 2^32)]; the CRC-32 of
    ["123456789"] is [0xCBF43926].

    The table walk is slicing-by-8 (Kounavis and Berry, ISCC 2005):
    eight bytes per step through eight independent lookups, with a
    byte-at-a-time tail.  The checksum is the same as the classic
    one-table loop's; only the speed differs. *)

type state
(** A checksum in progress: what {!update} has seen so far.  An
    immediate value, so keeping or passing one allocates nothing. *)

val init : state
(** The state before any byte. *)

val update : state -> Bytes.t -> off:int -> len:int -> state
(** Continue over [len] bytes starting at [off].  A state can be
    continued more than once: a caller that checksums many buffers with
    a common prefix computes the prefix's state once and continues it
    per buffer.  Raises [Invalid_argument] when the range is outside
    the buffer. *)

val finish : state -> int
(** The checksum of every byte the state has seen:
    [finish (update (update init a) b)] is the CRC-32 of [a] followed
    by [b]. *)

val bytes : Bytes.t -> off:int -> len:int -> int
(** Checksum of [len] bytes starting at [off]: [finish (update init …)].
    Raises [Invalid_argument] when the range is outside the buffer. *)

val string : string -> off:int -> len:int -> int
