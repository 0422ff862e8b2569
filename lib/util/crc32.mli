(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]) on native
    ints: the checksum of the day-batch codec and of the block file's
    per-block stamps.  Results lie in [[0, 2^32)]; the CRC-32 of
    ["123456789"] is [0xCBF43926].

    The table walk is slicing-by-8 (Kounavis and Berry, ISCC 2005):
    eight bytes per step through eight independent lookups, with a
    byte-at-a-time tail.  The checksum is the same as the classic
    one-table loop's; only the speed differs.

    The state is affine in the bytes: over GF(2), continuing a state
    [s] over a message [m] of [n] bytes gives [s] continued over [n]
    zero bytes, XOR one term per byte of [m], and a byte's term depends
    only on its value and on how many bytes follow it in [m].  The
    module builds sixteen tables; table [k] holds a byte's term when
    [k] more bytes follow it (tables 0-7 are also the slicing tables).
    {!zeros} and {!field} expose that split, so a caller whose messages
    share a prefix and differ in a few 8-byte fields computes a
    checksum from a few table lookups, without walking the bytes. *)

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

val zeros : state -> int -> state
(** [zeros s n] is [s] continued over [n] zero bytes: what {!update}
    returns on a buffer of [n] zeros, without the buffer.  Raises
    [Invalid_argument] when [n < 0]. *)

val field : state -> int -> after:int -> state
(** [field s x ~after] adds to [s] the term of an 8-byte field holding
    [x] (the little-endian bytes of [Int64.of_int x]) with [after] more
    bytes after it: one table entry per byte up to the last non-zero
    one, XORed into [s].  By linearity, when [s] is a state continued
    over bytes that hold zeros where the field goes, followed by
    [after] more bytes, [field s x ~after] is the state of the same
    bytes with the field in place of the zeros.  In particular
    [field (zeros s (8 + after)) x ~after] is [s] continued over the
    field and [after] zero bytes.  Raises [Invalid_argument] when
    [after] is outside [[0, 8]]. *)

val finish : state -> int
(** The checksum of every byte the state has seen:
    [finish (update (update init a) b)] is the CRC-32 of [a] followed
    by [b]. *)

val bytes : Bytes.t -> off:int -> len:int -> int
(** Checksum of [len] bytes starting at [off]: [finish (update init …)].
    Raises [Invalid_argument] when the range is outside the buffer. *)

val string : string -> off:int -> len:int -> int
