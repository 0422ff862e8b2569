(** CRC-32 (IEEE 802.3, reflected polynomial [0xEDB88320]), table
    driven, on native ints: the checksum of the day-batch codec and of
    the block file's per-block stamps.  Results lie in [[0, 2^32)]; the
    CRC-32 of ["123456789"] is [0xCBF43926]. *)

val bytes : Bytes.t -> off:int -> len:int -> int
(** Checksum of [len] bytes starting at [off].  Raises
    [Invalid_argument] when the range is outside the buffer. *)

val string : string -> off:int -> len:int -> int
