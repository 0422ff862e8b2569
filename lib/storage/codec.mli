(** Binary serialisation of day batches.

    A deployment checkpoints its day store so the wave can be rebuilt
    after a restart (every scheme's Start phase, and REINDEX-family
    maintenance, re-reads past days).  The format is self-describing
    and safe to read from untrusted files: a magic/version header,
    LEB128 varints with ZigZag for signed fields, and a CRC-32
    (IEEE 802.3) over the payload verified on decode — it catches every
    burst error up to 32 bits, unlike the additive checksum of format
    v1, which missed transpositions.

    Layout: magic "WVB2" | day | posting-count | postings (value rid
    info, each delta-free varints) | crc32 (varint). *)

val encode_batch : Entry.batch -> string
val decode_batch : string -> (Entry.batch, string) result
(** [decode_batch s] fails (with a diagnostic) on bad magic, truncated
    input, malformed varints, a posting count the input is too short
    to hold, checksum mismatch or trailing bytes. *)

val encode_batches : Entry.batch list -> string
(** Length-prefixed concatenation, e.g. a whole window. *)

val decode_batches : string -> (Entry.batch list, string) result
