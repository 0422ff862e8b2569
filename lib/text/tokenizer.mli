(** Tokenisation for the information-retrieval context of Figure 1.

    The paper's IR indexes map a word (the search value) to postings
    carrying "the byte offset of value v in field F of r_i".  This
    tokenizer produces exactly those pairs: lowercased alphanumeric
    words with their byte offsets, with very short words and a small
    English stopword list dropped (as IR packages of the era did). *)

type token = { word : string; offset : int  (** byte offset in the input *) }

val tokens : ?min_length:int -> ?stopwords:bool -> string -> token list
(** [tokens text] returns in-order tokens.  Defaults: [min_length = 2],
    stopword filtering on.  Words are maximal runs of ASCII letters,
    digits and apostrophes, lowercased; apostrophes are kept inside
    words ("don't") but trimmed at the edges. *)

val distinct_words : ?min_length:int -> ?stopwords:bool -> string -> string list
(** Sorted distinct words of the text. *)
