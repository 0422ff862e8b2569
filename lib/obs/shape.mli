(** Declarative JSON shapes: the one checker behind the document
    validators and readers in {!Sink} and the rule parser in {!Alert}.

    A shape says what a value must look like — its type, a bound, the
    fields of an object, the elements of an array.  {!check} walks a
    document against it and reports the first violation, naming the
    value's path and the field:
    [benchmark 0 ("probe/DEL").cache: "hit_ratio" outside [0, 1]].
    Rules that relate several values (counts that must agree, an
    ordering across elements) stay in the callers, after the shape
    holds. *)

type t

val check : ?where:string -> t -> Json.t -> (unit, string) result
(** [Ok ()] when the value has the shape; otherwise the first
    violation in document order, prefixed with its path.  [where]
    labels the value itself (default: no label). *)

(** {1 Scalars} *)

val str : t
val nonempty : t
(** A string of at least one character. *)

val exactly : string -> t
(** This string and no other (schema tags, units). *)

val one_of : string list -> t

val num : t
(** Any number, NaN included. *)

val finite : t

val at_least : float -> t
(** A number [>=] the bound ([0.0] reads "is negative"). *)

val int_at_least : int -> t
(** An integral number [>=] the bound. *)

val between : float -> float -> t
(** A number in the closed interval. *)

val finite_or_null : t

(** {1 Objects} *)

type field

val obj : field list -> t
(** An object whose fields are checked in list order. *)

val req : string -> t -> field
val opt : string -> t -> field
(** A field that may be absent; when present it must have the shape. *)

val case : string -> string -> field list -> field
(** [case key v fields]: when [key] holds the string [v], the object
    must also have [fields] (the payload of a tagged event). *)

val satisfies : (Json.t -> (unit, string) result) -> field
(** A condition over the whole object that the fields cannot state
    alone; its error is reported at the object's path. *)

(** {1 Arrays} *)

type label
(** How an array names its elements in errors. *)

val numbered : string -> label
(** [kind i], for a document's top-level collections
    ([benchmark 3], [rule 0], [event 12]). *)

val nested : label
(** [parent/name] — a tree of named nodes ([/day/phase.query]). *)

val arr : ?nonempty:bool -> ?label:label -> t -> t
(** An array whose elements all have the shape.  Elements are named
    [parent.key[i]] unless [label] says otherwise; that default and
    {!numbered} append [ ("…")] with the element's string ["name"] or
    ["path"] field when there is one. *)

val fix : (t -> t) -> t
(** [fix (fun self -> ...)] — a recursive shape (a node whose children
    are nodes). *)
