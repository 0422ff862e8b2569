(** Constituent-index update operations under the three techniques.

    These are the paper's [BuildIndex], [AddToIndex] and
    [DeleteFromIndex] (Section 2.2), parameterised by the update
    technique of Section 2.1.  Shadow techniques replace the index, so
    every mutator returns the index to install in the wave; the old
    one has already been dropped (its space reclaimed).

    Each function reports the operations it performs to
    [env.observer] ({!Env.op}): what the analytic model charges. *)

open Wave_storage

exception Deletes_not_supported of string
(** Raised when a scheme needs incremental [DeleteFromIndex] but the
    environment declares the index package cannot delete
    ([Env.allow_deletes = false]) and the technique is not packed
    shadowing.  Models the paper's WAIS/SMART legacy constraint. *)

val build_days : Env.t -> int list -> Index.t
(** [BuildIndex (Days)]: a packed index over the given days' batches,
    fetched from the store. *)

val add_days : Env.t -> Index.t -> int list -> Index.t
(** [AddToIndex (Days, I)].  In-place: incremental CONTIGUOUS inserts,
    result unpacked.  Simple shadow: copy, insert into the copy, swap.
    Packed shadow: smart-copy into a fresh packed index. *)

val copy : Env.t -> Index.t -> Index.t
(** Plain duplication (the paper's [CP]); used for [I_j <- Temp] steps
    where the temporary must survive. *)

val add_days_fresh : Env.t -> Index.t -> int list -> Index.t
(** Like {!add_days} but for an index that is not yet visible to
    queries (a temporary or a replacement under construction): no
    shadow copy is ever needed, so [In_place] and [Simple_shadow]
    coincide; [Packed_shadow] still packs, since that technique's
    point is that every produced index is packed. *)

type pending
(** A replacement prepared by {!prepare_replace}: all the daily
    maintenance work that does not need the new day's data (shadow
    copy, expiry deletion).  Completing it with the new day is the
    paper's Transition; preparing it is Pre-computation. *)

val prepare_replace : Env.t -> Index.t -> expire:int list -> pending
(** Prepare a delete+add maintenance step that expires the [expire]
    days.  Their batches are fetched from the store and handed to
    {!Index.delete_days} (in place, simple shadow) or {!Index.pack}
    (packed shadow, at completion), so the index must hold exactly the
    store's postings for those days (the contract stated under
    {e Expiry} in {!Index}).  Raises {!Deletes_not_supported} under
    the legacy constraint (see {!Env.t.allow_deletes}). *)

val prepare_add : Env.t -> Index.t -> pending
(** Like {!prepare_replace} with no expiry — pure insertion (what WATA
    and RATA do), legal even without delete support. *)

val complete_replace : Env.t -> pending -> add:int list -> Index.t
(** [complete_replace env p ~add] finishes the maintenance step begun
    by {!prepare_replace} once the new data exists, returning the index
    to install.  The old index has been dropped where the technique
    replaces it. *)
