(** Shared environment for wave-index maintenance.

    Bundles everything a scheme needs: the simulated disk, the
    constituent-index configuration, the chosen update technique
    (Section 2.1), the day store supplying historical batches (schemes
    like REINDEX re-read past days when rebuilding), and the window
    geometry [(W, n)]. *)

open Wave_disk
open Wave_storage

type technique =
  | In_place
      (** Modify directory/buckets directly; needs concurrency control;
          result not packed. *)
  | Simple_shadow
      (** Copy the index, update the copy in place, swap; extra space
          during transitions; result not packed. *)
  | Packed_shadow
      (** Stream old + temporary new into a fresh packed index; result
          packed; deletes ride along with the smart copy. *)

val technique_name : technique -> string

val technique_of_name : string -> technique option
(** Inverse of {!technique_name} — the token used by manifests and
    journals. *)

type day_store = int -> Entry.batch
(** [store d] returns day [d]'s batch.  Must be deterministic: schemes
    may fetch the same day several times (e.g. REINDEX re-reads W/n
    days per rebuild). *)

(** One step of index maintenance, as the analytic model charges it
    (Tables 10-11).  {!Update} reports each operation it performs;
    {!Scheme_base} reports the two phase marks of a transition. *)
type op =
  | Build of int  (** [BuildIndex] over k days *)
  | Add of int  (** incremental [AddToIndex] of k days *)
  | Delete of int  (** incremental [DeleteFromIndex] of k days *)
  | Copy of { days : int; live : bool }
      (** [CP] of a d-day index; [live]: a constituent visible to
          queries (a shadow copy), not a temporary *)
  | Smart_copy of { days : int; add : int; live : bool }
      (** [SMCP] of a d-day index plus k new days into a packed index *)
  | Arrived  (** the new day's data arrived *)
  | Visible  (** the new day became queryable *)

type t = {
  disk : Disk.t;
  icfg : Index.config;
  technique : technique;
  store : day_store;
  w : int;  (** required window length in days *)
  n : int;  (** number of constituent indexes *)
  allow_deletes : bool;
      (** Whether the underlying index package implements incremental
          deletion.  The paper motivates REINDEX/WATA/RATA partly by
          legacy packages (WAIS, SMART) that "do not implement deletes
          at all"; with [false], any scheme x technique combination
          that needs [DeleteFromIndex] (DEL under in-place or simple
          shadowing) raises {!Update.Deletes_not_supported}, while
          packed shadowing remains legal since expiry rides the smart
          copy. *)
  observer : (op -> unit) option;
      (** Receives every {!op} as it happens (the analytic model's
          replay); [None] costs one test per operation. *)
}

val create :
  ?disk:Disk.t ->
  ?icfg:Index.config ->
  ?technique:technique ->
  ?allow_deletes:bool ->
  ?observer:(op -> unit) ->
  store:day_store ->
  w:int ->
  n:int ->
  unit ->
  t
(** Validates [1 <= n <= w].  When [disk] is omitted a fresh compatible
    disk is created via {!Wave_storage.Index.make_disk}. *)
