(** Wave-index manifests: the durable record of a wave.

    The day store is the system of record (the indexes are derived
    data), so a manifest holds only what recovery needs to rebuild the
    wave from the store: which scheme, geometry, current day and
    per-slot time-sets were active.  {!Checkpoint} writes one at every
    committed transition ({!Store_dir} on disk), and {!Checkpoint.recover}
    and {!Checkpoint.reopen} rebuild the constituents from it.
    Scheme-private temporaries are not checkpointed.

    The format is a plain, versioned, line-oriented text file so
    operators can read it. *)

type t = {
  scheme : Scheme.kind;
  technique : Env.technique;
  w : int;
  n : int;
  day : int;  (** most recent absorbed day *)
  epoch : int;
      (** generation of the serving epoch committed with this
          checkpoint — the tag {!Wave_epoch.Epoch} assigns; 0 when
          concurrent serving is off (and in pre-epoch manifests, which
          parse with an implicit [epoch 0] and re-serialise without an
          [epoch] line) *)
  slots : Dayset.t list;  (** time-set per constituent, slot order *)
}

val capture : Scheme.t -> t
(** Snapshot a running scheme.  [epoch] is the current epoch's
    generation when one is open on the environment's disk, 0
    otherwise. *)

val to_string : t -> string
val of_string : string -> (t, string) result
(** Parses what {!to_string} produces; returns a diagnostic on bad
    version lines, unknown schemes, or malformed day sets. *)
