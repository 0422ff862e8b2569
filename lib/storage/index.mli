(** A constituent ("conventional") index: memory-resident directory
    plus timestamped buckets on the simulated disk.

    This is the structure of Figure 1 in the paper.  Two layouts exist:

    - {e packed}: every bucket uses minimal space and all buckets are
      allocated contiguously (one extent), in increasing value order.
      Produced by {!build} and {!pack}.  Whole-index scans cost a
      single seek plus one contiguous transfer.
    - {e contiguous-per-bucket} (unpacked): each bucket owns its own
      extent with room for growth, managed by the CONTIGUOUS scheme of
      Faloutsos and Jagadish [FJ92]: when a bucket outgrows its
      allocation, a region [g] times larger is allocated, entries are
      copied over and the old region is released (symmetrically it
      shrinks after heavy deletion).  Produced as soon as {!add_batch}
      or {!delete_days} touches a packed index in place.

    Every operation charges the simulated disk with exactly the seeks
    and transfers it performs, plus configurable CPU time per entry so
    that the paper's measured [Build]/[Add]/[Del] magnitudes can be
    reproduced. *)

open Wave_disk

type config = {
  entry_bytes : int;  (** on-disk bytes per entry *)
  growth_factor : float;  (** CONTIGUOUS [g]; > 1.0 *)
  min_alloc_entries : int;  (** smallest per-bucket allocation *)
  build_cpu_per_entry : float;  (** seconds of processing per entry during packed builds *)
  add_cpu_per_entry : float;  (** seconds per entry during incremental add/delete *)
  cache_blocks : int option;
      (** [Some n] routes reads through an [n]-frame {!Wave_cache.Cache}
          buffer pool attached to the disk (shared by all indexes on
          that disk); [None] (the default) keeps the paper's cold-disk
          cost model, bit-identical to a build without the pool. *)
  cache_readahead : int;  (** demand-read prefetch depth when cached *)
  cache_write_back : bool;
      (** defer writes in the pool's dirty frames until eviction or an
          explicit {!Wave_cache.Cache.flush} (coalescing repeated bucket
          rewrites); [false] (the default) keeps write-through, which is
          bit-identical to the uncached fault schedule *)
  disk_backend : Disk.backend;
      (** [Sim] (the default) is the paper's pure cost model;
          [File path] puts the same disk over a real block file at
          [path] ({!Disk.create_file}), so every charged write also
          lands on storage through the {!Wave_disk.Io} shim. *)
}

val default_config : config
(** 100-byte entries, [g = 2.0], B+tree directory, zero CPU charges,
    no buffer pool, simulated backend. *)

type t

exception Index_error of string

val make_disk :
  ?seek_time:float -> ?transfer_rate:float -> config -> Disk.t
(** A simulated disk compatible with [config]: extents are allocated at
    a granularity of one entry per block (the disk's block size is set
    to [entry_bytes]) so packed indexes are charged exactly their
    minimal size.  Defaults: the paper's 14 ms seek, 10 MB/s. *)

(** {1 Construction} *)

val create_empty : Disk.t -> config -> t
(** A fresh, empty, (vacuously packed) index.  Raises {!Index_error} if
    the disk's block size differs from [config.entry_bytes]. *)

val build : Disk.t -> config -> Entry.batch list -> t
(** [build disk config batches] is the paper's [BuildIndex]: scan the
    batches counting entries per value, allocate one contiguous packed
    extent, and write it with a single seek.  The postings are grouped
    by {!Entry.group_by_value} (a table probe per posting, a radix
    sort of the distinct values, exact-size bucket arrays).
    Charges [build_cpu_per_entry] per entry plus the sequential
    write. *)

val copy : t -> t
(** Duplicate the index for shadow updating: the paper's [CP].  Charges
    a sequential read of the source and a sequential write of the copy
    (same layout, same slack).  The copy's buckets share the source's
    entry arrays, which are never mutated in place, so editing either
    index leaves the other as it was. *)

(** {2:expiry Expiry}

    {!pack} and {!delete_days} remove the entries of the days of a list
    of {e expiring} batches, fetched from the day store, and read only
    the buckets those batches name.  They rely on one contract: the
    batches hold every entry the index holds with one of their days,
    once for each copy the index holds (a day added twice is passed
    twice).  Postings beyond that are harmless.  For each value the
    batches name, let [c] be the number of its postings in them.  When
    the bucket's first [c] entries all carry expiring days, as DEL's
    day order leaves them, one [Array.sub] cuts them; any other named
    bucket is filtered by day.  A bucket the batches do not name keeps
    its entry array, and none of its entries is read. *)

val pack : t -> expire:Entry.batch list -> extra:Entry.batch list -> t
(** Packed-shadow update, the paper's smart copy [SMCP]: builds a
    temporary packed index for [extra], streams the old index without
    the entries of [expire]'s days (see {e Expiry}), merges in the
    temporary index, and writes the result packed.  The source is left
    intact (the caller drops it after swapping).  One walk of the
    source's directory merges its buckets with the new ones: a value
    in both keeps the surviving entries first, then the new ones.  A
    bucket that neither loses nor gains an entry shares its entry
    array with the source (entry arrays are never mutated in place). *)

(** {1 Mutation (in place)} *)

val add_batch : t -> Entry.batch -> unit
(** The paper's [AddToIndex] with in-place updating under CONTIGUOUS.
    The index becomes (or remains) unpacked. *)

val delete_days : t -> Entry.batch list -> int
(** [delete_days t batches] removes every entry of [batches]' days (see
    {e Expiry}); returns how many entries were removed.  Buckets are
    rewritten in place, shrunk when mostly empty, and removed from the
    directory when empty — the "complex deletion code" DEL needs.  The
    buckets that lose entries are charged in ascending value order, and
    those emptied are then released in descending order. *)

val drop : t -> unit
(** Release all disk space and empty the index — the paper's
    [DropIndex] body, a constant-time unlink ("a few milliseconds ...
    irrespective of the index size"): no data transfer is charged, and
    the directory is emptied at once ({!Btree.clear}).
    When the {!set_drop_gate} gate claims the index the whole drop is
    deferred — structure and extents stay intact so snapshot readers
    keep probing it — and the gate's owner re-calls [drop] later. *)

val set_drop_gate : (t -> bool) -> unit
(** Install the global drop gate (default: claims nothing).  [drop t]
    first asks the gate; [true] defers the drop as described above.
    Installed once by [Wave_epoch] to protect indexes referenced by
    live epoch snapshots. *)

(** {1 Queries} *)

val probe : t -> int -> Entry.t list
(** [probe t v] returns the bucket for value [v] (insertion order),
    charging one seek plus the bucket transfer.  Missing values cost a
    directory lookup only (the directory is in memory). *)

val probe_timed : t -> int -> t1:int -> t2:int -> Entry.t list
(** [TimedIndexProbe] restricted to one constituent: probes and keeps
    entries with [t1 <= day <= t2].  Charged like {!probe} (selection
    happens in memory after the transfer). *)

val scan : t -> Entry.t list
(** [SegmentScan] of this constituent: every entry, charged as one seek
    plus the transfer of the index's {e allocated} space — so unpacked
    indexes pay for their slack, packed ones do not. *)

val scan_timed : t -> t1:int -> t2:int -> Entry.t list
(** [TimedSegmentScan] on this constituent: full scan cost, filtered to
    the day range. *)

(** {2 Composing answers across constituents}

    A wave query charges its constituents in slot order and returns
    their answers concatenated.  These split each access into its
    charge and its answer, so the caller can charge front to back and
    then build the concatenation back to front, consing every returned
    entry once. *)

val probe_bucket : t -> int -> Entry.t array
(** Charge exactly what {!probe} charges and return the bucket
    ([[||]] when the value is absent).  The array is the index's own:
    do not mutate it. *)

val timed_onto : Entry.t array -> t1:int -> t2:int -> Entry.t list -> Entry.t list
(** [timed_onto es ~t1 ~t2 tail] is the entries of [es] with
    [t1 <= day <= t2], in array order, followed by [tail]. *)

val scan_charge : t -> unit
(** Charge exactly what {!scan} charges. *)

val scan_onto : t list -> t1:int -> t2:int -> Entry.t list -> Entry.t list
(** [scan_onto idxs ~t1 ~t2 tail] walks the buckets of every index in
    [idxs] in ascending value order, a value held by several indexes in
    list order, and returns each bucket's entries with
    [t1 <= day <= t2], in bucket order, followed by [tail]; charges
    nothing.  For one index this is what {!scan_timed} returns. *)

val fold_timed :
  t -> t1:int -> t2:int -> init:'a -> f:('a -> Entry.t -> 'a) -> 'a
(** Fold [f] over the entries {!scan_timed} returns, in the same order,
    reading the buckets in place instead of building a list; charges
    nothing and allocates nothing per bucket or entry.  With
    {!scan_charge} first, an aggregate costs what the scan costs. *)

(** {1 Observation} *)

val entry_count : t -> int
val distinct_values : t -> int
val is_packed : t -> bool
val days : t -> int list
(** Distinct days present, ascending. *)

val used_bytes : t -> int
(** Bytes of real entries ([S]-side accounting). *)

val allocated_bytes : t -> int
(** Bytes of disk space held, including CONTIGUOUS slack ([S']). *)

val allocated_blocks : t -> int
val config : t -> config
val disk : t -> Disk.t

val cache : t -> Wave_cache.Cache.t option
(** The buffer pool charged by this index's reads, when
    [config.cache_blocks] asked for one.  With a pool attached, probes
    additionally charge cold directory blocks ({!Wave_cache.Cache.meta_read})
    that the memory-resident-directory model treats as free. *)

val extents : t -> Disk.extent list
(** Every disk extent this index holds (shared packed home plus
    per-bucket homes).  Together with {!Disk.live_extents} this lets a
    recovery pass decide which live extents a crashed transition
    leaked: journal intent records snapshot these before the
    transition, and cleanup frees whatever no surviving index claims. *)

val validate : t -> unit
(** Structural invariants: per-bucket fill within capacity, directory
    consistent with buckets, packedness implies minimal contiguous
    allocation in one shared extent and no bucket-owned extent, all
    extents live.  Raises [Index_error] on violation. *)
