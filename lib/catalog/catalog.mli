(** The System R catalogs: relations, columns, indexes, and their statistics.

    The catalog also owns index maintenance on DML — inserting or deleting a
    tuple keeps every index on the relation consistent — and implements
    UPDATE STATISTICS by walking segments and B-trees. *)

type relation = {
  rel_id : int;
  rel_name : string;
  schema : Rel.Schema.t;
  segment : Rss.Segment.t;
  mutable rstats : Stats.relation option;
  mutable cstats : Stats.column array;
      (** per-column histograms in schema order; [[||]] until UPDATE
          STATISTICS has run on this relation *)
  mutable stats_version : int;
      (** monotonic counter bumped by UPDATE STATISTICS and index DDL on this
          relation; plan caches compare it to detect stale plans *)
  mutable feedback_gen : int;
      (** monotonic counter bumped when executor cardinality feedback records
          a corrected selectivity for this relation; plan caches depend on it
          like [stats_version], so a gross misestimate retires exactly the
          plans costed under the stale estimate *)
  feedback : (string, float) Hashtbl.t;
      (** canonical local-factor-set key (see [Feedback] in the optimizer) ->
          observed selectivity; cleared by UPDATE STATISTICS *)
}

type index = {
  idx_name : string;
  rel : relation;
  key_cols : int list;       (** column positions forming the key, in order *)
  btree : Rss.Btree.t;
  clustered : bool;
  mutable istats : Stats.index option;
}

type t

val create : ?buffer_pages:int -> unit -> t
val pager : t -> Rss.Pager.t

val create_relation :
  ?segment:Rss.Segment.t -> t -> name:string -> schema:Rel.Schema.t -> relation
(** A fresh relation in its own segment, unless [segment] places it in an
    existing one (relations may share segments).
    @raise Invalid_argument on a duplicate name. *)

val create_index :
  ?order:int ->
  t ->
  name:string ->
  rel:relation ->
  columns:string list ->
  clustered:bool ->
  index
(** Build a B-tree over the named columns, loading existing tuples.
    @raise Invalid_argument on duplicate index name or unknown column. *)

val drop_index : t -> string -> unit

val drop_relation : t -> string -> bool
(** Remove the relation and every index on it from the catalog; [false] when
    unknown. Pages of a shared segment are not reclaimed (a segment may hold
    other relations); a dropped relation's tuples simply become unreachable. *)

val find_relation : t -> string -> relation option
val find_index : t -> string -> index option
val relations : t -> relation list
val indexes_on : t -> relation -> index list

val insert_tuple : ?xmin:int -> t -> relation -> Rel.Tuple.t -> Rss.Tid.t
(** Store the tuple and maintain all indexes. [xmin] stamps the creating
    transaction id (default [0] = frozen, visible to every snapshot — the
    single-session and recovery paths). Statistics are NOT updated (see
    module doc). @raise Invalid_argument on schema mismatch. *)

val mark_delete : relation -> Rss.Tid.t -> int -> unit
(** MVCC delete: stamp the version's deleter txn id, leaving the heap slot
    and index entries in place for concurrent snapshots; VACUUM reclaims
    once no snapshot can see the version.
    @raise Invalid_argument when the slot is dead. *)

val unmark_delete : relation -> Rss.Tid.t -> unit
(** Roll back a {!mark_delete}: clear the version's xmax. *)

val scan_versions :
  relation -> (Rss.Tid.t * Rel.Tuple.t * int * int) list
(** Every physical version [(tid, tuple, xmin, xmax)] of the relation,
    delete-marked or not, without I/O accounting — the raw heap as VACUUM,
    index builds and integrity checks see it. *)

val wipe_relation : t -> relation -> unit
(** Physically remove every version and its index entries (recovery resets
    storage with this before reloading the committed survivors). The
    emptied pages stay in the relation's segment. *)

val vacuum : t -> Rss.Mvcc.t -> int
(** Reclaim delete-marked versions whose deleter committed at-or-before the
    MVCC horizon, freeze old committed versions, prune the status table and
    bump [stats_version] on relations that shrank. Returns the number of
    versions reclaimed. Caller holds the engine write latch. *)

val delete_tid : t -> relation -> Rss.Tid.t -> Rel.Tuple.t -> bool
(** Delete the tuple at a known TID (index maintenance uses the supplied
    image); [false] when the slot was already dead. Used by rollback. *)

val key_of : index -> Rel.Tuple.t -> Rss.Btree.key

val update_statistics : t -> unit
(** Recompute relation, index and per-column statistics from storage (the
    UPDATE STATISTICS command, runnable by any user). Every column gets an
    equi-depth histogram, distinct count and NULL fraction; the pass is
    counter-neutral and bumps each relation's [stats_version]. *)
