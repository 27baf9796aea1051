(** Segments: logical units of data pages.

    A segment may hold tuples of several relations; no relation spans a
    segment. A segment scan must touch every non-empty page of the segment
    regardless of which relation's tuples it wants — that is what makes
    TCARD/P the segment-scan cost in TABLE 2. *)

type fill_policy =
  | Per_relation
      (** Each relation fills its own current page before a new one is
          allocated, so pages stay homogeneous (P(T) close to
          TCARD(T)/segment pages only when relations share the segment). *)
  | First_fit
      (** Any page with room is used, interleaving relations on shared pages
          (drives P(T) below 1 even for a lone relation's pages). *)

type t

val create : ?policy:fill_policy -> Pager.t -> t
val pager : t -> Pager.t

val insert : t -> ?xmin:int -> rel_id:int -> Rel.Tuple.t -> Tid.t
(** Store a tuple, allocating pages as needed. No I/O is charged: loading is
    not part of any measured query. [xmin] defaults to 0 (frozen). *)

val delete : t -> Tid.t -> bool
(** Physically tombstone a TID (rollback of inserts, VACUUM reclaim). *)

val set_xmax : t -> Tid.t -> int -> unit
(** MVCC delete-mark: stamp the version's deleter (0 clears the mark). *)

val set_xmin : t -> Tid.t -> int -> unit
(** Restamp the version's creator (VACUUM freezing uses 0). *)

val fetcher_v : t -> Tid.t -> (int * Rel.Tuple.t * int * int) option
(** A repeated-fetch closure for index scans: [(rel_id, tuple, xmin, xmax)]
    of a TID, [None] for a tombstone, charging one buffered page access per
    call. It caches the last page it resolved, since key-ordered runs of
    TIDs from clustered pages hit the same page. *)

val fetch_unaccounted_v : t -> Tid.t -> (int * Rel.Tuple.t * int * int) option
(** The same lookup with no accounting (DML rechecks, integrity checks). *)

val page_ids : t -> int list
(** All pages of the segment, in allocation order. *)

val nonempty_page_count : t -> int

val pages_holding : t -> rel_id:int -> int
(** TCARD(T): pages of this segment holding at least one tuple of [rel_id]. *)

val tuple_count : t -> rel_id:int -> int
(** NCARD(T) computed by walking the segment (UPDATE STATISTICS uses it). *)
