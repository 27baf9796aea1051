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

val fetcher : t -> Tid.t -> Page.slot
(** A repeated-fetch closure for index scans: the slot a TID names, in
    place ({!Page.slot}), charging one buffered page access per call. It
    caches the last page it resolved, since key-ordered runs of TIDs from
    clustered pages hit the same page. *)

val slot : t -> Tid.t -> Page.slot
(** The slot a TID names, in place ({!Page.slot}), with no accounting (DML
    rechecks, integrity checks). *)

val page_ids : t -> int list
(** All pages of the segment, in allocation order. *)

val census :
  ?live:(Rel.Tuple.t -> unit) -> t -> rel_id:int -> int * int * int
(** [(ncard, tcard, nonempty)] from one walk of the segment, as UPDATE
    STATISTICS reads them: NCARD(T), the versions of [rel_id] that are not
    delete-marked; TCARD(T), the pages holding at least one of them; and the
    pages holding any version at all (delete-marked included), the
    denominator of P(T) and what a segment scan touches. [live] is called on
    each of the NCARD tuples, in heap order, in place and unaccounted. *)
