(** Slotted 4K data pages.

    A page holds serialized tuples, each tagged with the identifier of the
    relation it belongs to (tuples from several relations may share a page,
    exactly as in the RSS). No tuple spans a page. Deleting a slot leaves a
    tombstone so that TIDs of surviving tuples stay stable. *)

type t

(** A slot as stored: a live version with its relation tag, byte size,
    tuple and [(xmin, xmax)], or the tombstone of a deleted one. Private:
    only this module writes slots. *)
type slot = private
  | Live of {
      rel_id : int;
      bytes : int;
      tuple : Rel.Tuple.t;
      mutable xmin : int;
      mutable xmax : int;
    }
  | Dead

val size : int
(** Page capacity in bytes (4096). *)

(** Each slot carries [(xmin, xmax)] version metadata: the creating and
    delete-marking transaction ids ([xmin = 0] frozen, [xmax = 0] not
    deleted). MVCC deletes only stamp [xmax]; VACUUM reclaims. *)

val create : id:int -> t
val id : t -> int

val free_space : t -> int
(** Bytes still available for one more record (slot overhead included). *)

val record_bytes : Rel.Tuple.t -> int
(** Bytes the given tuple would consume on a page, overhead included. *)

val insert : t -> ?xmin:int -> rel_id:int -> Rel.Tuple.t -> int option
(** [insert p ~rel_id tup] stores the tuple, returning its slot number, or
    [None] when the page lacks space. [xmin] defaults to 0 (frozen). *)

val set_xmax : t -> slot:int -> int -> unit
(** Stamp (or, with 0, clear) the delete-marking txn of a live slot.
    @raise Invalid_argument when the slot is dead or out of range. *)

val set_xmin : t -> slot:int -> int -> unit
(** Restamp the creating txn of a live slot (VACUUM freezing uses 0). *)

val delete : t -> slot:int -> bool
(** Tombstone a slot; [false] when it was already dead. *)

val slots : t -> int
(** Number of slots ever allocated (live or dead). *)

val slot : t -> int -> slot
(** [slot p i] is slot [i] itself, not a copy — the RSS's one version
    reader (scans, heap walks, counts, DML rechecks), delete-marked versions
    and tombstones included. @raise Invalid_argument on an out-of-range
    slot. *)

val is_empty : t -> bool
(** No live tuples on the page. *)

val used_bytes : t -> int
