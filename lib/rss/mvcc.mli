(** Transaction status table and snapshot visibility for tuple versioning.

    Tuples carry [(xmin, xmax)] transaction ids; commits are stamped with
    monotonic commit sequence numbers (CSNs). A snapshot captures the
    highest committed CSN plus the reader's own txn id; visibility is
    "creator committed at-or-before the snapshot (or is me), deleter did
    not". [xmin = 0] means frozen — committed before every snapshot.

    Synchronization is external: mutators run under the engine's write
    latch, readers under its shared latch. *)

type t

type snapshot = {
  csn : int;  (** versions committed at-or-before this CSN are visible *)
  txn : int;  (** reader's own txn id; 0 = plain statement snapshot *)
}

val create : unit -> t
val reset : t -> unit

val begin_txn : t -> int -> unit
(** Register a txn as Active, recording the current CSN as its snapshot
    floor for the VACUUM horizon. *)

val commit : t -> int -> int
(** Stamp the txn Committed with a fresh CSN (returned). *)

val abort : t -> int -> unit
(** Forget the txn; its undo is physical so no heap reference survives. *)

val snapshot : t -> txn:int -> snapshot
val statement_snapshot : t -> snapshot

val active_count : t -> int
(** Number of in-flight (Active) transactions engine-wide. *)

val horizon : t -> int
(** Oldest CSN any in-flight snapshot can still read: versions whose
    deleter committed at-or-before it are reclaimable. *)

val committed : t -> int -> bool
val commit_csn : t -> int -> int option

val visible : t -> snapshot -> xmin:int -> xmax:int -> bool

val prune : t -> horizon:int -> unit
(** Drop Committed entries at-or-before [horizon] (every tuple referencing
    them has been frozen or reclaimed by VACUUM). *)

(** A read view packages the status table with a snapshot so scans carry
    one value. *)
type view

val view : t -> snapshot -> view
val view_visible : view -> xmin:int -> xmax:int -> bool
