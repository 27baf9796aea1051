(** Write-ahead log.

    The RSS provides logging and recovery. The log is an append-only record
    stream with a byte-level codec (round-trip tested); [Recovery] replays it
    to rebuild segment contents after a crash, redoing the effects of
    committed transactions and discarding the rest.

    Durability is staged for group commit: {!append} only buffers a record;
    {!flush} moves everything buffered to the durable image in one batch —
    the single fsync-equivalent boundary a commit group shares. Only
    {!to_bytes} (the surviving byte image a recovery reads) reflects the
    durable stage; {!records} still sees every appended record, flushed or
    not, because in-process replay of a live log is not a crash.

    The log is one byte image: each stage holds only its records' encodings
    and a count, and {!records} decodes them on demand. *)

type txn = int

type record =
  | Begin of txn
  | Insert of { txn : txn; rel_id : int; tid : Tid.t; tuple : Rel.Tuple.t }
  | Delete of { txn : txn; rel_id : int; tid : Tid.t; tuple : Rel.Tuple.t }
      (** the pre-image, so a REDO of the delete needs no page read *)
  | Commit of txn
  | Abort of txn

type t

val create : unit -> t

val append : t -> record -> unit
(** Buffer a record (no durability until {!flush}). Carries the
    ["wal.append"] failpoint site. While {!Failpoint.halted} the append is
    dropped: the simulated log device died with the crash. *)

val flush : t -> unit
(** Make every buffered record durable in one batch. Carries the
    ["wal.group_flush"] failpoint site, fired {e after} the batch reaches
    the durable image — a crash there is "killed while writing the batch",
    and the torture harness tears the batch at every byte offset (see
    {!last_flush_size}). If a flush hook raises, the batch stays buffered
    (not durable, not lost) and the next flush retries it. No-op while
    {!Failpoint.halted} or when nothing is buffered. At most one flush may
    run at a time (the engine's group-commit leader enforces this); appends
    from other sessions may safely overlap a flush in progress. *)

val set_flush_hook : t -> (unit -> unit) option -> unit
(** Install a hook run inside {!flush} just before the batch becomes
    durable, standing in for the device sync: server tests gate on it to
    pin ack-after-durability, benches sleep in it to model fsync latency,
    and raising from it simulates a leader failure in the fsync window. *)

val unflushed : t -> int
(** Number of buffered records not yet durable. *)

val last_flush_size : t -> int
(** Byte size of the most recently flushed batch — the maximal torn-tail
    span a crash during that flush can produce. *)

val flushes : t -> int
(** Number of completed flushes. *)

val clear : t -> unit
(** Empty the log, all stages (the engine's recovery path truncates it to a
    checkpoint after reloading the surviving state). *)

val records : t -> record list
(** In append order, including records not yet flushed, decoded from the
    byte image on each call. *)

val byte_size : t -> int
(** Encoded size of all records, including records not yet flushed. *)

val encode : record -> string
val decode : string -> int -> record * int
(** [decode s off] reads one record at [off]; inverse of [encode].
    @raise Invalid_argument on a corrupt record. *)

val to_bytes : t -> string
(** The durable byte image only — what survives a crash. *)

val of_bytes : string -> t
(** A log whose durable image is the serialized log [s] (the bytes {e are}
    the device), cut after its last whole record: trailing garbage (a torn
    final write) is dropped, as a real recovery would. *)

val equal_record : record -> record -> bool
val pp_record : Format.formatter -> record -> unit
