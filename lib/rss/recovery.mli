(** Crash recovery by log replay.

    REDO-only recovery: the effects of committed transactions are replayed
    logically; records of transactions with no COMMIT (aborted or in flight
    at the crash) are discarded. Replay allocates no storage: it lists the
    surviving tuples, and the engine's recovery path inserts them through
    the catalog, which gives them new TIDs and rebuilds every index. *)

type result = {
  survivors : (int * Rel.Tuple.t) list;
      (** [(rel_id, tuple)] of every version the redone transactions left
          live, in log order *)
  committed : Wal.txn list;
  discarded : Wal.txn list;
}

val replay : Wal.t -> result

val set_commit_filter : bool -> unit
(** Debug hook for the crash-torture harness: with the filter off, {!replay}
    redoes the effects of {e every} transaction in the log — committed,
    aborted, or in flight — a deliberately broken recovery the torture suite
    must detect. Never disable in normal operation. *)
