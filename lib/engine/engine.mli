(** The shared half of the former [Database]: one engine — catalog, buffer
    pool, WAL, lock table, compiled-plan cache, transaction-id fountain,
    MVCC status table — serving N {!Session}s. Embedded use keeps one
    implicit session behind the [Database] facade; the wire-protocol server
    creates one session per connection over the same engine.

    Synchronization is latched-only-when-concurrent, mirroring the buffer
    pool's PR-6 treatment: the latch operations are plain calls until
    {!set_latched} flips the engine into shared mode (the server does, for
    the lifetime of its listener). In shared mode the engine latch is a
    reader/writer latch: mutating statements hold it exclusively, read-only
    statements hold it shared and run concurrently — their isolation comes
    from MVCC snapshots ({!mvcc}), not S locks, so readers never block on
    writers. Blocked 2PL lock requests wait on the engine's condition
    variable (released locks broadcast), surrendering the write latch for
    the duration. *)

type t = {
  cat : Catalog.t;
  wal : Rss.Wal.t;
  mutable locks : Rss.Lock_table.t;
  plan_cache : Plan_cache.t;
  mvcc : Rss.Mvcc.t;
  mutable next_txn : int;
  latch : Mutex.t;
  latch_changed : Condition.t;
  locks_changed : Condition.t;
  mutable readers : int;
  mutable writer : bool;
  mutable writers_waiting : int;
  mutable latched : bool;
  mutable live_sessions : int;
  gc_m : Mutex.t;
  gc_cond : Condition.t;
  mutable gc_next_ticket : int;
  mutable gc_queue : (int * int) list;
  mutable gc_inflight : (int * int) list;
  mutable gc_durable : int;
  mutable gc_leader : bool;
  mutable gc_enabled : bool;
  mutable gc_delay : float;
  mutable gc_hold : bool;
  mutable gc_enqueued : int;
  mutable gc_flushes : int;
  mutable gc_grouped : int;
  mutable gc_max_batch : int;
  blocked_changed : Condition.t;
  mutable block_events : int;
}

val create : ?buffer_pages:int -> unit -> t

val catalog : t -> Catalog.t
val pager : t -> Rss.Pager.t
val wal : t -> Rss.Wal.t
val plan_cache : t -> Plan_cache.t
val mvcc : t -> Rss.Mvcc.t

val set_latched : t -> bool -> unit
(** Enter/leave shared mode (also keeps the buffer pool latched while on).
    Flip on before any second session executes concurrently; flip off only
    when at most one session remains. *)

val latched : t -> bool

val with_latch : t -> (unit -> 'a) -> 'a
(** Run holding the engine latch exclusively in shared mode; a plain call
    otherwise. Every engine-state mutation — DML, DDL, transaction control,
    session open/close, VACUUM — goes through this. Does not nest. *)

val with_read_latch : t -> (unit -> 'a) -> 'a
(** Run holding the engine latch shared: concurrent with other readers,
    excluded from writers (with writer preference). Read-only statement
    execution goes through this. Does not nest with {!with_latch}. *)

val wait_locks : t -> unit
(** Block until some transaction releases locks; caller must hold the write
    latch (it is surrendered for the duration of the wait and re-acquired
    before returning). Only meaningful in shared mode. *)

val signal_locks : t -> unit
(** Broadcast to lock waiters (no-op when unlatched). Call after every
    {!Rss.Lock_table.release_all}. *)

val fresh_txn_id : t -> int
(** Allocate a transaction id; call under the write latch. *)

(** {1 Group commit}

    Committing sessions enqueue under the engine write latch (so ticket
    order = MVCC visibility order = WAL commit-record order) and block in
    {!await_durable}; the first waiter with no leader in place becomes
    leader, sleeps out the {!set_commit_delay} window with the latch free so
    later commits join, appends every queued commit record in enqueue order,
    and performs the one {!Rss.Wal.flush}. Acks release only after the batch
    is durable; a leader whose flush fails hands leadership to a waiting
    follower, which retries the still-buffered batch. *)

val enqueue_commit : t -> int -> int
(** [enqueue_commit t txn] (under the write latch, at commit time) joins the
    current commit window; returns the durability ticket to pass to
    {!await_durable}. *)

val await_durable : t -> Rss.Counters.t -> int -> unit
(** Block (outside the latch) until the ticket's commit record is durable,
    becoming leader if no one is flushing. Counters receive the
    [wal_flushes] this session leads. No-op under {!set_group_hold} or after
    a simulated crash ({!Rss.Failpoint.halted}). *)

val flush_group : t -> Rss.Counters.t -> int list
(** Run one leader pass explicitly: drain the queue, append, flush once.
    Returns the transactions whose commit acks that flush released — the
    torture harness's definition of "acknowledged". *)

val set_group_hold : t -> bool -> unit
(** Harness hook (unlatched engines only): while on, {!await_durable}
    returns immediately and commits accumulate in the queue until a
    {!flush_group} — how the torture harness builds multi-commit batches
    deterministically. *)

val set_group_commit : t -> bool -> unit
(** Off: every commit appends and flushes privately under the latch (the
    per-commit baseline group commit is measured against). Default on. *)

val group_commit_enabled : t -> bool

val set_commit_delay : t -> float -> unit
(** Leader batching window in seconds (clamped at 0). *)

val commit_delay : t -> float

type gc_stats = {
  enqueued : int;         (** commits that entered the group-commit queue *)
  durable_ticket : int;   (** highest ticket whose commit record is durable *)
  flushes : int;          (** group flushes performed *)
  grouped_commits : int;  (** commits made durable by those flushes *)
  max_batch : int;        (** largest single batch *)
}

val group_commit_stats : t -> gc_stats
(** Safe to read while a leader is mid-flush (takes only the gc mutex). *)

val reset_group : t -> unit
(** Discard queued/in-flight commit state after recovery replaced the WAL. *)

(** {1 Blocked-transaction events}

    Deflaked test synchronization: a session whose 2PL request is Blocked
    bumps an event counter before sleeping, so tests wait for "some
    transaction is queued" on a condition variable instead of polling. *)

val note_blocked : t -> unit
val block_epoch : t -> int
val await_block_epoch : t -> int -> unit
(** [await_block_epoch t e] blocks until the event counter exceeds [e]
    (capture [e] with {!block_epoch} {e before} issuing the statement that
    should block). *)
