(** A session: one user's statements against a shared {!Engine.t}. N
    sessions share one engine (catalog, buffer pool, WAL, lock table,
    compiled-plan cache, MVCC status table); each session owns its active
    transaction, SET overrides, prepared statements and a counters record.
    Embedded programs use {!Database}, the engine's default session; the
    wire-protocol server creates one session per connection.

    Every statement runs the paper's fixed sequence — parse, optimize,
    execute — as one engine step: under the engine latch when the engine is
    in shared mode (see {!Engine.set_latched}), shared for SELECT and
    EXPLAIN and exclusive for everything else, with the session's counters
    record receiving the statement's I/O accounting.

    Isolation is snapshot-based. Every statement reads through an MVCC
    snapshot — the transaction's, taken at BEGIN, or a fresh statement
    snapshot — so readers take no locks and never see, or wait for, another
    session's uncommitted writes. Writers keep 2PL for write-write conflicts
    only: DML takes its relation Shared (DDL takes it Exclusive) plus an
    Exclusive lock per DELETE/UPDATE victim tuple, and the first committer
    wins — a victim found re-marked once its tuple lock is granted fails the
    statement with a serialization error. A blocked lock request waits on
    the engine's condition variable in shared mode and fails immediately
    otherwise.

    DML is logged to the write-ahead log. Without an explicit BEGIN each
    statement auto-commits; BEGIN ... COMMIT/ROLLBACK groups statements, and
    ROLLBACK undoes their effects (storage and indexes) in reverse order.
    The log can be replayed with {!Rss.Recovery.replay} after a crash
    (committed work only). *)

type t

exception Error of string
(** Any parse / semantic / execution failure, with a message. *)

val create : ?w:float -> ?counters:Rss.Counters.t -> ?serial_only:bool ->
  Engine.t -> t
(** [counters] defaults to the engine-global record (the embedded default
    session); the server passes a fresh record per connection, folded back
    into the global one by {!close}. [serial_only] pins plans to DOP 1
    regardless of SET PARALLELISM — required for sessions executing on
    {!Rss.Domain_pool} workers, which must never submit exchange subtasks. *)

val engine : t -> Engine.t
(** The shared engine under this session; further sessions may be created
    over it. *)

val catalog : t -> Catalog.t
val pager : t -> Rss.Pager.t

val wal : t -> Rss.Wal.t
(** The write-ahead log (append-only; serialize with {!Rss.Wal.to_bytes}). *)

val close : t -> unit
(** Abort any in-flight transaction, release its locks (waking waiters), and
    fold the session's counters into the engine-global record. Idempotent.
    A disconnected connection must never keep its locks. *)

val ctx : ?params:Rel.Value.t array -> t -> Ctx.t
(** Optimization context with this session's settings. [params] supplies
    bound parameter values for value-aware histogram estimates (the
    plan-cache path "peeks" at its extracted literals this way). *)

(** {2 Session settings}

    Each change flushes the shared plan cache (cached plans embed decisions
    made under the old setting); the settings signature baked into every
    cache key additionally keeps sessions with different settings from
    serving each other's plans. *)

val set_w : t -> float -> unit
(** The optimizer's W weighting of RSI calls against page fetches. *)

val set_parallelism : t -> int -> unit
(** Cap the degree of parallelism the optimizer may choose (SET PARALLELISM;
    initial value from [SYSTEMR_DOMAINS], default 1). Clamped to [>= 1]. *)

val parallelism : t -> int

val set_force_parallel : t -> bool -> unit
(** Debug/fuzz switch: wrap every shape-eligible plan at the full parallelism
    cap regardless of cost, so parallel execution is exercised on inputs the
    cost model would correctly run serially. *)

val set_histograms : t -> bool -> unit
(** SET HISTOGRAMS ON/OFF (default on): estimate selectivities from the
    per-column equi-depth histograms UPDATE STATISTICS collects. OFF pins
    the paper's value-independent TABLE 1 constants — and suspends the
    cardinality-feedback loop, which would also perturb them — so the seed
    benchmarks reproduce exactly. *)

val set_feedback : t -> bool -> unit
(** Enable/disable the cardinality-feedback loop independently of histogram
    estimation (default on; only active while histograms are on). An
    execution whose q-error — [max((est+1)/(act+1), (act+1)/(est+1))] —
    exceeds 4 counts as a gross misestimate and may record a corrected
    selectivity. *)

val last_feedback : t -> (float * int * float * bool) option
(** (estimated QCARD, actual rows, q-error, retired a cached plan) of the
    most recent feedback-observed execution; also surfaced by EXPLAIN. *)

(** {2 Compiled-plan cache}

    SELECT statements executed through {!exec} / {!query} are fingerprinted
    after canonicalization ({!Normalize.fingerprint}): statements differing
    only in WHERE literals share one parameterized plan, re-optimized only
    when a dependency's statistics version or feedback generation moves
    (UPDATE STATISTICS, index DDL, DROP/CREATE TABLE, or a recorded
    cardinality-feedback correction). Optimization peeks at the extracted
    literals for histogram estimates, so the cached plan is the one chosen
    for the literals first seen. {!query} additionally remembers statement
    text, so an exact repeat skips parsing and fingerprinting altogether.
    Both paths count a probe the same way. Hit/miss/invalidation counts
    surface through {!Rss.Counters} and the EXPLAIN output. On by
    default. *)

val set_plan_cache : t -> bool -> unit
(** Disabling also clears the cache. *)

val set_plan_cache_validation : t -> bool -> unit
(** Debug hook for the fuzz harness: with validation off the cache serves
    entries without checking their dependencies' stats versions, so stale
    plans survive DDL. Never disable in normal operation. *)

val plan_cache_size : t -> int

val cached_plan : t -> string -> Optimizer.result option
(** Probe the cache for the plan this SELECT would be served (no counter
    updates; a stale entry found by the probe is evicted). [None] on miss or
    when the statement is uncacheable. *)

val in_transaction : t -> bool

(** {2 Statements} *)

type result =
  | Rows of Executor.output
  | Text of string      (** EXPLAIN output *)
  | Done of string      (** DDL/DML/transaction acknowledgement *)

val exec : t -> string -> result
(** Execute one SQL statement (including BEGIN / COMMIT / ROLLBACK). *)

val exec_script : t -> string -> result list
(** Semicolon-separated statements, each its own engine step. *)

val query : t -> string -> Executor.output
(** Run a SELECT. @raise Error, before executing anything, when the
    statement is not a SELECT. *)

val explain : t -> string -> string

val resolve : t -> string -> Semant.block
(** Parse and resolve a SELECT without running it. *)

val optimize : ?ctx:Ctx.t -> t -> string -> Optimizer.result
(** Parse, resolve and optimize a SELECT. *)

val run_plan : t -> Optimizer.result -> Executor.output

val update_statistics : t -> unit

val commit : t -> int
(** COMMIT the explicit transaction; returns its id. *)

(** {2 Integrity & crash recovery} *)

val check_integrity : t -> (unit, string) Stdlib.result
(** Heap/index cross-check over every relation: each index entry must resolve
    through the segment to a live tuple of the right relation whose key
    matches, and the entry multiset must equal the keys computed from a full
    heap scan. [Error msg] pinpoints the first inconsistency. Leaves the I/O
    counters untouched. *)

val recover : t -> string -> int
(** [recover t bytes] rebuilds the engine's data from a serialized WAL
    ({!Rss.Wal.to_bytes}): committed transactions are replayed
    ({!Rss.Recovery.replay}), every relation's heap is replaced by the
    replayed tuples, and all indexes are rebuilt over the new TIDs. Any
    in-flight transaction state, locks and cached plans are discarded, and
    the WAL is reset to a single committed checkpoint transaction describing
    the recovered state. Returns the number of tuples restored. The catalog
    (schemas, indexes) is not recovered from the log — callers re-run DDL
    first; relations are matched by creation order (rel_id). Embedded-only:
    never call with other live sessions — the lock table is replaced,
    orphaning any waiter. *)

(** {2 Prepared statements}

    The paper's closing argument: "application programs are compiled once and
    run many times — the cost of optimization is amortized over many runs."
    A SELECT containing [?] placeholders is parsed, resolved and optimized
    once; each execution binds the placeholders. Placeholder predicates are
    sargable (the value is constant per run) and can match indexes — their
    selectivity cannot use a specific value (none is known at prepare time),
    so equal predicates estimate as the average per-value frequency
    ((1 - NULL fraction) / distinct from the histogram, else TABLE 1's
    1/ICARD) and ranges fall back to the value-independent defaults.

    A prepared statement keeps its optimized plan outside the keyed plan
    cache but validates it the same way: the dependency versions captured at
    optimize time are checked before every execution, and the plan silently
    re-optimizes (from the retained statement text) when UPDATE STATISTICS,
    index DDL or another session's feedback correction moved a dependency.
    The server's Bind/Execute path therefore re-parses only on that rare
    invalidation, never in the steady state. *)

type prepared

val prepare : t -> string -> prepared
(** @raise Error on parse/resolution/optimization failure. *)

val prepared_param_count : prepared -> int
val prepared_plan : prepared -> Optimizer.result

val prepared_generation : prepared -> int
(** Number of revalidation re-optimizations since prepare. *)

val execute_prepared : t -> prepared -> Rel.Value.t list -> Executor.output
(** @raise Error when the binding count differs from the placeholder count. *)
