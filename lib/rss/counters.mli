(** I/O and CPU accounting.

    The optimizer's cost model predicts COST = PAGE_FETCHES + W * RSI_CALLS;
    these counters measure the same two quantities during execution so
    predictions can be validated (bench T2, S7b). A page fetch is a buffer
    pool miss; a buffer hit costs nothing.

    [sort_runs] and [merge_passes] record external-sort spill behaviour —
    how many initial sorted runs were written and how many merge levels it
    took to combine them — so observed TEMPPAGES traffic can be put next to
    the cost model's C-sort prediction ({!Sort.passes}). *)

type t = {
  mutable page_fetches : int;  (** buffer pool misses *)
  mutable buffer_hits : int;
  mutable rsi_calls : int;     (** tuples returned across the RSS interface *)
  mutable pages_written : int; (** temp-list / sort output pages *)
  mutable sort_runs : int;     (** initial sorted runs spilled by external sorts *)
  mutable merge_passes : int;  (** merge levels performed over those runs *)
  mutable plan_cache_hits : int;
      (** statements served from the compiled-plan cache *)
  mutable plan_cache_misses : int;
      (** statements optimized from scratch (no usable cached plan); every
          probe is a hit or a miss, so hits + misses counts the probes *)
  mutable plan_cache_invalidations : int;
      (** cached plans discarded because a dependency's stats_version moved;
          each such probe also counts as a miss, so these are a subset of
          the misses, not extra probes (EXPLAIN prints
          [misses=M (invalidated I)]) *)
  mutable plan_cache_evictions : int;
      (** cached plans (or text-memo entries) evicted by the cache's LRU
          bound (SET PLAN_CACHE_SIZE) — long-lived sessions replace, they
          do not grow *)
  mutable feedback_misestimates : int;
      (** executions whose actual output cardinality missed the optimizer's
          estimate by more than the feedback q-error threshold *)
  mutable feedback_retirements : int;
      (** misestimates that recorded a corrected selectivity and bumped a
          relation's feedback generation, retiring the plans costed under
          the stale estimate *)
  mutable group_commits : int;
      (** commits whose durability rode a shared group-commit flush *)
  mutable wal_flushes : int;
      (** WAL flush boundaries this session paid for (as group leader, or
          per-commit when group commit is off) *)
  mutable subquery_calls : int;
      (** predicate-level nested-block invocations *)
  mutable subquery_evals : int;
      (** nested blocks actually executed (calls the executor's subquery
          cache did not answer) *)
  mutable statements_parsed : int;
      (** statements a session ran through the parser: a Simple statement
          parses one, an Execute of a prepared statement none *)
  mutable nodes_compiled : int;
      (** plan nodes compiled into cursors: once per node per execution,
          whatever the number of times a nested-loop inner is opened *)
}

val create : unit -> t
val reset : t -> unit
val snapshot : t -> t

val restore : t -> from:t -> unit
(** Copy every field of [from] into [t] — paired with {!snapshot} to exempt
    an unmeasured operation (DDL bulk-load, recovery, integrity checking)
    from I/O accounting. *)

val add : t -> into:t -> unit
(** Component-wise accumulation of [t] into [into] — how a session's
    domain-local counters fold back into the pager's engine-global record
    when the session closes ({!Pager.base_counters}). *)

val diff : after:t -> before:t -> t
(** Component-wise difference; for measuring one operation. *)

val cost : w:float -> t -> float
(** [page_fetches + pages_written + w * rsi_calls] — the paper's cost metric
    applied to measured counts. *)

val pp : Format.formatter -> t -> unit
(** The I/O, plan-cache, feedback and commit counters; the subquery, parse
    and compile counts are not printed. *)
