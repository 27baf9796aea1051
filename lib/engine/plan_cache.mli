(** Compiled-plan cache with precise statistics-version invalidation: the
    one store of every cached plan. Entries are keyed by a session's
    settings signature and a statement's shape ({!Normalize.canonicalize}):
    a Simple SELECT, a prepared statement with [?] in the same places and
    the victim search of a DELETE / UPDATE share one parameterized plan.
    Each entry remembers the [stats_version] and [feedback_gen] of every
    relation its blocks scan; a probe revalidates against the live catalog,
    so UPDATE STATISTICS, index DDL, or a runtime cardinality-feedback
    correction retires exactly the plans depending on the changed relation,
    and a dropped or recreated table (rel_id change) can never serve a
    stale plan. *)

type t

type probe =
  | Hit of Optimizer.result  (** valid cached plan, execute with rebinding *)
  | Miss                     (** nothing cached *)
  | Invalidated              (** cached plan found stale and evicted *)

val create : unit -> t

(** {2 LRU bound}

    Both the plan table and the statement-text memo are bounded (default
    512 entries each): inserting past the cap evicts the
    least-recently-used entry, so long-lived server sessions replace rather
    than grow. SET PLAN_CACHE_SIZE adjusts the bound at runtime. *)

val set_cap : t -> int -> unit
(** Clamp to [>= 1]; shrinks immediately when below the current size. *)

val cap : t -> int
val text_size : t -> int

val set_evict_hook : t -> (int -> unit) -> unit
(** Called with the eviction count whenever the LRU bound discards entries;
    the engine wires this to the active {!Rss.Counters} record. *)

val clear : t -> unit
(** Drop every entry (crash recovery replaces every relation's heap). *)

val size : t -> int

val set_validation : t -> bool -> unit
(** Debug hook: with validation off, probes skip the dependency check and
    serve whatever is cached, stale or not. Exists so the differential fuzz
    harness can demonstrate that it detects stale-plan corruption; never
    disable in normal operation. *)

val find :
  ?bind:Rel.Value.t array * (unit -> unit) -> t -> Catalog.t -> string -> probe
(** With [bind = (params, check)], a valid entry that has not yet passed
    [params]'s type vector runs [check] (which raises the bound literal
    statement's error) under the cache's lock, then records it as passed. *)

val store : ?passed:Rel.Value.t array -> t -> string -> Optimizer.result -> unit
(** Dependencies are captured from the result's blocks at store time;
    [passed] is a binding already type-checked against the plan. *)

(** {2 Statement-text layer}

    Identical statement text always canonicalizes to the same key and
    parameter vector, so remembering [text -> (key, values)] lets a repeat
    of the exact same string skip parsing and canonicalizing — the hit path
    becomes a hash lookup plus the stats_version check. *)

val memo_text : t -> sql:string -> key:string -> values:Rel.Value.t array -> unit
val text_entry : t -> string -> (string * Rel.Value.t array) option
