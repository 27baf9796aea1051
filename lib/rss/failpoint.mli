(** Deterministic failpoints for crash-recovery torture testing.

    A failpoint is a named site threaded through a durability-relevant write
    path ([Wal.append], [Wal.flush] — the ["wal.group_flush"] batch
    durability boundary — pager allocation, buffer-pool eviction, segment
    insert/delete, B-tree splits). In normal operation every site is inert —
    {!hit} is a single branch on a global flag. A torture harness drives the
    registry through three phases:

    + {b count}: run the workload once with {!count_only} active; every site
      records how many times it is hit, enumerating the crash points the
      workload exposes;
    + {b crash}: re-run with {!arm} [(site, n)]; the [n]-th hit of [site]
      raises {!Crash} — the simulated kill point — and freezes the registry
      ({!halted} becomes true, so e.g. the WAL rejects the appends an
      in-process unwind handler would attempt after the "machine died");
    + {b recover}: {!reset} everything and replay the surviving log.

    The registry is global (sites live in code that has no handle to thread a
    registry through) and is {b single-domain-only}: arming asserts it runs
    on the main domain, and every plan runs serially on the domain that
    opened it. Other domains therefore only ever read the inert fast-path
    flag. *)

exception Crash of string
(** Raised by {!hit} at the armed trigger; the payload is the site name. *)

val hit : string -> unit
(** Record a hit at a named site. Near-free when the registry is inactive or
    {!halted}; otherwise counts the hit and raises {!Crash} when the armed
    trigger fires. *)

val halted : unit -> bool
(** A {!Crash} has fired since the last {!reset}: the simulated machine is
    dead. Durable media (the WAL) must refuse writes while halted. *)

val reset : unit -> unit
(** Return to the inert state: mode off, halted cleared, all counters zeroed. *)

val count_only : unit -> unit
(** Zero all counters and start counting hits without ever crashing. *)

val arm : site:string -> at:int -> unit
(** Zero all counters and crash at the [at]-th hit (1-based) of [site]. *)

val disarm : unit -> unit
(** Stop counting and crashing but keep the counters — the counting pass
    ends with this so the harness can read its results. *)

val hits : string -> int
(** Hits recorded at the site since the last counter reset. *)

val counts : unit -> (string * int) list
(** All sites with a nonzero count, sorted by site name. *)

val assert_main_domain : string -> unit
(** Guard for single-domain-only global state ([what] names the operation in
    the error). Used here by the arming entry points and exported for the
    other debug registries ({!Btree.set_order_override}).
    @raise Invalid_argument off the main domain. *)
