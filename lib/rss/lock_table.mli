(** Lock manager.

    The RSS is responsible for locking in a multi-user environment. We
    implement hierarchical S/X locking at relation and tuple granularity with
    wait-for-graph deadlock detection. A conflicting request is queued and
    reported [Blocked]; the caller decides whether to wait for it or to
    give up, which aborts its transaction, and {!release_all} then drops
    the queued request with its locks. The served engine waits: the session
    sleeps on the engine's [locks_changed] condition, surrendering its write
    latch, until a release promotes its request. Queued requests are
    granted in arrival order as releases make them compatible.

    An entry lives exactly as long as some transaction holds or awaits it,
    so the table's size is the number of resources currently locked or
    waited on. Each transaction keeps an index of its resources, so
    {!release_all} costs time proportional to the locks that transaction
    touched, not to the size of the table. *)

type txn = int

type resource =
  | Relation of int
  | Tuple_of of int * Tid.t  (** relation id, tuple id *)

type mode = Shared | Exclusive

type outcome =
  | Granted
  | Blocked of txn list  (** transactions currently holding conflicting locks *)
  | Deadlock of txn list (** the wait-for cycle that granting would create *)

type t

val create : unit -> t

val acquire : t -> txn -> resource -> mode -> outcome
(** Re-acquiring a held lock is granted; a Shared→Exclusive upgrade is
    granted only when no other holder exists {e and} the queue is empty —
    an upgrade never jumps an already-queued request. Waits-for edges
    cover conflicting holders and queued requests alike, so an upgrade
    that would mutually wait with a queued Exclusive (or with another
    upgrading Shared holder) reports [Deadlock] immediately. A [Blocked]
    request is queued. *)

val release_all : t -> txn -> unit
(** Release every lock of the transaction (two-phase commit point) and grant
    any queued requests that became compatible, in arrival order. Visits
    only the resources the transaction held or was queued on. *)

val holds : t -> txn -> resource -> mode -> bool

val holders : t -> resource -> (txn * mode) list
val waiting : t -> resource -> (txn * mode) list
val granted_since : t -> txn -> (txn * resource * mode) list
(** Requests granted by the last {!release_all} (so a test harness can
    resume them), newest first. Reversed, the grants on one resource follow
    arrival order, and resources follow the order in which the releasing
    transaction first touched them. *)

val length : t -> int
(** Number of live entries: resources some transaction holds or awaits. *)
