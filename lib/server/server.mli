(** The wire-protocol server: one shared {!Engine.t}, one {!Session.t} per
    connection, speaking {!Protocol} over a Unix-domain or TCP socket.

    The accept loop runs on its own domain; connection handlers run on the
    shared {!Rss.Domain_pool} and occupy their worker for the connection's
    lifetime; connections beyond the worker count queue until one closes.

    Starting the server flips the engine into latched mode
    ({!Engine.set_latched}) for the listener's lifetime: statements
    serialize on the engine latch, blocked lock requests wait on the engine
    condvar, SELECTs take shared relation locks. A handler exiting for any
    reason — disconnect, protocol violation, server stop — closes its
    session, aborting any in-flight transaction and releasing its locks. *)

type addr =
  | Unix_sock of string
  | Tcp of string * int

val addr_of_string : string -> addr
(** ["/path/to.sock"], ["host:port"] or [":port"] (loopback).
    @raise Invalid_argument on an unparsable port. *)

val addr_to_string : addr -> string

type t

val start : ?workers:int -> engine:Engine.t -> addr -> t
(** Bind, listen and spawn the accept domain. [workers] (default 4) grows
    the domain pool serving connections. [Tcp (_, 0)] binds an ephemeral
    port; read it back with {!addr}. *)

val addr : t -> addr
(** The resolved address (ephemeral TCP port filled in). *)

val engine : t -> Engine.t

val stop : t -> unit
(** Close the listener, disconnect every client (their sessions roll back
    and release locks), wait for every handler to finish, unlatch the
    engine. Idempotent. *)
