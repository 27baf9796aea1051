(** Process-wide pool of worker domains that run the server's connection
    handlers.

    The pool grows on demand up to a small cap and is never torn down; idle
    workers block on the task queue. A submitted task runs on an arbitrary
    worker and occupies it until it returns; tasks beyond the worker count
    queue until a worker frees up. *)

val ensure : int -> unit
(** Grow the pool to at least [min n max_workers] workers (never shrinks). *)

val submit : (unit -> unit) -> unit
(** Enqueue a task; spawns the first worker if the pool is empty. An
    exception escaping the task is dropped; a task that must report its
    outcome does so itself. *)
