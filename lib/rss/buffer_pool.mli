(** LRU buffer pool over page identifiers.

    The pool does not own page contents (pages live in the pager); it decides
    whether touching a page is a hit or a miss, which is exactly what the
    cost model's "page fetch" means. Capacity is in pages — the paper's
    "effective buffer pool per user". *)

type t

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val capacity : t -> int
val resident : t -> int

val touch : t -> int -> [ `Hit | `Miss ]
(** Access a page: [`Hit] if resident, otherwise [`Miss] (the page is brought
    in, evicting the least recently used page when full). *)

val set_latched : t -> bool -> unit
(** While latched, {!touch} serializes under an internal mutex so sessions
    on several domains may share the pool. Unlatched (the default), touch is
    the bare serial fast path. Toggled by {!Pager.set_shared} while no
    statement runs. *)

val contains : t -> int -> bool
val evict_all : t -> unit
(** Empty the pool (used between measured runs for cold-cache experiments). *)
