(** The pager owns every page in the store — data pages (slotted tuple pages
    inside segments), index pages (B-tree nodes) and temporary-list pages —
    under one page-id namespace, and routes every access through one buffer
    pool so that page-fetch accounting covers all page kinds uniformly. *)

type t

val create : ?buffer_pages:int -> unit -> t
(** [buffer_pages] defaults to 64 ("effective buffer pool per user"). *)

val counters : t -> Counters.t
(** The counters record accounting currently lands in — the engine-global
    record, unless a {!with_counters} redirection is in effect. *)

val base_counters : t -> Counters.t
(** The engine-global record, regardless of any active redirection. Session
    records fold into this one at session close ({!Counters.add}). *)

val with_counters : t -> Counters.t -> (unit -> 'a) -> 'a
(** [with_counters t c f] runs [f] with this {e domain}'s accounting
    (including the {!counters} accessor) redirected to [c], restoring the
    previous target when [f] returns or raises. Sessions wrap each statement
    in this; because the redirection is domain-local, concurrent reader
    statements on different domains each write their own record without
    synchronization. *)

val buffer_pages : t -> int

val alloc_data_page : t -> Page.t
(** Allocate a fresh slotted data page. *)

val alloc_page_id : t -> int
(** Allocate a page id with no slotted contents (B-tree nodes and temp pages
    keep their own in-memory representation but still occupy buffer slots). *)

val data_page : t -> int -> Page.t
(** Direct access without I/O accounting (page maintenance, recovery).
    @raise Not_found when the id is not a data page. *)

val touch : t -> int -> unit
(** Buffered access to a page of any kind: counts a fetch on a miss, a hit
    otherwise. *)

val note_page_written : t -> unit
(** Record one page written to a temporary list or sort output. *)

val note_rsi_call : t -> unit

val note_sort_run : t -> unit
(** Record one initial sorted run spilled by an external sort. *)

val note_merge_pass : t -> unit
(** Record one merge level performed over a sort's runs. *)

val evict_all : t -> unit
(** Cold the cache (bench harness between runs). *)

val set_shared : t -> bool -> unit
(** Multi-session (server) mode: latch the buffer pool while on, since
    concurrent reader statements touch it from several domains. *)
