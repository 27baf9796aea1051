(** Temporary lists.

    An internal tuple container that is cheaper than a relation but can only
    be accessed sequentially — the form sort runs and sort outputs take. A
    list is built complete and sealed in one call ({!of_array} or
    {!of_dispenser}); it is never appended to afterwards. Contents are
    materialized on temp pages: building charges one page write per page,
    and reading through {!cursor} charges one buffered access per page. *)

type t

val of_array : Pager.t -> Rel.Tuple.t array -> t
(** Seal a complete tuple array directly: the array is sliced at page-size
    boundaries into the sealed pages with no per-tuple list traffic, and
    each page's write is charged. The sort's run formation feeds its
    [Array.stable_sort]ed runs through this. *)

val of_dispenser : Pager.t -> (unit -> Rel.Tuple.t option) -> t
(** Seal a tuple stream of unknown length: tuples are buffered one page at a
    time and each page cut is an exact array, so nothing larger than a page
    is ever allocated. The sort's k-way merges pipe their output through
    this. Pages are cut, and writes charged, exactly as by {!of_array}. *)

val length : t -> int
val page_count : t -> int  (** TEMPPAGES *)

val cursor : t -> unit -> Rel.Tuple.t option
(** Sequential dispenser over the sealed pages — index arithmetic only, no
    closure per element — charging one page access as it enters each page.
    One-shot (call again for a fresh pass). *)
