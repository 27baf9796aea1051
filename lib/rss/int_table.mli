(** Hash tables keyed by [int] under the identity hash. Page ids and
    transaction ids are counters, so their low bits already spread evenly;
    the generic [Hashtbl]'s [caml_hash] and polymorphic compare are pure
    overhead on the page-touch path. *)

include Hashtbl.S with type key = int
