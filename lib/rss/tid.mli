(** Tuple identifiers: the RSS addresses a tuple by the page that holds it and
    its slot within that page, packed into one immediate int
    ([page lsl 16 lor slot]). B-tree leaves, segments, WAL records, locks and
    undo entries all hold this one value; nothing allocates to carry a TID. *)

type t = private int

val make : page:int -> slot:int -> t
(** A page holds at most [Page.size / 8] slots, far below the 16-bit slot
    field.
    @raise Invalid_argument on a page outside [0, max_int lsr 16] or a slot
    outside [0, 2{^16}). *)

val page : t -> int
val slot : t -> int

val compare : t -> t -> int
(** Int order, which is lexicographic (page, slot) order. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
