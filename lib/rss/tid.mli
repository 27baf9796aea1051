(** Tuple identifiers: the RSS addresses a tuple by the page that holds it and
    its slot within that page. B-tree leaves store TIDs packed into one
    immediate int ({!pack}). *)

type t = {
  page : int;
  slot : int;
}

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

val pack : t -> int
(** [page lsl 16 lor slot]: one unboxed int whose integer order is
    {!compare}'s order. A page holds at most [Page.size / 8] slots, far
    below the 16-bit slot field.
    @raise Invalid_argument on a page outside [0, max_int lsr 16] or a
    slot outside [0, 2{^16}). *)

val unpack : int -> t
(** Inverse of {!pack}. *)
