(** The embedded API: a {!Session} over an engine of its own. Examples, the
    CLI, benches and tests program against it; the wire-protocol server
    creates further sessions over the same {!Session.engine}. *)

include module type of struct include Session end

val create : ?buffer_pages:int -> ?w:float -> unit -> t
(** A fresh engine and its default session, which accounts into the
    engine-global counters. *)
