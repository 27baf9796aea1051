(* The embedded API: the engine's default session, over an engine of its
   own. *)

include Session

let create ?buffer_pages ?w () = Session.create ?w (Engine.create ?buffer_pages ())
