(** Protocol client (used by [systemr_cli --connect], the server bench and
    the protocol tests).

    The primitives split into {!send} / {!flush} / {!read_reply} so callers
    can pipeline: write a batch of requests, flush once, read the batch of
    replies. Every request is answered by a frame sequence ending in Ready,
    so replies stay in lockstep with requests. *)

exception Disconnected
(** Server closed the connection mid-reply. *)

type t

type reply = {
  columns : string list;
  rows : Rel.Tuple.t list;
  tag : string;  (** command tag; [""] when the reply carries none *)
  param_count : int option;  (** from Parse_ok *)
  suspended : bool;  (** portal not exhausted; {!fetch} continues it *)
  error : string option;
}

val connect : Server.addr -> t
(** Dial, perform the Startup handshake. @raise Failure when refused. *)

val close : t -> unit
(** Orderly: Terminate, flush, close. *)

val abandon : t -> unit
(** Drop the socket without Terminate — simulates a crashed client; the
    server must roll back and release locks. *)

(** {2 Pipelined primitives} *)

val send : t -> Protocol.client_msg -> unit
val flush : t -> unit
val read_reply : t -> reply
val io : t -> Protocol.io
(** Raw access for tests that forge malformed frames. *)

(** {2 Synchronous conveniences} *)

val simple : t -> string -> reply
val parse : t -> name:string -> string -> reply
val execute : t -> ?fetch:int -> ?params:Rel.Value.t list -> string -> reply
(** [?params] binds values in the Execute frame — one message per call.
    Without it the statement runs with no bindings. Execute replies carry
    no row description (it is fixed at Parse time). *)

val fetch : t -> int -> reply
val close_stmt : t -> string -> reply

val ok : reply -> reply
(** @raise Failure when the reply carries a statement error. *)
