(** Wire protocol: length-prefixed binary frames.

    [frame := u32 length (big-endian, covers the rest) | u8 type | payload].
    Scalars are big-endian, strings u32-length-prefixed, values travel in
    the storage layer's serialization ({!Rel.Value.write}).

    The conversation is Postgres-shaped: {!client_msg.Startup} opens, and
    every subsequent request is answered by a frame sequence ending in
    {!server_msg.Ready} — so a client can pipeline N requests and count N
    Ready frames back. Statement failures answer [Err] then [Ready] and the
    connection stays usable; protocol violations raise {!Malformed} on the
    receiving side, which answers [Err] and drops the connection. *)

exception Malformed of string

exception Disconnected
(** The peer vanished while bytes were still owed to it: raised when a
    {!flush} (or the implicit flush inside a recv) hits [EPIPE]/[ECONNRESET].
    The read side normalizes an abortive close to the orderly-EOF [None]
    instead. *)

val version : int

type client_msg =
  | Startup of int  (** protocol version *)
  | Simple of string  (** one SQL statement, any kind *)
  | Parse of { name : string; sql : string }
  | Execute of { name : string; params : Rel.Value.t list option; fetch : int }
      (** [fetch = 0]: stream the whole result; [> 0]: open a portal and
          return at most [fetch] rows, the rest via {!Fetch}. [Some vs]
          binds [vs] for this call (one frame per call); [None] runs with
          no bindings *)
  | Fetch of int
  | Close_stmt of string
  | Terminate

type server_msg =
  | Ready
  | Parse_ok of int  (** placeholder count *)
  | Row_desc of string list
  | Row_batch of Rel.Tuple.t list
  | Complete of string  (** command tag, e.g. ["SELECT 42"] *)
  | Suspended  (** portal not exhausted; Fetch continues it *)
  | Err of string

val encode_client : client_msg -> char * string
val decode_client : char -> string -> client_msg
val encode_server : server_msg -> char * string
val decode_server : char -> string -> server_msg

(** {2 Buffered frame I/O}

    Both directions are buffered; {!recv_client}/{!recv_server} flush
    pending output only before actually blocking on the descriptor, so
    pipelined request batches cost one [write(2)] per drained input batch. *)

type io

val io_of_fd : Unix.file_descr -> io
val fd : io -> Unix.file_descr

val send : io -> server_msg -> unit
val send_client : io -> client_msg -> unit

val send_raw : io -> string -> unit
(** Append raw bytes to the output buffer — the malformed-stream tests forge
    broken frames with this. *)

val flush : io -> unit

val recv_client : io -> client_msg option
val recv_server : io -> server_msg option
(** Blocking; [None] on orderly EOF. @raise Malformed on a corrupt stream. *)
