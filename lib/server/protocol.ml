(* Wire protocol: length-prefixed binary frames over a byte stream.

     frame := u32 length (big-endian, covers the rest) | u8 type | payload

   Payload scalars are big-endian; strings are u32-length-prefixed; values
   reuse the storage layer's serialization (Rel.Value.write/read), so a row
   travels in exactly the bytes the segment layer would store.

   The conversation is Postgres-shaped: the client opens with Startup and
   every subsequent request is answered by a frame sequence ending in Ready
   — which is what makes pipelining trivial (write N requests, count N
   Ready frames back). Statement errors answer Err then Ready and leave the
   connection usable; protocol errors (bad magic, bad frame type, bad
   lengths) answer Err and drop the connection.

   The Io layer buffers both directions and flushes pending output only
   when it would otherwise block reading the next request: back-to-back
   pipelined requests are answered with one write(2) per drained input
   batch, not one per response. *)

exception Malformed of string
exception Disconnected

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

(* Version 2: Execute carries its bindings; there is no Bind frame. *)
let version = 2
let magic = 0x53595352 (* "SYSR" *)

let max_frame = 1 lsl 26
(* 64 MiB: a frame length beyond this is a corrupt or hostile stream, not a
   big result — results are batched well below it *)

(* --- payload encoding ----------------------------------------------------- *)

let put_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))

let put_u16 b n =
  put_u8 b (n lsr 8);
  put_u8 b n

let put_u32 b n =
  put_u16 b (n lsr 16);
  put_u16 b n

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_value = Rel.Value.write

(* --- payload decoding ----------------------------------------------------- *)

(* A cursor decodes a payload in place from a larger backing string (the
   receive buffer): [c_end] bounds this frame, so no per-frame payload copy. *)
type cursor = { c_buf : string; mutable c_pos : int; c_end : int }

let cursor s = { c_buf = s; c_pos = 0; c_end = String.length s }

let need c n = if c.c_pos + n > c.c_end then malformed "truncated payload"

let get_u8 c =
  need c 1;
  let n = Char.code c.c_buf.[c.c_pos] in
  c.c_pos <- c.c_pos + 1;
  n

let get_u16 c =
  let hi = get_u8 c in
  (hi lsl 8) lor get_u8 c

let get_u32 c =
  let hi = get_u16 c in
  (hi lsl 16) lor get_u16 c

let get_str c =
  let n = get_u32 c in
  if n > max_frame then malformed "oversized string";
  need c n;
  let s = String.sub c.c_buf c.c_pos n in
  c.c_pos <- c.c_pos + n;
  s

let get_value c =
  need c 1;
  match Rel.Value.read (Bytes.unsafe_of_string c.c_buf) c.c_pos with
  | v, pos ->
    if pos > c.c_end then malformed "truncated value";
    c.c_pos <- pos;
    v
  | exception Invalid_argument msg -> malformed "bad value encoding: %s" msg

let get_done c =
  if c.c_pos <> c.c_end then malformed "trailing payload bytes"

(* --- messages ------------------------------------------------------------- *)

type client_msg =
  | Startup of int  (** protocol version *)
  | Simple of string  (** one SQL statement, any kind *)
  | Parse of { name : string; sql : string }
  | Execute of { name : string; params : Rel.Value.t list option; fetch : int }
      (** [fetch = 0]: stream the whole result; [> 0]: open a portal and
          return at most [fetch] rows, the rest via {!Fetch}. [params]
          binds for this call — the steady-state hot path is one Execute
          frame per call; [None] runs with no bindings *)
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

let encode_values b vs =
  put_u16 b (List.length vs);
  List.iter (put_value b) vs

let decode_values c =
  let n = get_u16 c in
  List.init n (fun _ -> get_value c)

let encode_client_into b msg =
  let typ =
    match msg with
    | Startup v ->
      put_u32 b magic;
      put_u16 b v;
      'S'
    | Simple sql ->
      put_str b sql;
      'Q'
    | Parse { name; sql } ->
      put_str b name;
      put_str b sql;
      'P'
    | Execute { name; params; fetch } ->
      put_str b name;
      put_u32 b fetch;
      (match params with
       | None -> put_u8 b 0
       | Some vs ->
         put_u8 b 1;
         encode_values b vs);
      'E'
    | Fetch n ->
      put_u32 b n;
      'F'
    | Close_stmt name ->
      put_str b name;
      'C'
    | Terminate -> 'X'
  in
  typ

let encode_client msg =
  let b = Buffer.create 64 in
  let typ = encode_client_into b msg in
  (typ, Buffer.contents b)

let decode_client_at typ c =
  let msg =
    match typ with
    | 'S' ->
      let m = get_u32 c in
      if m <> magic then malformed "bad startup magic";
      Startup (get_u16 c)
    | 'Q' -> Simple (get_str c)
    | 'P' ->
      let name = get_str c in
      Parse { name; sql = get_str c }
    | 'E' ->
      let name = get_str c in
      let fetch = get_u32 c in
      let params =
        match get_u8 c with
        | 0 -> None
        | 1 -> Some (decode_values c)
        | f -> malformed "bad params flag %d" f
      in
      Execute { name; params; fetch }
    | 'F' -> Fetch (get_u32 c)
    | 'C' -> Close_stmt (get_str c)
    | 'X' -> Terminate
    | t -> malformed "unknown client frame type %C" t
  in
  get_done c;
  msg

let decode_client typ payload = decode_client_at typ (cursor payload)

let encode_server_into b msg =
  let typ =
    match msg with
    | Ready -> 'Z'
    | Parse_ok n ->
      put_u16 b n;
      'p'
    | Row_desc cols ->
      put_u16 b (List.length cols);
      List.iter (put_str b) cols;
      'D'
    | Row_batch rows ->
      put_u16 b (List.length rows);
      List.iter
        (fun row ->
          put_u16 b (Array.length row);
          Array.iter (put_value b) row)
        rows;
      'W'
    | Complete tag ->
      put_str b tag;
      'T'
    | Suspended -> 's'
    | Err msg ->
      put_str b msg;
      'e'
  in
  typ

let encode_server msg =
  let b = Buffer.create 64 in
  let typ = encode_server_into b msg in
  (typ, Buffer.contents b)

let decode_server_at typ c =
  let msg =
    match typ with
    | 'Z' -> Ready
    | 'p' -> Parse_ok (get_u16 c)
    | 'D' ->
      let n = get_u16 c in
      Row_desc (List.init n (fun _ -> get_str c))
    | 'W' ->
      let n = get_u16 c in
      Row_batch
        (List.init n (fun _ ->
             let arity = get_u16 c in
             Array.init arity (fun _ -> get_value c)))
    | 'T' -> Complete (get_str c)
    | 's' -> Suspended
    | 'e' -> Err (get_str c)
    | t -> malformed "unknown server frame type %C" t
  in
  get_done c;
  msg

let decode_server typ payload = decode_server_at typ (cursor payload)

(* --- buffered frame I/O over a file descriptor ---------------------------- *)

type io = {
  fd : Unix.file_descr;
  mutable rbuf : Bytes.t;
  mutable rstart : int;  (* first unconsumed byte *)
  mutable rlen : int;    (* unconsumed byte count *)
  wbuf : Buffer.t;
  scratch : Buffer.t;
      (* reused payload staging for [send]/[send_client]: the frame length
         must precede bytes we only know after encoding, and a per-frame
         Buffer + contents copy is measurable on the hot path *)
}

let io_of_fd fd =
  { fd; rbuf = Bytes.create 65536; rstart = 0; rlen = 0;
    wbuf = Buffer.create 65536; scratch = Buffer.create 256 }

let fd io = io.fd

(* write(2) is not all-or-nothing: a filled socket buffer accepts a prefix
   and returns short, so every send must loop on the remainder. A peer that
   vanished mid-reply surfaces here as EPIPE (or ECONNRESET once its kernel
   discards the connection) — normalized to [Disconnected] so callers treat
   it exactly like an orderly EOF on the read side, not as an I/O fault. *)
let rec write_all fd s off len =
  if len > 0 then begin
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len
    | exception
        Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ESHUTDOWN), _, _)
      -> raise Disconnected
  end

let flush io =
  if Buffer.length io.wbuf > 0 then begin
    let s = Buffer.contents io.wbuf in
    Buffer.clear io.wbuf;
    write_all io.fd s 0 (String.length s)
  end

let send io msg =
  Buffer.clear io.scratch;
  let typ = encode_server_into io.scratch msg in
  put_u32 io.wbuf (Buffer.length io.scratch + 1);
  Buffer.add_char io.wbuf typ;
  Buffer.add_buffer io.wbuf io.scratch

let send_client io msg =
  Buffer.clear io.scratch;
  let typ = encode_client_into io.scratch msg in
  put_u32 io.wbuf (Buffer.length io.scratch + 1);
  Buffer.add_char io.wbuf typ;
  Buffer.add_buffer io.wbuf io.scratch

(* Write raw bytes as-is — the malformed-stream tests forge bad frames. *)
let send_raw io s = Buffer.add_string io.wbuf s

let byte io i = Char.code (Bytes.get io.rbuf (io.rstart + i))

let frame_len io =
  (byte io 0 lsl 24) lor (byte io 1 lsl 16) lor (byte io 2 lsl 8) lor byte io 3

(* Decode one complete buffered frame in place, if any: the cursor ranges
   over the receive buffer itself, so the payload is never copied out (the
   decoded message copies only what it retains). The buffered bytes are not
   touched again until the decode has completed. *)
let take_frame io decode =
  if io.rlen < 4 then None
  else begin
    let len = frame_len io in
    if len < 1 || len > max_frame then malformed "bad frame length %d" len;
    if io.rlen < 4 + len then None
    else begin
      let typ = Bytes.get io.rbuf (io.rstart + 4) in
      let c =
        { c_buf = Bytes.unsafe_to_string io.rbuf;
          c_pos = io.rstart + 5;
          c_end = io.rstart + 4 + len }
      in
      io.rstart <- io.rstart + 4 + len;
      io.rlen <- io.rlen - 4 - len;
      Some (decode typ c)
    end
  end

(* Room check before a blocking read: slide pending bytes to the front and
   grow the buffer when the in-flight frame is larger than it. *)
let make_room io =
  if io.rstart > 0 then begin
    Bytes.blit io.rbuf io.rstart io.rbuf 0 io.rlen;
    io.rstart <- 0
  end;
  let wanted =
    if io.rlen >= 4 then min max_frame (frame_len io) + 4 else Bytes.length io.rbuf
  in
  if wanted > Bytes.length io.rbuf then begin
    let nb = Bytes.create wanted in
    Bytes.blit io.rbuf 0 nb 0 io.rlen;
    io.rbuf <- nb
  end

let rec refill io =
  make_room io;
  let off = io.rstart + io.rlen in
  match Unix.read io.fd io.rbuf off (Bytes.length io.rbuf - off) with
  | 0 -> false
  | n ->
    io.rlen <- io.rlen + n;
    true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill io
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
    (* an abortive close reads the same as an orderly one *)
    false

(* True when a request is already buffered (or the stream is detectably
   corrupt): the server keeps answering without flushing while this holds,
   giving pipelined batches one write(2) per drain. Must not consume. *)
let rec recv_with : 'a. io -> (char -> cursor -> 'a) -> 'a option =
 fun io decode ->
  match take_frame io decode with
  | Some _ as m -> m
  | None ->
    flush io;
    if refill io then recv_with io decode else None

let recv_client io = recv_with io decode_client_at
let recv_server io = recv_with io decode_server_at
