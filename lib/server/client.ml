(* Protocol client: used by bin/systemr_cli --connect, the server bench and
   the protocol tests. The primitives are deliberately split into
   send / flush / read_reply so a caller can pipeline: write a batch of
   requests, flush once, then read the batch of replies — the server answers
   every request with a frame sequence ending in Ready, so replies stay in
   lockstep with requests. *)

exception Disconnected

type t = { io : Protocol.io }

type reply = {
  columns : string list;
  rows : Rel.Tuple.t list;
  tag : string;  (* command tag; "" when the reply carries none *)
  param_count : int option;  (* from Parse_ok *)
  suspended : bool;
  error : string option;
}

let empty_reply =
  { columns = []; rows = []; tag = ""; param_count = None; suspended = false;
    error = None }

let connect addr =
  let fd =
    match addr with
    | Server.Unix_sock path ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e -> Unix.close fd; raise e);
      fd
    | Server.Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_INET (ip, port))
       with e -> Unix.close fd; raise e);
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      fd
  in
  let t = { io = Protocol.io_of_fd fd } in
  Protocol.send_client t.io (Protocol.Startup Protocol.version);
  Protocol.flush t.io;
  (match Protocol.recv_server t.io with
   | Some Protocol.Ready -> ()
   | Some (Protocol.Err e) ->
     Unix.close fd;
     failwith ("server refused connection: " ^ e)
   | Some _ | None ->
     Unix.close fd;
     failwith "bad server greeting");
  t

let io t = t.io
let send t msg = Protocol.send_client t.io msg
let flush t = Protocol.flush t.io

(* Accumulate one request's reply: frames up to and including Ready. *)
let read_reply t =
  let rec go acc batches =
    match Protocol.recv_server t.io with
    | None -> raise Disconnected
    | Some Protocol.Ready ->
      (* single Row_batch is the overwhelmingly common shape *)
      (match batches with
       | [] -> acc
       | [ rows ] -> { acc with rows }
       | _ -> { acc with rows = List.concat (List.rev batches) })
    | Some (Protocol.Row_desc columns) -> go { acc with columns } batches
    | Some (Protocol.Row_batch b) -> go acc (b :: batches)
    | Some (Protocol.Complete tag) -> go { acc with tag } batches
    | Some Protocol.Suspended -> go { acc with suspended = true } batches
    | Some (Protocol.Parse_ok n) -> go { acc with param_count = Some n } batches
    | Some (Protocol.Err e) -> go { acc with error = Some e } batches
  in
  go empty_reply []

let roundtrip t msg =
  send t msg;
  flush t;
  read_reply t

let simple t sql = roundtrip t (Protocol.Simple sql)
let parse t ~name sql = roundtrip t (Protocol.Parse { name; sql })
let execute t ?(fetch = 0) ?params name =
  roundtrip t (Protocol.Execute { name; params; fetch })
let fetch t n = roundtrip t (Protocol.Fetch n)
let close_stmt t name = roundtrip t (Protocol.Close_stmt name)

(* Raise on statement error: the tests' happy paths read better. *)
let ok r = match r.error with Some e -> failwith e | None -> r

let close t =
  (try
     Protocol.send_client t.io Protocol.Terminate;
     Protocol.flush t.io
   with _ -> ());
  try Unix.close (Protocol.fd t.io) with Unix.Unix_error _ -> ()

(* Drop the socket without Terminate — the mid-transaction-disconnect tests
   simulate a crashed client. *)
let abandon t =
  try Unix.close (Protocol.fd t.io) with Unix.Unix_error _ -> ()
