(* The wire-protocol server: an accept loop on its own domain, connection
   handlers on the shared Rss.Domain_pool, one Session per connection over
   one shared Engine.

   Starting the server flips the engine into latched (shared) mode for the
   listener's lifetime: mutating statements hold the engine latch
   exclusively, read-only statements hold it shared and run concurrently
   against their MVCC snapshots (no S locks — readers never block on
   writers), and blocked 2PL lock requests wait on the engine condvar. A
   handler that dies mid-transaction — client disconnect (orderly EOF or
   EPIPE on a pending reply), protocol violation — closes its session,
   which aborts the transaction and releases its locks, so a vanished
   client can never strand a lock.

   Connection handlers occupy their pool worker for the connection's
   lifetime; connections beyond the worker count queue until one closes. The
   server keeps only a count of live handlers, never a record per accepted
   connection, so its own state stays bounded however many it serves. *)

type addr =
  | Unix_sock of string
  | Tcp of string * int

(* "/path/to.sock", "host:port" or ":port" (loopback). *)
let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i when not (String.contains s '/') ->
    let host = if i = 0 then "127.0.0.1" else String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
     | Some p when p >= 0 && p < 65536 -> Tcp (host, p)
     | _ -> invalid_arg (Printf.sprintf "bad port in address %S" s))
  | _ -> Unix_sock s

let addr_to_string = function
  | Unix_sock p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

type t = {
  eng : Engine.t;
  listen_fd : Unix.file_descr;
  addr : addr;  (* resolved: TCP port 0 replaced by the bound port *)
  m : Mutex.t;
  handlers_done : Condition.t;  (* broadcast as each handler exits *)
  mutable running : bool;
  mutable conns : Unix.file_descr list;
  mutable live : int;  (* handlers submitted and not yet finished *)
  mutable accept_dom : unit Domain.t option;
}

let batch_rows = 256
(* rows per Row_batch frame: bounds frame size and per-frame overhead *)

(* A dying client must kill the connection, not the server. *)
let ignore_sigpipe =
  lazy (if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

(* --- per-connection state ------------------------------------------------- *)

type conn = {
  io : Protocol.io;
  sess : Session.t;
  stmts : (string, Session.prepared) Hashtbl.t;
  mutable portal : Rel.Tuple.t list option;
      (* rows remaining from an Execute with fetch > 0 *)
}

(* [take_drop n l] = (first n elements, rest); tail-recursive. *)
let take_drop n l =
  let rec go acc n l =
    if n = 0 then (List.rev acc, l)
    else match l with [] -> (List.rev acc, []) | x :: tl -> go (x :: acc) (n - 1) tl
  in
  go [] n l

(* Command tags for small row counts are preformatted: the hot point-select
   path sends one per reply, and sprintf there is measurable. *)
let select_tags = Array.init 64 (fun n -> "SELECT " ^ string_of_int n)

let select_tag n =
  if n < Array.length select_tags then select_tags.(n)
  else "SELECT " ^ string_of_int n

(* [describe = false] on the prepared-execute path: the row shape is fixed
   at Parse time, so re-sending it per call is pure overhead (Postgres
   likewise describes statements, not executions). *)
let send_rows conn (out : Executor.output) ~describe ~fetch =
  if describe then Protocol.send conn.io (Protocol.Row_desc out.Executor.columns);
  let total = List.length out.Executor.rows in
  let rec batches rows =
    match rows with
    | [] -> ()
    | _ ->
      let batch, rest = take_drop batch_rows rows in
      Protocol.send conn.io (Protocol.Row_batch batch);
      batches rest
  in
  if fetch <= 0 || total <= fetch then begin
    batches out.Executor.rows;
    conn.portal <- None;
    Protocol.send conn.io (Protocol.Complete (select_tag total))
  end
  else begin
    let first, rest = take_drop fetch out.Executor.rows in
    batches first;
    conn.portal <- Some rest;
    Protocol.send conn.io Protocol.Suspended
  end

let dispatch conn msg =
  match msg with
  | Protocol.Startup _ -> Protocol.send conn.io (Protocol.Err "already started")
  | Protocol.Simple sql ->
    (match Session.exec conn.sess sql with
     | Session.Rows out -> send_rows conn out ~describe:true ~fetch:0
     | Session.Text s | Session.Done s ->
       Protocol.send conn.io (Protocol.Complete s))
  | Protocol.Parse { name; sql } ->
    let p = Session.prepare conn.sess sql in
    Hashtbl.replace conn.stmts name p;
    Protocol.send conn.io (Protocol.Parse_ok (Session.prepared_param_count p))
  | Protocol.Execute { name; params; fetch } ->
    (match Hashtbl.find_opt conn.stmts name with
     | None ->
       Protocol.send conn.io
         (Protocol.Err (Printf.sprintf "no prepared statement %S" name))
     | Some p ->
       let params = Option.value params ~default:[] in
       let out = Session.execute_prepared conn.sess p params in
       send_rows conn out ~describe:false ~fetch)
  | Protocol.Fetch n ->
    (match conn.portal with
     | None -> Protocol.send conn.io (Protocol.Err "no open portal")
     | Some rows ->
       let n = max 1 n in
       let take, rest = take_drop n rows in
       Protocol.send conn.io (Protocol.Row_batch take);
       if rest = [] then begin
         conn.portal <- None;
         Protocol.send conn.io
           (Protocol.Complete (Printf.sprintf "FETCH %d" (List.length take)))
       end
       else begin
         conn.portal <- Some rest;
         Protocol.send conn.io Protocol.Suspended
       end)
  | Protocol.Close_stmt name ->
    Hashtbl.remove conn.stmts name;
    Protocol.send conn.io (Protocol.Complete "CLOSE")
  | Protocol.Terminate -> raise Exit

(* One connection, start to finish. Every non-Terminate request is answered
   by a sequence ending in Ready; statement errors keep the connection,
   protocol errors drop it. The session is closed on EVERY exit path — that
   is the mid-transaction-disconnect guarantee. *)
let handle t fd =
  let io = Protocol.io_of_fd fd in
  let sess = Session.create ~counters:(Rss.Counters.create ()) t.eng in
  let conn = { io; sess; stmts = Hashtbl.create 8; portal = None } in
  (try
     (match Protocol.recv_client io with
      | Some (Protocol.Startup v) when v = Protocol.version ->
        Protocol.send io Protocol.Ready
      | Some (Protocol.Startup v) ->
        Protocol.send io
          (Protocol.Err (Printf.sprintf "unsupported protocol version %d" v));
        raise Exit
      | Some _ ->
        Protocol.send io (Protocol.Err "expected Startup");
        raise Exit
      | None -> raise Exit);
     let rec loop () =
       match Protocol.recv_client io with
       | None -> ()
       | Some msg ->
         (try dispatch conn msg
          with Session.Error e ->
            (* statement failed: the portal (if any) is gone, the session
               and its transaction state are exactly as Session left them *)
            conn.portal <- None;
            Protocol.send io (Protocol.Err e));
         Protocol.send io Protocol.Ready;
         loop ()
     in
     loop ()
   with
   | Exit -> ()
   | Protocol.Disconnected ->
     (* the client vanished while we owed it bytes (EPIPE mid-flush):
        same clean path as an orderly EOF — fall through to close the
        session, aborting its transaction and releasing its locks *)
     ()
   | Protocol.Malformed e ->
     (try Protocol.send io (Protocol.Err ("protocol error: " ^ e)) with _ -> ())
   | _ -> ());
  (try Protocol.flush io with _ -> ());
  Session.close sess;
  Mutex.lock t.m;
  t.conns <- List.filter (fun c -> c != fd) t.conns;
  Mutex.unlock t.m;
  (try Unix.close fd with Unix.Unix_error _ -> ())

let handler_exit t =
  Mutex.lock t.m;
  t.live <- t.live - 1;
  Condition.broadcast t.handlers_done;
  Mutex.unlock t.m

(* --- listener ------------------------------------------------------------- *)

let rec accept_loop t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ ->
    Mutex.lock t.m;
    if not t.running then begin
      Mutex.unlock t.m;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
    else begin
      t.conns <- fd :: t.conns;
      t.live <- t.live + 1;
      Mutex.unlock t.m;
      Rss.Domain_pool.submit (fun () ->
          Fun.protect ~finally:(fun () -> handler_exit t) (fun () -> handle t fd));
      accept_loop t
    end
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
    accept_loop t
  | exception Unix.Unix_error _ ->
    (* listener closed by stop (or genuinely broken): either way, done *)
    ()

let start ?(workers = 4) ~engine addr =
  Lazy.force ignore_sigpipe;
  Rss.Domain_pool.ensure workers;
  let fd, resolved =
    match addr with
    | Unix_sock path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      (fd, addr)
    | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ ->
          (try (Unix.gethostbyname host).Unix.h_addr_list.(0)
           with Not_found -> invalid_arg ("unknown host " ^ host))
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (ip, port));
      let port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      (fd, Tcp (host, port))
  in
  Unix.listen fd 64;
  Engine.set_latched engine true;
  let t =
    { eng = engine; listen_fd = fd; addr = resolved; m = Mutex.create ();
      handlers_done = Condition.create (); running = true; conns = []; live = 0;
      accept_dom = None }
  in
  t.accept_dom <- Some (Domain.spawn (fun () -> accept_loop t));
  t

let addr t = t.addr
let engine t = t.eng

(* Closing a listening fd does not wake a thread blocked in accept(2) on
   Linux; dial ourselves instead. The accept loop sees running = false,
   closes the wake connection and exits. *)
let wake_listener t =
  try
    let fd =
      match t.addr with
      | Unix_sock path ->
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
      | Tcp (host, port) ->
        let ip =
          try Unix.inet_addr_of_string host
          with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (ip, port));
        fd
    in
    Unix.close fd
  with Unix.Unix_error _ | Not_found -> ()

let stop t =
  Mutex.lock t.m;
  let was_running = t.running in
  t.running <- false;
  let conns = t.conns in
  Mutex.unlock t.m;
  if was_running then begin
    wake_listener t;
    (match t.accept_dom with Some d -> Domain.join d | None -> ());
    (* safe to close only after the accept loop is gone: closing first
       would free the fd number for reuse while accept(2) still holds it *)
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* wake handlers blocked in read(2); they close their own fd *)
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    Mutex.lock t.m;
    while t.live > 0 do
      Condition.wait t.handlers_done t.m
    done;
    Mutex.unlock t.m;
    (match t.addr with
     | Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
     | Tcp _ -> ());
    Engine.set_latched t.eng false
  end
