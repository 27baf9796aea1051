(* Server, sessions & wire protocol.

   - protocol encode/decode roundtrips and malformed-stream rejection
   - simple-query and Parse/Execute/Fetch conversations over a real
     Unix-domain socket
   - per-session isolation: SET overrides, transactions, counters folding
     into the engine-global record at session close
   - write-write 2PL across sessions: same-tuple delete conflicts block,
     deadlock victims error, mid-transaction disconnect releases locks (the
     crashed-client case) — while MVCC readers never block on writers
   - prepared-statement revalidation after UPDATE STATISTICS from another
     session
   - the multi-session differential: N concurrent connections replay a fuzz
     workload and per-connection DML streams; every result must be
     multiset-equal to a serial embedded run of the same statements. *)

module V = Rel.Value
module P = Protocol

let msv = Alcotest.(list string)

let multiset rows = Fuzz_harness.multiset rows

let rows_ms (r : Client.reply) = multiset r.Client.rows

(* --- infrastructure ------------------------------------------------------ *)

let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "systemr_test_%d_%d.sock" (Unix.getpid ()) !n)

let with_server ?(seed = "") f =
  let db = Database.create () in
  if seed <> "" then ignore (Database.exec_script db seed);
  let srv =
    Server.start ~engine:(Database.engine db) (Server.Unix_sock (sock_path ()))
  in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f db srv)

let connect srv = Client.connect (Server.addr srv)

(* Deterministic cross-session sequencing, without polling: capture the
   engine's blocked-transaction epoch, pipeline the statement that must
   queue behind a lock, then sleep on the engine's condition variable until
   the epoch advances — the executing session bumps it right before parking
   on the lock, so the wakeup *is* the event being waited for. *)
let send_blocking db c sql =
  let eng = Database.engine db in
  let epoch = Engine.block_epoch eng in
  Client.send c (P.Simple sql);
  Client.flush c;
  Engine.await_block_epoch eng epoch

(* --- protocol unit tests -------------------------------------------------- *)

let client_roundtrip msg =
  let typ, payload = P.encode_client msg in
  P.decode_client typ payload

let server_roundtrip msg =
  let typ, payload = P.encode_server msg in
  P.decode_server typ payload

let test_protocol_roundtrip () =
  let cmsgs =
    [ P.Startup P.version;
      P.Simple "SELECT 1 FROM t";
      P.Parse { name = "q0"; sql = "SELECT a FROM t WHERE a = ?" };
      P.Execute { name = "q0"; params = None; fetch = 7 };
      P.Execute { name = "q0"; params = Some [ V.Int 3; V.Str "y" ]; fetch = 0 };
      P.Execute
        { name = "q0"; params = Some [ V.Int 42; V.Null; V.Str "x"; V.Float 1.5 ];
          fetch = 1 };
      P.Execute { name = "q0"; params = Some []; fetch = 0 };
      P.Fetch 12;
      P.Close_stmt "q0";
      P.Terminate ]
  in
  List.iter
    (fun m -> Alcotest.(check bool) "client msg" true (client_roundtrip m = m))
    cmsgs;
  let smsgs =
    [ P.Ready;
      P.Parse_ok 3;
      P.Row_desc [ "a"; "b" ];
      P.Row_batch [ [| V.Int 1; V.Str "x" |]; [| V.Null; V.Float 2. |] ];
      P.Complete "SELECT 2";
      P.Suspended;
      P.Err "boom" ]
  in
  List.iter
    (fun m -> Alcotest.(check bool) "server msg" true (server_roundtrip m = m))
    smsgs;
  (* corrupt payloads must raise Malformed, not crash or misparse *)
  let malformed f = match f () with
    | exception P.Malformed _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "truncated string" true
    (malformed (fun () -> P.decode_client 'Q' "\x00\x00\x00\x10abc"));
  Alcotest.(check bool) "unknown type" true
    (malformed (fun () -> P.decode_client '?' ""));
  Alcotest.(check bool) "trailing bytes" true
    (malformed (fun () -> P.decode_client 'X' "junk"));
  Alcotest.(check bool) "bad value tag" true
    (malformed (fun () ->
         P.decode_server 'W' "\x00\x01\x00\x01\x09"));
  Alcotest.(check bool) "bad startup magic" true
    (malformed (fun () -> P.decode_client 'S' "XXXX\x00\x01"))

(* --- simple queries over the wire ----------------------------------------- *)

let test_simple_query () =
  with_server (fun _db srv ->
      let c = connect srv in
      let r = Client.ok (Client.simple c "CREATE TABLE t (a INT, b STRING)") in
      Alcotest.(check string) "ddl tag" "table t created" r.Client.tag;
      ignore (Client.ok (Client.simple c "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)"));
      let r = Client.ok (Client.simple c "SELECT a, b FROM t WHERE a >= 2") in
      Alcotest.(check (list string)) "columns" [ "a"; "b" ] r.Client.columns;
      Alcotest.(check string) "tag" "SELECT 2" r.Client.tag;
      Alcotest.check msv "rows" (multiset [ [| V.Int 2; V.Str "y" |]; [| V.Int 3; V.Null |] ])
        (rows_ms r);
      (* a statement error leaves the connection usable *)
      let r = Client.simple c "SELECT nope FROM t" in
      Alcotest.(check bool) "error surfaced" true (r.Client.error <> None);
      let r = Client.ok (Client.simple c "SELECT a FROM t WHERE a = 1") in
      Alcotest.(check string) "still alive" "SELECT 1" r.Client.tag;
      (* EXPLAIN rides the Complete tag *)
      let r = Client.ok (Client.simple c "EXPLAIN SELECT a FROM t WHERE a = 1") in
      Alcotest.(check bool) "explain text" true
        (String.length r.Client.tag > 0
         && String.sub r.Client.tag 0 4 <> "SELE");
      Client.close c)

(* A statement error raised inside UPDATE (a FLOAT assigned to an INT
   column) is answered with Err then Ready, and the connection stays
   usable. *)
let test_update_type_mismatch () =
  with_server ~seed:"CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 10);"
    (fun _db srv ->
      let c = connect srv in
      let r = Client.simple c "UPDATE t SET b = 1.5 WHERE a = 1" in
      Alcotest.(check (option string)) "Err" (Some "type mismatch assigning to b")
        r.Client.error;
      let r = Client.ok (Client.simple c "SELECT a, b FROM t") in
      Alcotest.check msv "row intact" (multiset [ [| V.Int 1; V.Int 10 |] ])
        (rows_ms r);
      Client.close c)

(* A Simple request with a [?] fails the arity check an Execute without
   arguments gets, changes nothing, and leaves the connection usable. *)
let test_simple_with_param () =
  with_server ~seed:"CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2);"
    (fun _db srv ->
      let c = connect srv in
      List.iter
        (fun sql ->
          Alcotest.(check (option string)) sql
            (Some "statement takes 1 parameter, 0 given")
            (Client.simple c sql).Client.error)
        [ "SELECT a FROM t WHERE a = ?"; "DELETE FROM t WHERE a = ?";
          "UPDATE t SET a = 0 WHERE a > ?" ];
      let r = Client.ok (Client.simple c "SELECT a FROM t") in
      Alcotest.check msv "rows intact" (multiset [ [| V.Int 1 |]; [| V.Int 2 |] ])
        (rows_ms r);
      Client.close c)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_per_session_settings () =
  with_server ~seed:"CREATE TABLE t (a INT); INSERT INTO t VALUES (1);"
    (fun _db srv ->
      let a = connect srv and b = connect srv in
      ignore (Client.ok (Client.simple a "SET HISTOGRAMS OFF"));
      let ea = (Client.ok (Client.simple a "EXPLAIN SELECT a FROM t")).Client.tag in
      let eb = (Client.ok (Client.simple b "EXPLAIN SELECT a FROM t")).Client.tag in
      Alcotest.(check bool) "a sees its override" true (contains ea "histograms: off");
      Alcotest.(check bool) "b unaffected" true (contains eb "histograms: on");
      Client.close a;
      Client.close b)

(* --- prepared statements over the wire ------------------------------------ *)

let test_prepared_path () =
  with_server
    ~seed:"CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2), (3), (4), (5);"
    (fun _db srv ->
      let c = connect srv in
      let r = Client.ok (Client.parse c ~name:"q" "SELECT a FROM t WHERE a >= ?") in
      Alcotest.(check (option int)) "param count" (Some 1) r.Client.param_count;
      let r = Client.ok (Client.execute c ~params:[ V.Int 4 ] "q") in
      Alcotest.check msv "bound execute"
        (multiset [ [| V.Int 4 |]; [| V.Int 5 |] ]) (rows_ms r);
      (* rebind without re-parsing *)
      let r = Client.ok (Client.execute c ~params:[ V.Int 2 ] "q") in
      Alcotest.(check string) "rebound tag" "SELECT 4" r.Client.tag;
      (* binding count mismatch is a statement error, connection survives *)
      let r = Client.execute c ~params:[] "q" in
      Alcotest.(check bool) "arity error" true (r.Client.error <> None);
      let r = Client.execute c "q" in
      Alcotest.(check bool) "no bindings is an arity error" true
        (r.Client.error <> None);
      let r = Client.ok (Client.execute c ~params:[ V.Int 5 ] "q") in
      Alcotest.(check string) "connection survives" "SELECT 1" r.Client.tag;
      (* unknown statement *)
      let r = Client.execute c "nope" in
      Alcotest.(check bool) "unknown statement" true (r.Client.error <> None);
      (* close, then execute must fail *)
      ignore (Client.ok (Client.close_stmt c "q"));
      let r = Client.execute c "q" in
      Alcotest.(check bool) "closed statement gone" true (r.Client.error <> None);
      Client.close c)

let test_portals () =
  with_server ~seed:"CREATE TABLE t (a INT);" (fun _db srv ->
      let c = connect srv in
      for i = 1 to 10 do
        ignore (Client.ok (Client.simple c (Printf.sprintf "INSERT INTO t VALUES (%d)" i)))
      done;
      ignore (Client.ok (Client.parse c ~name:"q" "SELECT a FROM t"));
      let r = Client.ok (Client.execute c ~fetch:4 "q") in
      Alcotest.(check bool) "suspended" true r.Client.suspended;
      Alcotest.(check int) "first page" 4 (List.length r.Client.rows);
      let r2 = Client.ok (Client.fetch c 4) in
      Alcotest.(check bool) "still suspended" true r2.Client.suspended;
      Alcotest.(check int) "second page" 4 (List.length r2.Client.rows);
      let r3 = Client.ok (Client.fetch c 4) in
      Alcotest.(check bool) "exhausted" false r3.Client.suspended;
      Alcotest.(check int) "last page" 2 (List.length r3.Client.rows);
      Alcotest.(check string) "fetch tag" "FETCH 2" r3.Client.tag;
      let r4 = Client.fetch c 4 in
      Alcotest.(check bool) "no open portal" true (r4.Client.error <> None);
      (* all pages together are the full table *)
      let all = r.Client.rows @ r2.Client.rows @ r3.Client.rows in
      Alcotest.check msv "pages cover the table"
        (multiset (List.init 10 (fun i -> [| V.Int (i + 1) |])))
        (multiset all);
      Client.close c)

(* --- malformed and truncated frames --------------------------------------- *)

let test_malformed_frames () =
  with_server ~seed:"CREATE TABLE t (a INT);" (fun _db srv ->
      (* unknown frame type: Err then disconnect *)
      let c = connect srv in
      P.send_raw (Client.io c) "\x00\x00\x00\x02\xffx";
      P.flush (Client.io c);
      Alcotest.(check bool) "unknown type drops connection" true
        (match Client.read_reply c with
         | exception Client.Disconnected -> true
         | r -> r.Client.error <> None && (match Client.read_reply c with
             | exception Client.Disconnected -> true
             | _ -> false));
      Client.abandon c;
      (* insane frame length: dropped before any allocation *)
      let c = connect srv in
      P.send_raw (Client.io c) "\xff\xff\xff\xffQ";
      P.flush (Client.io c);
      Alcotest.(check bool) "oversized length drops connection" true
        (match Client.read_reply c with
         | exception Client.Disconnected -> true
         | r -> r.Client.error <> None);
      Client.abandon c;
      (* truncated frame then EOF: server treats it as a disconnect *)
      let c = connect srv in
      P.send_raw (Client.io c) "\x00\x00\x00\x40Qonly-part-of-the-payload";
      P.flush (Client.io c);
      Client.abandon c;
      (* ... and keeps serving new connections *)
      let c = connect srv in
      let r = Client.ok (Client.simple c "SELECT a FROM t") in
      Alcotest.(check string) "server still serving" "SELECT 0" r.Client.tag;
      Client.close c)

(* --- write-write 2PL and MVCC reads across sessions ------------------------ *)

(* Inserts of different transactions are compatible (an uncommitted version
   is invisible to everyone else — there is nothing to conflict with);
   write-write blocking happens at tuple granularity, on the victim of a
   DELETE. First committer wins: the blocked deleter finds the tuple's xmax
   stamped after its lock is finally granted and fails with a serialization
   error instead of double-deleting. *)
let test_writer_blocks_writer () =
  with_server ~seed:"CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2);"
    (fun db srv ->
      let a = connect srv and b = connect srv in
      ignore (Client.ok (Client.simple a "BEGIN"));
      ignore (Client.ok (Client.simple a "DELETE FROM t WHERE a = 1"));
      (* concurrent inserts do NOT block: no tuple conflict exists *)
      let r = Client.ok (Client.simple b "INSERT INTO t VALUES (3)") in
      Alcotest.(check string) "concurrent insert unblocked" "1 row inserted"
        r.Client.tag;
      (* b's delete of the same tuple queues behind a's tuple X lock *)
      send_blocking db b "DELETE FROM t WHERE a = 1";
      ignore (Client.ok (Client.simple a "COMMIT"));
      (* first committer (a) wins; b's delete fails rather than re-deleting *)
      let r = Client.read_reply b in
      (match r.Client.error with
       | Some e ->
         Alcotest.(check bool) "serialization error reported" true
           (contains e "serialize")
       | None -> Alcotest.fail "expected a serialization error");
      let r = Client.ok (Client.simple b "SELECT a FROM t") in
      Alcotest.check msv "a's delete and b's insert both visible"
        (multiset [ [| V.Int 2 |]; [| V.Int 3 |] ])
        (rows_ms r);
      Client.close a;
      Client.close b)

(* The tentpole acceptance pin: a point SELECT against a row an uncommitted
   transaction has written must complete immediately from its snapshot —
   never queue behind the writer's locks. *)
let test_reader_never_blocks_on_writer () =
  with_server ~seed:"CREATE TABLE t (a INT, b INT); INSERT INTO t VALUES (1, 10);"
    (fun _db srv ->
      let w = connect srv and r = connect srv in
      ignore (Client.ok (Client.simple w "BEGIN"));
      ignore (Client.ok (Client.simple w "DELETE FROM t WHERE a = 1"));
      ignore (Client.ok (Client.simple w "INSERT INTO t VALUES (1, 11)"));
      (* the reader completes while w's transaction is still open, and sees
         the pre-transaction image *)
      let reply = Client.ok (Client.simple r "SELECT b FROM t WHERE a = 1") in
      Alcotest.check msv "snapshot read under uncommitted writer"
        (multiset [ [| V.Int 10 |] ])
        (rows_ms reply);
      ignore (Client.ok (Client.simple w "COMMIT"));
      let reply = Client.ok (Client.simple r "SELECT b FROM t WHERE a = 1") in
      Alcotest.check msv "post-commit read sees the new version"
        (multiset [ [| V.Int 11 |] ])
        (rows_ms reply);
      Client.close w;
      Client.close r)

let test_midtxn_disconnect_releases_locks () =
  with_server ~seed:"CREATE TABLE t (a INT); INSERT INTO t VALUES (1);"
    (fun db srv ->
      let a = connect srv and b = connect srv in
      ignore (Client.ok (Client.simple a "BEGIN"));
      ignore (Client.ok (Client.simple a "DELETE FROM t WHERE a = 1"));
      send_blocking db b "DELETE FROM t WHERE a = 1";
      (* the client vanishes mid-transaction: no Terminate, no COMMIT *)
      Client.abandon a;
      (* a's rollback releases the tuple lock and un-marks the victim, so
         b's queued delete is granted and succeeds *)
      let r = Client.ok (Client.read_reply b) in
      Alcotest.(check string) "b unblocked by disconnect" "1 row deleted"
        r.Client.tag;
      let r = Client.ok (Client.simple b "SELECT a FROM t") in
      Alcotest.check msv "a's transaction rolled back, b's delete applied"
        (multiset []) (rows_ms r);
      Client.close b)

(* A client that vanishes while the server still owes it bytes: the flush
   hits EPIPE/ECONNRESET instead of the read side seeing EOF. That must be
   the same clean disconnect — session closed, transaction aborted, tuple
   locks released — not a crashed handler or a stranded lock. The pipelined
   result set is sized well past the socket buffer so the server is
   guaranteed to still be writing when the peer closes. *)
let test_epipe_disconnect_releases_locks () =
  let seed =
    let b = Buffer.create (1 lsl 16) in
    Buffer.add_string b "CREATE TABLE t (a INT); INSERT INTO t VALUES (1); ";
    Buffer.add_string b "CREATE TABLE big (id INT, pad STRING); ";
    Buffer.add_string b "INSERT INTO big VALUES ";
    let pad = String.make 80 'x' in
    for i = 0 to 2999 do
      if i > 0 then Buffer.add_string b ", ";
      Buffer.add_string b (Printf.sprintf "(%d, '%s')" i pad)
    done;
    Buffer.add_string b ";";
    Buffer.contents b
  in
  with_server ~seed (fun _db srv ->
      let a = connect srv and b = connect srv in
      ignore (Client.ok (Client.simple a "BEGIN"));
      ignore (Client.ok (Client.simple a "DELETE FROM t WHERE a = 1"));
      (* pipeline ~2 MB of replies, read only the first, then drop the
         socket: the server's write(2) of the remainder fails *)
      for _ = 1 to 8 do
        Client.send a (P.Simple "SELECT pad FROM big")
      done;
      Client.flush a;
      ignore (Client.read_reply a);
      Client.abandon a;
      (* a's abort must release the tuple lock and restore the row, so b's
         conflicting delete (queued or fresh) succeeds *)
      let r = Client.ok (Client.simple b "DELETE FROM t WHERE a = 1") in
      Alcotest.(check string) "b deletes after EPIPE disconnect"
        "1 row deleted" r.Client.tag;
      Client.close b)

(* Snapshot.save on a shared engine holds the committed state: a's
   uncommitted insert and delete are both left out while its transaction
   is open, and both are in once it commits. *)
let test_snapshot_save_on_shared_engine () =
  with_server ~seed:"CREATE TABLE t (a INT); INSERT INTO t VALUES (1);"
    (fun db srv ->
      let image () =
        let out = Database.query (Snapshot.load (Snapshot.save db)) "SELECT a FROM t" in
        multiset out.Executor.rows
      in
      let a = connect srv in
      ignore (Client.ok (Client.simple a "BEGIN"));
      ignore (Client.ok (Client.simple a "INSERT INTO t VALUES (2)"));
      ignore (Client.ok (Client.simple a "DELETE FROM t WHERE a = 1"));
      Alcotest.check msv "open transaction left out"
        (multiset [ [| V.Int 1 |] ]) (image ());
      ignore (Client.ok (Client.simple a "COMMIT"));
      Alcotest.check msv "committed transaction in"
        (multiset [ [| V.Int 2 |] ]) (image ());
      Client.close a)

let test_deadlock_victim () =
  with_server
    ~seed:
      "CREATE TABLE t1 (a INT); CREATE TABLE t2 (a INT); INSERT INTO t1 \
       VALUES (1); INSERT INTO t2 VALUES (1);"
    (fun db srv ->
      let a = connect srv and b = connect srv in
      ignore (Client.ok (Client.simple a "BEGIN"));
      ignore (Client.ok (Client.simple a "DELETE FROM t1 WHERE a = 1"));
      ignore (Client.ok (Client.simple b "BEGIN"));
      ignore (Client.ok (Client.simple b "DELETE FROM t2 WHERE a = 1"));
      (* a waits for t2's tuple ... *)
      send_blocking db a "DELETE FROM t2 WHERE a = 1";
      (* ... so b's request for t1's tuple closes the cycle: b is the victim *)
      let r = Client.simple b "DELETE FROM t1 WHERE a = 1" in
      (match r.Client.error with
       | Some e -> Alcotest.(check bool) "deadlock reported" true (contains e "deadlock")
       | None -> Alcotest.fail "expected a deadlock error");
      (* the failed statement aborts the victim's transaction at once: b's
         t2 delete-mark is undone and its tuple lock released, so a's queued
         delete is granted, rechecks a live unmarked tuple, and succeeds;
         b's ROLLBACK closes the aborted block *)
      ignore (Client.ok (Client.simple b "ROLLBACK"));
      let r = Client.ok (Client.read_reply a) in
      Alcotest.(check string) "a proceeds" "1 row deleted" r.Client.tag;
      ignore (Client.ok (Client.simple a "COMMIT"));
      let r = Client.ok (Client.simple a "SELECT a FROM t2") in
      Alcotest.check msv "a's t2 delete committed" (multiset []) (rows_ms r);
      Client.close a;
      Client.close b)

(* A failed statement aborts its transaction over the wire too: b's UPDATE
   stamps row 1, then fails on row 2, which a changed after b's snapshot.
   The abort undoes the stamp at once; b's later statements are refused
   and its COMMIT reports the rollback, so no row is lost. *)
let test_failed_statement_aborts_txn () =
  with_server ~seed:"CREATE TABLE T (K INT, V INT); INSERT INTO T VALUES (1, 0), (2, 0);"
    (fun _db srv ->
      let a = connect srv and b = connect srv in
      let expect_error c sql needle =
        match (Client.simple c sql).Client.error with
        | Some e -> Alcotest.(check bool) (sql ^ ": " ^ e) true (contains e needle)
        | None -> Alcotest.failf "%s succeeded" sql
      in
      ignore (Client.ok (Client.simple b "BEGIN"));
      ignore (Client.ok (Client.simple b "SELECT K, V FROM T"));
      ignore (Client.ok (Client.simple a "UPDATE T SET V = 5 WHERE K = 2"));
      expect_error b "UPDATE T SET V = 9" "serialize";
      expect_error b "SELECT K, V FROM T" "is aborted";
      expect_error b "INSERT INTO T VALUES (3, 3)" "is aborted";
      expect_error b "COMMIT" "rolled back";
      let r = Client.ok (Client.simple a "SELECT K, V FROM T") in
      Alcotest.check msv "no row lost"
        (multiset [ [| V.Int 1; V.Int 0 |]; [| V.Int 2; V.Int 5 |] ])
        (rows_ms r);
      let r = Client.ok (Client.simple b "UPDATE T SET V = 1 WHERE K = 1") in
      Alcotest.(check string) "b runs statements again" "1 row updated" r.Client.tag;
      Client.close a;
      Client.close b)

(* --- group commit ---------------------------------------------------------- *)

(* The failpoint registry is single-domain-only, so server-side durability is
   gated through [Wal.set_flush_hook] instead: the hook runs inside the
   leader's flush, just before the batch becomes durable — a controllable
   stand-in for the device sync. *)

(* A two-phase gate: the main test waits for a leader to *enter* the fsync
   window, holds it there, and later releases it (it stays open after). *)
type flush_gate = {
  g_m : Mutex.t;
  g_c : Condition.t;
  mutable g_entered : bool;
  mutable g_released : bool;
}

let flush_gate () =
  { g_m = Mutex.create (); g_c = Condition.create ();
    g_entered = false; g_released = false }

let gate_hook g () =
  Mutex.lock g.g_m;
  g.g_entered <- true;
  Condition.broadcast g.g_c;
  while not g.g_released do Condition.wait g.g_c g.g_m done;
  Mutex.unlock g.g_m

let gate_await_entered g =
  Mutex.lock g.g_m;
  while not g.g_entered do Condition.wait g.g_c g.g_m done;
  Mutex.unlock g.g_m

let gate_release g =
  Mutex.lock g.g_m;
  g.g_released <- true;
  Condition.broadcast g.g_c;
  Mutex.unlock g.g_m

(* Bounded positive wait on engine-side state that has no dedicated condition
   variable (group-commit queue depth). Latency-only: the predicate becoming
   true is guaranteed by the test's own pipelined work. *)
let wait_until what pred =
  let rec go n =
    if not (pred ()) then
      if n > 2000 then Alcotest.failf "timed out waiting for %s" what
      else begin
        Unix.sleepf 0.002;
        go (n + 1)
      end
  in
  go 0

(* COMMIT acks release only after the batch is durable: with the flush gated,
   N pipelined writers' replies must all be withheld; releasing the gate
   releases every ack, and the N commits share at most two flushes (the
   gated leader's window plus one takeover batch). *)
let test_acks_only_after_durability () =
  with_server ~seed:"CREATE TABLE t (a INT);" (fun db srv ->
      let eng = Database.engine db in
      let wal = Database.wal db in
      let s0 = Engine.group_commit_stats eng in
      let g = flush_gate () in
      Rss.Wal.set_flush_hook wal (Some (gate_hook g));
      let acked = Atomic.make 0 in
      let writers =
        List.init 3 (fun i ->
            Domain.spawn (fun () ->
                let c = connect srv in
                let r =
                  Client.simple c (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
                in
                Atomic.incr acked;
                let ok = r.Client.error = None in
                Client.close c;
                ok))
      in
      gate_await_entered g;
      wait_until "all writers enqueued" (fun () ->
          (Engine.group_commit_stats eng).Engine.enqueued - s0.Engine.enqueued
          = 3);
      (* negative check (inherently needs a timeout): the leader is parked in
         the fsync window, so no COMMIT may have been acknowledged *)
      Unix.sleepf 0.05;
      Alcotest.(check int) "no acks while the flush is gated" 0
        (Atomic.get acked);
      gate_release g;
      let oks = List.map Domain.join writers in
      Alcotest.(check (list bool)) "every writer acked after durability"
        [ true; true; true ] oks;
      Rss.Wal.set_flush_hook wal None;
      let s1 = Engine.group_commit_stats eng in
      let flushes = s1.Engine.flushes - s0.Engine.flushes in
      let commits = s1.Engine.grouped_commits - s0.Engine.grouped_commits in
      Alcotest.(check int) "three commits" 3 commits;
      Alcotest.(check bool) "batched: fewer flushes than commits" true
        (flushes >= 1 && flushes <= 2))

(* A follower that disconnects while parked in the commit window: its commit
   is already enqueued (and becomes durable with the batch); the handler's
   failed reply write is an ordinary clean disconnect — session closed, locks
   released, server healthy. *)
let test_follower_disconnect_mid_window () =
  with_server ~seed:"CREATE TABLE t (a INT);" (fun db srv ->
      let eng = Database.engine db in
      let wal = Database.wal db in
      let s0 = Engine.group_commit_stats eng in
      let g = flush_gate () in
      Rss.Wal.set_flush_hook wal (Some (gate_hook g));
      let leader =
        Domain.spawn (fun () ->
            let c = connect srv in
            let r = Client.simple c "INSERT INTO t VALUES (1)" in
            Client.close c;
            r.Client.error = None)
      in
      gate_await_entered g;
      (* the follower pipelines its commit into the gated window ... *)
      let f = connect srv in
      Client.send f (P.Simple "INSERT INTO t VALUES (2)");
      Client.flush f;
      wait_until "follower enqueued" (fun () ->
          (Engine.group_commit_stats eng).Engine.enqueued - s0.Engine.enqueued
          = 2);
      (* ... and vanishes before its ack can be delivered *)
      Client.abandon f;
      gate_release g;
      Alcotest.(check bool) "leader acked" true (Domain.join leader);
      Rss.Wal.set_flush_hook wal None;
      (* the follower's enqueued commit stands; the dead socket only killed
         the reply. The server keeps serving, and no lock is stranded: a new
         session can write the same table immediately. *)
      let c = connect srv in
      let r = Client.ok (Client.simple c "SELECT a FROM t") in
      Alcotest.check msv "both commits durable and visible"
        (multiset [ [| V.Int 1 |]; [| V.Int 2 |] ])
        (rows_ms r);
      let r = Client.ok (Client.simple c "INSERT INTO t VALUES (3)") in
      Alcotest.(check string) "no stranded locks" "1 row inserted" r.Client.tag;
      wait_until "all tickets durable" (fun () ->
          let s = Engine.group_commit_stats eng in
          s.Engine.durable_ticket = s.Engine.enqueued);
      Client.close c)

(* A leader whose fsync fails must not strand its followers: the exception
   releases leadership, a parked follower takes over and retries the
   still-buffered batch. The failed leader's client gets a commit-uncertain
   error ("not durable"); the follower's commit — and, via the retried batch,
   the leader's record too — become durable. *)
let test_leader_failure_does_not_strand_followers () =
  with_server ~seed:"CREATE TABLE t (a INT);" (fun db srv ->
      let eng = Database.engine db in
      let wal = Database.wal db in
      let s0 = Engine.group_commit_stats eng in
      let g = flush_gate () in
      let failed_once = ref false in
      (* gate so both writers are in the window, then fail the first sync *)
      Rss.Wal.set_flush_hook wal
        (Some
           (fun () ->
             gate_hook g ();
             let first =
               Mutex.lock g.g_m;
               let f = not !failed_once in
               failed_once := true;
               Mutex.unlock g.g_m;
               f
             in
             if first then failwith "injected fsync failure"));
      let writers =
        Array.init 2 (fun i ->
            Domain.spawn (fun () ->
                let c = connect srv in
                let r =
                  Client.simple c (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
                in
                (* the connection survives its statement's error *)
                let alive =
                  (Client.simple c "SELECT a FROM t").Client.error = None
                in
                Client.close c;
                (r.Client.error, alive)))
      in
      gate_await_entered g;
      wait_until "both writers enqueued" (fun () ->
          (Engine.group_commit_stats eng).Engine.enqueued - s0.Engine.enqueued
          = 2);
      gate_release g;
      let replies = Array.to_list (Array.map Domain.join writers) in
      Rss.Wal.set_flush_hook wal None;
      List.iter
        (fun (_, alive) ->
          Alcotest.(check bool) "connection survived" true alive)
        replies;
      (match List.filter_map fst replies with
       | [ e ] ->
         Alcotest.(check bool) "leader reports commit-uncertain" true
           (contains e "not durable")
       | errs ->
         Alcotest.failf "expected exactly one failed ack, got %d"
           (List.length errs));
      (* the takeover retried the whole batch: every ticket is durable *)
      let s1 = Engine.group_commit_stats eng in
      Alcotest.(check int) "no ticket stranded" s1.Engine.enqueued
        s1.Engine.durable_ticket;
      let c = connect srv in
      let r = Client.ok (Client.simple c "SELECT a FROM t") in
      Alcotest.check msv "both commits present after the retried batch"
        (multiset [ [| V.Int 0 |]; [| V.Int 1 |] ])
        (rows_ms r);
      Client.close c)

(* --- prepared-statement invalidation across sessions ----------------------- *)

let test_prepared_invalidation_cross_session () =
  with_server ~seed:"CREATE TABLE s (a INT); INSERT INTO s VALUES (1), (2), (3);"
    (fun _db srv ->
      let a = connect srv and b = connect srv in
      ignore (Client.ok (Client.parse a ~name:"q" "SELECT a FROM s WHERE a >= ?"));
      let r = Client.ok (Client.execute a ~params:[ V.Int 0 ] "q") in
      Alcotest.(check string) "initial" "SELECT 3" r.Client.tag;
      (* another session grows the table and moves its statistics *)
      ignore (Client.ok (Client.simple b "INSERT INTO s VALUES (4), (5)"));
      ignore (Client.ok (Client.simple b "UPDATE STATISTICS"));
      (* a's prepared plan revalidates and re-optimizes transparently *)
      let r = Client.ok (Client.execute a ~params:[ V.Int 0 ] "q") in
      Alcotest.(check string) "revalidated plan sees new rows" "SELECT 5"
        r.Client.tag;
      Client.close a;
      Client.close b)

(* Embedded flavor: the revalidation is observable through the session's
   plan-cache miss and invalidation counters. *)
let test_prepared_revalidation () =
  let eng = Engine.create () in
  let c = Rss.Counters.create () in
  let s1 = Session.create ~counters:c eng in
  let s2 = Session.create eng in
  ignore (Session.exec s1 "CREATE TABLE g (a INT)");
  ignore (Session.exec s1 "INSERT INTO g VALUES (1), (2)");
  let p = Session.prepare s1 "SELECT a FROM g WHERE a >= ?" in
  let reoptimized () =
    (c.Rss.Counters.plan_cache_misses, c.Rss.Counters.plan_cache_invalidations)
  in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "fresh: one miss" (1, 0) (reoptimized ());
  ignore (Session.execute_prepared s1 p [ V.Int 0 ]);
  Alcotest.check pair "steady state: no re-optimize" (1, 0) (reoptimized ());
  Session.update_statistics s2;
  let out = Session.execute_prepared s1 p [ V.Int 0 ] in
  Alcotest.check pair "stats moved: re-optimized once" (2, 1) (reoptimized ());
  Alcotest.(check int) "rows intact" 2 (List.length out.Executor.rows);
  ignore (Session.execute_prepared s1 p [ V.Int 0 ]);
  Alcotest.check pair "steady again" (2, 1) (reoptimized ());
  Session.close s2;
  Session.close s1

(* A binding gets the type check its literal gets on the Simple path: a
   string bound against an INT column fails Execute with the Simple path's
   message (it used to match nothing, silently); NULL stays accepted. *)
let test_prepared_binding_types () =
  with_server ~seed:"CREATE TABLE g (a INT); INSERT INTO g VALUES (1), (2);"
    (fun _db srv ->
      let c = connect srv in
      let simple = Client.simple c "SELECT a FROM g WHERE a = 'x'" in
      Alcotest.(check bool) "Simple path rejects the literal" true
        (simple.Client.error <> None);
      List.iter
        (fun (name, sql) ->
          ignore (Client.ok (Client.parse c ~name sql));
          let r = Client.execute c ~params:[ V.Str "x" ] name in
          Alcotest.(check (option string)) (sql ^ ": same error")
            simple.Client.error r.Client.error;
          let r = Client.ok (Client.execute c ~params:[ V.Null ] name) in
          Alcotest.(check string) (sql ^ ": NULL accepted") "SELECT 0" r.Client.tag;
          let r = Client.ok (Client.execute c ~params:[ V.Int 1 ] name) in
          Alcotest.(check bool) (sql ^ ": INT still runs") true
            (r.Client.tag = "SELECT 1"))
        [ ("eq", "SELECT a FROM g WHERE a = ?"); ("gt", "SELECT a FROM g WHERE a > ?") ];
      (* a recreated table re-plans the statement, and the check follows the
         new column type even for binding types checked before *)
      ignore (Client.ok (Client.simple c "DROP TABLE g"));
      ignore (Client.ok (Client.simple c "CREATE TABLE g (a STRING)"));
      let simple = Client.simple c "SELECT a FROM g WHERE a = 1" in
      Alcotest.(check bool) "Simple path rejects the INT literal" true
        (simple.Client.error <> None);
      let r = Client.execute c ~params:[ V.Int 1 ] "eq" in
      Alcotest.(check (option string)) "re-planned: same error"
        simple.Client.error r.Client.error;
      Client.close c)

(* --- per-session counters -------------------------------------------------- *)

let test_session_counters_fold () =
  let eng = Engine.create () in
  let s0 = Session.create eng in
  ignore (Session.exec s0 "CREATE TABLE c (a INT)");
  ignore (Session.exec s0 "INSERT INTO c VALUES (1), (2), (3)");
  let base = Rss.Pager.base_counters (Engine.pager eng) in
  let base_rsi = base.Rss.Counters.rsi_calls in
  let priv = Rss.Counters.create () in
  let s1 = Session.create ~counters:priv eng in
  ignore (Session.query s1 "SELECT a FROM c WHERE a >= 0");
  Alcotest.(check bool) "session accounted" true (priv.Rss.Counters.rsi_calls > 0);
  Alcotest.(check int) "engine-global untouched while open" base_rsi
    base.Rss.Counters.rsi_calls;
  let s1_rsi = priv.Rss.Counters.rsi_calls in
  Session.close s1;
  Alcotest.(check int) "folded at close" (base_rsi + s1_rsi)
    base.Rss.Counters.rsi_calls;
  (* the default session writes the engine-global record directly *)
  ignore (Session.query s0 "SELECT a FROM c WHERE a >= 0");
  Alcotest.(check bool) "default session accounts globally" true
    (base.Rss.Counters.rsi_calls > base_rsi + s1_rsi);
  Session.close s0

(* The server keeps a count of live handlers, not a record per accepted
   connection: hundreds of connections opened and closed one after another
   leave no session behind, and stop still waits for every handler. *)
let test_many_connections_leave_nothing () =
  let eng = Engine.create () in
  let s0 = Session.create eng in
  ignore (Session.exec s0 "CREATE TABLE c (a INT)");
  ignore (Session.exec s0 "INSERT INTO c VALUES (1)");
  Session.close s0;
  let srv = Server.start ~engine:eng (Server.Unix_sock (sock_path ())) in
  for _ = 1 to 300 do
    let c = connect srv in
    let r = Client.ok (Client.simple c "SELECT a FROM c") in
    Alcotest.(check int) "one row" 1 (List.length r.Client.rows);
    Client.close c
  done;
  Server.stop srv;
  Alcotest.(check int) "no live session after stop" 0 eng.Engine.live_sessions

(* --- multi-session differential ------------------------------------------- *)

(* Per-connection deterministic DML stream on a private table: only this
   session touches it, so a serial embedded replay of the same statements
   must agree exactly, even though the sessions run concurrently. *)
let private_dml_stmts id =
  let t = Printf.sprintf "priv%d" id in
  [ Printf.sprintf "CREATE TABLE %s (a INT, b INT)" t;
    Printf.sprintf "INSERT INTO %s VALUES %s" t
      (String.concat ", "
         (List.init 20 (fun i -> Printf.sprintf "(%d, %d)" i ((i * (id + 2)) mod 7))));
    "BEGIN";
    Printf.sprintf "INSERT INTO %s VALUES (100, 100)" t;
    "ROLLBACK";
    Printf.sprintf "DELETE FROM %s WHERE a < 5" t;
    Printf.sprintf "UPDATE %s SET b = b + 1 WHERE b >= 3" t;
    "BEGIN";
    Printf.sprintf "DELETE FROM %s WHERE b = 1" t;
    "COMMIT" ]

let private_dml_probe id = Printf.sprintf "SELECT a, b FROM priv%d" id

let test_multi_session_differential () =
  let rng = Random.State.make [| 0xD1FF; 8; 1979 |] in
  let scenario = Fuzz_gen.gen_scenario rng in
  let ddl = Fuzz_harness.ddl_script scenario in
  let nconns = 3 in
  let nqueries = 36 in
  let queries =
    List.init nqueries (fun _ ->
        Ast.to_sql (Ast.Select (Fuzz_gen.gen_query rng scenario)))
  in
  (* serial embedded oracle over the same schema/workload *)
  let oracle = Database.create () in
  ignore (Database.exec_script oracle ddl);
  let expect sql =
    match Database.query oracle sql with
    | out -> Ok (multiset out.Executor.rows)
    | exception Database.Error _ -> Error ()
  in
  let expected_queries = List.map (fun sql -> (sql, expect sql)) queries in
  let expected_dml =
    List.init nconns (fun id ->
        let edb = Database.create () in
        List.iter (fun s -> ignore (Database.exec edb s)) (private_dml_stmts id);
        multiset (Database.query edb (private_dml_probe id)).Executor.rows)
  in
  (* round-robin partition of the read-only workload *)
  let parts = Array.make nconns [] in
  List.iteri
    (fun i qe -> parts.(i mod nconns) <- qe :: parts.(i mod nconns))
    expected_queries;
  with_server ~seed:ddl (fun _db srv ->
      let addr = Server.addr srv in
      let run_client id =
        let c = Client.connect addr in
        let mismatches = ref [] in
        (* interleave: private DML first, then the shared read-only share,
           then the private probe — all while the other sessions run *)
        List.iter
          (fun s ->
            match (Client.simple c s).Client.error with
            | None -> ()
            | Some e -> mismatches := Printf.sprintf "dml %s: %s" s e :: !mismatches)
          (private_dml_stmts id);
        List.iter
          (fun (sql, exp) ->
            let r = Client.simple c sql in
            let got =
              match r.Client.error with
              | Some _ -> Error ()
              | None -> Ok (rows_ms r)
            in
            if got <> exp then mismatches := sql :: !mismatches)
          parts.(id);
        let probe = Client.simple c (private_dml_probe id) in
        (match probe.Client.error with
         | Some e -> mismatches := ("probe error: " ^ e) :: !mismatches
         | None ->
           if rows_ms probe <> List.nth expected_dml id then
             mismatches := Printf.sprintf "private table of session %d" id :: !mismatches);
        Client.close c;
        !mismatches
      in
      let doms = List.init nconns (fun id -> Domain.spawn (fun () -> run_client id)) in
      let bad = List.concat_map Domain.join doms in
      Alcotest.(check (list string)) "concurrent replay = serial embedded" [] bad)

let () =
  Alcotest.run "server"
    [ ( "protocol",
        [ Alcotest.test_case "encode/decode roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "malformed and truncated frames" `Quick
            test_malformed_frames ] );
      ( "simple query",
        [ Alcotest.test_case "DDL/DML/SELECT/EXPLAIN, errors" `Quick test_simple_query;
          Alcotest.test_case "Simple statement with ?" `Quick test_simple_with_param;
          Alcotest.test_case "UPDATE type mismatch keeps the connection" `Quick
            test_update_type_mismatch;
          Alcotest.test_case "per-session SET overrides" `Quick
            test_per_session_settings ] );
      ( "prepared",
        [ Alcotest.test_case "parse/bind/execute/close" `Quick test_prepared_path;
          Alcotest.test_case "portals and fetch" `Quick test_portals;
          Alcotest.test_case "cross-session invalidation" `Quick
            test_prepared_invalidation_cross_session;
          Alcotest.test_case "revalidation generation (embedded)" `Quick
            test_prepared_revalidation;
          Alcotest.test_case "binding type check" `Quick
            test_prepared_binding_types ] );
      ( "locking",
        [ Alcotest.test_case "same-tuple writers conflict, first committer wins"
            `Quick test_writer_blocks_writer;
          Alcotest.test_case "point SELECT never blocks on uncommitted writer"
            `Quick test_reader_never_blocks_on_writer;
          Alcotest.test_case "mid-txn disconnect releases locks" `Quick
            test_midtxn_disconnect_releases_locks;
          Alcotest.test_case "EPIPE on pending replies is a clean disconnect"
            `Quick test_epipe_disconnect_releases_locks;
          Alcotest.test_case "snapshot save holds the committed state"
            `Quick test_snapshot_save_on_shared_engine;
          Alcotest.test_case "a failed statement aborts its transaction" `Quick
            test_failed_statement_aborts_txn;
          Alcotest.test_case "deadlock victim errors, survivor proceeds" `Quick
            test_deadlock_victim ] );
      ( "group commit",
        [ Alcotest.test_case "acks release only after durability" `Quick
            test_acks_only_after_durability;
          Alcotest.test_case "follower disconnect mid-window is clean" `Quick
            test_follower_disconnect_mid_window;
          Alcotest.test_case "leader failure does not strand followers" `Quick
            test_leader_failure_does_not_strand_followers ] );
      ( "sessions",
        [ Alcotest.test_case "counters fold at close" `Quick
            test_session_counters_fold;
          Alcotest.test_case "many connections leave nothing" `Quick
            test_many_connections_leave_nothing ] );
      ( "differential",
        [ Alcotest.test_case "N concurrent sessions = serial embedded" `Quick
            test_multi_session_differential ] ) ]
