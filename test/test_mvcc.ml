(* MVCC snapshot isolation: pinned interleavings driven through two embedded
   Session.t values over one unlatched engine (the deterministic-scheduler
   harness — a blocked 2PL request errors immediately instead of waiting),
   plus the seeded interleaved-history differential fuzz smoke
   (Fuzz_mvcc). *)

let msv = Alcotest.(list string)
let multiset = Fuzz_harness.multiset

let setup script =
  let db = Database.create () in
  ignore (Database.exec_script db script);
  let eng = Database.engine db in
  (db, Session.create eng, Session.create eng)

let rows s sql =
  match Session.exec s sql with
  | Session.Rows out -> multiset out.Executor.rows
  | _ -> Alcotest.failf "expected rows from %s" sql

let tag s sql =
  match Session.exec s sql with
  | Session.Done t -> t
  | _ -> Alcotest.failf "expected a command tag from %s" sql

let expect_error ~containing s sql =
  match Session.exec s sql with
  | _ -> Alcotest.failf "%s should have failed" sql
  | exception Session.Error e ->
    if not (Fuzz_harness.contains e containing) then
      Alcotest.failf "%s failed with %S, expected it to mention %S" sql e
        containing

(* An open transaction reads its snapshot: concurrent committed inserts and
   deletes stay invisible until its own COMMIT starts a fresh view. *)
let test_reads_see_snapshot () =
  let _db, s1, s2 =
    setup "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2);"
  in
  ignore (tag s1 "BEGIN");
  Alcotest.check msv "initial view" [ "1"; "2" ] (rows s1 "SELECT a FROM t");
  ignore (tag s2 "INSERT INTO t VALUES (3)");
  ignore (tag s2 "DELETE FROM t WHERE a = 2");
  Alcotest.check msv "s2 sees its own commits" [ "1"; "3" ]
    (rows s2 "SELECT a FROM t");
  Alcotest.check msv "s1 still reads its snapshot" [ "1"; "2" ]
    (rows s1 "SELECT a FROM t");
  ignore (tag s1 "COMMIT");
  Alcotest.check msv "fresh statement snapshot after commit" [ "1"; "3" ]
    (rows s1 "SELECT a FROM t")

(* The writers the conflict tests run with: each stamps the one row's xmax
   (UPDATE also inserts the new image), and that stamp is what a second
   writer collides with. *)
let writers =
  [ ("DELETE FROM t WHERE a = 1", "1 row deleted", []);
    ("UPDATE t SET a = a + 1 WHERE a = 1", "1 row updated", [ "2" ]) ]

(* Write-write on the same tuple: with the engine unlatched the second
   writer cannot wait, so the tuple lock reports an immediate conflict. *)
let test_write_write_lock_conflict () =
  List.iter
    (fun (writer, done_tag, after) ->
      let _db, s1, s2 = setup "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);" in
      ignore (tag s1 "BEGIN");
      Alcotest.check Alcotest.string "s1 marks the tuple" done_tag (tag s1 writer);
      expect_error ~containing:"locked" s2 writer;
      ignore (tag s1 "ROLLBACK");
      Alcotest.check Alcotest.string "released after rollback" done_tag
        (tag s2 writer);
      Alcotest.check msv ("after " ^ writer) after (rows s1 "SELECT a FROM t"))
    writers

(* First committer wins: a snapshot-visible victim deleted (or updated) by
   an already-committed rival is a serialization failure, not a silent
   no-op. *)
let test_first_committer_wins () =
  List.iter
    (fun (writer, done_tag, _) ->
      let _db, s1, s2 = setup "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);" in
      ignore (tag s1 "BEGIN");
      ignore (tag s2 "BEGIN");
      Alcotest.check Alcotest.string "s1 writes" done_tag (tag s1 writer);
      ignore (tag s1 "COMMIT");
      (* s2's snapshot predates s1's commit, so the victim is still visible *)
      Alcotest.check msv "s2 still sees the row" [ "1" ] (rows s2 "SELECT a FROM t");
      expect_error ~containing:"serialize" s2 writer;
      ignore (tag s2 "ROLLBACK"))
    writers

(* First committer wins through an index path: both writers find the row by
   its TID from an Idx_scan, and the loser's post-lock recheck sees the
   winner's xmax — no lost update reaches the final state. *)
let test_first_committer_wins_via_index () =
  let _db, s1, s2 =
    setup
      "CREATE TABLE t (a INT, b INT);\n\
       INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50);\n\
       CREATE INDEX t_a ON t (a);"
  in
  let writer = "UPDATE t SET b = b + 1 WHERE a = 3" in
  (match Session.exec s1 ("EXPLAIN " ^ writer) with
   | Session.Text plan ->
     if not (Fuzz_harness.contains plan "Idx(t:t_a") then
       Alcotest.failf "victims not found through the index:\n%s" plan
   | _ -> Alcotest.fail "EXPLAIN UPDATE: expected text");
  ignore (tag s1 "BEGIN");
  ignore (tag s2 "BEGIN");
  Alcotest.check Alcotest.string "s1 writes" "1 row updated" (tag s1 writer);
  ignore (tag s1 "COMMIT");
  Alcotest.check msv "s2 still sees the old value" [ "3|30" ]
    (rows s2 "SELECT a, b FROM t WHERE a = 3");
  expect_error ~containing:"serialize" s2 writer;
  ignore (tag s2 "ROLLBACK");
  Alcotest.check msv "one increment survives" [ "3|31" ]
    (rows s1 "SELECT a, b FROM t WHERE a = 3")

(* VACUUM under a live reader: the open snapshot pins the horizon, so the
   deleted version survives (and stays visible to the reader) until the
   reader commits. *)
let test_vacuum_under_reader () =
  let db, s1, s2 = setup "CREATE TABLE t (a INT); INSERT INTO t VALUES (1);" in
  ignore (tag s1 "BEGIN");
  Alcotest.check msv "reader sees the row" [ "1" ] (rows s1 "SELECT a FROM t");
  Alcotest.check Alcotest.string "writer deletes underneath" "1 row deleted"
    (tag s2 "DELETE FROM t WHERE a = 1");
  Alcotest.check Alcotest.string "horizon pinned: nothing reclaimable"
    "0 dead versions reclaimed" (tag s2 "VACUUM");
  Alcotest.check msv "reader still sees the row" [ "1" ]
    (rows s1 "SELECT a FROM t");
  ignore (tag s1 "COMMIT");
  Alcotest.check msv "post-commit view is current" []
    (rows s1 "SELECT a FROM t");
  Alcotest.check Alcotest.string "horizon advanced: version reclaimed"
    "1 dead version reclaimed" (tag s2 "VACUUM");
  Alcotest.check msv "still gone" [] (rows s1 "SELECT a FROM t");
  (match Database.check_integrity db with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "integrity after vacuum: %s" msg)

(* INSERT takes no tuple locks (the uncommitted version is invisible to
   everyone else), so concurrent inserters into one table never conflict. *)
let test_concurrent_inserts_no_conflict () =
  let _db, s1, s2 = setup "CREATE TABLE t (a INT);" in
  ignore (tag s1 "BEGIN");
  ignore (tag s2 "BEGIN");
  ignore (tag s1 "INSERT INTO t VALUES (1)");
  ignore (tag s2 "INSERT INTO t VALUES (2)");
  Alcotest.check msv "s1 sees only its own" [ "1" ] (rows s1 "SELECT a FROM t");
  Alcotest.check msv "s2 sees only its own" [ "2" ] (rows s2 "SELECT a FROM t");
  ignore (tag s1 "COMMIT");
  ignore (tag s2 "COMMIT");
  Alcotest.check msv "both committed" [ "1"; "2" ] (rows s1 "SELECT a FROM t")

(* A refused lock request is withdrawn: s2's UPDATE fails on s1's tuple
   lock, and the request it queued must not outlive the refusal while s2's
   (aborted) block is still open. Otherwise, once s1 rolls back, the stale
   request is promoted and s2 silently holds the tuple, so a third writer
   is refused until s2 ends. *)
let test_refused_request_is_withdrawn () =
  let db, s1, s2 =
    setup "CREATE TABLE T (K INT, V INT); INSERT INTO T VALUES (1, 0), (2, 0);"
  in
  let s3 = Session.create (Database.engine db) in
  ignore (tag s1 "BEGIN");
  ignore (tag s1 "UPDATE T SET V = 1 WHERE K = 1");
  ignore (tag s2 "BEGIN");
  expect_error ~containing:"locked" s2 "UPDATE T SET V = 2 WHERE K = 1";
  ignore (tag s1 "ROLLBACK");
  Alcotest.check Alcotest.string "s3 writes while s2 is still open"
    "1 row updated" (tag s3 "UPDATE T SET V = 3 WHERE K = 1");
  ignore (tag s2 "ROLLBACK");
  Alcotest.check msv "s3's write stands" [ "1|3"; "2|0" ]
    (rows s1 "SELECT K, V FROM T");
  Alcotest.(check int) "no lock entry left" 0
    (Rss.Lock_table.length (Database.engine db).Engine.locks)

(* A failed statement aborts its transaction. b's UPDATE stamps K=1, then
   fails on K=2, which a changed after b's snapshot; the abort undoes the
   stamp at once. Without it, b's COMMIT made the stamp durable and row
   K=1 was lost. Later statements are refused until the block ends, and
   COMMIT ends it with an error; ROLLBACK ends it quietly. *)
let test_failed_statement_aborts_txn () =
  let db, a, b =
    setup "CREATE TABLE T (K INT, V INT); INSERT INTO T VALUES (1, 0), (2, 0);"
  in
  ignore (tag b "BEGIN");
  Alcotest.check msv "b's snapshot" [ "1|0"; "2|0" ] (rows b "SELECT K, V FROM T");
  ignore (tag a "UPDATE T SET V = 5 WHERE K = 2");
  expect_error ~containing:"serialize" b "UPDATE T SET V = 9";
  Alcotest.(check bool) "still in the block" true (Session.in_transaction b);
  expect_error ~containing:"is aborted" b "SELECT K, V FROM T";
  expect_error ~containing:"is aborted" b "INSERT INTO T VALUES (3, 3)";
  expect_error ~containing:"is aborted" b "BEGIN";
  expect_error ~containing:"rolled back" b "COMMIT";
  Alcotest.check msv "no row lost" [ "1|0"; "2|5" ] (rows a "SELECT K, V FROM T");
  Alcotest.(check bool) "block closed" false (Session.in_transaction b);
  ignore (tag b "BEGIN");
  ignore (tag b "DELETE FROM T WHERE K = 2");
  expect_error ~containing:"type mismatch" b "UPDATE T SET V = 1.5";
  Alcotest.(check bool) "ROLLBACK ends the aborted block" true
    (Fuzz_harness.contains (tag b "ROLLBACK") "rolled back");
  Alcotest.check msv "nothing changed" [ "1|0"; "2|5" ] (rows b "SELECT K, V FROM T");
  Alcotest.(check int) "no lock entry left" 0
    (Rss.Lock_table.length (Database.engine db).Engine.locks)

(* The lock table stays bounded: thousands of transactions, each locking
   fresh tuples (UPDATE's and DELETE's victims), leave no entry behind once
   no transaction is open — committed, rolled back or implicit alike. *)
let test_lock_table_bounded () =
  let n = 3000 in
  let values =
    String.concat ", " (List.init n (fun i -> Printf.sprintf "(%d, 0)" i))
  in
  let db, s1, s2 =
    setup
      (Printf.sprintf
         "CREATE TABLE T (K INT, V INT); INSERT INTO T VALUES %s;\n\
          CREATE INDEX T_K ON T (K);"
         values)
  in
  let locks () = Rss.Lock_table.length (Database.engine db).Engine.locks in
  for i = 0 to n - 1 do
    let s = if i mod 2 = 0 then s1 else s2 in
    match i mod 3 with
    | 0 ->
      ignore (tag s "BEGIN");
      ignore (tag s (Printf.sprintf "UPDATE T SET V = V + 1 WHERE K = %d" i));
      ignore (tag s (Printf.sprintf "DELETE FROM T WHERE K = %d" i));
      if locks () = 0 then Alcotest.fail "an open writer holds no lock";
      ignore (tag s "COMMIT")
    | 1 ->
      ignore (tag s "BEGIN");
      ignore (tag s (Printf.sprintf "DELETE FROM T WHERE K = %d" i));
      ignore (tag s "ROLLBACK")
    | _ -> ignore (tag s (Printf.sprintf "UPDATE T SET V = 1 WHERE K = %d" i))
  done;
  Alcotest.(check int) "no entry outlives its transaction" 0 (locks ());
  Alcotest.(check string) "every write landed"
    (string_of_int (n - (n + 2) / 3))
    (List.hd (rows s1 "SELECT COUNT(*) FROM T"))

(* --- seeded interleaved-history fuzz smoke ------------------------------- *)

let fail_divergence h (d : Fuzz_mvcc.divergence) =
  Alcotest.failf
    "MVCC history diverged at step %d (session %d)\nsql: %s\n%s\nexpected: %s\nactual:   %s\nreproducer:\n%s"
    d.Fuzz_mvcc.v_step d.Fuzz_mvcc.v_session d.Fuzz_mvcc.v_sql
    d.Fuzz_mvcc.v_detail d.Fuzz_mvcc.v_expected d.Fuzz_mvcc.v_actual
    (Fuzz_mvcc.reproducer h)

(* The victim access path of every generated UPDATE / DELETE, by EXPLAIN
   against the history's schema and indexes (the fuzz runs no UPDATE
   STATISTICS, so the plan at execution is the one chosen here). *)
let victim_paths (h : Fuzz_mvcc.history) =
  let db = Fuzz_harness.build ~indexes:true h.Fuzz_mvcc.scenario in
  List.concat_map
    (List.filter_map (function
       | Fuzz_mvcc.Dml ((Fuzz_dml.Update _ | Fuzz_dml.Delete _) as d) ->
         (match Database.exec db ("EXPLAIN " ^ Fuzz_dml.sql d) with
          | Database.Text plan ->
            List.find_opt (Fuzz_harness.contains plan) [ "Idx("; "Seg(" ]
          | _ -> Alcotest.fail "EXPLAIN DML: expected text")
       | _ -> None))
    (Array.to_list h.Fuzz_mvcc.streams)

let fuzz_smoke n seed () =
  let paths = Hashtbl.create 2 in
  for i = 0 to n - 1 do
    let rng = Workload.rand_init (seed + i) in
    let h = Fuzz_mvcc.gen_history rng in
    List.iter (fun p -> Hashtbl.replace paths p ()) (victim_paths h);
    match Fuzz_mvcc.run h with
    | None -> ()
    | Some _ ->
      let h', _steps = Fuzz_mvcc.shrink ~max_steps:150 h in
      (match Fuzz_mvcc.run h' with
       | Some d -> fail_divergence h' d
       | None ->
         (* shrinking is advisory; report the original if it went flaky *)
         (match Fuzz_mvcc.run h with
          | Some d -> fail_divergence h d
          | None -> ()))
  done;
  (* a fuzzer whose DML never reached the index path would pass silently *)
  List.iter
    (fun (p, name) ->
      if not (Hashtbl.mem paths p) then
        Alcotest.failf "no generated UPDATE/DELETE had a %s victim plan" name)
    [ ("Idx(", "Idx_scan"); ("Seg(", "Seg_scan") ]

(* --- the status table against a Hashtbl model --------------------------- *)

(* The reference keeps one Hashtbl entry per known xid, exactly the
   semantics the dense status table must reproduce: an unknown xid reads as
   aborted, xid 0 as frozen, and [prune] forgets committed entries at or
   before the horizon. *)
module Model = struct
  type status = Active of int | Committed of int

  type t = { tbl : (int, status) Hashtbl.t; mutable last : int }

  let create () = { tbl = Hashtbl.create 16; last = 0 }
  let find m x = Hashtbl.find_opt m.tbl x

  let committed_before m (snap : Rss.Mvcc.snapshot) x =
    x = 0 || (match find m x with Some (Committed c) -> c <= snap.csn | _ -> false)

  let visible m (snap : Rss.Mvcc.snapshot) ~xmin ~xmax =
    (xmin = snap.txn || committed_before m snap xmin)
    && not (xmax <> 0 && (xmax = snap.txn || committed_before m snap xmax))

  let commit_csn m x =
    if x = 0 then Some 0
    else match find m x with Some (Committed c) -> Some c | _ -> None

  let horizon m =
    Hashtbl.fold (fun _ s acc -> match s with Active c -> min c acc | _ -> acc)
      m.tbl m.last
end

type op =
  | Begin of int
  | Commit of int
  | Abort of int
  | Snap of int
  | Prune of int  (* horizon = this many CSNs below the model's horizon *)
  | Reset

let show_op = function
  | Begin x -> Printf.sprintf "begin %d" x
  | Commit x -> Printf.sprintf "commit %d" x
  | Abort x -> Printf.sprintf "abort %d" x
  | Snap x -> Printf.sprintf "snapshot %d" x
  | Prune d -> Printf.sprintf "prune horizon-%d" d
  | Reset -> "reset"

(* xids cluster near 0 (xid 0 included), at the ends of the table's first
   capacities (64, 128) and far past them, so entries land on the array's
   last slots, relocations run both ways and pruning moves the base under
   live entries *)
let gen_xid =
  QCheck.Gen.(
    frequency
      [ (4, int_range 0 12); (3, int_range 58 70); (2, int_range 120 135);
        (1, int_range 250 400); (1, int_range 4000 4010) ])

let gen_op =
  QCheck.Gen.(
    frequency
      [ (5, map (fun x -> Begin x) gen_xid); (4, map (fun x -> Commit x) gen_xid);
        (2, map (fun x -> Abort x) gen_xid); (2, map (fun x -> Snap x) gen_xid);
        (2, map (fun d -> Prune d) (int_range 0 3)); (1, return Reset) ])

let prop_status_table_matches_model =
  QCheck.Test.make ~name:"status table matches a Hashtbl model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let t = Rss.Mvcc.create () and m = Model.create () in
      let snaps = ref [ Rss.Mvcc.statement_snapshot t ] in
      let seen = ref [ 0; 1; 63; 64; 65; 4200 ] in
      (* every xid the generator can draw, and a margin past each range *)
      let all_xids = List.init 420 Fun.id @ List.init 40 (fun i -> 3990 + i) in
      let step op =
        (match op with
         | Begin x ->
           Rss.Mvcc.begin_txn t x;
           Hashtbl.replace m.tbl x (Model.Active m.last)
         | Commit x ->
           m.last <- m.last + 1;
           Hashtbl.replace m.tbl x (Model.Committed m.last);
           let csn = Rss.Mvcc.commit t x in
           if csn <> m.last then
             QCheck.Test.fail_reportf "commit %d: csn %d, model %d" x csn m.last
         | Abort x ->
           Rss.Mvcc.abort t x;
           Hashtbl.remove m.tbl x
         | Snap x ->
           let s = Rss.Mvcc.snapshot t ~txn:x in
           if s <> { Rss.Mvcc.csn = m.last; txn = x } then
             QCheck.Test.fail_reportf "snapshot %d: csn %d, model %d" x s.csn m.last;
           snaps := s :: List.filteri (fun i _ -> i < 3) !snaps
         | Prune d ->
           let horizon = max 0 (Model.horizon m - d) in
           Rss.Mvcc.prune t ~horizon;
           Hashtbl.filter_map_inplace
             (fun _ s ->
               match s with Model.Committed c when c <= horizon -> None | s -> Some s)
             m.tbl
         | Reset ->
           Rss.Mvcc.reset t;
           Hashtbl.reset m.tbl;
           m.last <- 0);
        (match op with
         | Begin x | Commit x | Abort x | Snap x ->
           if not (List.mem x !seen) then seen := x :: !seen
         | Prune _ | Reset -> ());
        if Rss.Mvcc.horizon t <> Model.horizon m then
          QCheck.Test.fail_reportf "after %s: horizon %d, model %d" (show_op op)
            (Rss.Mvcc.horizon t) (Model.horizon m);
        List.iter
          (fun x ->
            if Rss.Mvcc.commit_csn t x <> Model.commit_csn m x then
              QCheck.Test.fail_reportf "after %s: commit_csn %d differs" (show_op op) x;
            if Rss.Mvcc.committed t x <> (Model.commit_csn m x <> None) then
              QCheck.Test.fail_reportf "after %s: committed %d differs" (show_op op) x)
          all_xids;
        List.iter
          (fun snap ->
            List.iter
              (fun xmin ->
                List.iter
                  (fun xmax ->
                    if
                      Rss.Mvcc.visible t snap ~xmin ~xmax
                      <> Model.visible m snap ~xmin ~xmax
                    then
                      QCheck.Test.fail_reportf
                        "after %s: visible (csn %d, txn %d) xmin %d xmax %d differs"
                        (show_op op) snap.Rss.Mvcc.csn snap.txn xmin xmax)
                  !seen)
              !seen)
          !snaps
      in
      List.iter step ops;
      true)

let () =
  Alcotest.run "mvcc"
    [ ( "snapshot-isolation",
        [ Alcotest.test_case "open txn reads its snapshot" `Quick
            test_reads_see_snapshot;
          Alcotest.test_case "write-write conflict is immediate when unlatched"
            `Quick test_write_write_lock_conflict;
          Alcotest.test_case "first committer wins" `Quick
            test_first_committer_wins;
          Alcotest.test_case "first committer wins through an index" `Quick
            test_first_committer_wins_via_index;
          Alcotest.test_case "VACUUM respects the oldest snapshot" `Quick
            test_vacuum_under_reader;
          Alcotest.test_case "concurrent inserts never conflict" `Quick
            test_concurrent_inserts_no_conflict;
          Alcotest.test_case "a refused lock request is withdrawn" `Quick
            test_refused_request_is_withdrawn;
          Alcotest.test_case "a failed statement aborts its transaction" `Quick
            test_failed_statement_aborts_txn;
          Alcotest.test_case "lock table empties when no txn is open" `Quick
            test_lock_table_bounded ] );
      ( "status-table",
        [ QCheck_alcotest.to_alcotest prop_status_table_matches_model ] );
      ( "interleaved-fuzz",
        [ Alcotest.test_case "seeded histories vs model oracle" `Slow
            (fuzz_smoke 150 5200) ] ) ]
