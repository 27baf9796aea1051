(* Engine facade: SQL DDL/DML end to end, the Figure 1 database, EXPLAIN
   output, error paths, and the WAL/recovery integration. *)

module V = Rel.Value
module T = Rel.Tuple

let rows out = out.Executor.rows

let test_ddl_dml_roundtrip () =
  let db = Database.create () in
  let results =
    Database.exec_script db
      "CREATE TABLE T (A INT, B STRING);\n\
       CREATE INDEX T_A ON T (A);\n\
       INSERT INTO T VALUES (1, 'one'), (2, 'two'), (3, 'three');\n\
       UPDATE STATISTICS;"
  in
  Alcotest.(check int) "four statements" 4 (List.length results);
  let out = Database.query db "SELECT B FROM T WHERE A = 2" in
  (match rows out with
   | [ [| V.Str "two" |] ] -> ()
   | _ -> Alcotest.fail "wrong result");
  (match Database.exec db "DELETE FROM T WHERE A > 1" with
   | Database.Done msg -> Alcotest.(check string) "count" "2 rows deleted" msg
   | _ -> Alcotest.fail "delete result");
  let out2 = Database.query db "SELECT COUNT(*) FROM T" in
  (match rows out2 with
   | [ [| V.Int 1 |] ] -> ()
   | _ -> Alcotest.fail "count after delete");
  (* the index no longer returns deleted tuples *)
  let out3 = Database.query db "SELECT B FROM T WHERE A = 3" in
  Alcotest.(check int) "deleted not indexed" 0 (List.length (rows out3))

let test_error_paths () =
  let db = Database.create () in
  let expect_err sql =
    match Database.exec db sql with
    | _ -> Alcotest.fail ("accepted: " ^ sql)
    | exception Database.Error _ -> ()
  in
  expect_err "SELECT * FROM NOWHERE";
  expect_err "SELECT * FROM";
  expect_err "INSERT INTO NOWHERE VALUES (1)";
  expect_err "CREATE TABLE T (A INT, A INT)";
  ignore (Database.exec db "CREATE TABLE T (A INT)");
  expect_err "CREATE TABLE T (A INT)";
  expect_err "INSERT INTO T VALUES ('wrong type')";
  (* query on a non-SELECT is rejected before it runs *)
  ignore (Database.exec db "INSERT INTO T VALUES (1)");
  let rel = Option.get (Catalog.find_relation (Database.catalog db) "T") in
  let version = rel.Catalog.stats_version in
  (match Database.query db "UPDATE STATISTICS" with
   | _ -> Alcotest.fail "query accepted DDL"
   | exception Database.Error _ -> ());
  Alcotest.(check int) "stats_version unchanged" version rel.Catalog.stats_version;
  Alcotest.(check int) "row count unchanged" 1
    (List.length (Database.query db "SELECT A FROM T").Executor.rows)

let test_fig1_database () =
  let db = Database.create () in
  Workload.load_emp_dept_job db;
  let out = Database.query db Workload.fig1_query in
  Alcotest.(check (list string)) "columns" [ "NAME"; "TITLE"; "SAL"; "DNAME" ]
    out.Executor.columns;
  (* every returned row is a Denver clerk *)
  List.iter
    (fun row ->
      match row with
      | [| V.Str _; V.Str title; V.Int _; V.Str _ |] ->
        Alcotest.(check string) "clerk" "CLERK" title
      | _ -> Alcotest.fail "row shape")
    (rows out);
  (* cross-check the count against a manual predicate evaluation *)
  let block = Database.resolve db Workload.fig1_query in
  let expected = Naive_eval.query (Database.catalog db) block in
  Alcotest.(check int) "count matches naive" (List.length expected)
    (List.length (rows out));
  Alcotest.(check bool) "non-empty" true (rows out <> [])

let test_explain_output () =
  let db = Database.create () in
  Workload.load_emp_dept_job db;
  let text = Database.explain db Workload.fig1_query in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains text needle))
    [ "JOIN"; "SCAN"; "cost" ]

let test_exec_script_mixed () =
  let db = Database.create () in
  let results =
    Database.exec_script db
      "CREATE TABLE S (X INT);\n\
       INSERT INTO S VALUES (5), (6);\n\
       SELECT X FROM S WHERE X = 5;\n\
       EXPLAIN SELECT X FROM S"
  in
  (match results with
   | [ Database.Done _; Database.Done _; Database.Rows out; Database.Text _ ] ->
     Alcotest.(check int) "select row" 1 (List.length (rows out))
   | _ -> Alcotest.fail "result shapes")

let test_w_affects_plans () =
  let db = Database.create ~buffer_pages:8 () in
  Workload.load_emp_dept_job db
    ~config:{ Workload.default_emp_config with n_emp = 3000 };
  (* identical query, same answer regardless of W *)
  let sql = "SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND SAL > 29000" in
  Database.set_w db 0.0;
  let a = List.length (rows (Database.query db sql)) in
  Database.set_w db 10.0;
  let b = List.length (rows (Database.query db sql)) in
  Alcotest.(check int) "same rows" a b

(* --- WAL / recovery integration ----------------------------------------- *)

let test_logged_workload_recovers () =
  (* mirror a catalog-loading workload into a WAL, "crash", replay, rebuild
     an index, and run the same query on the recovered store *)
  let wal = Rss.Wal.create () in
  let db = Database.create () in
  let cat = Database.catalog db in
  let schema =
    Rel.Schema.make
      [ { Rel.Schema.name = "K"; ty = V.Tint };
        { Rel.Schema.name = "VAL"; ty = V.Tint } ]
  in
  let r = Catalog.create_relation cat ~name:"R" ~schema in
  Rss.Wal.append wal (Rss.Wal.Begin 1);
  for k = 0 to 199 do
    let t = T.make [ V.Int k; V.Int (k * k mod 97) ] in
    let tid = Catalog.insert_tuple cat r t in
    Rss.Wal.append wal (Rss.Wal.Insert { txn = 1; rel_id = r.Catalog.rel_id; tid; tuple = t })
  done;
  Rss.Wal.append wal (Rss.Wal.Commit 1);
  (* a transaction in flight at the crash *)
  Rss.Wal.append wal (Rss.Wal.Begin 2);
  Rss.Wal.append wal
    (Rss.Wal.Insert
       { txn = 2; rel_id = r.Catalog.rel_id;
         tid = { Rss.Tid.page = 0; slot = 0 };
         tuple = T.make [ V.Int 999; V.Int 999 ] });
  (* crash: recover from the serialized log into a fresh database *)
  Rss.Wal.flush wal;
  let log_bytes = Rss.Wal.to_bytes wal in
  let db2 = Database.create () in
  let cat2 = Database.catalog db2 in
  let result = Rss.Recovery.replay (Rss.Wal.of_bytes log_bytes) in
  let survivors = result.Rss.Recovery.survivors in
  Alcotest.(check int) "restored" 200 (List.length survivors);
  Alcotest.(check bool) "survivors in log order" true
    (List.mapi (fun k _ -> k) survivors
     = List.map (fun (_, t) -> match T.get t 0 with V.Int k -> k | _ -> -1) survivors);
  (* reload the survivors into a fresh relation and index it *)
  let r2 = Catalog.create_relation cat2 ~name:"R" ~schema in
  Alcotest.(check int) "rel id preserved by replay order" r.Catalog.rel_id
    r2.Catalog.rel_id;
  List.iter
    (fun (rel_id, t) ->
      Alcotest.(check int) "survivor rel id" r.Catalog.rel_id rel_id;
      ignore (Catalog.insert_tuple cat2 r2 t))
    survivors;
  ignore (Catalog.create_index cat2 ~name:"R_K" ~rel:r2 ~columns:[ "K" ] ~clustered:true);
  Catalog.update_statistics cat2;
  let out = Database.query db2 "SELECT VAL FROM R WHERE K = 144" in
  (match rows out with
   | [ [| V.Int v |] ] -> Alcotest.(check int) "value" (144 * 144 mod 97) v
   | _ -> Alcotest.fail "recovered query");
  (* the uncommitted tuple is gone *)
  let out2 = Database.query db2 "SELECT VAL FROM R WHERE K = 999" in
  Alcotest.(check int) "uncommitted discarded" 0 (List.length (rows out2))

(* --- integrity & engine-level recovery -------------------------------- *)

let test_check_integrity_after_dml () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE T (K INT, V STRING);\n\
        CREATE INDEX T_K ON T (K);\n\
        INSERT INTO T VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd');\n\
        DELETE FROM T WHERE K = 2;\n\
        UPDATE T SET V = 'z' WHERE K = 3;");
  (match Database.check_integrity db with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "integrity after DML: %s" msg);
  (* the checker actually detects corruption: remove a tuple behind the
     index's back and expect an Error *)
  let rel =
    match Catalog.find_relation (Database.catalog db) "T" with
    | Some r -> r
    | None -> Alcotest.fail "T missing"
  in
  let tid, _ =
    List.hd
      (Rss.Scan.to_list
         (Rss.Scan.open_segment_scan rel.Catalog.segment
            ~rel_id:rel.Catalog.rel_id ()))
  in
  ignore (Rss.Segment.delete rel.Catalog.segment tid);
  (match Database.check_integrity db with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "checker missed a heap/index mismatch")

(* Post-recovery index rebuild: recovered tuples get new TIDs, so the index
   must be rebuilt over them — a stale index (old TIDs) must be unobservable
   through index scans. *)
let test_recovery_rebuilds_index () =
  let ddl =
    "CREATE TABLE R (K INT, VAL INT);\nCREATE INDEX R_K ON R (K);"
  in
  let db = Database.create () in
  ignore (Database.exec_script db ddl);
  for k = 0 to 49 do
    ignore
      (Database.exec db
         (Printf.sprintf "INSERT INTO R VALUES (%d, %d)" k (k * 7 mod 31)))
  done;
  ignore (Database.exec db "DELETE FROM R WHERE K < 25");
  let entry_tids db =
    match Catalog.find_index (Database.catalog db) "R_K" with
    | Some idx ->
      Rss.Btree.entries idx.Catalog.btree
      |> List.map snd
      |> List.sort Rss.Tid.compare
    | None -> Alcotest.fail "R_K missing"
  in
  let old_tids = entry_tids db in
  let bytes = Rss.Wal.to_bytes (Database.wal db) in
  let db2 = Database.create () in
  ignore (Database.exec_script db2 ddl);
  let restored = Database.recover db2 bytes in
  Alcotest.(check int) "committed survivors" 25 restored;
  (match Database.check_integrity db2 with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "integrity after recovery: %s" msg);
  (* the rebuilt index carries the NEW heap TIDs, not the logged ones *)
  let new_tids = entry_tids db2 in
  Alcotest.(check int) "entry count" 25 (List.length new_tids);
  Alcotest.(check bool) "TIDs moved across recovery" true
    (new_tids <> old_tids);
  (* index scans over the rebuilt index see exactly the committed rows *)
  for k = 25 to 49 do
    match rows (Database.query db2 (Printf.sprintf "SELECT VAL FROM R WHERE K = %d" k)) with
    | [ [| V.Int v |] ] ->
      Alcotest.(check int) (Printf.sprintf "K=%d" k) (k * 7 mod 31) v
    | _ -> Alcotest.failf "K=%d: expected one row" k
  done;
  Alcotest.(check int) "deleted rows stay deleted" 0
    (List.length (rows (Database.query db2 "SELECT VAL FROM R WHERE K = 3")))

(* Recovery allocates storage only for the tuples it reloads: replay lists
   the survivors instead of staging them in a scratch segment of the live
   pager, whose pages nothing would ever free. Page ids come from one
   counter, so the ids a recover consumes must equal the pages the reloaded
   relations' segments gained (the tables carry no index, whose splits
   would draw ids too). Repeated recovers must not grow the pager. *)
let test_recover_allocates_only_reloaded_pages () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE A (K INT, S STRING);
CREATE TABLE B (K INT);");
  for k = 0 to 399 do
    ignore
      (Database.exec db
         (Printf.sprintf "INSERT INTO A VALUES (%d, 'row-%04d')" k k));
    if k mod 2 = 0 then
      ignore (Database.exec db (Printf.sprintf "INSERT INTO B VALUES (%d)" k))
  done;
  ignore (Database.exec db "DELETE FROM A WHERE K < 100");
  let cat = Database.catalog db in
  let pager = Catalog.pager cat in
  let segment_pages () =
    List.fold_left
      (fun acc r -> acc + List.length (Rss.Segment.page_ids r.Catalog.segment))
      0 (Catalog.relations cat)
  in
  for round = 1 to 3 do
    let bytes = Rss.Wal.to_bytes (Database.wal db) in
    let pages_before = segment_pages () in
    let id_before = Rss.Pager.alloc_page_id pager in
    Alcotest.(check int) "survivors" 500 (Database.recover db bytes);
    let consumed = Rss.Pager.alloc_page_id pager - id_before - 1 in
    let gained = segment_pages () - pages_before in
    Alcotest.(check bool) "the reload needs pages" true (gained > 0);
    Alcotest.(check int)
      (Printf.sprintf "round %d: page ids consumed = segment pages gained" round)
      gained consumed
  done

(* Shrunk reproducer from the crash-torture harness: INSERT then DELETE of
   the same row inside one rolled-back transaction. The undo ran newest-first
   — re-inserting the deleted row at a fresh TID, then failing to remove it
   when undoing the insert (the original TID was already dead) — leaving a
   phantom row. Fixed by making undo TID-stable: undoing a delete now clears
   the version's xmax (Catalog.unmark_delete) instead of re-inserting it. *)
let test_rollback_insert_delete_same_row () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE P (A INT, B STRING);\nCREATE INDEX P_A ON P (A);");
  ignore
    (Database.exec_script db
       "BEGIN;\n\
        INSERT INTO P VALUES (1, 'phantom');\n\
        DELETE FROM P WHERE A = 1;\n\
        ROLLBACK;");
  Alcotest.(check int) "no phantom after rollback" 0
    (List.length (rows (Database.query db "SELECT A FROM P")));
  (match Database.check_integrity db with
   | Ok () -> ()
   | Error msg -> Alcotest.failf "integrity: %s" msg);
  (* the mirror image: DELETE an existing row then re-INSERT it, rolled
     back — the original row must survive, the new one must not *)
  ignore (Database.exec db "INSERT INTO P VALUES (7, 'keep')");
  ignore
    (Database.exec_script db
       "BEGIN;\n\
        DELETE FROM P WHERE A = 7;\n\
        INSERT INTO P VALUES (8, 'drop');\n\
        ROLLBACK;");
  (match rows (Database.query db "SELECT A, B FROM P") with
   | [ [| V.Int 7; V.Str "keep" |] ] -> ()
   | l -> Alcotest.failf "expected only (7, keep), got %d rows" (List.length l));
  match Database.check_integrity db with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "integrity after mirror rollback: %s" msg

(* --- UPDATE ---------------------------------------------------------- *)

let test_update_statement () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE T (A INT, B INT, NAME STRING);\n\
        CREATE INDEX T_B ON T (B);\n\
        INSERT INTO T VALUES (1, 10, 'one'), (2, 20, 'two'), (3, 30, 'three');\n\
        UPDATE STATISTICS;");
  (match Database.exec db "UPDATE T SET B = B + 100, NAME = 'bumped' WHERE A > 1" with
   | Database.Done msg -> Alcotest.(check string) "count" "2 rows updated" msg
   | _ -> Alcotest.fail "update result");
  let out = Database.query db "SELECT B, NAME FROM T WHERE A = 3" in
  (match rows out with
   | [ [| V.Int 130; V.Str "bumped" |] ] -> ()
   | _ -> Alcotest.fail "updated values");
  (* indexes follow the update *)
  let via_index = Database.query db "SELECT A FROM T WHERE B = 120" in
  Alcotest.(check int) "index sees new value" 1 (List.length (rows via_index));
  let stale = Database.query db "SELECT A FROM T WHERE B = 20" in
  Alcotest.(check int) "old value gone" 0 (List.length (rows stale));
  (* self-referential update has no Halloween problem *)
  ignore (Database.exec db "UPDATE T SET A = A + 1");
  let total = Database.query db "SELECT COUNT(*) FROM T" in
  (match rows total with
   | [ [| V.Int 3 |] ] -> ()
   | _ -> Alcotest.fail "row count preserved");
  (* errors *)
  (match Database.exec db "UPDATE T SET NOPE = 1" with
   | _ -> Alcotest.fail "unknown column accepted"
   | exception Database.Error _ -> ());
  (match Database.exec db "UPDATE T SET A = 'str'" with
   | _ -> Alcotest.fail "type mismatch accepted"
   | exception Database.Error _ -> ())

(* A SET expression that could only fail once evaluated per victim — an
   assignment whose type the column cannot store (FLOAT into INT), an
   aggregate, an unbound parameter — must be rejected as a statement error
   before any victim is touched. *)
let bad_update_setup () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE T (A INT, B INT);\nINSERT INTO T VALUES (1, 10);");
  db

let expect_update_error db (sql, expected) =
  match Database.exec db sql with
  | _ -> Alcotest.failf "%s accepted" sql
  | exception Database.Error msg -> Alcotest.(check string) sql expected msg

let bad_updates =
  [ ("UPDATE T SET B = 1.5 WHERE A = 1", "type mismatch assigning to B");
    ("UPDATE T SET B = B * 1.5", "type mismatch assigning to B");
    ("UPDATE T SET B = SUM(A) WHERE A = 1", "aggregate in SET");
    ("UPDATE T SET B = ? WHERE A = 1", "parameter in SET") ]

let check_row_intact db =
  match rows (Database.query db "SELECT A, B FROM T") with
  | [ [| V.Int 1; V.Int 10 |] ] -> ()
  | rs ->
    Alcotest.failf "row lost or changed: [%s]"
      (String.concat "; " (List.map T.to_string rs))

(* inside a transaction the row survives the failed statements and COMMIT *)
let test_bad_update_in_txn () =
  let db = bad_update_setup () in
  ignore (Database.exec db "BEGIN");
  List.iter (expect_update_error db) bad_updates;
  ignore (Database.exec db "COMMIT");
  check_row_intact db

(* in auto-commit the failure is a [Database.Error], not a stray
   [Invalid_argument] *)
let test_bad_update_autocommit () =
  let db = bad_update_setup () in
  List.iter (expect_update_error db) bad_updates;
  check_row_intact db

(* --- DML victims through the optimizer ------------------------------------ *)

let contains = Fuzz_harness.contains

let explain_text db sql =
  match Database.exec db ("EXPLAIN " ^ sql) with
  | Database.Text t -> t
  | _ -> Alcotest.failf "EXPLAIN %s: expected text" sql

let done_tag db sql =
  match Database.exec db sql with
  | Database.Done t -> t
  | _ -> Alcotest.failf "%s: expected a command tag" sql

let int_rows db sql =
  List.map
    (fun row -> List.map (function V.Int i -> i | _ -> min_int) (Array.to_list row))
    (rows (Database.query db sql))

let kv_db ks =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE T (K INT, V INT)");
  ignore
    (Database.exec db
       ("INSERT INTO T VALUES "
       ^ String.concat ", " (List.map (fun k -> Printf.sprintf "(%d, %d)" k k) ks)));
  ignore (Database.exec db "CREATE INDEX T_K ON T (K)");
  ignore (Database.exec db "UPDATE STATISTICS");
  db

(* EXPLAIN DELETE / UPDATE print the victim plan: the plan of SELECT * with
   the same WHERE, chosen serially (the victim search runs on the calling
   domain), and nothing is written. *)
let test_explain_dml () =
  let db = kv_db (List.init 2000 Fun.id) in
  Database.set_parallelism db 1;
  let plan_lines text =
    List.filter (fun l -> contains l "SCAN" || contains l "EXCHANGE")
      (String.split_on_char '\n' text)
  in
  List.iter
    (fun (dml, select) ->
      Alcotest.(check (list string)) dml
        (plan_lines (explain_text db select))
        (plan_lines (explain_text db dml)))
    [ ("DELETE FROM T WHERE K = 7", "SELECT * FROM T WHERE K = 7");
      ("UPDATE T SET V = 0 WHERE K BETWEEN 5 AND 9",
       "SELECT * FROM T WHERE K BETWEEN 5 AND 9");
      ("DELETE FROM T", "SELECT * FROM T") ];
  Alcotest.(check bool) "point victims through the index" true
    (contains (explain_text db "UPDATE T SET V = 0 WHERE K = 7") "Idx(T:T_K");
  Alcotest.(check bool) "EXPLAIN SEARCH" true
    (contains (explain_text db "SEARCH DELETE FROM T WHERE K = 7") "chosen plan:");
  Database.set_parallelism db 4;
  Database.set_force_parallel db true;
  Alcotest.(check bool) "SELECT goes parallel" true
    (contains (explain_text db "SELECT * FROM T") "EXCHANGE");
  Alcotest.(check bool) "victim search stays serial" false
    (contains (explain_text db "DELETE FROM T") "EXCHANGE");
  Alcotest.(check (list (list int))) "nothing written" [ [ 2000 ] ]
    (int_rows db "SELECT COUNT(*) FROM T");
  match Database.exec db "EXPLAIN DELETE FROM NOWHERE" with
  | _ -> Alcotest.fail "EXPLAIN of an unknown table accepted"
  | exception Database.Error _ -> ()

(* A point UPDATE / DELETE through an index costs what its probe costs: one
   RSI call and a descent plus one data page on a cold pool, whatever the
   table size — no walk over the stored versions. *)
let test_point_dml_counters () =
  List.iter
    (fun n ->
      let db = kv_db (List.init n Fun.id) in
      let height =
        match Catalog.find_index (Database.catalog db) "T_K" with
        | Some idx -> Rss.Btree.height idx.Catalog.btree
        | None -> Alcotest.fail "no index T_K"
      in
      let c = Rss.Pager.counters (Database.pager db) in
      List.iter
        (fun (sql, tag) ->
          Alcotest.(check bool) (sql ^ " runs through the index") true
            (contains (explain_text db sql) "Idx(");
          Rss.Pager.evict_all (Database.pager db);
          Rss.Counters.reset c;
          Alcotest.(check string) sql tag (done_tag db sql);
          let what = Printf.sprintf "%s at %d rows" sql n in
          Alcotest.(check int) (what ^ ": RSI calls") 1 c.Rss.Counters.rsi_calls;
          if c.Rss.Counters.page_fetches > height + 1 then
            Alcotest.failf "%s: %d page fetches, B-tree height %d" what
              c.Rss.Counters.page_fetches height)
        [ (Printf.sprintf "UPDATE T SET V = V + 1 WHERE K = %d" (n / 2), "1 row updated");
          (Printf.sprintf "DELETE FROM T WHERE K = %d" (n / 3), "1 row deleted") ])
    [ 500; 8000 ]

(* Subqueries in a DML WHERE are planned and cached as in SELECT: each
   uncorrelated block runs once, before any victim is stamped, and sees the
   table as the statement found it. *)
let test_dml_where_subqueries () =
  let db = kv_db (List.init 10 Fun.id) in
  let c = Rss.Pager.counters (Database.pager db) in
  let where = "WHERE K IN (SELECT K FROM T WHERE V >= 4) AND V < (SELECT MAX(V) FROM T)" in
  Rss.Counters.reset c;
  Alcotest.(check string) "update" "5 rows updated"
    (done_tag db ("UPDATE T SET V = V + 100 " ^ where));
  Alcotest.(check int) "each subquery evaluated once" 2 c.Rss.Counters.subquery_evals;
  Alcotest.(check (list (list int))) "updated rows"
    [ [ 4; 104 ]; [ 5; 105 ]; [ 6; 106 ]; [ 7; 107 ]; [ 8; 108 ] ]
    (int_rows db "SELECT K, V FROM T WHERE V >= 100 ORDER BY K");
  (* now MAX(V) = 108 and V >= 4 holds for K 4..9 *)
  Alcotest.(check string) "delete" "5 rows deleted" (done_tag db ("DELETE FROM T " ^ where));
  Alcotest.(check (list (list int))) "survivors"
    [ [ 0; 0 ]; [ 1; 1 ]; [ 2; 2 ]; [ 3; 3 ]; [ 8; 108 ] ]
    (int_rows db "SELECT K, V FROM T ORDER BY K")

(* Halloween through an index on the updated column: the moved keys land
   ahead of the index scan, inside its range, yet each row is updated once
   because the victim list is drained before any new image is inserted. *)
let test_halloween_through_index () =
  let db = kv_db (List.init 200 (fun i -> i - 190)) in
  let sql = "UPDATE T SET K = K + 10 WHERE K >= 0" in
  Alcotest.(check bool) "victims through the K index" true
    (contains (explain_text db sql) "Idx(T:T_K");
  Alcotest.(check string) "each row once" "10 rows updated" (done_tag db sql);
  Alcotest.(check (list (list int))) "moved once"
    (List.init 10 (fun i -> [ i + 10 ]))
    (int_rows db "SELECT K FROM T WHERE K >= 0 ORDER BY K");
  Alcotest.(check (list (list int))) "row count" [ [ 200 ] ]
    (int_rows db "SELECT COUNT(*) FROM T")

let test_dml_without_where () =
  let db = kv_db [ 1; 2; 3 ] in
  Alcotest.(check bool) "no WHERE is a segment scan" true
    (contains (explain_text db "DELETE FROM T") "Seg(T)");
  Alcotest.(check string) "update all" "3 rows updated"
    (done_tag db "UPDATE T SET V = V * 10");
  Alcotest.(check (list (list int))) "all updated" [ [ 10 ]; [ 20 ]; [ 30 ] ]
    (int_rows db "SELECT V FROM T ORDER BY V");
  Alcotest.(check string) "delete all" "3 rows deleted" (done_tag db "DELETE FROM T");
  Alcotest.(check (list (list int))) "empty" [ [ 0 ] ]
    (int_rows db "SELECT COUNT(*) FROM T")

(* Inside BEGIN the transaction's own uncommitted inserts are victims, and
   ROLLBACK of an UPDATE leaves exactly the old versions: the same tuples at
   the same TIDs. *)
let test_dml_own_writes_and_rollback () =
  let db = kv_db [ 1; 2; 3 ] in
  let rel =
    match Catalog.find_relation (Database.catalog db) "T" with
    | Some r -> r
    | None -> Alcotest.fail "no relation T"
  in
  let versions () =
    List.map
      (fun (tid, t, xmin, xmax) ->
        Printf.sprintf "%d.%d %s xmin=%d xmax=%d" tid.Rss.Tid.page
          tid.Rss.Tid.slot (T.to_string t) xmin xmax)
      (Catalog.scan_versions rel)
  in
  ignore (Database.exec db "BEGIN");
  ignore (Database.exec db "INSERT INTO T VALUES (10, 10), (11, 11)");
  Alcotest.(check string) "own inserts updated" "2 rows updated"
    (done_tag db "UPDATE T SET V = V + 1 WHERE K >= 10");
  Alcotest.(check string) "own insert deleted" "1 row deleted"
    (done_tag db "DELETE FROM T WHERE V = 12");
  Alcotest.(check (list (list int))) "own writes" [ [ 10; 11 ] ]
    (int_rows db "SELECT K, V FROM T WHERE K >= 10");
  ignore (Database.exec db "COMMIT");
  ignore (Database.exec db "VACUUM");
  let before = versions () in
  ignore (Database.exec db "BEGIN");
  Alcotest.(check string) "update in txn" "4 rows updated"
    (done_tag db "UPDATE T SET V = V - 100");
  ignore (Database.exec db "ROLLBACK");
  Alcotest.(check (list string)) "old versions at their TIDs" before
    (versions ());
  match Database.check_integrity db with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "integrity after rollback: %s" msg

(* --- prepared statements ------------------------------------------------ *)

let test_prepared_statements () =
  let db = Database.create () in
  Workload.load_emp_dept_job db;
  let p = Database.prepare db "SELECT NAME, SAL FROM EMP WHERE DNO = ?" in
  Alcotest.(check int) "one param" 1 (Database.prepared_param_count p);
  (* the placeholder predicate matches the DNO index with a dynamic bound *)
  let rec idx_bound (pl : Plan.t) =
    match pl.Plan.node with
    | Plan.Scan { access = Plan.Idx_scan { lo = Some lo; _ }; _ } ->
      List.exists (function Plan.Bv_param 0 -> true | _ -> false) lo.Plan.values
    | Plan.Scan _ -> false
    | Plan.Nl_join { outer; inner } | Plan.Merge_join { outer; inner; _ } ->
      idx_bound outer || idx_bound inner
    | Plan.Sort { input; _ } | Plan.Filter { input; _ }
    | Plan.Exchange { input; _ } ->
      idx_bound input
  in
  Alcotest.(check bool) "param used as index bound" true
    (idx_bound (Database.prepared_plan p).Optimizer.plan);
  (* executing with different bindings matches the literal queries *)
  List.iter
    (fun dno ->
      let got = Database.execute_prepared db p [ V.Int dno ] in
      let expect =
        Database.query db (Printf.sprintf "SELECT NAME, SAL FROM EMP WHERE DNO = %d" dno)
      in
      Alcotest.(check int)
        (Printf.sprintf "rows for DNO=%d" dno)
        (List.length (rows expect))
        (List.length (rows got)))
    [ 1; 7; 23; 50 ];
  (* range params *)
  let p2 = Database.prepare db "SELECT COUNT(*) FROM EMP WHERE SAL > ? AND DNO BETWEEN ? AND ?" in
  Alcotest.(check int) "three params" 3 (Database.prepared_param_count p2);
  let got = Database.execute_prepared db p2 [ V.Int 20000; V.Int 5; V.Int 10 ] in
  let expect =
    Database.query db
      "SELECT COUNT(*) FROM EMP WHERE SAL > 20000 AND DNO BETWEEN 5 AND 10"
  in
  Alcotest.(check bool) "counts equal" true
    (rows got = rows expect);
  (* wrong arity *)
  (match Database.execute_prepared db p [] with
   | _ -> Alcotest.fail "missing binding accepted"
   | exception Database.Error _ -> ());
  (* join with a param on each side *)
  let p3 =
    Database.prepare db
      "SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC = ? AND SAL > ?"
  in
  let got = Database.execute_prepared db p3 [ V.Str "DENVER"; V.Int 15000 ] in
  let expect =
    Database.query db
      "SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER' \
       AND SAL > 15000"
  in
  Alcotest.(check int) "join rows" (List.length (rows expect)) (List.length (rows got))

(* --- transactions ------------------------------------------------------ *)

let count db sql =
  match rows (Database.query db sql) with
  | [ [| V.Int n |] ] -> n
  | _ -> Alcotest.fail "count query"

let test_transaction_commit_rollback () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE T (A INT);\nINSERT INTO T VALUES (1), (2), (3);");
  (* rollback undoes inserts, deletes and updates *)
  ignore (Database.exec db "BEGIN");
  Alcotest.(check bool) "active" true (Database.in_transaction db);
  ignore (Database.exec db "INSERT INTO T VALUES (4)");
  ignore (Database.exec db "DELETE FROM T WHERE A = 1");
  ignore (Database.exec db "UPDATE T SET A = 20 WHERE A = 2");
  Alcotest.(check int) "mid-txn visible" 1 (count db "SELECT COUNT(*) FROM T WHERE A = 20");
  ignore (Database.exec db "ROLLBACK");
  Alcotest.(check bool) "inactive" false (Database.in_transaction db);
  Alcotest.(check int) "all restored" 3 (count db "SELECT COUNT(*) FROM T");
  Alcotest.(check int) "1 back" 1 (count db "SELECT COUNT(*) FROM T WHERE A = 1");
  Alcotest.(check int) "2 back" 1 (count db "SELECT COUNT(*) FROM T WHERE A = 2");
  Alcotest.(check int) "4 gone" 0 (count db "SELECT COUNT(*) FROM T WHERE A = 4");
  (* commit keeps *)
  ignore (Database.exec db "BEGIN");
  ignore (Database.exec db "INSERT INTO T VALUES (9)");
  ignore (Database.exec db "COMMIT");
  Alcotest.(check int) "committed" 1 (count db "SELECT COUNT(*) FROM T WHERE A = 9");
  (* protocol errors *)
  (match Database.exec db "COMMIT" with
   | _ -> Alcotest.fail "commit without begin"
   | exception Database.Error _ -> ());
  ignore (Database.exec db "BEGIN");
  (match Database.exec db "BEGIN" with
   | _ -> Alcotest.fail "nested begin"
   | exception Database.Error _ -> ());
  ignore (Database.exec db "ROLLBACK")

let test_wal_records_dml () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE T (A INT)");
  ignore (Database.exec db "INSERT INTO T VALUES (1), (2)");
  ignore (Database.exec db "DELETE FROM T WHERE A = 1");
  let recs = Rss.Wal.records (Database.wal db) in
  let count p = List.length (List.filter p recs) in
  Alcotest.(check int) "begins" 2 (count (function Rss.Wal.Begin _ -> true | _ -> false));
  Alcotest.(check int) "commits" 2 (count (function Rss.Wal.Commit _ -> true | _ -> false));
  Alcotest.(check int) "inserts" 2 (count (function Rss.Wal.Insert _ -> true | _ -> false));
  Alcotest.(check int) "deletes" 1 (count (function Rss.Wal.Delete _ -> true | _ -> false));
  (* replaying the engine's own log restores exactly the committed state *)
  let result = Rss.Recovery.replay (Rss.Wal.of_bytes (Rss.Wal.to_bytes (Database.wal db))) in
  Alcotest.(check int) "replay survivors" 1 (List.length result.Rss.Recovery.survivors)

let test_wal_discards_rolled_back () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE T (A INT)");
  ignore (Database.exec db "BEGIN");
  ignore (Database.exec db "INSERT INTO T VALUES (7)");
  ignore (Database.exec db "ROLLBACK");
  ignore (Database.exec db "INSERT INTO T VALUES (8)");
  let result = Rss.Recovery.replay (Database.wal db) in
  Alcotest.(check int) "only committed row" 1 (List.length result.Rss.Recovery.survivors);
  Alcotest.(check int) "one aborted txn discarded" 1
    (List.length result.Rss.Recovery.discarded)

let test_drop_statements () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE T (A INT);\nCREATE INDEX T_A ON T (A);\n\
        INSERT INTO T VALUES (1), (2), (3);");
  (match Database.exec db "DROP INDEX T_A" with
   | Database.Done _ -> ()
   | _ -> Alcotest.fail "drop index");
  Alcotest.(check bool) "index gone" true
    (Catalog.find_index (Database.catalog db) "T_A" = None);
  (match Database.exec db "DROP TABLE T" with
   | Database.Done _ -> ()
   | _ -> Alcotest.fail "drop table");
  (match Database.query db "SELECT A FROM T" with
   | _ -> Alcotest.fail "dropped table queryable"
   | exception Database.Error _ -> ());
  (* re-creating with the same name works and starts empty *)
  ignore (Database.exec db "CREATE TABLE T (A INT)");
  (match rows (Database.query db "SELECT COUNT(*) FROM T") with
   | [ [| V.Int 0 |] ] -> ()
   | _ -> Alcotest.fail "recreated table not empty");
  (match Database.exec db "DROP TABLE NOPE" with
   | _ -> Alcotest.fail "unknown drop accepted"
   | exception Database.Error _ -> ())

(* --- snapshots ----------------------------------------------------------- *)

let test_snapshot_roundtrip () =
  let db = Database.create () in
  Workload.load_emp_dept_job db
    ~config:{ Workload.default_emp_config with n_emp = 500 };
  ignore (Database.exec db "DELETE FROM EMP WHERE SAL > 29000");
  let before = rows (Database.query db Workload.fig1_query) in
  let bytes = Snapshot.save db in
  let db2 = Snapshot.load bytes in
  (* identical schemas, contents and index behaviour after reload *)
  let after = rows (Database.query db2 Workload.fig1_query) in
  Alcotest.(check int) "same query result" (List.length before) (List.length after);
  let c1 = rows (Database.query db "SELECT COUNT(*) FROM EMP") in
  let c2 = rows (Database.query db2 "SELECT COUNT(*) FROM EMP") in
  Alcotest.(check bool) "same cardinality" true (c1 = c2);
  (* indexes were rebuilt: an indexed plan exists and works *)
  let r = Database.optimize db2 "SELECT NAME FROM EMP WHERE DNO = 5" in
  (match r.Optimizer.plan.Plan.node with
   | Plan.Scan { access = Plan.Idx_scan _; _ } -> ()
   | _ -> Alcotest.fail "index not rebuilt");
  (* statistics were recollected *)
  let emp = Option.get (Catalog.find_relation (Database.catalog db2) "EMP") in
  Alcotest.(check bool) "stats present" true (emp.Catalog.rstats <> None);
  (* corrupt input rejected *)
  (match Snapshot.load "garbage" with
   | _ -> Alcotest.fail "garbage accepted"
   | exception Invalid_argument _ -> ());
  (match Snapshot.load (bytes ^ "x") with
   | _ -> Alcotest.fail "trailing bytes accepted"
   | exception Invalid_argument _ -> ());
  (* file roundtrip *)
  let path = Filename.temp_file "systemr" ".snap" in
  Snapshot.save_to_file db path;
  let db3 = Snapshot.load_from_file path in
  Sys.remove path;
  let c3 = rows (Database.query db3 "SELECT COUNT(*) FROM EMP") in
  Alcotest.(check bool) "file roundtrip" true (c1 = c3)

let test_zipf_workload () =
  (* the sampler is properly skewed and the loader produces usable stats *)
  let rng = Workload.rand_init 9 in
  let sample = Workload.zipf_sampler rng ~n:20 ~s:1.5 in
  let counts = Array.make 20 0 in
  for _ = 1 to 5000 do
    let k = sample () in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 20);
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check bool) "head heavier than tail" true (counts.(0) > 5 * counts.(10));
  Alcotest.(check bool) "monotone-ish" true (counts.(0) > counts.(3));
  (* s = 0 is uniform *)
  let u = Workload.zipf_sampler rng ~n:10 ~s:0. in
  let uc = Array.make 10 0 in
  for _ = 1 to 10000 do
    let k = u () in
    uc.(k) <- uc.(k) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 700 && c < 1300))
    uc;
  let db = Database.create () in
  Workload.load_zipf db ~name:"Z" ~rows:500
    ~cols:[ ("K", 10, 1.0); ("V", 100, 0.) ]
    ~indexes:[ ("Z_K", [ "K" ], false) ]
    ~seed:3 ();
  let out = Database.query db "SELECT COUNT(*) FROM Z" in
  (match out.Executor.rows with
   | [ [| V.Int 500 |] ] -> ()
   | _ -> Alcotest.fail "row count")

(* --- model-based DML stress --------------------------------------------- *)

(* Random INSERT / DELETE / UPDATE / transaction sequences are applied both
   to the engine and to a trivial in-memory multiset model; after every
   statement the full table contents must agree, and at the end the indexed
   lookups must agree with the model too. *)
let test_random_dml_against_model () =
  let rng = Random.State.make [| 424242 |] in
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE M (K INT, V INT)");
  ignore (Database.exec db "CREATE INDEX M_K ON M (K)");
  let model : (int * int) list ref = ref [] in
  let saved = ref [] in
  let in_txn = ref false in
  let apply_stmt () =
    match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      let k = Random.State.int rng 10 and v = Random.State.int rng 100 in
      ignore (Database.exec db (Printf.sprintf "INSERT INTO M VALUES (%d, %d)" k v));
      model := (k, v) :: !model
    | 4 | 5 ->
      let k = Random.State.int rng 10 in
      ignore (Database.exec db (Printf.sprintf "DELETE FROM M WHERE K = %d" k));
      model := List.filter (fun (k', _) -> k' <> k) !model
    | 6 | 7 ->
      let k = Random.State.int rng 10 and dv = Random.State.int rng 5 in
      ignore
        (Database.exec db
           (Printf.sprintf "UPDATE M SET V = V + %d WHERE K = %d" dv k));
      model := List.map (fun (k', v) -> if k' = k then (k', v + dv) else (k', v)) !model
    | 8 when not !in_txn ->
      ignore (Database.exec db "BEGIN");
      in_txn := true;
      saved := !model
    | 8 | 9 when !in_txn ->
      if Random.State.bool rng then begin
        ignore (Database.exec db "COMMIT");
        in_txn := false
      end
      else begin
        ignore (Database.exec db "ROLLBACK");
        in_txn := false;
        model := !saved
      end
    | _ -> ()
  in
  let agree what =
    let got =
      List.map
        (fun row ->
          match row with
          | [| V.Int k; V.Int v |] -> (k, v)
          | _ -> Alcotest.fail "row shape")
        (rows (Database.query db "SELECT K, V FROM M"))
      |> List.sort compare
    in
    let expect = List.sort compare !model in
    if got <> expect then
      Alcotest.fail
        (Printf.sprintf "%s: engine has %d rows, model %d" what (List.length got)
           (List.length expect))
  in
  for step = 1 to 300 do
    apply_stmt ();
    if step mod 25 = 0 then agree (Printf.sprintf "step %d" step)
  done;
  if !in_txn then ignore (Database.exec db "COMMIT");
  agree "final";
  (* indexed point lookups agree with the model *)
  for k = 0 to 9 do
    let got = List.length (rows (Database.query db (Printf.sprintf "SELECT V FROM M WHERE K = %d" k))) in
    let expect = List.length (List.filter (fun (k', _) -> k' = k) !model) in
    Alcotest.(check int) (Printf.sprintf "lookup K=%d" k) expect got
  done

let () =
  Alcotest.run "engine"
    [ ( "sql",
        [ Alcotest.test_case "DDL/DML roundtrip" `Quick test_ddl_dml_roundtrip;
          Alcotest.test_case "error paths" `Quick test_error_paths;
          Alcotest.test_case "Figure 1 database" `Quick test_fig1_database;
          Alcotest.test_case "EXPLAIN output" `Quick test_explain_output;
          Alcotest.test_case "script execution" `Quick test_exec_script_mixed;
          Alcotest.test_case "W invariance" `Quick test_w_affects_plans ] );
      ( "dml",
        [ Alcotest.test_case "UPDATE statement" `Quick test_update_statement;
          Alcotest.test_case "rejected UPDATE keeps the row in a txn" `Quick
            test_bad_update_in_txn;
          Alcotest.test_case "rejected UPDATE in auto-commit" `Quick
            test_bad_update_autocommit;
          Alcotest.test_case "DROP statements" `Quick test_drop_statements;
          Alcotest.test_case "point DML costs O(index height)" `Quick
            test_point_dml_counters;
          Alcotest.test_case "subqueries in a DML WHERE" `Quick
            test_dml_where_subqueries;
          Alcotest.test_case "Halloween through an index" `Quick
            test_halloween_through_index;
          Alcotest.test_case "DML without WHERE" `Quick test_dml_without_where;
          Alcotest.test_case "EXPLAIN DELETE / UPDATE" `Quick test_explain_dml;
          Alcotest.test_case "own writes are victims; rollback keeps TIDs"
            `Quick test_dml_own_writes_and_rollback ] );
      ( "prepared",
        [ Alcotest.test_case "prepared statements" `Quick test_prepared_statements ] );
      ( "transactions",
        [ Alcotest.test_case "commit/rollback" `Quick test_transaction_commit_rollback;
          Alcotest.test_case "WAL records DML" `Quick test_wal_records_dml;
          Alcotest.test_case "WAL discards rolled back" `Quick
            test_wal_discards_rolled_back;
          Alcotest.test_case "rollback of insert+delete of one row" `Quick
            test_rollback_insert_delete_same_row ] );
      ( "recovery",
        [ Alcotest.test_case "logged workload recovers" `Quick
            test_logged_workload_recovers;
          Alcotest.test_case "integrity checker" `Quick
            test_check_integrity_after_dml;
          Alcotest.test_case "recovery rebuilds indexes over new TIDs" `Quick
            test_recovery_rebuilds_index;
          Alcotest.test_case "recover allocates only reloaded pages" `Quick
            test_recover_allocates_only_reloaded_pages ] );
      ( "workload",
        [ Alcotest.test_case "zipf generator" `Quick test_zipf_workload ] );
      ( "snapshot",
        [ Alcotest.test_case "save/load roundtrip" `Quick test_snapshot_roundtrip ] );
      ( "model",
        [ Alcotest.test_case "random DML vs model" `Slow
            test_random_dml_against_model ] ) ]
