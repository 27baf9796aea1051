(* Compiled-plan cache semantics: fingerprint sharing and collision safety,
   literal rebinding, hit/miss/invalidation accounting, precise
   stats_version invalidation (UPDATE STATISTICS, index DDL, DROP/CREATE),
   uncached vs cached result equality over the full workload, prepared
   statements' plans in the same cache, and the one statement pipeline
   (shared keys, binding type checks, DML victim plans). *)

module V = Rel.Value

let parse sql = Parser.parse_query sql

let counters db = Rss.Pager.counters (Database.pager db)

let rows_of (out : Executor.output) = List.map Rel.Tuple.to_string out.Executor.rows

(* result comparison tolerant of row order: SELECTs without ORDER BY may
   legally reorder under a different plan *)
let canon_rows out = List.sort compare (rows_of out)

(* --- fingerprints ------------------------------------------------------- *)

let test_fingerprint_shapes () =
  let fp sql =
    match Normalize.fingerprint (parse sql) with
    | Some (key, _, values) -> (key, values)
    | None -> Alcotest.fail ("unexpectedly uncacheable: " ^ sql)
  in
  (* same shape, different literals: one key, different bindings *)
  let k1, v1 = fp "SELECT NAME FROM EMP WHERE DNO = 17 AND SAL > 1000" in
  let k2, v2 = fp "SELECT NAME FROM EMP WHERE DNO = 3 AND SAL > 29000" in
  Alcotest.(check string) "same key" k1 k2;
  Alcotest.(check bool) "bindings differ" true (v1 <> v2);
  Alcotest.(check int) "two literals extracted" 2 (List.length v1);
  (* a literal's type is not part of the key: bindings are type-checked
     against the plan they are served (test_binding_type_checked) *)
  let k3, _ = fp "SELECT NAME FROM EMP WHERE DNO = 17 AND SAL > 'x'" in
  Alcotest.(check string) "one key whatever the literal types" k1 k3;
  (* a different shape never collides *)
  let k4, _ = fp "SELECT NAME FROM EMP WHERE DNO = 17 AND SAL >= 1000" in
  Alcotest.(check bool) "comparison op in key" true (k1 <> k4);
  (* a [?] takes a literal's place in the key (test_parse_and_simple_share) *)
  let k7, v7 = fp "SELECT NAME FROM EMP WHERE DNO = ? AND SAL > 5" in
  Alcotest.(check string) "? and literal share the key" k1 k7;
  Alcotest.(check int) "only the literal is a value" 1 (List.length v7);
  (* canonicalization only touches WHERE: literals elsewhere stay in the key *)
  let k5, v5 = fp "SELECT SAL + 100 FROM EMP WHERE DNO = 1" in
  let k6, _ = fp "SELECT SAL + 200 FROM EMP WHERE DNO = 1" in
  Alcotest.(check bool) "select-list literal differentiates" true (k5 <> k6);
  Alcotest.(check int) "only the WHERE literal extracted" 1 (List.length v5)

let test_canonicalize_subqueries () =
  let q = parse "SELECT X FROM T1 WHERE A IN (SELECT B FROM T2 WHERE Y = 3) AND X > 7" in
  let _, _, slots = Normalize.canonicalize q in
  (* both the outer literal and the subquery's literal are parameterized *)
  Alcotest.(check int) "nested literals extracted" 2 (Array.length slots)

(* --- hit/miss accounting and rebinding ---------------------------------- *)

let emp_db () =
  let db = Database.create ~buffer_pages:32 () in
  Workload.load_emp_dept_job db;
  db

let test_hit_miss_and_rebinding () =
  let db = emp_db () in
  let c = counters db in
  let q1 = "SELECT NAME FROM EMP WHERE DNO = 17" in
  let q2 = "SELECT NAME FROM EMP WHERE DNO = 3" in
  let base_m = c.Rss.Counters.plan_cache_misses in
  let base_h = c.Rss.Counters.plan_cache_hits in
  let out1 = Database.query db q1 in
  Alcotest.(check int) "first execution misses" (base_m + 1)
    c.Rss.Counters.plan_cache_misses;
  let out1' = Database.query db q1 in
  Alcotest.(check int) "repeat hits" (base_h + 1) c.Rss.Counters.plan_cache_hits;
  Alcotest.(check int) "one entry" 1 (Database.plan_cache_size db);
  Alcotest.(check (list string)) "hit returns same rows" (canon_rows out1)
    (canon_rows out1');
  (* different literal, same shape: shares the plan, rebinding changes rows *)
  let out2 = Database.query db q2 in
  Alcotest.(check int) "shared-shape statement hits" (base_h + 2)
    c.Rss.Counters.plan_cache_hits;
  Alcotest.(check int) "still one entry" 1 (Database.plan_cache_size db);
  let out2_off = Database.run_plan db (Database.optimize db q2) in
  Alcotest.(check (list string)) "rebound literal gives uncached answer"
    (canon_rows out2_off) (canon_rows out2);
  Alcotest.(check bool) "different literals, different rows" true
    (canon_rows out1 <> canon_rows out2)

let test_type_error_still_raises () =
  let db = emp_db () in
  (* cache the string-literal shape first *)
  ignore (Database.query db "SELECT NAME FROM EMP WHERE NAME = 'adams'");
  (* the int-literal twin types differently: it must fail exactly as it does
     uncached, never silently reuse a plan through a parameter slot *)
  let raises sql =
    match Database.exec db sql with
    | exception Database.Error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "type mismatch raises through cache path" true
    (raises "SELECT NAME FROM EMP WHERE NAME = 5");
  Alcotest.(check bool) "raises again (never cached)" true
    (raises "SELECT NAME FROM EMP WHERE NAME = 5")

(* --- invalidation ------------------------------------------------------- *)

let test_update_statistics_invalidates () =
  let db = emp_db () in
  let c = counters db in
  let q = "SELECT NAME FROM EMP WHERE DNO = 17" in
  ignore (Database.query db q);
  ignore (Database.query db q);
  let base_i = c.Rss.Counters.plan_cache_invalidations in
  ignore (Database.exec db "UPDATE STATISTICS");
  ignore (Database.query db q);
  Alcotest.(check int) "stats bump invalidates" (base_i + 1)
    c.Rss.Counters.plan_cache_invalidations;
  (* re-cached against the new versions: steady again *)
  ignore (Database.query db q);
  Alcotest.(check int) "re-cached" (base_i + 1)
    c.Rss.Counters.plan_cache_invalidations

let test_invalidation_is_precise () =
  let db = emp_db () in
  Workload.load_sales db;
  let c = counters db in
  let emp_q = "SELECT NAME FROM EMP WHERE DNO = 17" in
  let sales_q = "SELECT REGION FROM CUSTOMER WHERE CUSTKEY = 5" in
  ignore (Database.query db emp_q);
  ignore (Database.query db sales_q);
  let base_h = c.Rss.Counters.plan_cache_hits in
  let base_i = c.Rss.Counters.plan_cache_invalidations in
  (* DDL on CUSTOMER must not disturb the EMP plan *)
  ignore (Database.exec db "CREATE INDEX CUST_REGION ON CUSTOMER (REGION)");
  ignore (Database.query db emp_q);
  Alcotest.(check int) "unrelated plan still hits" (base_h + 1)
    c.Rss.Counters.plan_cache_hits;
  ignore (Database.query db sales_q);
  Alcotest.(check int) "dependent plan invalidated" (base_i + 1)
    c.Rss.Counters.plan_cache_invalidations

let test_drop_create_table_never_stale () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE S (X INT)");
  ignore (Database.exec db "INSERT INTO S VALUES (1), (2), (3)");
  let q = "SELECT X FROM S WHERE X > 0" in
  Alcotest.(check int) "three rows" 3
    (List.length (Database.query db q).Executor.rows);
  ignore (Database.exec db "DROP TABLE S");
  ignore (Database.exec db "CREATE TABLE S (X INT)");
  ignore (Database.exec db "INSERT INTO S VALUES (9)");
  (* same fingerprint, but the old plan holds the dropped relation: the
     rel_id check must force a re-optimize against the new table *)
  Alcotest.(check int) "fresh table, fresh plan" 1
    (List.length (Database.query db q).Executor.rows)

(* A SET changes only its own session's settings signature: that session
   re-optimizes, while a session that kept its settings still hits. *)
let test_set_keeps_other_sessions_plans () =
  let db = emp_db () in
  let other = Session.create (Database.engine db) in
  let c = counters db in
  let q = "SELECT NAME FROM EMP WHERE DNO = 17" in
  ignore (Database.query db q);
  ignore (Session.query other q);
  let h0 = c.Rss.Counters.plan_cache_hits in
  let m0 = c.Rss.Counters.plan_cache_misses in
  Database.set_w db 2.0;
  ignore (Database.query db q);
  Alcotest.(check int) "changed session re-optimizes" (m0 + 1)
    c.Rss.Counters.plan_cache_misses;
  ignore (Session.query other q);
  Alcotest.(check int) "unchanged session still hits" (h0 + 1)
    c.Rss.Counters.plan_cache_hits;
  Session.close other

(* --- stats shift: unclustered index becomes effectively clustered ------- *)

let test_stats_shift_changes_cached_plan () =
  let db = Database.create ~buffer_pages:16 () in
  let cat = Database.catalog db in
  (* wide tuples: the heap spans far more pages than the index leaves, so
     clusteredness decides whether a range scan beats reading the segment *)
  let schema =
    Rel.Schema.make
      (List.map
         (fun n -> { Rel.Schema.name = n; ty = V.Tint })
         [ "K"; "P"; "C1"; "C2"; "C3"; "C4"; "C5"; "C6" ])
  in
  let r = Catalog.create_relation cat ~name:"R" ~schema in
  let row k =
    Rel.Tuple.make (V.Int k :: V.Int (k mod 7) :: List.init 6 (fun c -> V.Int (k + c)))
  in
  (* load in shuffled key order: consecutive K values land on scattered
     pages, so the measured cluster ratio is low *)
  let n = 2000 in
  let perm = Array.init n (fun i -> i * 997 mod n) in
  Array.iter (fun k -> ignore (Catalog.insert_tuple cat r (row k))) perm;
  ignore (Catalog.create_index cat ~name:"R_K" ~rel:r ~columns:[ "K" ] ~clustered:false);
  Catalog.update_statistics cat;
  let q = "SELECT P FROM R WHERE K BETWEEN 100 AND 700" in
  ignore (Database.query db q);
  let p1 =
    match Database.cached_plan db q with
    | Some res -> Plan.describe res.Optimizer.plan
    | None -> Alcotest.fail "plan not cached"
  in
  (* a wide range over an unclustered index costs a page per tuple: the
     optimizer reads the whole segment instead *)
  Alcotest.(check bool) "scattered rows scan the segment" true
    (String.length p1 >= 3 && String.sub p1 0 3 = "Seg");
  (* physically reorganize: reload in key order, then re-measure. DML alone
     must not invalidate (System R semantics: indexes are maintained, plans
     stay valid) — only the UPDATE STATISTICS afterwards moves the version. *)
  Catalog.wipe_relation cat r;
  for k = 0 to n - 1 do
    ignore (Catalog.insert_tuple cat r (row k))
  done;
  (match Database.cached_plan db q with
   | Some _ -> ()
   | None -> Alcotest.fail "DML alone must not invalidate");
  let c = counters db in
  let base_i = c.Rss.Counters.plan_cache_invalidations in
  ignore (Database.exec db "UPDATE STATISTICS");
  ignore (Database.query db q);
  Alcotest.(check int) "stats shift invalidates" (base_i + 1)
    c.Rss.Counters.plan_cache_invalidations;
  let p2 =
    match Database.cached_plan db q with
    | Some res -> Plan.describe res.Optimizer.plan
    | None -> Alcotest.fail "plan not re-cached"
  in
  (* the measured cluster ratio is ~1 now: the re-optimized plan uses the
     index as a clustered matching scan *)
  Alcotest.(check bool) ("plan changed: " ^ p1 ^ " -> " ^ p2) true (p1 <> p2);
  Alcotest.(check bool) "new plan uses the R_K index" true
    (String.length p2 >= 3 && String.sub p2 0 3 = "Idx");
  (* and the rebound execution still returns the right rows *)
  Alcotest.(check int) "row count" 601
    (List.length (Database.query db q).Executor.rows)

(* --- uncached vs cached over the full workload --------------------------- *)

let workload_corpus =
  [ Workload.fig1_query;
    "SELECT NAME FROM EMP WHERE DNO = 17";
    "SELECT NAME FROM EMP WHERE SAL > 29000";
    "SELECT NAME FROM EMP WHERE DNO BETWEEN 10 AND 12 AND JOB = 5";
    "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND SAL > 25000";
    "SELECT TITLE, COUNT(*) FROM EMP, JOB WHERE EMP.JOB = JOB.JOB GROUP BY TITLE";
    "SELECT NAME FROM EMP WHERE JOB IN (5, 9) ORDER BY NAME";
    "SELECT NAME FROM EMP WHERE SAL > (SELECT AVG(SAL) FROM EMP)";
    "SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = 'DENVER')";
    "SELECT REGION, COUNT(*) FROM CUSTOMER GROUP BY REGION";
    "SELECT ODATE FROM ORDERS, CUSTOMER WHERE ORDERS.CUSTKEY = CUSTOMER.CUSTKEY \
     AND REGION = 'EAST'";
    "SELECT AMOUNT FROM LINEITEM, ORDERS WHERE LINEITEM.ORDKEY = ORDERS.ORDKEY \
     AND ODATE > 900";
    "SELECT CATEGORY, COUNT(*) FROM LINEITEM, PRODUCT \
     WHERE LINEITEM.PRODKEY = PRODUCT.PRODKEY GROUP BY CATEGORY" ]

let test_cache_off_vs_on_workload () =
  let db = Database.create ~buffer_pages:64 () in
  Workload.load_emp_dept_job db;
  Workload.load_sales db;
  let run () = List.map (fun sql -> canon_rows (Database.query db sql)) workload_corpus in
  let off =
    List.map
      (fun sql -> canon_rows (Database.run_plan db (Database.optimize db sql)))
      workload_corpus
  in
  let cold = run () in
  let warm = run () in
  List.iteri
    (fun i sql ->
      Alcotest.(check (list string)) ("cold = off: " ^ sql) (List.nth off i)
        (List.nth cold i);
      Alcotest.(check (list string)) ("warm = off: " ^ sql) (List.nth off i)
        (List.nth warm i))
    workload_corpus;
  (* every statement was executed twice with the cache on: one entry each *)
  Alcotest.(check int) "entries populated" (List.length workload_corpus)
    (Database.plan_cache_size db)

(* Assertions folded in from the former review_probe/ scratch executable:
   const-const predicate shapes share a cached plan but rebind correctly,
   DML through the SELECT-only [query] entry point errors, and string vs
   int literals of the same shape never collide. *)
let test_probe_assertions () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (a INT, b STRING)");
  for i = 1 to 10 do
    ignore (Database.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 'x%d')" i i))
  done;
  let n sql = List.length (Database.query db sql).Executor.rows in
  (* const-const predicates share a shape; rebinding must not leak the
     always-false plan into the always-true probe *)
  Alcotest.(check int) "WHERE 1=2" 0 (n "SELECT * FROM t WHERE 1 = 2");
  Alcotest.(check int) "WHERE 3=3" 10 (n "SELECT * FROM t WHERE 3 = 3");
  (* same shape, different literals: rebinding through the cache *)
  Alcotest.(check int) "a<3" 2 (n "SELECT * FROM t WHERE a < 3");
  Alcotest.(check int) "a<9" 8 (n "SELECT * FROM t WHERE a < 9");
  (* exact text repeat takes the memo fast path, same answer *)
  let hits0 = (counters db).Rss.Counters.plan_cache_hits in
  Alcotest.(check int) "repeat a<3" 2 (n "SELECT * FROM t WHERE a < 3");
  Alcotest.(check bool) "text repeat hits" true
    ((counters db).Rss.Counters.plan_cache_hits > hits0);
  (* string vs int literal with the same shape must not collide *)
  Alcotest.(check int) "b='x3'" 1 (n "SELECT * FROM t WHERE b = 'x3'");
  Alcotest.(check int) "a<3 after string probe" 2 (n "SELECT * FROM t WHERE a < 3");
  (* DML through the SELECT-only entry point errors, and changes nothing *)
  let rel = Option.get (Catalog.find_relation (Database.catalog db) "t") in
  let version = rel.Catalog.stats_version in
  (match Database.query db "INSERT INTO t VALUES (99, 'z')" with
   | _ -> Alcotest.fail "INSERT accepted by query"
   | exception Database.Error _ -> ());
  Alcotest.(check int) "rejected INSERT inserted nothing" 10
    (n "SELECT * FROM t WHERE a >= 0");
  Alcotest.(check int) "rejected INSERT left stats_version" version
    rel.Catalog.stats_version;
  Alcotest.(check bool) "entries cached" true (Database.plan_cache_size db > 0)

(* IN-list and select-list literals stay in the key, so the key must tell
   apart every pair of floats: 0.1 and 0.1000000000001 share their first 12
   significant digits but must not share a plan. *)
let test_float_literals_in_key () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE T (X FLOAT, K INT); INSERT INTO T VALUES (0.1, 1), (0.1000000000001, 2);");
  let col sql = List.map (fun (r : Rel.Tuple.t) -> r.(0)) (Database.query db sql).Executor.rows in
  Alcotest.(check (list string)) "IN (0.1)" [ "1" ]
    (List.map V.to_string (col "SELECT K FROM T WHERE X IN (0.1)"));
  Alcotest.(check (list string)) "IN (0.1000000000001)" [ "2" ]
    (List.map V.to_string (col "SELECT K FROM T WHERE X IN (0.1000000000001)"));
  let one sql = match col sql with v :: _ -> v | [] -> Alcotest.fail sql in
  Alcotest.(check bool) "select-list 0.1" true
    (V.equal (V.Float 0.1) (one "SELECT 0.1 FROM T"));
  Alcotest.(check bool) "select-list 0.1000000000001" true
    (V.equal (V.Float 0.1000000000001) (one "SELECT 0.1000000000001 FROM T"))

(* [exec] and [query] probe the plan cache through one helper: the same
   statement sequence — a miss, an exact repeat, new literals, then an
   invalidation by UPDATE STATISTICS — returns the same rows and leaves the
   same hit / miss / invalidation counts on either entry point. *)
let test_exec_and_query_count_alike () =
  let run select =
    let db = Database.create () in
    ignore (Database.exec db "CREATE TABLE t (a INT)");
    ignore (Database.exec db "INSERT INTO t VALUES (1), (2), (3), (4), (5), (6), (7), (8)");
    let before = Rss.Counters.snapshot (counters db) in
    let rows sql = canon_rows (select db sql) in
    let miss = rows "SELECT a FROM t WHERE a < 3" in
    let repeat = rows "SELECT a FROM t WHERE a < 3" in
    let rebound = rows "SELECT a FROM t WHERE a < 7" in
    ignore (Database.exec db "UPDATE STATISTICS");
    let invalidated = rows "SELECT a FROM t WHERE a < 3" in
    let c = counters db in
    let counts =
      ( c.Rss.Counters.plan_cache_hits - before.Rss.Counters.plan_cache_hits,
        c.Rss.Counters.plan_cache_misses - before.Rss.Counters.plan_cache_misses,
        c.Rss.Counters.plan_cache_invalidations
        - before.Rss.Counters.plan_cache_invalidations )
    in
    (* EXPLAIN prints the invalidations inside the misses, not beside them *)
    (match Database.exec db "EXPLAIN SELECT a FROM t WHERE a < 3" with
     | Database.Text s ->
       let line =
         Printf.sprintf "hits=%d misses=%d (invalidated %d) "
           c.Rss.Counters.plan_cache_hits c.Rss.Counters.plan_cache_misses
           c.Rss.Counters.plan_cache_invalidations
       in
       if not (Fuzz_harness.contains s line) then
         Alcotest.failf "EXPLAIN should print %S in:\n%s" line s
     | _ -> Alcotest.fail "EXPLAIN: expected Text");
    ([ miss; repeat; rebound; invalidated ], counts)
  in
  let exec_rows, exec_counts =
    run (fun db sql ->
        match Database.exec db sql with
        | Database.Rows out -> out
        | Database.Text _ | Database.Done _ -> Alcotest.fail "exec: expected rows")
  in
  let query_rows, query_counts = run Database.query in
  Alcotest.(check (list (list string))) "same rows" exec_rows query_rows;
  Alcotest.(check (list int)) "row counts" [ 2; 2; 6; 2 ]
    (List.map List.length exec_rows);
  let triple = Alcotest.(triple int int int) in
  Alcotest.check triple "exec: hits, misses, invalidations" (2, 2, 1) exec_counts;
  (* an invalidated probe is one of the misses: hits + misses = the 4 probes *)
  let hits, misses, _ = exec_counts in
  Alcotest.(check int) "hits + misses = probes" 4 (hits + misses);
  Alcotest.check triple "query: same counts" exec_counts query_counts

(* The fuzz harness's fault-injection hook: with dependency validation off,
   DROP/CREATE TABLE leaves a stale plan in the cache and the engine serves
   wrong rows — with it on (the default), never. *)
let test_validation_hook () =
  let run validate =
    let db = Database.create () in
    Database.set_plan_cache_validation db validate;
    ignore (Database.exec db "CREATE TABLE t (a INT)");
    ignore (Database.exec db "INSERT INTO t VALUES (1), (2), (3)");
    ignore (Database.query db "SELECT a FROM t WHERE a >= 0");  (* warm *)
    ignore (Database.exec db "DROP TABLE t");
    ignore (Database.exec db "CREATE TABLE t (a INT)");
    ignore (Database.exec db "INSERT INTO t VALUES (7)");
    List.length (Database.query db "SELECT a FROM t WHERE a >= 0").Executor.rows
  in
  Alcotest.(check int) "validation on: fresh plan, fresh rows" 1 (run true);
  Alcotest.(check bool) "validation off: stale plan serves old data" true
    (run false <> 1)

(* --- LRU cap ------------------------------------------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_lru_cap_and_evictions () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (a INT, b INT)");
  ignore (Database.exec db "INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)");
  let c = counters db in
  let q1 = "SELECT a FROM t WHERE a = 1" in
  let q2 = "SELECT b FROM t WHERE b = 10" in
  let q3 = "SELECT a, b FROM t WHERE a >= 0" in
  let q4 = "SELECT b, a FROM t WHERE b >= 0" in
  ignore (Database.query db q1);
  ignore (Database.query db q2);
  ignore (Database.query db q3);
  Alcotest.(check int) "three shapes cached" 3 (Database.plan_cache_size db);
  Alcotest.(check int) "no evictions under the default cap" 0
    c.Rss.Counters.plan_cache_evictions;
  (match Database.exec db "SET PLAN_CACHE_SIZE 2" with
   | Database.Done msg ->
     Alcotest.(check string) "tag" "plan cache size set to 2" msg
   | _ -> Alcotest.fail "SET PLAN_CACHE_SIZE: expected Done");
  (* the cap applies immediately: LRU entry (q1) evicted, eviction counted *)
  Alcotest.(check int) "shrunk to cap" 2 (Database.plan_cache_size db);
  Alcotest.(check bool) "evictions counted" true
    (c.Rss.Counters.plan_cache_evictions >= 1);
  (* recency order is per-use, not per-insert: touch q2, then insert q4 —
     q3 (now least recent) goes, q2 stays hot *)
  let h0 = c.Rss.Counters.plan_cache_hits in
  ignore (Database.query db q2);
  Alcotest.(check int) "q2 still resident" (h0 + 1) c.Rss.Counters.plan_cache_hits;
  ignore (Database.query db q4);
  Alcotest.(check int) "insert past cap keeps size" 2 (Database.plan_cache_size db);
  ignore (Database.query db q2);
  Alcotest.(check int) "hot entry survives" (h0 + 2) c.Rss.Counters.plan_cache_hits;
  let m0 = c.Rss.Counters.plan_cache_misses in
  ignore (Database.query db q3);
  Alcotest.(check int) "cold entry was evicted" (m0 + 1)
    c.Rss.Counters.plan_cache_misses;
  (* the statement-text memo obeys the same cap *)
  Alcotest.(check bool) "text memo capped" true
    (Plan_cache.text_size (Engine.plan_cache (Database.engine db)) <= 2);
  (* EXPLAIN surfaces evictions and the cap *)
  (match Database.exec db ("EXPLAIN " ^ q2) with
   | Database.Text s ->
     Alcotest.(check bool) "explain shows evictions" true (contains s "evictions=");
     Alcotest.(check bool) "explain shows cap" true (contains s "cap=2")
   | _ -> Alcotest.fail "EXPLAIN: expected Text")

(* --- prepared statements in the same cache -------------------------------- *)

let t_db () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2), (3), (4), (5);");
  db

(* Two sessions preparing one text optimize it once, and their executions
   count as hits. *)
let test_prepared_shared_across_sessions () =
  let db = t_db () in
  let other = Session.create (Database.engine db) in
  let c = counters db in
  let m0 = c.Rss.Counters.plan_cache_misses in
  let sql = "SELECT a FROM t WHERE a >= ?" in
  let p1 = Database.prepare db sql in
  let p2 = Session.prepare other sql in
  Alcotest.(check int) "one miss in total" (m0 + 1) c.Rss.Counters.plan_cache_misses;
  Alcotest.(check bool) "one plan" true
    (Database.prepared_plan p1 == Session.prepared_plan p2);
  let h0 = c.Rss.Counters.plan_cache_hits in
  let n out = List.length out.Executor.rows in
  Alcotest.(check int) "a >= 2" 4 (n (Database.execute_prepared db p1 [ V.Int 2 ]));
  Alcotest.(check int) "a >= 5" 1 (n (Session.execute_prepared other p2 [ V.Int 5 ]));
  Alcotest.(check int) "executions hit" (h0 + 2) c.Rss.Counters.plan_cache_hits;
  Alcotest.(check int) "still one miss" (m0 + 1) c.Rss.Counters.plan_cache_misses;
  Session.close other

(* The LRU bound covers prepared plans: one evicted by a later statement
   re-optimizes on its next execution and answers as before. *)
let test_prepared_evicted_reoptimizes () =
  let db = t_db () in
  let c = counters db in
  ignore (Database.exec db "SET PLAN_CACHE_SIZE 1");
  let p = Database.prepare db "SELECT a FROM t WHERE a > ?" in
  let e0 = c.Rss.Counters.plan_cache_evictions in
  ignore (Database.query db "SELECT a FROM t WHERE a = 1");
  Alcotest.(check int) "prepared plan evicted" (e0 + 1)
    c.Rss.Counters.plan_cache_evictions;
  let m0 = c.Rss.Counters.plan_cache_misses in
  let out = Database.execute_prepared db p [ V.Int 3 ] in
  Alcotest.(check int) "re-optimized" (m0 + 1) c.Rss.Counters.plan_cache_misses;
  Alcotest.(check (list string)) "right rows" [ "(4)"; "(5)" ] (canon_rows out);
  let h0 = c.Rss.Counters.plan_cache_hits in
  Alcotest.(check (list string)) "then hits" [ "(4)"; "(5)" ]
    (canon_rows (Database.execute_prepared db p [ V.Int 3 ]));
  Alcotest.(check int) "hit" (h0 + 1) c.Rss.Counters.plan_cache_hits

(* --- one pipeline: shared keys, binding checks, DML victim plans ---------- *)

(* [A = ?] at Parse and [A = 5] as a Simple statement are one shape: one
   entry and one miss, whichever comes first. *)
let test_parse_and_simple_share () =
  List.iter
    (fun parse_first ->
      let db = t_db () in
      let c = counters db in
      let m0 = c.Rss.Counters.plan_cache_misses in
      let prepare () = Database.prepare db "SELECT a FROM t WHERE a = ?" in
      let simple () = canon_rows (Database.query db "SELECT a FROM t WHERE a = 5") in
      let p, rows =
        if parse_first then
          let p = prepare () in
          (p, simple ())
        else
          let rows = simple () in
          (prepare (), rows)
      in
      let order = if parse_first then "Parse first" else "Simple first" in
      Alcotest.(check (list string)) (order ^ ": Simple rows") [ "(5)" ] rows;
      Alcotest.(check (list string)) (order ^ ": Execute rows") [ "(3)" ]
        (canon_rows (Database.execute_prepared db p [ V.Int 3 ]));
      Alcotest.(check int) (order ^ ": one miss") (m0 + 1)
        c.Rss.Counters.plan_cache_misses;
      Alcotest.(check int) (order ^ ": one entry") 1 (Database.plan_cache_size db))
    [ true; false ]

(* A string bound to an INT slot fails with the error its literal gets,
   whether a Parse or a Simple literal created the entry, and a good
   binding is still served. *)
let test_binding_type_checked () =
  let error f =
    match f () with
    | _ -> Alcotest.fail "string bound to an INT slot accepted"
    | exception Database.Error msg -> msg
  in
  let literal = "SELECT a FROM t WHERE a = 'x'" in
  let want = error (fun () -> Database.query (t_db ()) literal) in
  List.iter
    (fun (creator, create) ->
      let db = t_db () in
      create db;
      let p = Database.prepare db "SELECT a FROM t WHERE a = ?" in
      Alcotest.(check string) (creator ^ ": Execute") want
        (error (fun () -> Database.execute_prepared db p [ V.Str "x" ]));
      Alcotest.(check string) (creator ^ ": Simple") want
        (error (fun () -> Database.query db literal));
      Alcotest.(check (list string)) (creator ^ ": good binding") [ "(2)" ]
        (canon_rows (Database.execute_prepared db p [ V.Int 2 ])))
    [ ("Parse", fun _ -> ());
      ("Simple", fun db -> ignore (Database.query db "SELECT a FROM t WHERE a = 1")) ]

(* A Simple statement with a [?] fails the arity check of an Execute with
   no arguments, before any row is read or stamped; inside BEGIN the failed
   DML aborts the transaction. *)
let test_simple_with_param () =
  let db = t_db () in
  let fails sql =
    match Database.exec db sql with
    | _ -> Alcotest.failf "%s accepted" sql
    | exception Database.Error msg ->
      Alcotest.(check string) sql "statement takes 1 parameter, 0 given" msg
  in
  List.iter fails
    [ "SELECT a FROM t WHERE a = ?"; "DELETE FROM t WHERE a = ?";
      "UPDATE t SET a = 0 WHERE a > ?" ];
  let all () = canon_rows (Database.query db "SELECT a FROM t") in
  Alcotest.(check (list string)) "nothing changed" [ "(1)"; "(2)"; "(3)"; "(4)"; "(5)" ]
    (all ());
  ignore (Database.exec db "BEGIN");
  ignore (Database.exec db "DELETE FROM t WHERE a = 1");
  fails "DELETE FROM t WHERE a = ?";
  (match Database.exec db "COMMIT" with
   | _ -> Alcotest.fail "COMMIT of an aborted transaction succeeded"
   | exception Database.Error msg ->
     Alcotest.(check bool) msg true (Fuzz_harness.contains msg "rolled back"));
  Alcotest.(check (list string)) "the earlier DELETE rolled back"
    [ "(1)"; "(2)"; "(3)"; "(4)"; "(5)" ] (all ())

(* DELETE and UPDATE find their victims through the plan of SELECT * FROM t
   WHERE ..., cached like any SELECT's: a repeat of a shape hits, and index
   DDL between two statements of one shape retires the plan. *)
let test_dml_victim_plans () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE t (a INT, b INT)");
  let insert lo hi =
    let row i = Printf.sprintf "(%d, %d)" i (i mod 100) in
    ignore
      (Database.exec db
         ("INSERT INTO t VALUES "
         ^ String.concat ", " (List.init (hi - lo + 1) (fun i -> row (lo + i)))))
  in
  insert 1 2000;
  ignore (Database.exec db "UPDATE STATISTICS");
  let c = counters db in
  let hits () = c.Rss.Counters.plan_cache_hits
  and misses () = c.Rss.Counters.plan_cache_misses in
  let count sql = List.length (Database.query db sql).Executor.rows in
  ignore (Database.exec db "UPDATE t SET b = 0 WHERE a = 1");
  let h0 = hits () in
  ignore (Database.exec db "UPDATE t SET b = 0 WHERE a = 2");
  Alcotest.(check int) "second UPDATE hits" (h0 + 1) (hits ());
  ignore (Database.exec db "DELETE FROM t WHERE a > 1990");
  let h1 = hits () in
  ignore (Database.exec db "DELETE FROM t WHERE a > 1980");
  Alcotest.(check int) "second DELETE hits" (h1 + 1) (hits ());
  Alcotest.(check int) "rows deleted" 1980 (count "SELECT a FROM t");
  let victim_plan () =
    match Database.cached_plan db "SELECT * FROM t WHERE b = 0" with
    | Some r -> Plan.describe r.Optimizer.plan
    | None -> Alcotest.fail "victim plan not cached"
  in
  ignore (Database.exec db "DELETE FROM t WHERE b = 5");
  let before = victim_plan () in
  let m1 = misses () in
  ignore (Database.exec db "CREATE INDEX t_b ON t (b)");
  ignore (Database.exec db "DELETE FROM t WHERE b = 6");
  Alcotest.(check int) "index DDL: one miss" (m1 + 1) (misses ());
  let after = victim_plan () in
  Alcotest.(check bool) ("before: " ^ before) true (String.sub before 0 3 = "Seg");
  Alcotest.(check bool) ("after: " ^ after) true (String.sub after 0 3 = "Idx");
  Alcotest.(check int) "b = 5 and b = 6 deleted" 0
    (count "SELECT a FROM t WHERE b = 5 OR b = 6");
  (* rows the dropped index never held must still be found *)
  ignore (Database.exec db "DROP INDEX t_b");
  insert 3001 3200;
  let n = count "SELECT a FROM t" in
  Alcotest.(check int) "20 old and 2 new rows with b = 7" 22
    (count "SELECT a FROM t WHERE b = 7");
  (match Database.exec db "DELETE FROM t WHERE b = 7" with
   | Database.Done tag -> Alcotest.(check string) "DROP INDEX: victims" "22 rows deleted" tag
   | _ -> Alcotest.fail "DELETE: expected Done");
  Alcotest.(check int) "every other row kept" (n - 22) (count "SELECT a FROM t");
  Alcotest.(check bool) "integrity" true (Database.check_integrity db = Ok ())

(* Every statement a session parses is counted, and an Execute parses
   nothing: the counter the server bench's gate reads. *)
let test_parses_counted () =
  let db = t_db () in
  let c = counters db in
  let p0 = c.Rss.Counters.statements_parsed in
  let parsed what n =
    Alcotest.(check int) what (p0 + n) c.Rss.Counters.statements_parsed
  in
  ignore (Database.exec db "SELECT a FROM t WHERE a = 1");
  parsed "Simple statement" 1;
  ignore (Database.exec_script db "SELECT a FROM t; SELECT a FROM t WHERE a = 2;");
  parsed "script statements" 3;
  let p = Database.prepare db "SELECT a FROM t WHERE a = ?" in
  parsed "prepare" 4;
  ignore (Database.execute_prepared db p [ V.Int 1 ]);
  ignore (Database.execute_prepared db p [ V.Int 2 ]);
  parsed "Execute parses nothing" 4;
  ignore (Database.query db "SELECT a FROM t WHERE a = 3");
  ignore (Database.query db "SELECT a FROM t WHERE a = 3");
  parsed "an exact repeat skips the parse" 5;
  (match Database.exec db "SELEC a FROM t" with
   | _ -> Alcotest.fail "syntax error accepted"
   | exception Database.Error _ -> ());
  parsed "a syntax error parses no statement" 5

(* Random operation sequences against a list model of LRU (most recent
   first, one cap for both tables): every probe answers as the model does,
   every operation evicts as many entries as the model, and the survivors
   are the model's. *)
type lru_op =
  | Store of int
  | Find of int
  | Memo of int * int
  | Text of int
  | Cap of int

let lru_op_gen =
  QCheck.Gen.(
    let key = int_bound 9 in
    frequency
      [ (4, map (fun k -> Store k) key);
        (4, map (fun k -> Find k) key);
        (4, map2 (fun k v -> Memo (k, v)) key (int_bound 3));
        (4, map (fun k -> Text k) key);
        (1, map (fun n -> Cap n) (int_range 0 6)) ])

let print_lru_op = function
  | Store k -> Printf.sprintf "store %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Memo (k, v) -> Printf.sprintf "memo %d=%d" k v
  | Text k -> Printf.sprintf "text %d" k
  | Cap n -> Printf.sprintf "cap %d" n

let prop_lru_matches_model =
  let db = t_db () in
  let plan = Database.optimize db "SELECT a FROM t WHERE a = 1" in
  let cat = Database.catalog db in
  QCheck.Test.make ~name:"LRU = list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map print_lru_op ops))
       QCheck.Gen.(
         map2 (fun n ops -> Cap n :: ops) (int_range 1 6)
           (list_size (int_range 1 60) lru_op_gen)))
    (fun ops ->
      let cache = Plan_cache.create () in
      let evicted = ref 0 in
      Plan_cache.set_evict_hook cache (fun n -> evicted := !evicted + n);
      let cap = ref (Plan_cache.cap cache) in
      (* model tables: (key, value) lists, most recent first *)
      let plans = ref [] and texts = ref [] in
      let touch tbl k v = tbl := (k, v) :: List.remove_assoc k !tbl in
      let trim tbl =
        let n = List.length !tbl - !cap in
        if n > 0 then tbl := List.filteri (fun i _ -> i < !cap) !tbl;
        max n 0
      in
      let key k = "k" ^ string_of_int k in
      let step op =
        evicted := 0;
        let expected_evictions =
          match op with
          | Store k ->
            Plan_cache.store cache (key k) plan;
            touch plans k ();
            trim plans
          | Find k ->
            let got =
              match Plan_cache.find cache cat (key k) with
              | Plan_cache.Hit _ -> true
              | Plan_cache.Miss -> false
              | Plan_cache.Invalidated -> QCheck.Test.fail_report "invalidated"
            in
            let want = List.mem_assoc k !plans in
            if want then touch plans k ();
            if got <> want then QCheck.Test.fail_reportf "find %d: hit=%b" k got;
            0
          | Memo (k, v) ->
            Plan_cache.memo_text cache ~sql:(key k) ~key:(key v)
              ~values:[| V.Int v |];
            touch texts k v;
            trim texts
          | Text k ->
            let got = Plan_cache.text_entry cache (key k) in
            let want = List.assoc_opt k !texts in
            Option.iter (touch texts k) want;
            let want = Option.map (fun v -> (key v, [| V.Int v |])) want in
            if got <> want then QCheck.Test.fail_reportf "text %d differs" k;
            0
          | Cap n ->
            Plan_cache.set_cap cache n;
            cap := max 1 n;
            let a = trim plans in
            a + trim texts
        in
        if !evicted <> expected_evictions then
          QCheck.Test.fail_reportf "%s: %d evicted, model %d" (print_lru_op op)
            !evicted expected_evictions;
        if Plan_cache.size cache <> List.length !plans
           || Plan_cache.text_size cache <> List.length !texts
        then QCheck.Test.fail_reportf "%s: sizes differ" (print_lru_op op)
      in
      List.iter step ops;
      (* survivors: probing every key settles membership (a probe evicts
         nothing) *)
      for k = 0 to 9 do
        step (Find k);
        step (Text k)
      done;
      true)

let () =
  Alcotest.run "plan_cache"
    [ ( "fingerprint",
        [ Alcotest.test_case "shapes and collisions" `Quick test_fingerprint_shapes;
          Alcotest.test_case "subquery literals" `Quick test_canonicalize_subqueries ] );
      ( "semantics",
        [ Alcotest.test_case "hit/miss and rebinding" `Quick
            test_hit_miss_and_rebinding;
          Alcotest.test_case "type errors surface" `Quick test_type_error_still_raises;
          Alcotest.test_case "off vs on workload equality" `Quick
            test_cache_off_vs_on_workload;
          Alcotest.test_case "probe assertions (const-const, DML, collisions)"
            `Quick test_probe_assertions;
          Alcotest.test_case "float literals in the key" `Quick
            test_float_literals_in_key;
          Alcotest.test_case "exec and query count probes alike" `Quick
            test_exec_and_query_count_alike ] );
      ( "invalidation",
        [ Alcotest.test_case "UPDATE STATISTICS" `Quick
            test_update_statistics_invalidates;
          Alcotest.test_case "per-relation precision" `Quick
            test_invalidation_is_precise;
          Alcotest.test_case "drop/create table" `Quick
            test_drop_create_table_never_stale;
          Alcotest.test_case "SET re-optimizes only its own session" `Quick
            test_set_keeps_other_sessions_plans;
          Alcotest.test_case "unclustered->clustered stats shift" `Quick
            test_stats_shift_changes_cached_plan;
          Alcotest.test_case "validation debug hook" `Quick
            test_validation_hook ] );
      ( "prepared",
        [ Alcotest.test_case "two sessions, one optimization" `Quick
            test_prepared_shared_across_sessions;
          Alcotest.test_case "evicted plan re-optimizes" `Quick
            test_prepared_evicted_reoptimizes;
          Alcotest.test_case "Execute parses nothing" `Quick test_parses_counted ] );
      ( "pipeline",
        [ Alcotest.test_case "Parse and Simple share one entry" `Quick
            test_parse_and_simple_share;
          Alcotest.test_case "bindings type-checked as literals" `Quick
            test_binding_type_checked;
          Alcotest.test_case "Simple statement with ?" `Quick test_simple_with_param;
          Alcotest.test_case "DML victim plans" `Quick test_dml_victim_plans ] );
      ( "lru",
        [ Alcotest.test_case "cap, evictions, recency" `Quick
            test_lru_cap_and_evictions;
          QCheck_alcotest.to_alcotest prop_lru_matches_model ] ) ]
