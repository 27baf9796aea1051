(* Compiled-plan cache semantics: fingerprint sharing and collision safety,
   literal rebinding, hit/miss/invalidation accounting, precise
   stats_version invalidation (UPDATE STATISTICS, index DDL, DROP/CREATE),
   and cache-off vs cache-on result equality over the full workload. *)

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
  (* literal type is part of the key: int vs string must not collide *)
  let k3, _ = fp "SELECT NAME FROM EMP WHERE DNO = 17 AND SAL > 'x'" in
  Alcotest.(check bool) "type-tagged keys differ" true (k1 <> k3);
  (* a different shape never collides *)
  let k4, _ = fp "SELECT NAME FROM EMP WHERE DNO = 17 AND SAL >= 1000" in
  Alcotest.(check bool) "comparison op in key" true (k1 <> k4);
  (* user parameters are the prepared-statement path's business *)
  Alcotest.(check bool) "? statements uncacheable" true
    (Normalize.fingerprint (parse "SELECT NAME FROM EMP WHERE DNO = ?") = None);
  (* canonicalization only touches WHERE: literals elsewhere stay in the key *)
  let k5, v5 = fp "SELECT SAL + 100 FROM EMP WHERE DNO = 1" in
  let k6, _ = fp "SELECT SAL + 200 FROM EMP WHERE DNO = 1" in
  Alcotest.(check bool) "select-list literal differentiates" true (k5 <> k6);
  Alcotest.(check int) "only the WHERE literal extracted" 1 (List.length v5)

let test_canonicalize_subqueries () =
  let q = parse "SELECT X FROM T1 WHERE A IN (SELECT B FROM T2 WHERE Y = 3) AND X > 7" in
  let _, values = Normalize.canonicalize q in
  (* both the outer literal and the subquery's literal are parameterized *)
  Alcotest.(check int) "nested literals extracted" 2 (List.length values)

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
  Database.set_plan_cache db false;
  let out2_off = Database.query db q2 in
  Database.set_plan_cache db true;
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

let test_set_w_flushes () =
  let db = emp_db () in
  ignore (Database.query db "SELECT NAME FROM EMP WHERE DNO = 17");
  Alcotest.(check bool) "cached" true (Database.plan_cache_size db > 0);
  Database.set_w db 2.0;
  Alcotest.(check int) "W change flushes" 0 (Database.plan_cache_size db)

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

(* --- cache-off vs cache-on over the full workload ----------------------- *)

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
  Database.set_plan_cache db false;
  let off = run () in
  Database.set_plan_cache db true;
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
    ( [ miss; repeat; rebound; invalidated ],
      ( c.Rss.Counters.plan_cache_hits - before.Rss.Counters.plan_cache_hits,
        c.Rss.Counters.plan_cache_misses - before.Rss.Counters.plan_cache_misses,
        c.Rss.Counters.plan_cache_invalidations
        - before.Rss.Counters.plan_cache_invalidations ) )
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
          Alcotest.test_case "exec and query count probes alike" `Quick
            test_exec_and_query_count_alike ] );
      ( "invalidation",
        [ Alcotest.test_case "UPDATE STATISTICS" `Quick
            test_update_statistics_invalidates;
          Alcotest.test_case "per-relation precision" `Quick
            test_invalidation_is_precise;
          Alcotest.test_case "drop/create table" `Quick
            test_drop_create_table_never_stale;
          Alcotest.test_case "W change flushes" `Quick test_set_w_flushes;
          Alcotest.test_case "unclustered->clustered stats shift" `Quick
            test_stats_shift_changes_cached_plan;
          Alcotest.test_case "validation debug hook" `Quick
            test_validation_hook ] );
      ( "lru",
        [ Alcotest.test_case "cap, evictions, recency" `Quick
            test_lru_cap_and_evictions ] ) ]
