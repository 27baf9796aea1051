(* Checked-in regression corpus for the differential fuzz harness: every
   case replays a (schema, data, query) triple through the full
   configuration lattice of Fuzz_harness.check, so shrunk reproducers from
   fuzz runs can be pasted here as plain SQL. Also hosts a seeded fuzz smoke
   run and the shrinker's self-test against a deliberately broken plan
   cache (dependency validation disabled). *)

module FG = Fuzz_gen
module V = Rel.Value

let col ?(distinct = 4) ?(null_pct = 0) ?(skew = 0.) cname cty =
  { FG.cname; cty; distinct; null_pct; skew }

let table ?(indexes = []) tname cols rows = { FG.tname; cols; rows; indexes }

let ints l = List.map (fun i -> V.Int i) l

let check_case name scenario sql () =
  let q = Parser.parse_query sql in
  match Fuzz_harness.check scenario q with
  | Fuzz_harness.Agree -> ()
  | Fuzz_harness.Diverged d ->
    Alcotest.failf "%s diverged at %s (%s)\nexpected [%s]\nactual   [%s]" name
      d.Fuzz_harness.d_config d.Fuzz_harness.d_detail
      (String.concat "; " d.Fuzz_harness.d_expected)
      (String.concat "; " d.Fuzz_harness.d_actual)
  | Fuzz_harness.Unsupported msg -> Alcotest.failf "%s unsupported: %s" name msg

(* --- scenarios ---------------------------------------------------------- *)

(* NULL-heavy grouping table: c0 is mostly NULL, c1 mixes NULLs in the
   aggregated column, c2 is a string key. *)
let null_heavy =
  { FG.tables =
      [ table "t0"
          [ col "c0" V.Tint; col "c1" V.Tint; col "c2" V.Tstr ]
          [ [ V.Null; V.Int 1; V.Str "v0" ];
            [ V.Null; V.Null; V.Str "v1" ];
            [ V.Int 0; V.Int 3; V.Str "v0" ];
            [ V.Int 0; V.Null; V.Null ];
            [ V.Int 1; V.Int 2; V.Str "v1" ];
            [ V.Null; V.Int 5; V.Null ];
            [ V.Int 1; V.Int 0; V.Str "v0" ] ]
          ~indexes:[ ("i_t0_0", [ "c0" ], false) ] ]
  }

let two_tables =
  { FG.tables =
      [ table "t0"
          [ col "c0" V.Tint ~distinct:3; col "c1" V.Tstr ]
          [ [ V.Int 0; V.Str "v0" ];
            [ V.Int 1; V.Str "v1" ];
            [ V.Int 2; V.Str "v2" ];
            [ V.Int 1; V.Null ] ]
          ~indexes:[ ("i_t0_0", [ "c0" ], true) ];
        table "t1"
          [ col "c0" V.Tint ~distinct:3; col "c1" V.Tint ]
          [ ints [ 0; 4 ]; ints [ 1; 2 ]; ints [ 2; 0 ]; ints [ 1; 1 ] ] ]
  }

let empty_join =
  { FG.tables =
      [ table "t0" [ col "c0" V.Tint ] [];
        table "t1" [ col "c0" V.Tint ] [ ints [ 0 ]; ints [ 1 ] ] ]
  }

(* --- corpus cases ------------------------------------------------------- *)

let corpus =
  [ ( "null-heavy GROUP BY with ORDER BY",
      null_heavy,
      "SELECT Q0.c0, COUNT(Q0.c1), SUM(Q0.c1), MIN(Q0.c2) FROM t0 Q0 \
       GROUP BY Q0.c0 ORDER BY Q0.c0" );
    ( "grouping on a string key with NULLs",
      null_heavy,
      "SELECT Q0.c2, COUNT(*), AVG(Q0.c1) FROM t0 Q0 GROUP BY Q0.c2 \
       ORDER BY Q0.c2 DESC" );
    ( "const-const predicates",
      two_tables,
      "SELECT Q0.c0 FROM t0 Q0 WHERE 1 = 2 OR 3 = 3" );
    ( "division by zero in projection and predicate",
      two_tables,
      "SELECT Q0.c0 / 0, Q1.c1 FROM t0 Q0, t1 Q1 WHERE Q1.c1 / 0 = 1 OR Q0.c0 <= 2" );
    ( "NOT IN with a NULL in the list",
      two_tables,
      "SELECT Q0.c0 FROM t0 Q0 WHERE NOT Q0.c0 IN (1, NULL)" );
    ( "IN subquery with NULLs in the inner column",
      null_heavy,
      "SELECT Q0.c1 FROM t0 Q0 WHERE Q0.c1 IN (SELECT S0.c0 FROM t0 S0)" );
    ( "NOT IN subquery",
      two_tables,
      "SELECT Q1.c0, Q1.c1 FROM t1 Q1 WHERE Q1.c0 NOT IN (SELECT S0.c0 FROM t0 S0 WHERE S0.c0 <= 1)" );
    ( "correlated scalar subquery",
      two_tables,
      "SELECT Q0.c0 FROM t0 Q0 WHERE Q0.c0 >= (SELECT MIN(S0.c1) FROM t1 S0 WHERE S0.c0 = Q0.c0)" );
    ( "scalar aggregate over a join",
      two_tables,
      "SELECT COUNT(*), SUM(Q1.c1), MAX(Q0.c1) FROM t0 Q0, t1 Q1 WHERE Q0.c0 = Q1.c0" );
    ( "empty table in a join",
      empty_join,
      "SELECT Q0.c0, Q1.c0 FROM t0 Q0, t1 Q1 WHERE Q0.c0 = Q1.c0" );
    ( "scalar aggregate over an empty input",
      empty_join,
      "SELECT COUNT(*), SUM(Q0.c0), MIN(Q0.c0) FROM t0 Q0" );
    ( "ORDER BY DESC with duplicates and NULLs",
      null_heavy,
      "SELECT Q0.c0, Q0.c1 FROM t0 Q0 ORDER BY Q0.c0 DESC, Q0.c1" );
    ( "BETWEEN with an empty range",
      two_tables,
      "SELECT Q1.c1 FROM t1 Q1 WHERE Q1.c1 BETWEEN 3 AND 1" );
    ( "degenerate-range predicate on a constant column",
      { FG.tables =
          [ table "t0"
              [ col "c0" V.Tint ~distinct:1; col "c1" V.Tint ]
              [ ints [ 0; 1 ]; ints [ 0; 2 ]; ints [ 0; 3 ] ]
              ~indexes:[ ("i_t0_0", [ "c0" ], false) ] ]
      },
      "SELECT Q0.c1 FROM t0 Q0 WHERE Q0.c0 >= 0 AND Q0.c0 BETWEEN 0 AND 2" ) ]

let corpus_tests =
  List.map
    (fun (name, scenario, sql) ->
      Alcotest.test_case name `Quick (check_case name scenario sql))
    corpus

(* --- cached-plan rebinding across literals, one case per operator -------- *)

let rebind_table_sql =
  "CREATE TABLE t (a INT, b STRING);\n\
   INSERT INTO t VALUES (1, 'x1'), (2, 'x2'), (3, 'x3'), (4, 'x4'), \
   (5, 'x5'), (6, 'x6'), (7, 'x7'), (8, 'x8'), (2, 'x2'), (5, 'x9');\n\
   CREATE INDEX ia ON t (a);\n\
   UPDATE STATISTICS;"

let oracle_rows db sql =
  let block = Database.resolve db sql in
  Fuzz_harness.multiset (Fuzz_oracle.query (Database.catalog db) block)

let engine_rows db sql =
  Fuzz_harness.multiset (Database.query db sql).Executor.rows

let rebind_case (opname, q1, q2) () =
  let db = Database.create () in
  ignore (Database.exec_script db rebind_table_sql);
  (* run shape with literal A (cold), literal B (rebinding hit), A again *)
  List.iter
    (fun sql ->
      Alcotest.(check (list string))
        (opname ^ ": " ^ sql) (oracle_rows db sql) (engine_rows db sql))
    [ q1; q2; q1 ];
  Alcotest.(check bool) (opname ^ " cached") true (Database.plan_cache_size db > 0)

let rebind_tests =
  List.map
    (fun ((opname, _, _) as c) ->
      Alcotest.test_case ("rebind " ^ opname) `Quick (rebind_case c))
    [ ("=", "SELECT * FROM t WHERE a = 2", "SELECT * FROM t WHERE a = 5");
      ("<>", "SELECT * FROM t WHERE a <> 2", "SELECT * FROM t WHERE a <> 7");
      ("<", "SELECT * FROM t WHERE a < 3", "SELECT * FROM t WHERE a < 8");
      ("<=", "SELECT * FROM t WHERE a <= 1", "SELECT * FROM t WHERE a <= 6");
      (">", "SELECT * FROM t WHERE a > 6", "SELECT * FROM t WHERE a > 1");
      (">=", "SELECT * FROM t WHERE a >= 7", "SELECT * FROM t WHERE a >= 3");
      ( "BETWEEN",
        "SELECT * FROM t WHERE a BETWEEN 2 AND 4",
        "SELECT * FROM t WHERE a BETWEEN 5 AND 9" );
      ( "IN",
        "SELECT * FROM t WHERE a IN (1, 4)",
        "SELECT * FROM t WHERE a IN (2, 8)" );
      ( "string =",
        "SELECT * FROM t WHERE b = 'x3'",
        "SELECT * FROM t WHERE b = 'x9'" ) ]

(* --- seeded fuzz smoke -------------------------------------------------- *)

let fuzz_smoke () =
  let stats = Fuzz_harness.stats_create () in
  for i = 0 to 39 do
    let rng = Workload.rand_init (4200 + i) in
    let scenario = FG.gen_scenario rng in
    let q = FG.gen_query rng scenario in
    match Fuzz_harness.check ~stats scenario q with
    | Fuzz_harness.Agree -> ()
    | Fuzz_harness.Diverged d ->
      Alcotest.failf "seed %d diverged at %s:\n%s" (4200 + i)
        d.Fuzz_harness.d_config
        (Fuzz_harness.reproducer scenario q)
    | Fuzz_harness.Unsupported msg ->
      Alcotest.failf "seed %d unsupported: %s\n%s" (4200 + i) msg
        (Ast.to_sql (Ast.Select q))
  done;
  Alcotest.(check bool) "ran queries" true (stats.Fuzz_harness.queries = 40)

(* A second seeded smoke over a distinct seed range, through the same
   lattice. Generated tables are small (usually a single page), so a
   hand-built multi-page scenario rides along with ORDER BY and GROUP BY
   queries whose scans, sorts and groups cross page boundaries. *)
let multi_page_fuzz_smoke () =
  for i = 0 to 11 do
    let rng = Workload.rand_init (7700 + i) in
    let scenario = FG.gen_scenario rng in
    let q = FG.gen_query rng scenario in
    match Fuzz_harness.check scenario q with
    | Fuzz_harness.Agree -> ()
    | Fuzz_harness.Diverged d ->
      Alcotest.failf "seed %d diverged at %s:\n%s" (7700 + i)
        d.Fuzz_harness.d_config
        (Fuzz_harness.reproducer scenario q)
    | Fuzz_harness.Unsupported msg ->
      Alcotest.failf "seed %d unsupported: %s\n%s" (7700 + i) msg
        (Ast.to_sql (Ast.Select q))
  done;
  (* multi-page table: ~700 rows span several 4K pages, so every lattice
     point scans, sorts and groups across page boundaries *)
  let big =
    { FG.tables =
        [ table "big"
            [ col "c0" V.Tint ~distinct:7; col "c1" V.Tint ~distinct:700 ]
            (List.init 700 (fun i -> ints [ i mod 7; i ]))
            ~indexes:[ ("i_big_c1", [ "c1" ], false) ] ]
    }
  in
  List.iter
    (fun sql ->
      check_case "multi-page big" big sql ())
    [ "SELECT c0, c1 FROM big WHERE c1 >= 10 ORDER BY c1";
      "SELECT c0, SUM(c1) FROM big GROUP BY c0";
      "SELECT SUM(c1) FROM big WHERE c0 = 3" ]

(* --- shrinker self-test against broken cache invalidation ---------------- *)

let shrinker_self_test () =
  let scenario =
    { FG.tables =
        [ table "t0"
            [ col "c0" V.Tint ~distinct:4; col "c1" V.Tint ~distinct:4 ]
            [ ints [ 0; 1 ]; ints [ 1; 2 ]; ints [ 2; 3 ]; ints [ 3; 0 ];
              ints [ 1; 1 ]; ints [ 2; 2 ] ]
            ~indexes:[ ("i_t0_0", [ "c0" ], false) ];
          table "t1"
            [ col "c0" V.Tint ~distinct:3 ]
            [ ints [ 0 ]; ints [ 1 ]; ints [ 2 ] ] ]
    }
  in
  let q =
    Parser.parse_query
      "SELECT Q0.c0, Q0.c1 FROM t0 Q0, t1 Q1 \
       WHERE Q0.c0 >= 0 AND Q1.c0 >= 0 AND Q0.c1 <= 5"
  in
  (* the planted fault must surface as a divergence... *)
  (match Fuzz_harness.check ~break_invalidation:true scenario q with
   | Fuzz_harness.Diverged _ -> ()
   | Fuzz_harness.Agree ->
     Alcotest.fail "broken invalidation not detected"
   | Fuzz_harness.Unsupported msg -> Alcotest.failf "unsupported: %s" msg);
  (* ...and with validation intact the same pair must agree *)
  (match Fuzz_harness.check scenario q with
   | Fuzz_harness.Agree -> ()
   | Fuzz_harness.Diverged d ->
     Alcotest.failf "healthy cache diverged at %s" d.Fuzz_harness.d_config
   | Fuzz_harness.Unsupported msg -> Alcotest.failf "unsupported: %s" msg);
  (* the shrinker must cut the reproducer to <= 2 tables, <= 2 factors *)
  let check s q = Fuzz_harness.check ~break_invalidation:true s q in
  let (s', q'), steps = Fuzz_shrink.shrink ~check ~max_steps:300 (scenario, q) in
  Alcotest.(check bool) "some shrinking happened" true (steps > 0);
  Alcotest.(check bool)
    (Printf.sprintf "tables <= 2 (got %d)" (List.length s'.FG.tables))
    true
    (List.length s'.FG.tables <= 2);
  Alcotest.(check bool)
    (Printf.sprintf "factors <= 2 (got %d)" (Fuzz_shrink.factor_count q'))
    true
    (Fuzz_shrink.factor_count q' <= 2);
  (* the shrunk pair still reproduces under the fault *)
  match check s' q' with
  | Fuzz_harness.Diverged _ -> ()
  | _ -> Alcotest.fail "shrunk reproducer no longer diverges"

let () =
  Alcotest.run "fuzz_corpus"
    [ ("corpus", corpus_tests);
      ("rebind", rebind_tests);
      ( "fuzz",
        [ Alcotest.test_case "seeded smoke (40 queries)" `Quick fuzz_smoke;
          Alcotest.test_case "multi-page seeded smoke (12 queries)" `Quick
            multi_page_fuzz_smoke;
          Alcotest.test_case "shrinker vs broken invalidation" `Quick
            shrinker_self_test ] ) ]
