(* Nested queries (section 6): evaluation order, correlation, the
   re-evaluation-avoidance optimization, and result correctness against the
   naive oracle. *)

module V = Rel.Value
module T = Rel.Tuple

let schema cols =
  Rel.Schema.make (List.map (fun n -> { Rel.Schema.name = n; ty = V.Tint }) cols)

(* EMPLOYEE(EMPNO, NAME_ID, SALARY, MANAGER, DNO); DEPARTMENT(DNO, LOC).
   Managers repeat across employees (the paper's motivating case for the
   re-evaluation optimization). *)
let setup () =
  let db = Database.create ~buffer_pages:16 () in
  let cat = Database.catalog db in
  let emp =
    Catalog.create_relation cat ~name:"EMPLOYEE"
      ~schema:(schema [ "EMPNO"; "NAME_ID"; "SALARY"; "MANAGER"; "DNO" ])
  in
  for i = 0 to 99 do
    let manager = i / 10 in  (* ten employees per manager *)
    ignore
      (Catalog.insert_tuple cat emp
         (T.make
            [ V.Int i; V.Int (1000 + i); V.Int (10000 + (i * 37 mod 5000));
              V.Int manager; V.Int (i mod 7) ]))
  done;
  ignore (Catalog.create_index cat ~name:"EMP_EMPNO" ~rel:emp ~columns:[ "EMPNO" ] ~clustered:true);
  let dept = Catalog.create_relation cat ~name:"DEPARTMENT" ~schema:(schema [ "DNO"; "LOC" ]) in
  for d = 0 to 6 do
    ignore (Catalog.insert_tuple cat dept (T.make [ V.Int d; V.Int (d mod 2) ]))
  done;
  Catalog.update_statistics cat;
  db

let check_against_naive db sql =
  let block = Database.resolve db sql in
  let r = Optimizer.optimize (Database.ctx db) block in
  let got = (Executor.run (Database.catalog db) r).Executor.rows in
  let expected = Naive_eval.query (Database.catalog db) block in
  let canon rows =
    List.sort
      (fun a b -> T.compare_on (List.init (T.arity a) Fun.id) a b)
      rows
  in
  let g = canon got and e = canon expected in
  Alcotest.(check int) ("row count: " ^ sql) (List.length e) (List.length g);
  List.iter2
    (fun a b ->
      if not (T.equal a b) then
        Alcotest.fail (Printf.sprintf "%s: %s <> %s" sql (T.to_string a) (T.to_string b)))
    g e

let stats_for db sql =
  let r = Database.optimize db sql in
  let _, counts = Executor.run_measured (Database.catalog db) r in
  counts

let test_uncorrelated_evaluated_once () =
  let db = setup () in
  let sql = "SELECT EMPNO FROM EMPLOYEE WHERE SALARY > (SELECT AVG(SALARY) FROM EMPLOYEE)" in
  check_against_naive db sql;
  let stats = stats_for db sql in
  (* the subquery is referenced for each of the 100 candidate tuples but
     evaluated only once *)
  Alcotest.(check int) "one evaluation" 1 stats.Rss.Counters.subquery_evals;
  Alcotest.(check int) "hundred calls" 100 stats.Rss.Counters.subquery_calls

let test_in_subquery () =
  let db = setup () in
  check_against_naive db
    "SELECT EMPNO FROM EMPLOYEE WHERE DNO IN (SELECT DNO FROM DEPARTMENT \
     WHERE LOC = 0)";
  check_against_naive db
    "SELECT EMPNO FROM EMPLOYEE WHERE DNO NOT IN (SELECT DNO FROM DEPARTMENT \
     WHERE LOC = 0)"

let test_correlated_more_than_manager () =
  let db = setup () in
  (* the paper's example: employees earning more than their manager *)
  let sql =
    "SELECT EMPNO FROM EMPLOYEE X WHERE SALARY > (SELECT SALARY FROM EMPLOYEE \
     WHERE EMPNO = X.MANAGER)"
  in
  check_against_naive db sql;
  let stats = stats_for db sql in
  (* 100 candidate tuples but only 10 distinct MANAGER values: the cache
     makes re-evaluation conditional on the referenced value *)
  Alcotest.(check int) "called per candidate" 100 stats.Rss.Counters.subquery_calls;
  Alcotest.(check int) "evaluated per distinct manager" 10
    stats.Rss.Counters.subquery_evals

(* Without the cache every call would execute the block (the oracle
   re-evaluates per candidate), so the calls count is the uncached
   evaluation count; with it, one execution per distinct MANAGER — and the
   same answer as the oracle. *)
let test_correlated_cache_ablation () =
  let db = setup () in
  let sql =
    "SELECT EMPNO FROM EMPLOYEE X WHERE SALARY > (SELECT SALARY FROM EMPLOYEE \
     WHERE EMPNO = X.MANAGER)"
  in
  check_against_naive db sql;
  let stats = stats_for db sql in
  Alcotest.(check int) "uncached would evaluate every call" 100
    stats.Rss.Counters.subquery_calls;
  Alcotest.(check int) "cached evaluates per distinct manager" 10
    stats.Rss.Counters.subquery_evals

let test_three_level_nesting () =
  let db = setup () in
  (* "employees earning more than their manager's manager": the level-3 block
     references level 1 only, so it is evaluated once per level-1 candidate
     (per distinct referenced value, via the cache), not per level-2 tuple *)
  let sql =
    "SELECT EMPNO FROM EMPLOYEE X WHERE SALARY > (SELECT SALARY FROM EMPLOYEE \
     WHERE EMPNO = (SELECT MANAGER FROM EMPLOYEE WHERE EMPNO = X.MANAGER))"
  in
  check_against_naive db sql

let test_subquery_inside_or_factor () =
  let db = setup () in
  check_against_naive db
    "SELECT EMPNO FROM EMPLOYEE WHERE SALARY > 14500 OR DNO IN (SELECT DNO \
     FROM DEPARTMENT WHERE LOC = 1)"

let test_scalar_subquery_multi_row_rejected () =
  let db = setup () in
  match
    Database.query db
      "SELECT EMPNO FROM EMPLOYEE WHERE SALARY = (SELECT SALARY FROM EMPLOYEE \
       WHERE DNO = 3)"
  with
  | _ -> Alcotest.fail "multi-row scalar subquery accepted"
  | exception Database.Error msg ->
    Alcotest.(check bool) "mentions single value" true
      (String.length msg > 0)

let test_empty_scalar_subquery_is_null () =
  let db = setup () in
  (* no employee has EMPNO = 9999: the subquery is empty, the comparison
     Unknown, and no rows qualify *)
  let out =
    Database.query db
      "SELECT EMPNO FROM EMPLOYEE WHERE SALARY > (SELECT SALARY FROM EMPLOYEE \
       WHERE EMPNO = 9999)"
  in
  Alcotest.(check int) "no rows" 0 (List.length out.Executor.rows)

let test_subquery_plans_in_result_tree () =
  let db = setup () in
  let r =
    Database.optimize db
      "SELECT EMPNO FROM EMPLOYEE WHERE SALARY > (SELECT AVG(SALARY) FROM \
       EMPLOYEE) AND DNO IN (SELECT DNO FROM DEPARTMENT)"
  in
  Alcotest.(check int) "two nested plans" 2 (List.length r.Optimizer.subresults);
  (* the filter above the scan carries the subquery factors *)
  (match r.Optimizer.plan.Plan.node with
   | Plan.Filter { preds; _ } -> Alcotest.(check int) "two filter preds" 2 (List.length preds)
   | _ -> Alcotest.fail "expected top Filter")

let test_uncorrelated_subquery_with_own_join () =
  let db = setup () in
  check_against_naive db
    "SELECT EMPNO FROM EMPLOYEE WHERE DNO IN (SELECT DEPARTMENT.DNO FROM \
     DEPARTMENT, EMPLOYEE WHERE DEPARTMENT.DNO = EMPLOYEE.DNO AND SALARY > \
     14800)"

let () =
  Alcotest.run "nested"
    [ ( "evaluation",
        [ Alcotest.test_case "uncorrelated once" `Quick test_uncorrelated_evaluated_once;
          Alcotest.test_case "IN / NOT IN subquery" `Quick test_in_subquery;
          Alcotest.test_case "correlated (manager)" `Quick
            test_correlated_more_than_manager;
          Alcotest.test_case "cache ablation" `Quick test_correlated_cache_ablation;
          Alcotest.test_case "three levels" `Quick test_three_level_nesting;
          Alcotest.test_case "subquery inside OR" `Quick test_subquery_inside_or_factor;
          Alcotest.test_case "subquery with join" `Quick
            test_uncorrelated_subquery_with_own_join ] );
      ( "semantics",
        [ Alcotest.test_case "multi-row scalar rejected" `Quick
            test_scalar_subquery_multi_row_rejected;
          Alcotest.test_case "empty scalar is NULL" `Quick
            test_empty_scalar_subquery_is_null;
          Alcotest.test_case "plans in result tree" `Quick
            test_subquery_plans_in_result_tree ] ) ]
