(* Section 6 of the paper, executable: uncorrelated subqueries evaluated
   once before the parent, correlated subqueries re-evaluated per candidate
   tuple, and the paper's worked examples — including the manager's-manager
   query whose level-3 block is correlated with level 1.

   Run: dune exec examples/nested_queries.exe *)

module V = Rel.Value

let () =
  let db = Database.create () in
  ignore
    (Database.exec_script db
       "CREATE TABLE EMPLOYEE (EMPNO INT, NAME STRING, SALARY INT, MANAGER \
        INT, DEPARTMENT_NUMBER INT);\n\
        CREATE TABLE DEPARTMENT (DEPARTMENT_NUMBER INT, LOCATION STRING);");
  let cat = Database.catalog db in
  let emp = Option.get (Catalog.find_relation cat "EMPLOYEE") in
  let rng = Workload.rand_init 1979 in
  for i = 0 to 199 do
    ignore
      (Catalog.insert_tuple cat emp
         (Rel.Tuple.make
            [ V.Int i;
              V.Str (Printf.sprintf "E%03d" i);
              V.Int (10000 + Random.State.int rng 10000);
              V.Int (i / 10);   (* ten employees per manager *)
              V.Int (i mod 6) ]))
  done;
  let dept = Option.get (Catalog.find_relation cat "DEPARTMENT") in
  List.iteri
    (fun d loc ->
      ignore (Catalog.insert_tuple cat dept (Rel.Tuple.make [ V.Int d; V.Str loc ])))
    [ "DENVER"; "SAN JOSE"; "DENVER"; "BOSTON"; "AUSTIN"; "DENVER" ];
  ignore (Database.exec db "CREATE CLUSTERED INDEX EMP_NO ON EMPLOYEE (EMPNO)");
  ignore (Database.exec db "UPDATE STATISTICS");

  let show title sql =
    Printf.printf "\n=== %s ===\n%s\n" title sql;
    let r = Database.optimize db sql in
    List.iteri
      (fun i (b, _) ->
        Printf.printf "subquery %d: %s\n" (i + 1)
          (if b.Semant.correlated then
             "correlated -> re-evaluated per candidate tuple (cached by value)"
           else "uncorrelated -> evaluated once, before the parent block"))
      r.Optimizer.subresults;
    let out, counts = Executor.run_measured cat r in
    Printf.printf "rows: %d; subquery calls: %d; actual evaluations: %d\n"
      (List.length out.Executor.rows)
      counts.Rss.Counters.subquery_calls counts.Rss.Counters.subquery_evals
  in
  (* the paper's first example: salary above the average *)
  show "scalar subquery, evaluated once"
    "SELECT NAME FROM EMPLOYEE WHERE SALARY > (SELECT AVG(SALARY) FROM EMPLOYEE)";
  (* the paper's IN example, verbatim schema names *)
  show "IN subquery over departments in Denver"
    "SELECT NAME FROM EMPLOYEE WHERE DEPARTMENT_NUMBER IN (SELECT \
     DEPARTMENT_NUMBER FROM DEPARTMENT WHERE LOCATION = 'DENVER')";
  (* the paper's correlation example *)
  show "correlated: employees earning more than their manager"
    "SELECT NAME FROM EMPLOYEE X WHERE SALARY > (SELECT SALARY FROM EMPLOYEE \
     WHERE EMPNO = X.MANAGER)";
  (* the paper's level-3 example *)
  show "level-3 correlation: more than the manager's manager"
    "SELECT NAME FROM EMPLOYEE X WHERE SALARY > (SELECT SALARY FROM EMPLOYEE \
     WHERE EMPNO = (SELECT MANAGER FROM EMPLOYEE WHERE EMPNO = X.MANAGER))";
  print_newline ()
