(* Differential test for the compiled evaluation layer: every query runs
   through the full pipeline (position-resolved closures compiled at
   plan-open time) and its result must equal the independent Naive_eval
   oracle as a multiset. ORDER BY queries must also come back sorted on their
   order keys, the check the fuzz harness applies ({!Fuzz_harness.sorted_on}).
   Parameterized queries are compared with the oracle on the same SQL with
   the bound values written as literals. *)

module V = Rel.Value
module T = Rel.Tuple

let schema cols =
  Rel.Schema.make (List.map (fun n -> { Rel.Schema.name = n; ty = V.Tint }) cols)

(* Same shape as the executor test fixture: P(A,B,C) with NULLs in B and
   indexes on A (clustered) and B; Q(A,D) indexed on A; R3(C,E) unindexed. *)
let setup () =
  let db = Database.create ~buffer_pages:16 () in
  let cat = Database.catalog db in
  let p = Catalog.create_relation cat ~name:"P" ~schema:(schema [ "A"; "B"; "C" ]) in
  for i = 0 to 199 do
    let b = if i mod 17 = 0 then V.Null else V.Int (i mod 12) in
    ignore
      (Catalog.insert_tuple cat p (T.make [ V.Int (i mod 10); b; V.Int (i mod 5) ]))
  done;
  ignore (Catalog.create_index cat ~name:"P_A" ~rel:p ~columns:[ "A" ] ~clustered:true);
  ignore (Catalog.create_index cat ~name:"P_B" ~rel:p ~columns:[ "B" ] ~clustered:false);
  let q = Catalog.create_relation cat ~name:"Q" ~schema:(schema [ "A"; "D" ]) in
  for i = 0 to 59 do
    ignore (Catalog.insert_tuple cat q (T.make [ V.Int (i mod 15); V.Int i ]))
  done;
  ignore (Catalog.create_index cat ~name:"Q_A" ~rel:q ~columns:[ "A" ] ~clustered:false);
  let r3 = Catalog.create_relation cat ~name:"R3" ~schema:(schema [ "C"; "E" ]) in
  for i = 0 to 39 do
    ignore (Catalog.insert_tuple cat r3 (T.make [ V.Int (i mod 5); V.Int (100 + i) ]))
  done;
  Catalog.update_statistics cat;
  db

let row_bytes row =
  let b = Buffer.create 64 in
  T.write b row;
  Buffer.contents b

let canon rows =
  List.sort
    (fun a b ->
      let n = min (T.arity a) (T.arity b) in
      T.compare_on (List.init n Fun.id) a b)
    rows

let rows_bytes rows = String.concat "|" (List.map row_bytes (canon rows))

(* The statement with each [?] replaced by its bound value as a literal. *)
let inline_params sql params =
  let literal = function
    | V.Null -> "NULL"
    | V.Int i -> string_of_int i
    | v -> invalid_arg ("inline_params: " ^ V.to_string v)
  in
  let b = Buffer.create (String.length sql) in
  let next = ref 0 in
  String.iter
    (fun c ->
      if c = '?' then begin
        Buffer.add_string b (literal params.(!next));
        incr next
      end
      else Buffer.add_char b c)
    sql;
  Buffer.contents b

(* Run [sql] with [params] (under the optimizer's plan, or [r]) and compare
   against the oracle on the literal form of the statement: same rows as a
   multiset, and sorted on the ORDER BY keys. *)
let check_oracle ?(params = [||]) ?r db sql =
  let r = match r with Some r -> r | None -> Database.optimize db sql in
  let cat = Database.catalog db in
  let got = (Executor.run ~params cat r).Executor.rows in
  let block = Database.resolve db (inline_params sql params) in
  let expected = Naive_eval.query cat block in
  if rows_bytes got <> rows_bytes expected then
    Alcotest.fail
      (Printf.sprintf "%s\n  plan: %s\n  engine %d: %s\n  oracle %d: %s" sql
         (Plan.describe r.Optimizer.plan)
         (List.length got)
         (String.concat "; " (List.map T.to_string got))
         (List.length expected)
         (String.concat "; " (List.map T.to_string expected)));
  let keys = Fuzz_harness.order_positions block in
  Alcotest.(check int)
    (sql ^ ": every ORDER BY key is projected")
    (List.length block.Semant.order_by) (List.length keys);
  if not (Fuzz_harness.sorted_on keys got) then
    Alcotest.fail (Printf.sprintf "%s: rows not sorted on the ORDER BY keys" sql)

let corpus_single =
  [ "SELECT A, B, C FROM P";
    "SELECT A FROM P WHERE A = 3";
    "SELECT A, B FROM P WHERE A = 3 AND B = 7";
    "SELECT A FROM P WHERE B = 5";
    "SELECT A FROM P WHERE A > 7";
    "SELECT A FROM P WHERE A >= 7 AND A < 9";
    "SELECT A FROM P WHERE A BETWEEN 2 AND 4";
    "SELECT A FROM P WHERE A IN (1, 5, 9)";
    "SELECT A FROM P WHERE A = 1 OR B = 2";
    "SELECT A FROM P WHERE NOT (A = 1 OR A = 2)";
    "SELECT A FROM P WHERE A + 1 = 5";
    "SELECT A FROM P WHERE B <> 3";
    "SELECT A FROM P WHERE A = B";
    "SELECT A * 2 + C FROM P WHERE C = 4";
    "SELECT A FROM P WHERE 2 < A";
    "SELECT A FROM P WHERE A = 99";
    "SELECT A, B, C FROM P ORDER BY A DESC";
    "SELECT A FROM P WHERE A BETWEEN 3 AND 6 ORDER BY A DESC";
    "SELECT A, B, C FROM P WHERE C = 2 ORDER BY A DESC, B" ]

(* Three-valued logic edge cases: B carries NULLs, so every row below forces
   Unknown through NOT / OR / AND / IN / BETWEEN. *)
let corpus_null =
  [ "SELECT A FROM P WHERE NOT (B = 3)";
    "SELECT A FROM P WHERE NOT (B <> 3)";
    "SELECT A FROM P WHERE B = 2 OR A < 0";
    "SELECT A FROM P WHERE B = 2 OR B = 7";
    "SELECT A FROM P WHERE B > 5 AND A > 5";
    "SELECT A FROM P WHERE NOT (B > 5 AND A > 5)";
    "SELECT A FROM P WHERE B IN (1, 2, 3)";
    "SELECT A FROM P WHERE B IN (1, 2, NULL)";
    "SELECT A FROM P WHERE B BETWEEN 2 AND 8";
    "SELECT A FROM P WHERE NOT (B BETWEEN 2 AND 8)";
    "SELECT A, B FROM P WHERE B IN (SELECT A FROM Q WHERE D > 40)";
    "SELECT A, B FROM P WHERE B NOT IN (SELECT A FROM Q WHERE D > 55)" ]

let corpus_join =
  [ "SELECT P.A, D FROM P, Q WHERE P.A = Q.A";
    "SELECT P.A, D FROM P, Q WHERE P.A = Q.A AND D < 10";
    "SELECT P.A, D FROM P, Q WHERE P.A = Q.A AND P.C = 2 AND Q.D > 30";
    "SELECT B, E FROM P, R3 WHERE P.C = R3.C";
    "SELECT B, E FROM P, R3 WHERE P.C = R3.C AND P.B + 1 > R3.C";
    "SELECT P.A, E FROM P, Q, R3 WHERE P.A = Q.A AND P.C = R3.C AND D = 7";
    "SELECT P.A, Q.D FROM P, Q WHERE P.A = 3 AND Q.D = 3";
    "SELECT P.A FROM P, Q WHERE P.A < Q.A AND Q.D = 1";
    "SELECT X.A, Y.A FROM P X, P Y WHERE X.A = Y.B AND Y.C = 1" ]

let corpus_agg =
  [ "SELECT AVG(C), COUNT(*), MIN(B), MAX(B), SUM(A) FROM P";
    "SELECT COUNT(*) FROM P WHERE A = 42";
    "SELECT A, COUNT(*) FROM P GROUP BY A";
    "SELECT A, AVG(C), COUNT(*) FROM P WHERE A > 2 GROUP BY A";
    "SELECT C, A, MAX(B) FROM P GROUP BY C, A";
    "SELECT A, COUNT(*) FROM P GROUP BY A ORDER BY A DESC";
    "SELECT COUNT(B) FROM P" ]

(* Correlated subqueries: outer references resolve against the enclosing
   block's current tuple — they are bound per subquery-plan opening, which
   this corpus exercises against the oracle. *)
let corpus_nested =
  [ "SELECT A FROM P WHERE A IN (SELECT A FROM Q WHERE D < 30)";
    "SELECT A FROM P WHERE C > (SELECT AVG(D) FROM Q WHERE Q.A = P.A)";
    "SELECT A, C FROM P WHERE A IN (SELECT A FROM Q WHERE D < P.C * 10)";
    "SELECT A FROM P WHERE B IN (SELECT A FROM Q WHERE Q.D = P.A)" ]

let test_corpus corpus () =
  let db = setup () in
  List.iter (check_oracle db) corpus

(* Parameterized queries: E_param compiles to a captured value. *)
let test_params () =
  let db = setup () in
  List.iter
    (fun (sql, params) -> check_oracle ~params db sql)
    [ ("SELECT A FROM P WHERE A = ?", [| V.Int 3 |]);
      ("SELECT A, B FROM P WHERE A = ? AND B > ?", [| V.Int 3; V.Int 5 |]);
      ("SELECT A FROM P WHERE B BETWEEN ? AND ?", [| V.Int 2; V.Int 8 |]);
      ("SELECT A FROM P WHERE A = ? OR B = ?", [| V.Int 1; V.Int 2 |]);
      ("SELECT P.A, D FROM P, Q WHERE P.A = Q.A AND Q.D < ?", [| V.Int 10 |]);
      ("SELECT A FROM P WHERE B = ?", [| V.Null |]);
      (* a parameter inside an arithmetic residual, not a SARG or key bound *)
      ("SELECT A, B FROM P WHERE A > ? AND C * ? > B", [| V.Int 1; V.Int 3 |]) ]

(* Plan nodes of [r]'s plan and of its nested blocks' plans. *)
let rec all_nodes (r : Optimizer.result) =
  let rec nodes (p : Plan.t) =
    1
    + (match p.Plan.node with
       | Plan.Scan _ -> 0
       | Plan.Nl_join { outer; inner } | Plan.Merge_join { outer; inner; _ } ->
         nodes outer + nodes inner
       | Plan.Sort { input; _ } | Plan.Filter { input; _ } -> nodes input)
  in
  List.fold_left
    (fun n (_, sub) -> n + all_nodes sub)
    (nodes r.Optimizer.plan) r.Optimizer.subresults

(* Subquery caching must not change results: the correlated block below is
   called once per P row but, with only ten distinct P.A values, executed far
   fewer times — and the cached answer must still equal the oracle, which
   re-evaluates the subquery for every candidate. *)
let test_subquery_cache () =
  let db = setup () in
  let sql = "SELECT A FROM P WHERE C > (SELECT AVG(D) FROM Q WHERE Q.A = P.A)" in
  let _, counts =
    Executor.run_measured (Database.catalog db) (Database.optimize db sql)
  in
  Alcotest.(check int) "called per candidate" 200 counts.Rss.Counters.subquery_calls;
  Alcotest.(check int) "evaluated per distinct P.A" 10
    counts.Rss.Counters.subquery_evals;
  check_oracle db sql;
  (* CNF copies the subquery into two factors, (A IN sub OR B = 1) AND
     (A IN sub OR C = 2), but the optimizer plans and costs it once: the
     Filter adds one evaluation of it (uncorrelated) to its input's cost, and
     it is compiled once and evaluated once per execution *)
  let sql = "SELECT A FROM P WHERE A IN (SELECT A FROM Q WHERE D < 30) OR (B = 1 AND C = 2)" in
  let r = Database.optimize db sql in
  Alcotest.(check int) "one per nested block" 1 (List.length r.Optimizer.subresults);
  (match r.Optimizer.plan.Plan.node with
   | Plan.Filter { input; _ } ->
     let sub = snd (List.hd r.Optimizer.subresults) in
     let want = Cost_model.add input.Plan.cost sub.Optimizer.plan.Plan.cost in
     let got = r.Optimizer.plan.Plan.cost in
     Alcotest.(check (pair (float 1e-9) (float 1e-9)))
       "filter cost = input + one evaluation" (want.pages, want.rsi) (got.pages, got.rsi)
   | _ -> Alcotest.fail "no Filter over the subquery factors");
  let _, counts = Executor.run_measured (Database.catalog db) r in
  Alcotest.(check int) "called per factor and candidate" 400 counts.Rss.Counters.subquery_calls;
  Alcotest.(check int) "evaluated once" 1 counts.Rss.Counters.subquery_evals;
  Alcotest.(check int) "compiled once" (all_nodes r) counts.Rss.Counters.nodes_compiled;
  check_oracle db sql

(* A plan is compiled once per execution: the number of plan nodes compiled
   is the number of nodes in the plan and its nested blocks' plans, whether
   the nested-loop outer yields no tuple, a few or nearly all of P's 200 —
   the inner is compiled once and only re-opened per outer tuple. The
   optimizer picks merge joins on this fixture and always evaluates
   subquery factors in a top Filter, so the NL plans are built by hand from
   its access paths: (1) an index inner on Q_A whose key bound is the outer
   P.A and whose SARG P.C = Q.D takes its value from the outer tuple; (2) a
   segment-scan inner whose residual holds a correlated subquery, tested on
   the concatenated pair. *)
let test_inner_compiled_once () =
  let db = setup () in
  let is_seg (p : Plan.t) =
    match p.Plan.node with Plan.Scan { access = Plan.Seg_scan; _ } -> true | _ -> false
  in
  let run sql ~inner =
    let r = Database.optimize db sql in
    let factors = Normalize.factors_of_block r.Optimizer.block in
    let plain = List.filter (fun f -> not f.Normalize.has_subquery) factors in
    let paths tab outer =
      Access_path.paths (Database.ctx db) r.Optimizer.block ~factors:plain ~tab ~outer
    in
    let outer = List.find is_seg (paths 0 []) in
    let inner = inner factors (paths 1 [ 0 ]) in
    let plan =
      { outer with Plan.node = Plan.Nl_join { outer; inner }; tables = [ 0; 1 ] }
    in
    let r = { r with Optimizer.plan } in
    List.iter
      (fun bound ->
        let params = [| V.Int bound |] in
        let _, c = Executor.run_measured ~params (Database.catalog db) r in
        Alcotest.(check int)
          (Printf.sprintf "%s, P.B < %d: compiled once" sql bound)
          (all_nodes r) c.Rss.Counters.nodes_compiled;
        check_oracle ~params ~r db sql)
      [ 0; 1; 6; 12 ]
  in
  run "SELECT P.A, P.C, Q.D FROM P, Q WHERE P.A = Q.A AND P.C = Q.D AND P.B < ?"
    ~inner:(fun _ paths ->
      List.find
        (fun (p : Plan.t) ->
          match p.Plan.node with
          | Plan.Scan
              { access = Plan.Idx_scan { index; lo = Some { values; _ }; _ }; sargs; _ } ->
            index.Catalog.idx_name = "Q_A"
            && List.mem (Plan.Bv_outer { Semant.tab = 0; col = 0 }) values
            && sargs <> []
          | _ -> false)
        paths);
  run
    "SELECT P.A, Q.D FROM P, Q WHERE P.A = Q.A AND P.B < ? AND Q.D IN (SELECT E - 100 \
     FROM R3 WHERE R3.C = P.C)"
    ~inner:(fun factors paths ->
      let sub = List.find (fun f -> f.Normalize.has_subquery) factors in
      let p = List.find is_seg paths in
      match p.Plan.node with
      | Plan.Scan s ->
        { p with Plan.node = Plan.Scan { s with residual = sub.Normalize.pred :: s.residual } }
      | _ -> assert false)

let () =
  Alcotest.run "compiled_eval"
    [ ( "differential",
        [ Alcotest.test_case "single-table corpus" `Quick (test_corpus corpus_single);
          Alcotest.test_case "NULL / three-valued corpus" `Quick
            (test_corpus corpus_null);
          Alcotest.test_case "join corpus" `Quick (test_corpus corpus_join);
          Alcotest.test_case "aggregate corpus" `Quick (test_corpus corpus_agg);
          Alcotest.test_case "nested / correlated corpus" `Quick
            (test_corpus corpus_nested);
          Alcotest.test_case "parameters" `Quick test_params;
          Alcotest.test_case "subquery cache invariance" `Quick
            test_subquery_cache;
          Alcotest.test_case "NL inner compiled once per execution" `Quick
            test_inner_compiled_once ] ) ]
