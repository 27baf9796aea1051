module V = Rel.Value
module P = Plan

let schema cols =
  Rel.Schema.make (List.map (fun n -> { Rel.Schema.name = n; ty = V.Tint }) cols)

(* Chain schema: T1(A,X) -- T2(A,B,Y) -- T3(B,Z); join predicates only along
   the chain (T1.A = T2.A, T2.B = T3.B). *)
let chain_db ?(rows = 200) () =
  let db = Database.create ~buffer_pages:16 () in
  let cat = Database.catalog db in
  let t1 = Catalog.create_relation cat ~name:"T1" ~schema:(schema [ "A"; "X" ]) in
  let t2 = Catalog.create_relation cat ~name:"T2" ~schema:(schema [ "A"; "B"; "Y" ]) in
  let t3 = Catalog.create_relation cat ~name:"T3" ~schema:(schema [ "B"; "Z" ]) in
  for i = 0 to rows - 1 do
    ignore
      (Catalog.insert_tuple cat t1 (Rel.Tuple.make [ V.Int (i mod 20); V.Int i ]));
    ignore
      (Catalog.insert_tuple cat t2
         (Rel.Tuple.make [ V.Int (i mod 20); V.Int (i mod 10); V.Int i ]));
    ignore
      (Catalog.insert_tuple cat t3 (Rel.Tuple.make [ V.Int (i mod 10); V.Int i ]))
  done;
  ignore (Catalog.create_index cat ~name:"T1_A" ~rel:t1 ~columns:[ "A" ] ~clustered:false);
  ignore (Catalog.create_index cat ~name:"T1_X" ~rel:t1 ~columns:[ "X" ] ~clustered:false);
  ignore (Catalog.create_index cat ~name:"T2_A" ~rel:t2 ~columns:[ "A" ] ~clustered:false);
  ignore (Catalog.create_index cat ~name:"T3_B" ~rel:t3 ~columns:[ "B" ] ~clustered:false);
  Catalog.update_statistics cat;
  db

let plan_of ?ctx db sql =
  let r = Database.optimize ?ctx db sql in
  (r.Optimizer.plan, r.Optimizer.search)

let chain_sql = "SELECT X FROM T1, T2, T3 WHERE T1.A = T2.A AND T2.B = T3.B"

let test_complete_plan_produced () =
  let db = chain_db () in
  let plan, stats = plan_of db chain_sql in
  Alcotest.(check int) "all three joined" 3 (List.length plan.P.tables);
  Alcotest.(check int) "two joins" 2 (List.length (P.join_methods_used plan));
  Alcotest.(check bool) "considered plans" true (stats.Join_enum.plans_considered > 10)

let has_subset stats tabs =
  List.exists (fun (ts, _) -> ts = tabs) stats.Join_enum.dp_table

let test_heuristic_defers_cartesian () =
  let db = chain_db () in
  let _, stats = plan_of db chain_sql in
  (* T1 and T3 are not connected: the pair {T1,T3} must not be explored *)
  Alcotest.(check bool) "no {T1,T3} subset" false (has_subset stats [ 0; 2 ]);
  Alcotest.(check bool) "{T1,T2} explored" true (has_subset stats [ 0; 1 ]);
  Alcotest.(check bool) "{T2,T3} explored" true (has_subset stats [ 1; 2 ]);
  (* without the heuristic, the Cartesian pair is explored too *)
  let ctx =
    Ctx.create ~use_heuristic:false (Database.catalog db)
  in
  let _, stats2 = plan_of ~ctx db chain_sql in
  Alcotest.(check bool) "{T1,T3} explored without heuristic" true
    (has_subset stats2 [ 0; 2 ]);
  Alcotest.(check bool) "heuristic stores fewer solutions" true
    (stats.Join_enum.solutions_stored <= stats2.Join_enum.solutions_stored)

let test_cartesian_when_forced () =
  let db = chain_db () in
  (* no join predicate at all: a Cartesian product is the only option *)
  let plan, _ = plan_of db "SELECT X FROM T1, T3 WHERE T1.A = 1 AND T3.B = 2" in
  Alcotest.(check int) "both joined" 2 (List.length plan.P.tables);
  Alcotest.(check (list string)) "nested loop product" [ "NL" ]
    (P.join_methods_used plan)

let test_solutions_bound () =
  let db = chain_db () in
  let _, stats = plan_of db chain_sql in
  (* "at most 2^n (subsets) times the number of interesting result orders":
     n = 3, order classes here: unordered + class(A) + class(B) *)
  Alcotest.(check bool) "solutions bounded" true
    (stats.Join_enum.solutions_stored <= 8 * 3);
  Alcotest.(check bool) "subsets bounded" true (stats.Join_enum.subsets_examined <= 7)

let test_join_methods_can_mix () =
  (* large tables with no useful indexes on one side force a sort+merge while
     a selective indexed side prefers nested loops; at minimum both methods
     must appear across the two scenarios *)
  let db = chain_db ~rows:2000 () in
  let merge_plan, _ =
    plan_of db "SELECT Y FROM T2, T3 WHERE T2.Y = T3.Z"
  in
  (* Y/Z are unindexed join columns on equal-size relations: merging scans
     with sorted inputs should beat N full inner rescans *)
  Alcotest.(check (list string)) "merge chosen" [ "MERGE" ]
    (P.join_methods_used merge_plan);
  (* a single-tuple outer (unique indexed X) with an index on the inner join
     column: nested loops probes a handful of inner tuples *)
  let nl_plan, _ =
    plan_of db "SELECT Y FROM T1, T2 WHERE T1.A = T2.A AND T1.X = 17"
  in
  Alcotest.(check (list string)) "NL chosen" [ "NL" ] (P.join_methods_used nl_plan)

let test_merge_join_has_sorts_when_needed () =
  let db = chain_db ~rows:2000 () in
  let plan, _ = plan_of db "SELECT Y FROM T2, T3 WHERE T2.Y = T3.Z" in
  let rec count_sorts (p : P.t) =
    match p.P.node with
    | P.Sort { input; _ } -> 1 + count_sorts input
    | P.Scan _ -> 0
    | P.Nl_join { outer; inner } -> count_sorts outer + count_sorts inner
    | P.Merge_join { outer; inner; _ } -> count_sorts outer + count_sorts inner
    | P.Filter { input; _ } -> count_sorts input
  in
  Alcotest.(check bool) "unindexed merge needs sorts" true (count_sorts plan >= 1)

let test_order_by_uses_index_order () =
  let db = Database.create ~buffer_pages:16 () in
  let cat = Database.catalog db in
  let r = Catalog.create_relation cat ~name:"R" ~schema:(schema [ "K"; "A" ]) in
  for k = 0 to 999 do
    ignore (Catalog.insert_tuple cat r (Rel.Tuple.make [ V.Int k; V.Int (k mod 7) ]))
  done;
  ignore (Catalog.create_index cat ~name:"R_K" ~rel:r ~columns:[ "K" ] ~clustered:true);
  Catalog.update_statistics cat;
  let rec has_sort (p : P.t) =
    match p.P.node with
    | P.Sort _ -> true
    | P.Scan _ -> false
    | P.Nl_join { outer; inner } | P.Merge_join { outer; inner; _ } ->
      has_sort outer || has_sort inner
    | P.Filter { input; _ } -> has_sort input
  in
  (* a selective range on the ordering column: the matching clustered index
     delivers both the restriction and the order, far cheaper than scanning
     and sorting *)
  let indexed, _ = plan_of db "SELECT K FROM R WHERE K > 900 ORDER BY K" in
  Alcotest.(check bool) "index provides order" false (has_sort indexed);
  (* descending order comes from a backward leaf-chain scan, no sort *)
  let desc, _ = plan_of db "SELECT K FROM R WHERE K > 900 ORDER BY K DESC" in
  Alcotest.(check bool) "backward scan provides DESC" false (has_sort desc);
  let out = Database.query db "SELECT K FROM R WHERE K > 995 ORDER BY K DESC" in
  (match out.Executor.rows with
   | [| Rel.Value.Int a |] :: [| Rel.Value.Int b |] :: _ ->
     Alcotest.(check bool) "descending rows" true (a > b)
   | _ -> Alcotest.fail "desc rows");
  let unindexed, _ = plan_of db "SELECT K FROM R ORDER BY A" in
  Alcotest.(check bool) "unindexed order sorts" true (has_sort unindexed)

let test_interesting_orders_ablation () =
  let db = chain_db ~rows:1000 () in
  let sql = "SELECT X FROM T1, T2 WHERE T1.A = T2.A ORDER BY T1.A" in
  let with_orders = Database.optimize db sql in
  let ctx = Ctx.create ~use_interesting_orders:false (Database.catalog db) in
  let without = Database.optimize ~ctx db sql in
  let w = Ctx.default_w in
  (* keeping per-order solutions can only help *)
  Alcotest.(check bool) "orders never hurt" true
    (Cost_model.total ~w with_orders.Optimizer.plan.P.cost
     <= Cost_model.total ~w without.Optimizer.plan.P.cost +. 1e-9)

let test_order_equivalence_class_transfers () =
  (* E.DNO = D.DNO: scanning E on its DNO index yields D.DNO order too, so an
     ORDER BY D.DNO needs no sort after the merge *)
  let db = Database.create ~buffer_pages:16 () in
  let cat = Database.catalog db in
  let e = Catalog.create_relation cat ~name:"E" ~schema:(schema [ "DNO"; "X" ]) in
  let d = Catalog.create_relation cat ~name:"D" ~schema:(schema [ "DNO"; "Z" ]) in
  for i = 0 to 999 do
    ignore (Catalog.insert_tuple cat e (Rel.Tuple.make [ V.Int (i / 20); V.Int i ]))
  done;
  for i = 0 to 49 do
    ignore (Catalog.insert_tuple cat d (Rel.Tuple.make [ V.Int i; V.Int i ]))
  done;
  ignore (Catalog.create_index cat ~name:"E_DNO" ~rel:e ~columns:[ "DNO" ] ~clustered:true);
  ignore (Catalog.create_index cat ~name:"D_DNO" ~rel:d ~columns:[ "DNO" ] ~clustered:true);
  Catalog.update_statistics cat;
  let r =
    Database.optimize db
      "SELECT X FROM E, D WHERE E.DNO = D.DNO ORDER BY D.DNO"
  in
  (* the join's own order (via the equivalence class E.DNO ~ D.DNO) serves
     the ORDER BY: no sort sits above the join *)
  (match r.Optimizer.plan.P.node with
   | P.Sort _ -> Alcotest.fail "final sort should be unnecessary"
   | P.Nl_join _ | P.Merge_join _ | P.Scan _ | P.Filter _ -> ());
  Alcotest.(check bool) "plan order satisfies ORDER BY" true
    (r.Optimizer.plan.P.order <> [])

let test_single_relation_block () =
  let db = chain_db () in
  let plan, stats = plan_of db "SELECT X FROM T1 WHERE A = 5" in
  Alcotest.(check int) "single table" 1 (List.length plan.P.tables);
  Alcotest.(check int) "one subset" 1 stats.Join_enum.subsets_examined

let test_eight_table_join_terminates () =
  let db = Database.create ~buffer_pages:16 () in
  let cat = Database.catalog db in
  for i = 0 to 7 do
    let r =
      Catalog.create_relation cat
        ~name:(Printf.sprintf "R%d" i)
        ~schema:(schema [ "A"; "B" ])
    in
    for k = 0 to 49 do
      ignore (Catalog.insert_tuple cat r (Rel.Tuple.make [ V.Int k; V.Int (k mod 5) ]))
    done
  done;
  Catalog.update_statistics cat;
  let joins =
    String.concat " AND "
      (List.init 7 (fun i -> Printf.sprintf "R%d.A = R%d.A" i (i + 1)))
  in
  let froms = String.concat ", " (List.init 8 (fun i -> Printf.sprintf "R%d" i)) in
  let started = Unix.gettimeofday () in
  let plan, _ = plan_of db (Printf.sprintf "SELECT R0.B FROM %s WHERE %s" froms joins) in
  let elapsed = Unix.gettimeofday () -. started in
  Alcotest.(check int) "eight tables" 8 (List.length plan.P.tables);
  (* "joins of 8 tables have been optimized in a few seconds" (1979); we
     allow the same budget on modern hardware *)
  Alcotest.(check bool) "a few seconds" true (elapsed < 5.0)

let test_grouping_accepts_permuted_order () =
  (* GROUP BY A, B is served by an index on (B, A): any permutation of the
     grouping columns makes equal keys adjacent *)
  let db = Database.create ~buffer_pages:16 () in
  let cat = Database.catalog db in
  let r = Catalog.create_relation cat ~name:"G" ~schema:(schema [ "A"; "B"; "V" ]) in
  let rows =
    List.init 2000 (fun i -> ((i * 13 mod 4, i * 7 mod 5), i))
  in
  (* loaded in (B, A) order: the (B, A) index is clustered *)
  List.iter
    (fun ((b, a), v) ->
      ignore (Catalog.insert_tuple cat r (Rel.Tuple.make [ V.Int a; V.Int b; V.Int v ])))
    (List.sort compare rows);
  ignore (Catalog.create_index cat ~name:"G_BA" ~rel:r ~columns:[ "B"; "A" ] ~clustered:true);
  Catalog.update_statistics cat;
  let res = Database.optimize db "SELECT A, B, COUNT(*) FROM G GROUP BY A, B" in
  let rec has_sort (p : P.t) =
    match p.P.node with
    | P.Sort _ -> true
    | P.Scan _ -> false
    | P.Nl_join { outer; inner } | P.Merge_join { outer; inner; _ } ->
      has_sort outer || has_sort inner
    | P.Filter { input; _ } -> has_sort input
  in
  (* the (B,A) index order groups (A,B) without sorting — it must at least be
     an admissible ordered solution; with a segment scan + sort as the rival,
     the index order wins when the sort is not free *)
  Alcotest.(check bool) "no sort above the (B,A) index" false
    (has_sort res.Optimizer.plan);
  (* correctness: counts match the naive evaluator *)
  let out = Executor.run cat res in
  let expected = Naive_eval.query cat res.Optimizer.block in
  Alcotest.(check int) "group count" (List.length expected)
    (List.length out.Executor.rows)

(* --- factor coverage invariant ------------------------------------------ *)

(* Every boolean factor of the block must be applied exactly once in the
   chosen plan: as a SARG, a scan residual, a join residual, a filter
   predicate, or as the equi-join predicate a merge join consumes. Applying
   a factor twice skews cardinality estimates; dropping one corrupts
   results. *)
let check_factor_coverage (r : Optimizer.result) =
  let applied = ref [] in
  let merges = ref [] in
  let rec walk (p : P.t) =
    match p.P.node with
    | P.Scan { sargs; residual; _ } -> applied := sargs @ residual @ !applied
    | P.Nl_join { outer; inner } ->
      walk outer;
      walk inner
    | P.Merge_join { outer; inner; outer_col; inner_col; residual } ->
      merges := (outer_col, inner_col) :: !merges;
      applied := residual @ !applied;
      walk outer;
      walk inner
    | P.Sort { input; _ } -> walk input
    | P.Filter { input; preds } ->
      applied := preds @ !applied;
      walk input
  in
  walk r.Optimizer.plan;
  (* CNF rebuilds nodes, so compare by rendered form (multiset) rather than
     physical identity *)
  let render p = Format.asprintf "%a" Semant.pp_spred p in
  let applied = ref (List.map render !applied) in
  let remove_one key =
    let found = ref false in
    applied :=
      List.filter
        (fun k ->
          if (not !found) && k = key then begin
            found := true;
            false
          end
          else true)
        !applied;
    !found
  in
  let factors = Normalize.factors_of_block r.Optimizer.block in
  List.iter
    (fun (f : Normalize.factor) ->
      let key = render f.Normalize.pred in
      if not (remove_one key) then
        match f.Normalize.equi_join with
        | Some (a, b) ->
          (* must be consumed by exactly one merge join on those columns *)
          let consumed, rest =
            List.partition
              (fun (oc, ic) -> (oc = a && ic = b) || (oc = b && ic = a))
              !merges
          in
          (match consumed with
           | _ :: others ->
             merges := others @ rest
           | [] -> Alcotest.fail (Printf.sprintf "factor %s never applied" key))
        | None -> Alcotest.fail (Printf.sprintf "factor %s never applied" key))
    factors;
  if !applied <> [] then
    Alcotest.fail
      (Printf.sprintf "predicates applied but not boolean factors: %s"
         (String.concat "; " !applied))

let coverage_corpus =
  [ "SELECT X FROM T1 WHERE A = 3";
    "SELECT X FROM T1 WHERE A = 3 AND X > 10";
    "SELECT X FROM T1 WHERE A = 1 OR X = 2";
    "SELECT X FROM T1, T2 WHERE T1.A = T2.A";
    "SELECT X FROM T1, T2 WHERE T1.A = T2.A AND T2.B = 3 AND T1.X < 100";
    "SELECT X FROM T1, T2, T3 WHERE T1.A = T2.A AND T2.B = T3.B";
    "SELECT X FROM T1, T2, T3 WHERE T1.A = T2.A AND T2.B = T3.B AND T3.Z > 5 \
     AND T1.X BETWEEN 2 AND 90";
    "SELECT Y FROM T2, T3 WHERE T2.Y = T3.Z";  (* forces merge with sorts *)
    "SELECT X FROM T1, T2 WHERE T1.A = T2.A ORDER BY T1.A";
    "SELECT X FROM T1, T3 WHERE X = 1 AND Z = 2";  (* Cartesian *)
    "SELECT X FROM T1 WHERE A IN (SELECT B FROM T2 WHERE Y = 3)";
    "SELECT X FROM T1 WHERE A = 2 AND X > (SELECT MIN(Y) FROM T2)" ]

let test_factor_coverage () =
  let db = chain_db ~rows:500 () in
  List.iter
    (fun sql -> check_factor_coverage (Database.optimize db sql))
    coverage_corpus;
  (* also without the heuristic and without interesting orders *)
  let ctx = Ctx.create ~use_heuristic:false ~use_interesting_orders:false (Database.catalog db) in
  List.iter
    (fun sql -> check_factor_coverage (Database.optimize ~ctx db sql))
    coverage_corpus

let () =
  Alcotest.run "join_enum"
    [ ( "search",
        [ Alcotest.test_case "complete plan" `Quick test_complete_plan_produced;
          Alcotest.test_case "heuristic defers Cartesian" `Quick
            test_heuristic_defers_cartesian;
          Alcotest.test_case "Cartesian when forced" `Quick test_cartesian_when_forced;
          Alcotest.test_case "solution count bound" `Quick test_solutions_bound;
          Alcotest.test_case "single relation" `Quick test_single_relation_block;
          Alcotest.test_case "8-table join" `Slow test_eight_table_join_terminates ] );
      ( "methods_orders",
        [ Alcotest.test_case "NL vs merge choice" `Quick test_join_methods_can_mix;
          Alcotest.test_case "merge sorts when unindexed" `Quick
            test_merge_join_has_sorts_when_needed;
          Alcotest.test_case "ORDER BY via index" `Quick test_order_by_uses_index_order;
          Alcotest.test_case "interesting orders ablation" `Quick
            test_interesting_orders_ablation;
          Alcotest.test_case "order equivalence classes" `Quick
            test_order_equivalence_class_transfers ] );
      ( "invariants",
        [ Alcotest.test_case "factor coverage" `Quick test_factor_coverage;
          Alcotest.test_case "grouping permutation order" `Quick
            test_grouping_accepts_permuted_order ] ) ]
