(* The paper's central empirical claim (section 7): "although the costs
   predicted by the optimizer are often not accurate in absolute value, the
   true optimal path is selected in a large majority of cases", and the
   estimated cost ordering frequently matches the measured ordering.

   Here we enumerate candidate plans, execute every one of them on the real
   storage (cold buffer pool), measure PAGE FETCHES + W * RSI CALLS from the
   counters, and compare against the optimizer's predictions and choice. *)

module V = Rel.Value

let w = Ctx.default_w

let measure db block (plan : Plan.t) =
  let cat = Database.catalog db in
  let pager = Catalog.pager cat in
  Rss.Pager.evict_all pager;
  let counters = Rss.Pager.counters pager in
  let before = Rss.Counters.snapshot counters in
  let n = List.length (Cursor.drain (Cursor.compile cat block plan ())) in
  let d = Rss.Counters.diff ~after:(Rss.Counters.snapshot counters) ~before in
  (Rss.Counters.cost ~w d, n)

let setup () =
  let db = Database.create ~buffer_pages:32 () in
  Workload.load_emp_dept_job db
    ~config:{ Workload.default_emp_config with n_emp = 4000; n_dept = 40 };
  db

let single_relation_queries =
  [ "SELECT NAME FROM EMP WHERE DNO = 17";          (* clustered index hit *)
    "SELECT NAME FROM EMP WHERE JOB = 5";           (* non-clustered hit *)
    "SELECT NAME FROM EMP WHERE SAL > 29000";       (* no index on SAL *)
    "SELECT NAME FROM EMP WHERE DNO = 17 AND JOB = 5";
    "SELECT NAME FROM EMP WHERE DNO BETWEEN 10 AND 12";
    "SELECT NAME FROM EMP WHERE JOB = 5 AND SAL > 15000";
    "SELECT NAME FROM EMP" ]

let candidates db sql =
  let block = Database.resolve db sql in
  let factors =
    List.filter
      (fun (f : Normalize.factor) -> not f.Normalize.has_subquery)
      (Normalize.factors_of_block block)
  in
  let paths = Access_path.paths (Database.ctx db) block ~factors ~tab:0 ~outer:[] in
  (block, paths)

let test_single_relation_choice () =
  let db = setup () in
  let optimal = ref 0 and total = ref 0 in
  List.iter
    (fun sql ->
      incr total;
      let block, paths = candidates db sql in
      let measured = List.map (fun p -> (p, fst (measure db block p))) paths in
      let best_measured =
        List.fold_left (fun acc (_, c) -> Float.min acc c) infinity measured
      in
      (* identical result from every path *)
      let counts = List.map (fun p -> snd (measure db block p)) paths in
      (match counts with
       | c :: rest -> List.iter (fun c' -> Alcotest.(check int) "same rows" c c') rest
       | [] -> Alcotest.fail "no paths");
      let chosen = Database.optimize db sql in
      let chosen_cost, _ = measure db block chosen.Optimizer.plan in
      if chosen_cost <= best_measured *. 1.05 then incr optimal;
      (* never catastrophically wrong *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: chosen %.1f vs best %.1f" sql chosen_cost best_measured)
        true
        (chosen_cost <= best_measured *. 3.0))
    single_relation_queries;
  (* "the true optimal path is selected in a large majority of cases" *)
  Alcotest.(check bool)
    (Printf.sprintf "optimal in %d/%d" !optimal !total)
    true
    (float_of_int !optimal >= 0.7 *. float_of_int !total)

let test_estimate_ordering_agreement () =
  let db = setup () in
  let agree = ref 0 and total = ref 0 in
  List.iter
    (fun sql ->
      let block, paths = candidates db sql in
      let pairs =
        List.map
          (fun (p : Plan.t) ->
            (Cost_model.total ~w p.Plan.cost, fst (measure db block p)))
          paths
      in
      let rec all_pairs = function
        | [] -> []
        | x :: rest -> List.map (fun y -> (x, y)) rest @ all_pairs rest
      in
      List.iter
        (fun ((e1, m1), (e2, m2)) ->
          if abs_float (e1 -. e2) > 1e-9 && abs_float (m1 -. m2) > 1e-9 then begin
            incr total;
            if (e1 < e2) = (m1 < m2) then incr agree
          end)
        (all_pairs pairs))
    single_relation_queries;
  Alcotest.(check bool)
    (Printf.sprintf "ordering agreement %d/%d" !agree !total)
    true
    (!total > 0 && float_of_int !agree >= 0.7 *. float_of_int !total)

let join_queries =
  [ "SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND LOC = 'DENVER'";
    "SELECT NAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO AND SAL > 28000";
    "SELECT NAME FROM EMP, JOB WHERE EMP.JOB = JOB.JOB AND TITLE = 'CLERK'";
    "SELECT NAME FROM EMP, DEPT, JOB WHERE EMP.DNO = DEPT.DNO AND EMP.JOB = \
     JOB.JOB AND TITLE = 'CLERK' AND LOC = 'DENVER'" ]

let test_join_choice_near_best_retained () =
  let db = setup () in
  List.iter
    (fun sql ->
      let r = Database.optimize db sql in
      let block = r.Optimizer.block in
      let n = List.length block.Semant.tables in
      let full = List.init n Fun.id in
      let finals =
        List.concat_map
          (fun (tabs, plans) -> if List.sort compare tabs = full then plans else [])
          r.Optimizer.search.Join_enum.dp_table
      in
      Alcotest.(check bool) "several retained" true (List.length finals >= 1);
      let measured = List.map (fun p -> fst (measure db block p)) finals in
      let best = List.fold_left Float.min infinity measured in
      let chosen_cost, chosen_rows = measure db block r.Optimizer.plan in
      (* answers agree across retained plans *)
      List.iter
        (fun p ->
          Alcotest.(check int) "same answer" chosen_rows (snd (measure db block p)))
        finals;
      Alcotest.(check bool)
        (Printf.sprintf "%s: chosen %.1f vs best retained %.1f" sql chosen_cost best)
        true
        (chosen_cost <= best *. 2.0 +. 5.))
    join_queries

let test_heuristic_tradeoff () =
  (* The Cartesian-deferral heuristic cuts the search space but can miss
     plans that start with a tiny cross product — the classic star-query
     blind spot, visible on the Figure 1 query itself: JOB x DEPT is 1 x 4
     rows after the local predicates, and probing EMP's DNO index from that
     product beats every join-predicate-connected order. Both searches must
     return the same answer; the heuristic must pay for its speed only in
     plan quality, never correctness. *)
  let db = setup () in
  let sql =
    "SELECT NAME FROM EMP, DEPT, JOB WHERE EMP.DNO = DEPT.DNO AND EMP.JOB = \
     JOB.JOB AND TITLE = 'CLERK' AND LOC = 'DENVER'"
  in
  (* hold branch-and-bound fixed (off) for the search-space comparison: the
     bound an exhaustive greedy seed finds can prune harder than the
     heuristic's smaller candidate set, confounding the ablation *)
  let ctx_h = Ctx.create ~use_bnb:false (Database.catalog db) in
  let with_h = Database.optimize ~ctx:ctx_h db sql in
  let ctx = Ctx.create ~use_heuristic:false ~use_bnb:false (Database.catalog db) in
  let without_h = Database.optimize ~ctx db sql in
  Alcotest.(check bool) "heuristic searches less" true
    (with_h.Optimizer.search.Join_enum.plans_considered
     < without_h.Optimizer.search.Join_enum.plans_considered);
  (* and branch-and-bound only ever shrinks the space *)
  let with_bnb = Database.optimize db sql in
  Alcotest.(check bool) "bnb searches less" true
    (with_bnb.Optimizer.search.Join_enum.plans_considered
     < with_h.Optimizer.search.Join_enum.plans_considered);
  Alcotest.(check string) "bnb same plan"
    (Plan.describe with_h.Optimizer.plan)
    (Plan.describe with_bnb.Optimizer.plan);
  let block = with_h.Optimizer.block in
  let c1, n1 = measure db block with_h.Optimizer.plan in
  let c2, n2 = measure db block without_h.Optimizer.plan in
  Alcotest.(check int) "same answer" n1 n2;
  (* the exhaustive search never does worse than the heuristic one *)
  Alcotest.(check bool) "exhaustive at least as good" true (c2 <= c1 +. 1e-9)

let () =
  Alcotest.run "plan_quality"
    [ ( "s7",
        [ Alcotest.test_case "single-relation optimality" `Quick
            test_single_relation_choice;
          Alcotest.test_case "estimate ordering agreement" `Quick
            test_estimate_ordering_agreement;
          Alcotest.test_case "join choice near best" `Quick
            test_join_choice_near_best_retained;
          Alcotest.test_case "heuristic tradeoff" `Quick test_heuristic_tradeoff ] ) ]
