(* Optimizer laboratory: drive the library API directly — build a synthetic
   workload, sweep the W weighting factor, toggle the join-order heuristic
   and interesting-order bookkeeping, and compare predicted costs against
   counters measured on the storage substrate.

   Run: dune exec examples/optimizer_lab.exe *)

module V = Rel.Value

let hr title = Printf.printf "\n=== %s ===\n" title

let measure db (r : Optimizer.result) =
  let cat = Database.catalog db in
  Rss.Pager.evict_all (Catalog.pager cat);
  let out, d = Executor.run_measured cat r in
  (List.length out.Executor.rows, d)

let () =
  let db = Database.create ~buffer_pages:16 () in
  (* ORDERS(OID, CUST, AMOUNT) and CUSTOMERS(CUST, REGION): a sales-flavored
     workload with skewless uniform data *)
  Workload.load_uniform db ~name:"ORDERS" ~rows:5000
    ~cols:
      [ { Workload.col = "OID"; distinct = 5000 };
        { Workload.col = "CUST"; distinct = 400 };
        { Workload.col = "AMOUNT"; distinct = 1000 } ]
    ~indexes:[ ("ORD_OID", [ "OID" ], true); ("ORD_CUST", [ "CUST" ], false) ]
    ~seed:41 ();
  Workload.load_uniform db ~name:"CUSTOMERS" ~rows:400
    ~cols:
      [ { Workload.col = "CUST"; distinct = 400 };
        { Workload.col = "REGION"; distinct = 10 } ]
    ~indexes:[ ("CUST_PK", [ "CUST" ], true) ]
    ~seed:42 ();
  let sql =
    "SELECT OID FROM ORDERS, CUSTOMERS WHERE ORDERS.CUST = CUSTOMERS.CUST \
     AND REGION = 3 AND AMOUNT > 900"
  in
  Printf.printf "workload: ORDERS (5000 rows) JOIN CUSTOMERS (400 rows)\nquery: %s\n" sql;

  hr "W sweep: how the I/O-vs-CPU weighting changes the chosen plan";
  List.iter
    (fun w ->
      let ctx = Ctx.create ~w (Database.catalog db) in
      let r = Database.optimize ~ctx db sql in
      let rows, d = measure db r in
      Printf.printf "W=%-6.2f  %-58s rows=%d measured={pages=%d rsi=%d}\n" w
        (Plan.describe ~names:(Explain.table_names r.Optimizer.block) r.Optimizer.plan)
        rows d.Rss.Counters.page_fetches d.Rss.Counters.rsi_calls)
    [ 0.0; 0.1; 0.5; 2.0; 25.0 ];

  hr "ablation: join-order heuristic and interesting orders";
  List.iter
    (fun (label, use_heuristic, use_interesting_orders) ->
      let ctx =
        Ctx.create ~use_heuristic ~use_interesting_orders (Database.catalog db)
      in
      let r = Database.optimize ~ctx db (sql ^ " ORDER BY ORDERS.CUST") in
      let _, d = measure db r in
      Printf.printf "%-28s plans=%-5d stored=%-4d measured cost=%.1f\n" label
        r.Optimizer.search.Join_enum.plans_considered
        r.Optimizer.search.Join_enum.solutions_stored
        (Rss.Counters.cost ~w:Ctx.default_w d))
    [ ("baseline", true, true);
      ("no heuristic", false, true);
      ("no interesting orders", true, false);
      ("neither", false, false) ];

  hr "predicted vs measured for every access path of ORDERS";
  let block = Database.resolve db "SELECT OID FROM ORDERS WHERE CUST = 77" in
  let factors = Normalize.factors_of_block block in
  let ctx = Database.ctx db in
  let paths = Access_path.paths ctx block ~factors ~tab:0 ~outer:[] in
  List.iter
    (fun (p : Plan.t) ->
      let cat = Database.catalog db in
      Rss.Pager.evict_all (Catalog.pager cat);
      let counters = Rss.Pager.counters (Catalog.pager cat) in
      let before = Rss.Counters.snapshot counters in
      let n = List.length (Cursor.drain (Cursor.compile cat block p ())) in
      let d = Rss.Counters.diff ~after:(Rss.Counters.snapshot counters) ~before in
      Printf.printf "%-24s predicted=%-26s measured={pages=%d rsi=%d} rows=%d\n"
        (Plan.describe ~names:(fun _ -> "ORDERS") p)
        (Format.asprintf "%a" Cost_model.pp p.Plan.cost)
        d.Rss.Counters.page_fetches d.Rss.Counters.rsi_calls n)
    paths;
  print_newline ()
