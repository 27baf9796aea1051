(* Equi-depth histograms and the cardinality-feedback loop.

   Construction invariants on skewed / NULL-heavy / constant columns, the
   monotonicity and mutual consistency of the derived estimators, histogram
   estimates against the executor's true counts on Zipf data (where TABLE 1's
   uniformity constants are badly wrong), and the feedback loop end to end:
   gross misestimate -> recorded correction -> plan-cache retirement ->
   re-optimized plan carrying the corrected cardinality. *)

module V = Rel.Value

let feq = Alcotest.(check (float 1e-9))

(* ---- construction ----------------------------------------------------- *)

let check_invariants h =
  let open Histogram in
  let nonnull = h.rows - h.nulls in
  let sum = Array.fold_left (fun a b -> a + b.b_rows) 0 h.buckets in
  Alcotest.(check int) "bucket rows sum to non-NULL rows" nonnull sum;
  let dsum = Array.fold_left (fun a b -> a + b.b_distinct) 0 h.buckets in
  Alcotest.(check int) "bucket distincts sum to distinct" h.distinct dsum;
  Array.iter
    (fun b ->
      Alcotest.(check bool) "bucket bounds ordered" true
        (V.compare b.b_lo b.b_hi <= 0))
    h.buckets;
  (* a value's run is never split: consecutive buckets have disjoint ranges *)
  for i = 0 to Array.length h.buckets - 2 do
    Alcotest.(check bool) "buckets strictly increasing" true
      (V.compare h.buckets.(i).b_hi h.buckets.(i + 1).b_lo < 0)
  done

let test_build_skewed () =
  (* one value holds half the mass *)
  let values =
    List.init 500 (fun _ -> V.Int 7)
    @ List.init 500 (fun i -> V.Int (100 + i))
  in
  let h = Histogram.build (Array.of_list values) in
  check_invariants h;
  Alcotest.(check int) "rows" 1000 (Histogram.rows h);
  Alcotest.(check int) "distinct" 501 (Histogram.distinct h);
  feq "null fraction" 0. (Histogram.null_fraction h);
  (* the heavy value's run fills whole buckets, so its estimate is exact *)
  feq "heavy value exact" 0.5 (Histogram.selectivity_eq h (V.Int 7));
  (* a light value estimates at its bucket's per-value depth: tiny *)
  Alcotest.(check bool) "light value small" true
    (Histogram.selectivity_eq h (V.Int 150) < 0.05);
  Alcotest.(check bool) "absent value below light depth" true
    (Histogram.selectivity_eq h (V.Int 5000) <= 1e-9
     || Histogram.selectivity_eq h (V.Int 5000) < 0.05)

let test_build_null_heavy () =
  let values =
    List.init 300 (fun _ -> V.Null) @ List.init 100 (fun i -> V.Int i)
  in
  let h = Histogram.build (Array.of_list values) in
  check_invariants h;
  Alcotest.(check int) "rows include NULLs" 400 (Histogram.rows h);
  feq "null fraction" 0.75 (Histogram.null_fraction h);
  (* fractions are of ALL rows, so the NULL discount is built in *)
  feq "eq discounted by NULLs" (1. /. 400.)
    (Histogram.selectivity_eq h (V.Int 42));
  feq "full range discounted by NULLs" 0.25
    (Histogram.selectivity_cmp h `Ge (V.Int 0));
  feq "NULL probe qualifies nothing" 0. (Histogram.selectivity_eq h V.Null)

let test_build_constant () =
  let h = Histogram.build (Array.make 50 (V.Int 9)) in
  check_invariants h;
  Alcotest.(check int) "one bucket" 1 (Array.length h.Histogram.buckets);
  Alcotest.(check int) "distinct 1" 1 (Histogram.distinct h);
  feq "eq exact" 1.0 (Histogram.selectivity_eq h (V.Int 9));
  feq "lt of the value" 0. (Histogram.selectivity_cmp h `Lt (V.Int 9));
  feq "le of the value" 1.0 (Histogram.selectivity_cmp h `Le (V.Int 9));
  feq "gt of the value" 0. (Histogram.selectivity_cmp h `Gt (V.Int 9))

let test_build_empty_and_all_null () =
  let h = Histogram.build [||] in
  Alcotest.(check int) "empty rows" 0 (Histogram.rows h);
  feq "empty eq" 0. (Histogram.selectivity_eq h (V.Int 1));
  let h = Histogram.build [| V.Null; V.Null |] in
  Alcotest.(check int) "all-NULL distinct" 0 (Histogram.distinct h);
  feq "all-NULL fraction" 1.0 (Histogram.null_fraction h);
  feq "all-NULL cmp" 0. (Histogram.selectivity_cmp h `Le (V.Int 5))

(* ---- one entry point, over an array ---------------------------------- *)

let same_histogram name (a : Histogram.t) (b : Histogram.t) =
  let open Histogram in
  Alcotest.(check int) (name ^ ": rows") a.rows b.rows;
  Alcotest.(check int) (name ^ ": nulls") a.nulls b.nulls;
  Alcotest.(check int) (name ^ ": distinct") a.distinct b.distinct;
  Alcotest.(check int) (name ^ ": buckets") (Array.length a.buckets)
    (Array.length b.buckets);
  Array.iter2
    (fun x y ->
      Alcotest.(check bool) (name ^ ": bucket bounds") true
        (V.equal x.b_lo y.b_lo && V.equal x.b_hi y.b_hi);
      Alcotest.(check int) (name ^ ": bucket rows") x.b_rows y.b_rows;
      Alcotest.(check int) (name ^ ": bucket distinct") x.b_distinct y.b_distinct)
    a.buckets b.buckets

let shuffle st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* [build] sorts its array in place; the order the column arrives in must
   not matter. *)
let test_build_order_independent () =
  let st = Random.State.make [| 11 |] in
  let columns =
    [ ("skewed",
       Array.append (Array.make 500 (V.Int 7))
         (Array.init 500 (fun i -> V.Int (100 + i))));
      ("NULL-heavy",
       Array.append (Array.make 300 V.Null) (Array.init 100 (fun i -> V.Int (i mod 37))));
      ("all-equal", Array.make 64 (V.Str "x"));
      ("all-NULL", Array.make 10 V.Null);
      ("strings",
       Array.init 700 (fun i -> V.Str (Printf.sprintf "s%03d" (i * 7 mod 301)))) ]
  in
  List.iter
    (fun (name, col) ->
      let sorted = Array.copy col in
      Array.stable_sort V.compare sorted;
      let reference = Histogram.build sorted in
      for round = 1 to 3 do
        same_histogram
          (Printf.sprintf "%s, shuffle %d" name round)
          reference
          (Histogram.build (shuffle st col))
      done)
    columns

(* The list-based construction the array-based [build] replaced, kept as a
   reference: drop the NULLs, sort the rest, cut runs of equal depth. *)
let reference_build ?(max_buckets = 32) (values : V.t list) =
  let nulls = List.length (List.filter V.is_null values) in
  let a = Array.of_list (List.filter (fun v -> not (V.is_null v)) values) in
  Array.sort V.compare a;
  let n = Array.length a in
  if n = 0 then { Histogram.rows = nulls; nulls; distinct = 0; buckets = [||] }
  else begin
    let depth = max 1 ((n + max_buckets - 1) / max_buckets) in
    let buckets = ref [] and total = ref 0 and i = ref 0 in
    while !i < n do
      let start = !i and distinct = ref 1 and j = ref (!i + 1) in
      while !j < n && !j - start < depth do
        if V.compare a.(!j) a.(!j - 1) <> 0 then incr distinct;
        incr j
      done;
      while !j < n && V.compare a.(!j) a.(!j - 1) = 0 do incr j done;
      buckets :=
        { Histogram.b_lo = a.(start); b_hi = a.(!j - 1); b_rows = !j - start;
          b_distinct = !distinct }
        :: !buckets;
      total := !total + !distinct;
      i := !j
    done;
    { Histogram.rows = n + nulls; nulls; distinct = !total;
      buckets = Array.of_list (List.rev !buckets) }
  end

(* UPDATE STATISTICS builds every column's histogram from one array per
   column; on every relation of every Workload dataset it must equal the
   reference built from the column as a list. *)
let test_statistics_match_reference () =
  let datasets =
    [ ("emp/dept/job", fun db -> Workload.load_emp_dept_job db);
      ("sales", fun db -> Workload.load_sales db);
      ( "uniform",
        fun db ->
          Workload.load_uniform db ~name:"U" ~rows:1500
            ~cols:
              [ { Workload.col = "A"; distinct = 40 };
                { Workload.col = "B"; distinct = 700 } ]
            ~indexes:[ ("U_A", [ "A" ], true) ]
            ~seed:9 () );
      ( "zipf",
        fun db ->
          Workload.load_zipf db ~name:"Z" ~rows:1500
            ~cols:[ ("X", 60, 1.2); ("Y", 300, 0.6) ]
            ~seed:9 () ) ]
  in
  List.iter
    (fun (name, load) ->
      let db = Database.create () in
      load db;
      List.iter
        (fun (rel : Catalog.relation) ->
          let tuples =
            Cursor.drain
              (Rss.Scan.open_segment_scan rel.Catalog.segment
                 ~rel_id:rel.Catalog.rel_id ())
          in
          Alcotest.(check int)
            (Printf.sprintf "%s.%s: one histogram per column" name rel.Catalog.rel_name)
            (Rel.Schema.arity rel.Catalog.schema)
            (Array.length rel.Catalog.cstats);
          Array.iteri
            (fun col (st : Stats.column) ->
              same_histogram
                (Printf.sprintf "%s.%s col %d" name rel.Catalog.rel_name col)
                (reference_build
                   (List.map (fun tup -> Rel.Tuple.get tup col) tuples))
                st.Stats.hist)
            rel.Catalog.cstats)
        (Catalog.relations (Database.catalog db)))
    datasets

(* ---- estimator monotonicity & consistency ----------------------------- *)

let test_monotonic () =
  let st = Workload.rand_init 77 in
  let values =
    List.init 2000 (fun _ -> V.Int (Random.State.int st 500 * Random.State.int st 3))
  in
  let h = Histogram.build (Array.of_list values) in
  check_invariants h;
  let prev_le = ref (-1.) and prev_gt = ref 2. in
  for v = -10 to 1510 do
    let le = Histogram.selectivity_cmp h `Le (V.Int v) in
    let gt = Histogram.selectivity_cmp h `Gt (V.Int v) in
    let lt = Histogram.selectivity_cmp h `Lt (V.Int v) in
    let eq = Histogram.selectivity_eq h (V.Int v) in
    Alcotest.(check bool) "LE monotone non-decreasing" true (le >= !prev_le -. 1e-9);
    Alcotest.(check bool) "GT monotone non-increasing" true (gt <= !prev_gt +. 1e-9);
    (* all estimators derive from one cumulative pair: lt + eq = le, and
       le + gt covers exactly the non-NULL mass *)
    Alcotest.(check (float 1e-9)) "lt + eq = le" le (lt +. eq);
    Alcotest.(check (float 1e-9)) "le + gt = non-NULL" (1. -. Histogram.null_fraction h)
      (le +. gt);
    prev_le := le;
    prev_gt := gt
  done

(* ---- estimate vs oracle on Zipf data ---------------------------------- *)

let q_error est act =
  Float.max ((est +. 1.) /. (act +. 1.)) ((act +. 1.) /. (est +. 1.))

let quantile q xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  a.(min (n - 1) (int_of_float (q *. float_of_int n)))

let test_zipf_vs_oracle () =
  let db = Database.create () in
  Workload.load_zipf db ~name:"Z" ~rows:3000
    ~cols:[ ("U", 40, 1.3); ("W", 200, 0.9) ]
    ~seed:5 ();
  (* no indexes at all: TABLE 1 has only its 1/10 and 1/3 defaults here,
     while histograms know the measured distribution *)
  let queries =
    List.concat_map
      (fun k ->
        [ Printf.sprintf "SELECT U FROM Z WHERE U = %d" k;
          Printf.sprintf "SELECT U FROM Z WHERE W < %d" (k * 17);
          Printf.sprintf "SELECT U FROM Z WHERE W BETWEEN %d AND %d" k (k * 11) ])
      [ 0; 1; 2; 3; 5; 8; 13; 21; 34 ]
  in
  let cat = Database.catalog db in
  let const_ctx = Ctx.create ~use_histograms:false ~use_feedback:false cat in
  let hist_ctx = Ctx.create ~use_histograms:true ~use_feedback:false cat in
  let errs ctx =
    List.map
      (fun sql ->
        let block = Database.resolve db sql in
        let est = Selectivity.block_qcard ctx block in
        let act = List.length (Database.query db sql).Executor.rows in
        q_error est (float_of_int act))
      queries
  in
  Database.set_feedback db false;
  let ce = errs const_ctx and he = errs hist_ctx in
  let cp = quantile 0.95 ce and hp = quantile 0.95 he in
  Alcotest.(check bool)
    (Printf.sprintf "histogram p95 q-error (%.2f) < constants p95 (%.2f)" hp cp)
    true (hp < cp);
  (* histograms should be close to truth almost everywhere on this data *)
  Alcotest.(check bool)
    (Printf.sprintf "histogram p95 q-error small (%.2f)" hp)
    true (hp < 2.0)

(* ---- satellite regressions -------------------------------------------- *)

let test_in_list_dedup () =
  let db = Database.create () in
  Database.set_histograms db false;
  Workload.load_uniform db ~name:"R" ~rows:1000
    ~cols:[ { Workload.col = "A"; distinct = 50 } ]
    ~indexes:[ ("R_A", [ "A" ], false) ]
    ~seed:3 ();
  let sel sql =
    let block = Database.resolve db sql in
    match block.Semant.where with
    | Some w -> Selectivity.factor (Database.ctx db) block w
    | None -> Alcotest.fail "no where"
  in
  (* IN (1,1,1) selects the same tuples as IN (1) and must estimate so *)
  feq "duplicates collapse"
    (sel "SELECT A FROM R WHERE A IN (1)")
    (sel "SELECT A FROM R WHERE A IN (1, 1, 1)")

let test_unindexed_eq_uses_distinct () =
  let db = Database.create () in
  Workload.load_uniform db ~name:"R" ~rows:1000
    ~cols:
      [ { Workload.col = "A"; distinct = 50 };
        { Workload.col = "B"; distinct = 100 } ]
    ~seed:4 ();
  (* B has no index; the old estimator was stuck at 1/10. The histogram
     knows its measured distinct count. *)
  let block = Database.resolve db "SELECT A FROM R WHERE B = 7" in
  let w = Option.get block.Semant.where in
  let est = Selectivity.factor (Database.ctx db) block w in
  Alcotest.(check bool)
    (Printf.sprintf "unindexed eq near 1/distinct (got %.4f)" est)
    true
    (est < 0.05);
  Database.set_histograms db false;
  feq "constants still say 1/10" 0.1
    (Selectivity.factor (Database.ctx db) block w)

(* ---- the feedback loop ------------------------------------------------ *)

let counters db = Rss.Pager.counters (Database.pager db)

(* Two perfectly correlated columns: the independence assumption multiplies
   their selectivities, underestimating by the distinct count. *)
let correlated_db () =
  let db = Database.create () in
  let cat = Database.catalog db in
  let schema =
    Rel.Schema.make
      [ { Rel.Schema.name = "A"; ty = V.Tint };
        { Rel.Schema.name = "B"; ty = V.Tint } ]
  in
  let rel = Catalog.create_relation cat ~name:"C" ~schema in
  for i = 0 to 999 do
    ignore (Catalog.insert_tuple cat rel (Rel.Tuple.make [ V.Int (i mod 10); V.Int (i mod 10) ]))
  done;
  ignore (Catalog.create_index cat ~name:"C_A" ~rel ~columns:[ "A" ] ~clustered:false);
  Database.update_statistics db;
  db

let test_feedback_records_and_retires () =
  let db = correlated_db () in
  let sql = "SELECT A FROM C WHERE A = 3 AND B = 3" in
  (* first run: optimized under independence (est 10 of 1000), actual 100 *)
  let out = Database.query db sql in
  Alcotest.(check int) "actual rows" 100 (List.length out.Executor.rows);
  let est0, act0, qerr0, retired0 = Option.get (Database.last_feedback db) in
  feq "estimate under independence" 10. est0;
  Alcotest.(check int) "observed actual" 100 act0;
  Alcotest.(check bool) "gross misestimate" true (qerr0 > 4.);
  Alcotest.(check bool) "correction recorded" true retired0;
  Alcotest.(check int) "misestimate counted" 1
    (counters db).Rss.Counters.feedback_misestimates;
  Alcotest.(check int) "retirement counted" 1
    (counters db).Rss.Counters.feedback_retirements;
  (* second run: the cached plan was retired (its feedback dep moved), the
     statement re-optimizes, and the corrected estimate matches reality *)
  let inval_before = (counters db).Rss.Counters.plan_cache_invalidations in
  ignore (Database.query db sql);
  Alcotest.(check int) "stale plan retired" (inval_before + 1)
    (counters db).Rss.Counters.plan_cache_invalidations;
  let est1, act1, _, retired1 = Option.get (Database.last_feedback db) in
  feq "corrected estimate" 100. est1;
  Alcotest.(check int) "still actual" 100 act1;
  Alcotest.(check bool) "no further retirement: the loop settles" false retired1;
  (* third run: plain cache hit, nothing moves *)
  let retire_before = (counters db).Rss.Counters.feedback_retirements in
  ignore (Database.query db sql);
  Alcotest.(check int) "settled" retire_before
    (counters db).Rss.Counters.feedback_retirements

let test_feedback_changes_plan () =
  let db = correlated_db () in
  (* D: small relation joined against the correlated restriction of C *)
  let cat = Database.catalog db in
  let schema =
    Rel.Schema.make
      [ { Rel.Schema.name = "X"; ty = V.Tint };
        { Rel.Schema.name = "Y"; ty = V.Tint } ]
  in
  let rel = Catalog.create_relation cat ~name:"D" ~schema in
  for i = 0 to 39 do
    ignore (Catalog.insert_tuple cat rel (Rel.Tuple.make [ V.Int (i mod 10); V.Int i ]))
  done;
  ignore (Catalog.create_index cat ~name:"D_X" ~rel ~columns:[ "X" ] ~clustered:true);
  Database.update_statistics db;
  let join = "SELECT Y FROM C, D WHERE C.A = 3 AND C.B = 3 AND C.A = D.X" in
  let before = Plan.describe (Database.optimize db join).Optimizer.plan in
  (* drive the feedback loop on the single-table restriction *)
  ignore (Database.query db "SELECT A FROM C WHERE A = 3 AND B = 3");
  Alcotest.(check bool) "correction recorded" true
    ((counters db).Rss.Counters.feedback_retirements >= 1);
  let after_r = Database.optimize db join in
  let after = Plan.describe after_r.Optimizer.plan in
  (* the corrected restriction cardinality flows into the join estimate *)
  Alcotest.(check bool)
    (Printf.sprintf "join re-costed under corrected cardinality\nbefore: %s\nafter: %s"
       before after)
    true
    (after_r.Optimizer.plan.Plan.out_card > 300.);
  (* and UPDATE STATISTICS clears the corrections: fresh histograms win *)
  Database.update_statistics db;
  let reset = Plan.describe (Database.optimize db join).Optimizer.plan in
  Alcotest.(check string) "UPDATE STATISTICS clears feedback" before reset

(* A feedback key prints a literal with every digit that tells two floats
   apart, so two restrictions never share one learned selectivity. *)
let test_feedback_key_literals () =
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE F (X FLOAT)");
  let key sql =
    Feedback.key ~params:[||] (Normalize.factors_of_block (Database.resolve db sql))
  in
  let k1 = key "SELECT X FROM F WHERE X < 0.1234561"
  and k2 = key "SELECT X FROM F WHERE X < 0.1234564" in
  Alcotest.(check bool) "keyed" true (k1 <> None);
  Alcotest.(check bool) "distinct keys" true (k1 <> k2)

(* Stale statistics (3 rows analyzed, then 50 rows of each of cap + 10
   new values) and a prepared point SELECT executed once per value: every
   execution misestimates, but only the first [cap] record a correction
   and retire plans. UPDATE STATISTICS clears the table, and recording
   resumes. The cap is [Feedback.max_keys]. *)
let test_feedback_bounded () =
  let cap = 32 in
  let db = Database.create () in
  ignore (Database.exec db "CREATE TABLE T (A INT, B INT)");
  let cat = Database.catalog db in
  let rel = Option.get (Catalog.find_relation cat "T") in
  let insert a n =
    for b = 1 to n do
      ignore (Catalog.insert_tuple cat rel (Rel.Tuple.make [ V.Int a; V.Int b ]))
    done
  in
  List.iter (fun a -> insert a 1) [ -1; -2; -3 ];
  Database.update_statistics db;
  for a = 0 to cap + 9 do
    insert a 50
  done;
  let p = Database.prepare db "SELECT B FROM T WHERE A = ?" in
  let c = counters db in
  let run a =
    let out = Database.execute_prepared db p [ V.Int a ] in
    Alcotest.(check int) (Printf.sprintf "rows for A = %d" a) 50
      (List.length out.Executor.rows)
  in
  for a = 0 to cap + 9 do
    run a
  done;
  Alcotest.(check int) "keys" cap (Hashtbl.length rel.Catalog.feedback);
  Alcotest.(check int) "retirements" cap c.Rss.Counters.feedback_retirements;
  Alcotest.(check int) "feedback_gen" cap rel.Catalog.feedback_gen;
  Alcotest.(check int) "misestimates" (cap + 10) c.Rss.Counters.feedback_misestimates;
  Database.update_statistics db;
  Alcotest.(check int) "UPDATE STATISTICS clears" 0 (Hashtbl.length rel.Catalog.feedback);
  insert 100 50;
  run 100;
  Alcotest.(check int) "recording resumes" 1 (Hashtbl.length rel.Catalog.feedback);
  Alcotest.(check int) "and retires" (cap + 1) c.Rss.Counters.feedback_retirements

let test_histograms_off_disables_feedback () =
  let db = correlated_db () in
  Database.set_histograms db false;
  ignore (Database.query db "SELECT A FROM C WHERE A = 3 AND B = 3");
  Alcotest.(check int) "no observation under HISTOGRAMS OFF" 0
    (counters db).Rss.Counters.feedback_misestimates;
  Alcotest.(check bool) "no last_feedback" true
    (Database.last_feedback db = None)

let () =
  Alcotest.run "histogram"
    [ ( "build",
        [ Alcotest.test_case "skewed column" `Quick test_build_skewed;
          Alcotest.test_case "NULL-heavy column" `Quick test_build_null_heavy;
          Alcotest.test_case "constant column" `Quick test_build_constant;
          Alcotest.test_case "empty / all-NULL" `Quick test_build_empty_and_all_null;
          Alcotest.test_case "shuffled column, same histogram" `Quick
            test_build_order_independent;
          Alcotest.test_case "statistics = list-based reference" `Quick
            test_statistics_match_reference ] );
      ( "estimators",
        [ Alcotest.test_case "monotone and consistent" `Quick test_monotonic;
          Alcotest.test_case "zipf estimate vs oracle" `Quick test_zipf_vs_oracle ] );
      ( "satellites",
        [ Alcotest.test_case "IN-list duplicates" `Quick test_in_list_dedup;
          Alcotest.test_case "unindexed equality" `Quick test_unindexed_eq_uses_distinct ] );
      ( "feedback",
        [ Alcotest.test_case "record, retire, settle" `Quick
            test_feedback_records_and_retires;
          Alcotest.test_case "corrected plan" `Quick test_feedback_changes_plan;
          Alcotest.test_case "float literals in the key" `Quick
            test_feedback_key_literals;
          Alcotest.test_case "HISTOGRAMS OFF suspends" `Quick
            test_histograms_off_disables_feedback;
          Alcotest.test_case "bounded per relation" `Quick test_feedback_bounded ] ) ]
