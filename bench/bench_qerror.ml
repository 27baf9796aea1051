(* QERR — estimate quality: cardinality q-error, TABLE 1 constants vs
   histograms.

   Two workloads run over the same analyzed catalogs:

     - a randomized sweep of fuzz scenarios and queries (the same generator
       the differential harness uses), and
     - a fixed battery of point/range/IN predicates over a large Zipf-skewed
       relation, where the paper's uniformity assumption is most wrong.

   For every query the block's estimated QCARD is computed twice — once with
   SET HISTOGRAMS OFF (the paper's TABLE 1 constants) and once with
   histograms on — and compared against the true output cardinality from the
   reference oracle (no executor, so no feedback contamination). Quantiles
   of q_error = max((est+1)/(act+1), (act+1)/(est+1)) for both modes go to
   stdout and BENCH_qerror.json.

   With BENCH_ENFORCE_QERROR=1 the bench exits nonzero unless the histogram
   p95 q-error is strictly below the constants baseline. *)

let enforce = Sys.getenv_opt "BENCH_ENFORCE_QERROR" <> None

(* Estimate the same block under both modes. Toggling on the db (rather than
   building a Ctx by hand) exercises exactly the SET HISTOGRAMS switch users
   see; feedback is disabled so only static estimation is measured. *)
let estimate_both db block =
  Database.set_histograms db false;
  let est_const = Selectivity.block_qcard (Database.ctx db) block in
  Database.set_histograms db true;
  let est_hist = Selectivity.block_qcard (Database.ctx db) block in
  (est_const, est_hist)

let actual db block =
  float_of_int (List.length (Fuzz_oracle.query (Database.catalog db) block))

type acc = {
  mutable const_errs : float list;
  mutable hist_errs : float list;
  mutable n : int;
  mutable skipped : int;
}

let record acc db block =
  let act = actual db block in
  let est_const, est_hist = estimate_both db block in
  acc.const_errs <- Fuzz_harness.q_error ~est:est_const ~act :: acc.const_errs;
  acc.hist_errs <- Fuzz_harness.q_error ~est:est_hist ~act :: acc.hist_errs;
  acc.n <- acc.n + 1

(* --- workload 1: the fuzz generator ------------------------------------ *)

(* Aggregated blocks collapse the interesting cardinality (scalar agg is
   always 1 row; GROUP BY output is bounded by group count): restricting to
   plain select blocks keeps the comparison about selectivity estimation. *)
let fuzz_sweep acc ~scenarios ~queries_per =
  for seed = 1 to scenarios do
    let rng = Workload.rand_init (1000 + seed) in
    let scenario = Fuzz_gen.gen_scenario rng in
    let db = Fuzz_harness.build ~indexes:true scenario in
    Database.set_feedback db false;
    Database.update_statistics db;
    for _ = 1 to queries_per do
      let q = Fuzz_gen.gen_query rng scenario in
      let block = Database.resolve db (Ast.to_sql (Ast.Select q)) in
      if block.Semant.scalar_agg || block.Semant.group_by <> [] then
        acc.skipped <- acc.skipped + 1
      else record acc db block
    done
  done

(* --- workload 2: skewed point/range battery ---------------------------- *)

let zipf_battery acc ~rows =
  let db = Database.create () in
  Database.set_feedback db false;
  (* U: heavy skew, indexed (constants use 1/ICARD); V: moderate skew, not
     indexed (constants fall back to 1/10, 1/3, 1/4); W: mild skew, wide. *)
  Workload.load_zipf db ~name:"Z" ~rows
    ~cols:[ ("U", 40, 1.3); ("V", 200, 0.9); ("W", 1000, 0.5) ]
    ~indexes:[ ("Z_U", [ "U" ], true) ]
    ~seed:42 ();
  let ks = [ 0; 1; 2; 3; 5; 8; 13; 21; 34 ] in
  let sqls =
    List.concat_map
      (fun k ->
        [ Printf.sprintf "SELECT U FROM Z WHERE U = %d" k;
          Printf.sprintf "SELECT U FROM Z WHERE V = %d" (k * 5);
          Printf.sprintf "SELECT U FROM Z WHERE U > %d" k;
          Printf.sprintf "SELECT U FROM Z WHERE V <= %d" (k * 4);
          Printf.sprintf "SELECT U FROM Z WHERE W BETWEEN %d AND %d" (k * 10)
            ((k * 10) + 60);
          Printf.sprintf "SELECT U FROM Z WHERE U IN (%d, %d, %d)" k (k + 1)
            (k + 7);
          Printf.sprintf "SELECT U FROM Z WHERE NOT V = %d" k;
          Printf.sprintf "SELECT U FROM Z WHERE U = %d OR V = %d" k (k * 3) ])
      ks
  in
  List.iter (fun sql -> record acc db (Database.resolve db sql)) sqls

(* --- reporting ---------------------------------------------------------- *)

let summary errs =
  let a = Array.of_list errs in
  Array.sort compare a;
  let q p = Fuzz_harness.quantile a p in
  (q 0.5, q 0.9, q 0.95, if Array.length a = 0 then nan else a.(Array.length a - 1))

let json_of (p50, p90, p95, mx) =
  Bench_util.(
    J_obj
      [ ("p50", J_float p50); ("p90", J_float p90); ("p95", J_float p95);
        ("max", J_float mx) ])

let run () =
  Bench_util.section
    "QERR: cardinality q-error — TABLE 1 constants vs histograms";
  let acc = { const_errs = []; hist_errs = []; n = 0; skipped = 0 } in
  let scenarios, queries_per, rows =
    if Bench_util.smoke then (6, 8, 1200) else (40, 12, 6000)
  in
  fuzz_sweep acc ~scenarios ~queries_per;
  zipf_battery acc ~rows;
  let ((_, _, cp95, _) as cs) = summary acc.const_errs in
  let ((_, _, hp95, _) as hs) = summary acc.hist_errs in
  let line label (p50, p90, p95, mx) =
    Printf.printf "  %-22s p50=%6.2f  p90=%6.2f  p95=%6.2f  max=%8.2f\n" label
      p50 p90 p95 mx
  in
  Printf.printf "%d queries (%d aggregated blocks skipped)\n" acc.n acc.skipped;
  line "TABLE 1 constants:" cs;
  line "histograms:" hs;
  Bench_util.write_json ~file:"BENCH_qerror.json"
    Bench_util.(
      J_obj
        [ ("queries", J_int acc.n);
          ("constants", json_of cs);
          ("histograms", json_of hs) ]);
  if enforce then
    if hp95 < cp95 then
      Printf.printf "ENFORCE: ok (histogram p95 %.2f < constants p95 %.2f)\n"
        hp95 cp95
    else begin
      Printf.printf
        "ENFORCE: FAIL (histogram p95 %.2f >= constants p95 %.2f)\n" hp95 cp95;
      exit 1
    end
