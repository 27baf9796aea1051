(* Parallel scaling: the same three CPU-bound workloads executed serially and
   through the exchange at DOP 2, 4 and 8.

     sort_spill   large ORDER BY — parallel run formation feeding the
                  loser-tree merge
     nl3          forced 3-way nested-loop join (the optimizer would pick a
                  merge join here, which the exchange correctly refuses to
                  partition) — the outer scan is sliced, workers re-open the
                  inner scans per outer tuple
     group_scan   wide grouped aggregation — per-domain partial accumulators
                  merged at close

   Every DOP must return the identical result (asserted here per run, rows
   and order); the interesting outputs are the wall-clock speedups and the
   counter deltas. Speedups are only meaningful on a multicore host: the
   JSON records [cores] (the runtime's recommended domain count) so a ~1.0x
   curve on a single-core machine reads as the scheduling fact it is rather
   than an executor defect. See EXPERIMENTS.md, E8.

   Emits BENCH_parallel.json. BENCH_SMOKE=1 shrinks inputs for CI. *)

module V = Rel.Value
module T = Rel.Tuple

let smoke = Bench_util.smoke
let repeat = if smoke then 1 else 5
let dops = [ 1; 2; 4; 8 ]

let schema cols =
  Rel.Schema.make (List.map (fun n -> { Rel.Schema.name = n; ty = V.Tint }) cols)

(* No indexes anywhere: every leftmost access is a segment scan, the shape
   the exchange partitions. The modest buffer forces the big sort to spill. *)
let setup () =
  let db = Database.create ~buffer_pages:64 () in
  let cat = Database.catalog db in
  let fill name cols n row =
    let rel = Catalog.create_relation cat ~name ~schema:(schema cols) in
    for i = 0 to n - 1 do
      ignore (Catalog.insert_tuple cat rel (T.make (row i)))
    done
  in
  let n_big = if smoke then 1500 else 30_000 in
  let n_s = if smoke then 120 else 800 in
  let n_t = if smoke then 40 else 250 in
  let n_u = if smoke then 30 else 150 in
  fill "PBIG" [ "A"; "B"; "C" ] n_big (fun i ->
      [ V.Int (i mod 64);
        V.Int ((i * 7919) mod n_big);
        (if i mod 11 = 0 then V.Null else V.Int (i mod 97)) ]);
  fill "PS" [ "A"; "B"; "C" ] n_s (fun i ->
      [ V.Int (i mod 50); V.Int (i mod 20); V.Int (i mod 10) ]);
  fill "PT" [ "K"; "X" ] n_t (fun i -> [ V.Int (i mod 50); V.Int (i mod 30) ]);
  fill "PU" [ "C2"; "Y" ] n_u (fun i -> [ V.Int (i mod 10); V.Int (i mod 40) ]);
  Catalog.update_statistics cat;
  db

let render (out : Executor.output) = List.map T.to_string out.Executor.rows

(* workloads 1 and 3: through the optimizer with the forced-parallel switch *)
let via_optimizer db sql dop =
  Database.set_parallelism db dop;
  Database.set_force_parallel db (dop > 1);
  let rows = render (Database.run_plan db (Database.optimize db sql)) in
  Database.set_force_parallel db false;
  Database.set_parallelism db 1;
  rows

(* workload 2: hand-forced left-deep NL plan (no costs — never optimized),
   wrapped in an exchange at the requested DOP *)
let seg_scan ~tab ~residual =
  { Plan.node = Plan.Scan { tab; access = Plan.Seg_scan; sargs = []; residual };
    tables = [ tab ];
    order = [];
    cost = Cost_model.zero;
    out_card = 1. }

let nl3_plan db =
  let block =
    Database.resolve db
      "SELECT PS.A FROM PS, PT, PU \
       WHERE PS.A = PT.K AND PS.C = PU.C2 AND PS.B + PT.X > PU.Y"
  in
  let factors = Normalize.factors_of_block block in
  let preds_on tabs =
    List.filter_map
      (fun (f : Normalize.factor) -> if f.tables = tabs then Some f.pred else None)
      factors
  in
  let j1 =
    { Plan.node =
        Plan.Nl_join
          { outer = seg_scan ~tab:0 ~residual:[];
            inner = seg_scan ~tab:1 ~residual:(preds_on [ 0; 1 ]) };
      tables = [ 0; 1 ];
      order = [];
      cost = Cost_model.zero;
      out_card = 1. }
  in
  let j2 =
    { Plan.node =
        Plan.Nl_join
          { outer = j1;
            inner =
              seg_scan ~tab:2
                ~residual:(preds_on [ 0; 2 ] @ preds_on [ 0; 1; 2 ]) };
      tables = [ 0; 1; 2 ];
      order = [];
      cost = Cost_model.zero;
      out_card = 1. }
  in
  (block, j2)

let run_nl3 db (block, plan) dop =
  let plan =
    if dop <= 1 then plan
    else
      { Plan.node = Plan.Exchange { input = plan; dop };
        tables = plan.Plan.tables;
        order = plan.Plan.order;
        cost = Cost_model.zero;
        out_card = plan.Plan.out_card }
  in
  let cur =
    Cursor.open_plan (Database.catalog db) block Bench_util.dummy_env ~join:None
      plan
  in
  List.map T.to_string (Cursor.drain cur)

let run () =
  Bench_util.section "parallel scaling: exchange/sort/group-by over domains";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "host cores (recommended domain count): %d\n" cores;
  let db = setup () in
  let nl3 = nl3_plan db in
  let workloads =
    [ ("sort_spill",
       fun dop -> via_optimizer db "SELECT A, B FROM PBIG ORDER BY B" dop);
      ("nl3", fun dop -> run_nl3 db nl3 dop);
      ("group_scan",
       fun dop ->
         via_optimizer db
           "SELECT A, SUM(B), COUNT(C), MIN(B), AVG(B) FROM PBIG GROUP BY A"
           dop) ]
  in
  let results =
    List.map
      (fun (name, run_at) ->
        Bench_util.subsection name;
        let reference = run_at 1 in
        let baseline = ref nan in
        let rows =
          List.map
            (fun dop ->
              let c = Rss.Pager.counters (Database.pager db) in
              Rss.Counters.reset c;
              let out = ref [] in
              let dt = Bench_util.median_time ~repeat (fun () -> out := run_at dop) in
              if !out <> reference then
                failwith (Printf.sprintf "%s: DOP=%d diverged from serial" name dop);
              if dop = 1 then baseline := dt;
              let speedup = !baseline /. dt in
              Printf.printf
                "  dop=%d  %8.2f ms  speedup %.2fx  (fetches=%d rsi=%d runs=%d)\n%!"
                dop (dt *. 1000.) speedup c.Rss.Counters.page_fetches
                c.Rss.Counters.rsi_calls c.Rss.Counters.sort_runs;
              (dop, dt, speedup))
            dops
        in
        (name, rows))
      workloads
  in
  let open Bench_util in
  write_json ~file:"BENCH_parallel.json"
    (J_obj
       [ ("bench", J_str "parallel_scaling");
         ("smoke", J_bool smoke);
         ("cores", J_int cores);
         ("dops", J_list (List.map (fun d -> J_int d) dops));
         ( "workloads",
           J_list
             (List.map
                (fun (name, rows) ->
                  J_obj
                    [ ("name", J_str name);
                      ( "runs",
                        J_list
                          (List.map
                             (fun (dop, dt, speedup) ->
                               J_obj
                                 [ ("dop", J_int dop);
                                   ("seconds", J_float dt);
                                   ("speedup", J_float speedup) ])
                             rows) ) ])
                results) ) ])
