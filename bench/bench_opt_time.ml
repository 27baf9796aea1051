(* S5b — "Joins of 8 tables have been optimized in a few seconds" (on 1979
   hardware) and "a few thousand bytes of storage and a few tenths of a
   second of CPU time" for typical cases.

   Wall-clock optimization time (parse + resolve + optimize) for chain joins
   of n = 2..10 relations, via Bechamel's monotonic-clock measurement. *)

module V = Rel.Value

let schema cols =
  Rel.Schema.make (List.map (fun n -> { Rel.Schema.name = n; ty = V.Tint }) cols)

let build db n =
  let cat = Database.catalog db in
  for i = 0 to n - 1 do
    let r =
      Catalog.create_relation cat
        ~name:(Printf.sprintf "C%d" i)
        ~schema:(schema [ "A"; "B" ])
    in
    for k = 0 to 199 do
      ignore
        (Catalog.insert_tuple cat r (Rel.Tuple.make [ V.Int k; V.Int (k mod 10) ]))
    done;
    ignore
      (Catalog.create_index cat
         ~name:(Printf.sprintf "C%d_A" i)
         ~rel:r ~columns:[ "A" ] ~clustered:false)
  done;
  Catalog.update_statistics cat

let sql n =
  let froms = String.concat ", " (List.init n (Printf.sprintf "C%d")) in
  let joins =
    String.concat " AND "
      (List.init (n - 1) (fun i -> Printf.sprintf "C%d.A = C%d.A" i (i + 1)))
  in
  Printf.sprintf "SELECT C0.B FROM %s WHERE %s" froms joins

(* Bechamel measurement of one function: median monotonic-clock run time. *)
let bechamel_ns name f =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage f) in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]) (Toolkit.Instance.monotonic_clock) raw
  in
  match Hashtbl.fold (fun _ v acc -> v :: acc) results [] with
  | [ ols ] ->
    (match Analyze.OLS.estimates ols with
     | Some [ ns ] -> ns
     | _ -> nan)
  | _ -> nan

(* Median per-call time of a fast function: loop [inner] calls per sample so
   each sample is well above clock resolution. *)
let median_call_s ?(samples = 7) ?(inner = 200) f =
  let sample () =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to inner do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int inner
  in
  let times = List.init samples (fun _ -> sample ()) in
  List.nth (List.sort compare times) (samples / 2)

(* Selective restriction on the chain head: gives branch-and-bound a cheap
   complete plan to bound with, so expensive candidates actually die (an
   unrestricted uniform chain leaves nothing above the bound). *)
let selective_sql n = sql n ^ " AND C0.A < 5"

let bnb_counts db q ~bnb =
  let ctx = Ctx.create ~use_bnb:bnb (Database.catalog db) in
  let r = Database.optimize ~ctx db q in
  ( r.Optimizer.search.Join_enum.plans_considered,
    r.Optimizer.search.Join_enum.subsets_examined )

let run () =
  Bench_util.section "S5b: optimization time vs number of joined relations";
  let max_n = if Bench_util.smoke then 6 else 10 in
  let rows = ref [] in
  for n = 2 to max_n do
    let db = Database.create () in
    build db n;
    let q = sql n in
    let block = Database.resolve db q in
    let ctx = Database.ctx db in
    let ns = bechamel_ns (Printf.sprintf "optimize-%d" n) (fun () ->
        ignore (Optimizer.optimize ctx block))
    in
    let stats = (Optimizer.optimize ctx block).Optimizer.search in
    rows :=
      [ string_of_int n;
        Printf.sprintf "%.3f" (ns /. 1e6);
        string_of_int stats.Join_enum.plans_considered;
        string_of_int stats.Join_enum.solutions_stored ]
      :: !rows
  done;
  Bench_util.print_table
    ~header:[ "relations"; "optimize (ms)"; "plans considered"; "solutions stored" ]
    (List.rev !rows);
  Printf.printf
    "\n(The paper reports 'a few seconds' for 8-table joins on a System/370;\n\
     the shape to check is the growth rate, dominated by 2^n subsets.)\n";

  Bench_util.subsection "branch-and-bound pruning (selective chain, heuristic on)";
  let bnb_max = if Bench_util.smoke then 6 else 8 in
  let bnb_rows = ref [] in
  for n = 3 to bnb_max do
    let db = Database.create () in
    build db n;
    let q = selective_sql n in
    let on_c, on_s = bnb_counts db q ~bnb:true in
    let off_c, off_s = bnb_counts db q ~bnb:false in
    bnb_rows :=
      (n, on_c, on_s, off_c, off_s) :: !bnb_rows
  done;
  let bnb_rows = List.rev !bnb_rows in
  Bench_util.print_table
    ~header:
      [ "relations"; "considered (B&B)"; "considered (off)"; "subsets (B&B)";
        "subsets (off)" ]
    (List.map
       (fun (n, on_c, on_s, off_c, off_s) ->
         [ string_of_int n; string_of_int on_c; string_of_int off_c;
           string_of_int on_s; string_of_int off_s ])
       bnb_rows);

  Bench_util.subsection "plan cache: cold optimize vs cached probe";
  let db = Database.create ~buffer_pages:64 () in
  Workload.load_emp_dept_job db;
  let chain_db = Database.create () in
  build chain_db 8;
  let statements =
    [ ("fig1", db, Workload.fig1_query);
      ("chain8", chain_db, selective_sql 8) ]
  in
  let cache_results =
    List.map
      (fun (name, db, q) ->
        (* cold: the full front-end path a miss pays (parse, resolve,
           optimize); cached: an exact repeat of the statement text, which
           hits the text memo (no parse, no fingerprint), composes the cache
           key, validates the plan's dependency versions and fetches it. The
           server's simple-query path is not this one: it parses and
           fingerprints every statement before it probes the cache. *)
        let cold_s = median_call_s ~inner:20 (fun () -> Database.optimize db q) in
        ignore (Database.query db q);
        let cached_s = median_call_s (fun () -> Database.cached_plan db q) in
        (match Database.cached_plan db q with
         | Some _ -> ()
         | None -> failwith ("bench: " ^ name ^ " unexpectedly uncached"));
        (name, cold_s, cached_s))
      statements
  in
  Bench_util.print_table
    ~header:[ "statement"; "cold optimize (ms)"; "cached probe (ms)"; "speedup" ]
    (List.map
       (fun (name, cold, cached) ->
         [ name;
           Printf.sprintf "%.4f" (cold *. 1000.);
           Printf.sprintf "%.4f" (cached *. 1000.);
           Bench_util.f1 (cold /. cached) ^ "x" ])
       cache_results);
  Printf.printf
    "\n(The cached probe is an exact text repeat: a text-memo lookup and a\n\
     dependency-version check replace parse, resolve and optimize. A repeat\n\
     that differs only in literals, or any statement on the server's simple\n\
     path, also pays parse and fingerprint. The paper's closing argument —\n\
     optimize once, run many times — applied to ad-hoc statements.)\n";

  Bench_util.write_json ~file:"BENCH_opt_time.json"
    (Bench_util.J_obj
       [ ("bench", Bench_util.J_str "opt_time");
         ("smoke", Bench_util.J_bool Bench_util.smoke);
         ( "bnb",
           Bench_util.J_list
             (List.map
                (fun (n, on_c, on_s, off_c, off_s) ->
                  Bench_util.J_obj
                    [ ("relations", Bench_util.J_int n);
                      ("plans_considered_bnb", Bench_util.J_int on_c);
                      ("plans_considered_off", Bench_util.J_int off_c);
                      ("subsets_examined_bnb", Bench_util.J_int on_s);
                      ("subsets_examined_off", Bench_util.J_int off_s) ])
                bnb_rows) );
         ( "plan_cache",
           Bench_util.J_list
             (List.map
                (fun (name, cold, cached) ->
                  Bench_util.J_obj
                    [ ("statement", Bench_util.J_str name);
                      ("cold_optimize_s", Bench_util.J_float cold);
                      ("cached_probe_s", Bench_util.J_float cached);
                      ("speedup", Bench_util.J_float (cold /. cached)) ])
                cache_results) ) ]);

  (* CI gate: with BENCH_ENFORCE_CACHE_SPEEDUP set, a cached probe that is
     not at least 10x faster than a cold optimize fails the run *)
  if Sys.getenv_opt "BENCH_ENFORCE_CACHE_SPEEDUP" <> None then
    List.iter
      (fun (name, cold, cached) ->
        let speedup = cold /. cached in
        if speedup < 10. then begin
          Printf.eprintf
            "FAIL: cached plan lookup for %s only %.1fx faster than cold optimize\n"
            name speedup;
          exit 1
        end)
      cache_results
