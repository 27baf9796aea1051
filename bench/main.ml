(* Reproduction harness: one bench per table, figure and quantitative claim
   of the paper (see DESIGN.md's experiment index).

   Run all:        dune exec bench/main.exe
   Run a subset:   dune exec bench/main.exe -- t1 fig s7b *)

let benches =
  [ ("t1", "TABLE 1: selectivity factors", Bench_table1.run);
    ("t2", "TABLE 2: cost formulas", Bench_table2.run);
    ("fig", "Figures 1-6: the EMP/DEPT/JOB example", Bench_fig1_6.run);
    ("s5a", "search-space size vs 2^n", Bench_search_space.run);
    ("s5b", "optimization time (Bechamel)", Bench_opt_time.run);
    ("s7a", "optimization cost in retrievals", Bench_opt_vs_exec.run);
    ("s7b", "plan quality: chosen vs measured-best", Bench_plan_quality.run);
    ("s7c", "nested loops vs merging scans crossover", Bench_join_methods.run);
    ("abl", "ablations A1-A3", Bench_ablation.run);
    ("n1", "nested queries: correlated caching", Bench_nested.run);
    ("e2", "extension: selectivity under skew", Bench_skew.run);
    ("qerr", "cardinality q-error: TABLE 1 constants vs histograms", Bench_qerror.run);
    ("srv", "server throughput: simple vs prepared QPS over the wire", Bench_server.run);
    ("mvcc", "MVCC: point-SELECT QPS scaling under a live writer", Bench_mvcc.run);
    ("commit", "group commit: commit QPS vs per-commit flushes", Bench_commit.run);
    ("scan", "RSS per-version cost: segment scan and index probe", Bench_scan.run) ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map (fun (n, _, _) -> n) benches
  in
  List.iter
    (fun name ->
      match List.find_opt (fun (n, _, _) -> n = name) benches with
      | Some (_, _, run) -> run ()
      | None ->
        Printf.eprintf "unknown bench %S; available: %s\n" name
          (String.concat ", " (List.map (fun (n, _, _) -> n) benches));
        exit 1)
    requested;
  print_newline ()
