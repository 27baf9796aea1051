(* Differential fuzzer entry point.

     fuzz_main --seed 42 --count 1000 [--max-shrink 400] [--break-invalidation]

   Each iteration derives an independent RNG from (seed + i), generates a
   schema + data + query, and checks it across the full configuration
   lattice (Fuzz_harness.check). On the first divergence the reproducer is
   shrunk and printed as paste-ready SQL and the process exits 1; an
   Unsupported verdict means the generator left the supported grammar and
   exits 2 (a harness bug, not an engine bug). With --break-invalidation the
   plan cache's dependency check is disabled, an intentional fault the
   harness is expected to catch — the run then *fails* if no divergence is
   found.

   A per-run summary reports queries, executions, plans cached and the
   estimate-vs-actual cardinality q-error quantiles, so the fuzzer doubles
   as a selectivity audit. *)

let () =
  let seed = ref 42 in
  let count = ref 300 in
  let max_shrink = ref 400 in
  let break_invalidation = ref false in
  let specs =
    [ ("--seed", Arg.Set_int seed, "RNG seed (default 42)");
      ("--count", Arg.Set_int count, "iterations (default 300)");
      ("--max-shrink", Arg.Set_int max_shrink,
       "max shrink candidate evaluations (default 400)");
      ("--break-invalidation", Arg.Set break_invalidation,
       "disable plan-cache dependency checks (must produce a divergence)") ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fuzz_main [--seed N] [--count N] [--max-shrink N] [--break-invalidation]";
  let stats = Fuzz_harness.stats_create () in
  let broken = !break_invalidation in
  let check_quiet s q = Fuzz_harness.check ~break_invalidation:broken s q in
  let found = ref false in
  (try
     for i = 0 to !count - 1 do
       let rng = Workload.rand_init (!seed + i) in
       let scenario = Fuzz_gen.gen_scenario rng in
       let q = Fuzz_gen.gen_query rng scenario in
       match Fuzz_harness.check ~break_invalidation:broken ~stats scenario q with
       | Fuzz_harness.Agree -> ()
       | Fuzz_harness.Unsupported msg ->
         Printf.eprintf "iteration %d: unsupported statement (generator bug): %s\n%s;\n"
           i msg (Ast.to_sql (Ast.Select q));
         exit 2
       | Fuzz_harness.Diverged d ->
         found := true;
         Printf.printf "iteration %d: DIVERGENCE at %s (%s)\n" i
           d.Fuzz_harness.d_config d.Fuzz_harness.d_detail;
         let (s', q'), steps =
           Fuzz_shrink.shrink ~check:check_quiet ~max_steps:!max_shrink
             (scenario, q)
         in
         Printf.printf "shrunk in %d steps to:\n\n%s\n" steps
           (Fuzz_harness.reproducer s' q');
         (match Fuzz_harness.check ~break_invalidation:broken s' q' with
          | Fuzz_harness.Diverged d' ->
            Printf.printf "divergence at %s (%s)\nexpected: [%s]\nactual:   [%s]\n"
              d'.Fuzz_harness.d_config d'.Fuzz_harness.d_detail
              (String.concat "; " d'.Fuzz_harness.d_expected)
              (String.concat "; " d'.Fuzz_harness.d_actual)
          | _ -> ());
         raise Exit
     done
   with Exit -> ());
  Printf.printf "%s\n" (Fuzz_harness.stats_report stats);
  if broken then begin
    if !found then
      (* the fault was planted on purpose; detecting it is the pass *)
      Printf.printf "broken invalidation detected, as expected\n"
    else begin
      Printf.eprintf
        "--break-invalidation produced no divergence: harness is blind to stale plans\n";
      exit 3
    end
  end
  else if !found then exit 1
  else Printf.printf "no divergences\n"
