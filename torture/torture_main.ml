(* Crash-recovery torture entry point.

     torture_main --seed 42 --count 20 [--ms-count 20] [--crash-every 1]
                  [--max-shrink 200] [--break-commit-filter]

   Each iteration derives an independent RNG from (seed + i), generates a
   schema + data + multi-transaction workload of Fuzz_dml statements
   (INSERT, UPDATE — some with SET lists the engine must reject — and
   DELETE, with =, range and BETWEEN predicates) plus VACUUM, and tortures
   it (Fuzz_torture.sweep over Fuzz_torture.single): one counting pass
   enumerates every failpoint hit; a clean pass checks the live state
   against its own log and against the statements' reference semantics
   (Fuzz_dml.apply over the committed groups); then the workload is re-run
   once per enumerated crash point with that point armed, and every
   surviving WAL image is recovered into a fresh database and compared
   against the committed-prefix oracle.

   The second sweep (--ms-count iterations) generates *multi-session*
   interleaved histories of the same statements
   (Fuzz_torture.gen_ms_workload) and tortures them (Fuzz_torture.multi)
   under group commit: several sessions of one engine commit into shared
   flush windows, crashes are armed at wal.group_flush (among every other
   site), the surviving batch is torn at every byte offset, and each image is
   additionally checked against the per-acknowledged-commit oracle — every
   commit whose group flush returned before the crash must survive recovery.

   On the first divergence the workload is shrunk and printed as a
   paste-ready script and the process exits 1.

   With --break-commit-filter, recovery's committed-transactions filter is
   disabled (Rss.Recovery.set_commit_filter false) — a deliberately broken
   recovery that redoes uncommitted work. The run then *fails* with exit 3
   if no divergence is found: the harness would be blind to exactly the
   corruption it exists to catch. *)

let () =
  let seed = ref 42 in
  let count = ref 20 in
  let ms_count = ref (-1) in
  let crash_every = ref 1 in
  let max_shrink = ref 200 in
  let break_commit_filter = ref false in
  let specs =
    [ ("--seed", Arg.Set_int seed, "RNG seed (default 42)");
      ("--count", Arg.Set_int count, "single-session workloads (default 20)");
      ("--ms-count", Arg.Set_int ms_count,
       "multi-session group-commit workloads (default: same as --count)");
      ("--crash-every", Arg.Set_int crash_every,
       "crash at every Nth hit of each site (default 1: every hit)");
      ("--max-shrink", Arg.Set_int max_shrink,
       "max shrink candidate evaluations (default 200)");
      ("--break-commit-filter", Arg.Set break_commit_filter,
       "disable recovery's committed-txn filter (must produce a divergence)") ]
  in
  Arg.parse specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "torture_main [--seed N] [--count N] [--ms-count N] [--crash-every N] \
     [--max-shrink N] [--break-commit-filter]";
  if !crash_every < 1 then begin
    prerr_endline "--crash-every must be >= 1";
    exit 2
  end;
  if !ms_count < 0 then ms_count := !count;
  let broken = !break_commit_filter in
  if broken then Rss.Recovery.set_commit_filter false;
  Fun.protect
    ~finally:(fun () -> Rss.Recovery.set_commit_filter true)
    (fun () ->
      let workloads = ref 0 in
      let total_points = ref 0 in
      let flush_points = ref 0 in
      let pp d = Format.asprintf "%a" Fuzz_torture.pp_divergence d in
      (* Torture [n] generated workloads of one shape; on the first
         divergence return it with a function that shrinks and prints it. *)
      let sweep_all ~n ~seed_base gen target ~size ~candidates ~reproducer =
        let rec go i =
          if i >= n then None
          else begin
            let w = gen (Workload.rand_init (seed_base + i)) in
            incr workloads;
            let points, fpoints, div =
              Fuzz_torture.sweep ~crash_every:!crash_every (target w)
            in
            total_points := !total_points + points;
            flush_points := !flush_points + fpoints;
            match div with
            | None -> go (i + 1)
            | Some d ->
              let report () =
                Printf.printf "iteration %d: DIVERGENCE\n%s\n" i (pp d);
                let w', steps =
                  Fuzz_torture.shrink ~crash_every:!crash_every
                    ~max_steps:!max_shrink ~size ~candidates ~target w
                in
                Printf.printf "shrunk in %d steps to:\n\n%s\n" steps (reproducer w');
                match Fuzz_torture.sweep ~crash_every:!crash_every (target w') with
                | _, _, Some d' -> Printf.printf "%s\n" (pp d')
                | _ -> ()
              in
              Some (d, report)
          end
        in
        go 0
      in
      let found =
        match
          sweep_all ~n:!count ~seed_base:!seed Fuzz_torture.gen_workload
            Fuzz_torture.single ~size:Fuzz_torture.w_size
            ~candidates:Fuzz_torture.w_candidates
            ~reproducer:Fuzz_torture.reproducer
        with
        | Some _ as found -> found
        | None ->
          sweep_all ~n:!ms_count ~seed_base:(!seed + 100_000)
            Fuzz_torture.gen_ms_workload Fuzz_torture.multi
            ~size:Fuzz_torture.ms_size ~candidates:Fuzz_torture.ms_candidates
            ~reproducer:Fuzz_torture.ms_reproducer
      in
      Printf.printf
        "workloads=%d crash-points=%d group-flush-images=%d crash-every=%d\n"
        !workloads !total_points !flush_points !crash_every;
      match (broken, found) with
      | true, Some (d, _) ->
        (* the fault was planted on purpose; detecting it is the pass *)
        Printf.printf "injected recovery fault detected, as expected:\n%s\n" (pp d)
      | true, None ->
        Printf.eprintf
          "--break-commit-filter produced no divergence: harness is blind to \
           uncommitted-redo corruption\n";
        exit 3
      | false, Some (_, report) ->
        report ();
        exit 1
      | false, None -> Printf.printf "no divergences\n")
