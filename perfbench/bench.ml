(* The served benchmark, one workload per invocation:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

   1. generates the seed dataset and the request stream from --seed;
   2. spawns a fresh host.exe over the seeded engine (setup_s: spawn until
      a host reports listening; with --trace 0, the median over five more
      hosts set up and stopped after the workload);
   3. warms up on separate connections, snapshots the host's counters,
      drives a fixed number of ops (scaled by --seconds), snapshots again;
   4. checks every answer against the generator's oracle, and for
      write_txn the end state over the wire plus heap/index integrity in
      the host;
   5. with --trace 1, replays the same stream in this process twice —
      untraced, then with spans — for per-layer self time.

   Prints every metric with its unit, a "meta" line, and as the last line
   one JSON object {correct, attempted, failed, metrics}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. *)

module G = Pb_gen
module D = Pb_drive
module S = Pb_snap

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let smoke = ref false

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "point_read|analytic|write_txn");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  scales the op counts (~S seconds measured)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics, or per-layer metrics");
      ("--smoke", Arg.Set smoke, " tiny sizes and op counts; exit 1 unless correct (tests)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let now_us = Pb_trace.now_us
let sizes = if !smoke then G.tiny else G.full
let out_dir = ".perfbench"
let tag = Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ())

(* Fixed op counts: per second of --seconds at full size, fixed in smoke. *)
let count ~per_s ~smoke:n = if !smoke then n else per_s * !seconds

(* --- host processes -------------------------------------------------------- *)

type host = {
  pid : int;
  to_host : out_channel;
  from_host : in_channel;
  sock : string;
  setup_s : float;
}

let host_exe = Filename.concat (Filename.dirname Sys.executable_name) "host.exe"
let n_hosts = ref 0

let spawn_host ~script ~workers =
  incr n_hosts;
  let sock = Filename.concat out_dir (Printf.sprintf "%s-%d.sock" tag !n_hosts) in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t0 = now_us () in
  let pid =
    Unix.create_process host_exe
      [| host_exe; script; sock; string_of_int sizes.G.buffer_pages; string_of_int workers |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let from_host = Unix.in_channel_of_descr out_r in
  (match input_line from_host with
   | "listening" -> ()
   | l -> failwith ("host: unexpected startup line " ^ l)
   | exception End_of_file -> failwith "host exited during setup");
  { pid; to_host = Unix.out_channel_of_descr in_w; from_host; sock;
    setup_s = (now_us () -. t0) /. 1e6 }

let command h cmd =
  output_string h.to_host (cmd ^ "\n");
  flush h.to_host;
  input_line h.from_host

let snap h =
  let l = command h "snap" in
  S.of_line (String.sub l 5 (String.length l - 5))

let stop_host h =
  (try output_string h.to_host "quit\n"; flush h.to_host with Sys_error _ -> ());
  close_out_noerr h.to_host;
  ignore (Unix.waitpid [] h.pid);
  close_in_noerr h.from_host

let connect h = Client.connect (Server.Unix_sock h.sock)

let open_conn h prepare =
  let c = connect h in
  List.iter (fun (name, sql) -> ignore (Client.ok (Client.parse c ~name sql))) prepare;
  c

(* Unmeasured ops on their own connection, closed before returning. *)
let warm_conn h ~tally ~prepare ops =
  let c = open_conn h prepare in
  D.run_plain c ~tally ops;
  Client.close c

(* --- measured driving ------------------------------------------------------- *)

(* One measured connection's record of ops [0, n): latency, completion
   time and answer checksum per op. *)
type lane = {
  l_tally : D.tally;
  l_lat : float array;
  l_fin : float array;
  l_sums : int array;
}

let lane n =
  { l_tally = D.tally (); l_lat = Array.make n 0.; l_fin = Array.make n 0.;
    l_sums = Array.make n 0 }

let lane_ops ln = Array.length ln.l_lat

(* Closed loop over the lane's ops on one connection. *)
let drive c ln op =
  D.run c ~tally:ln.l_tally ~op ~lo:0 ~hi:(lane_ops ln) ~lat:ln.l_lat ~fin:ln.l_fin
    ~sums:ln.l_sums

(* Run [jobs] (one per connection, each already connected) on their own
   threads; returns the wall window. *)
let in_parallel jobs =
  let t0 = now_us () in
  let threads = List.map (fun f -> Thread.create f ()) jobs in
  List.iter Thread.join threads;
  (now_us () -. t0) /. 1e6

(* --- workloads ------------------------------------------------------------- *)

type run = {
  conns : int;
  warm_ops : int;
  warm_tally : D.tally;
  lanes : lane list;                 (* measured connections *)
  window_s : float;
  before : S.t;
  after : S.t;
  end_ok : bool;                     (* end-state reads and integrity check *)
  prepare : (string * string) list;
  replay_warm : Pb_replay.action list;
  replay_meas : Pb_replay.action list;
  replay_ops : int;
  replay_sums : int array;
  replay_conns : int;
  reoptimize : bool;                 (* replay: resolve and optimize every SELECT *)
}

(* Replayed op caps: the traced run replays the first ops of the served
   stream, enough for stable per-op figures while keeping a --trace 1 run
   close to a --trace 0 one in length. analytic is replayed whole. *)
let replay_cap = 50_000
let replay_cap_txns = 1_000  (* per writer *)

let prefix k l = List.filteri (fun i _ -> i < k) l

let actions conn ?(served = fun _ -> -1) ops =
  List.mapi (fun i op -> { Pb_replay.conn; op; served = served i }) ops

(* End state over the wire, then heap/index integrity in the host. *)
let end_state h (plan : G.txn_plan) d =
  let t = D.tally () in
  let c = connect h in
  let hist_sum = Hashtbl.fold (fun _ a s -> s + a) plan.G.hist 0 in
  D.run_plain c ~tally:t
    [ [ G.simple "SELECT COUNT(*), SUM(BAL) FROM ACCT"
          (G.rows_of [ [ Rel.Value.Int d.G.sizes.G.n_acct; Rel.Value.Int plan.G.acct_sum ] ]) ];
      [ G.simple "SELECT COUNT(*), SUM(AMT) FROM HIST"
          (G.rows_of [ [ Rel.Value.Int (Hashtbl.length plan.G.hist); Rel.Value.Int hist_sum ] ]) ] ];
  Client.close c;
  let integrity = command h "check" in
  if integrity <> "check ok" then prerr_endline ("integrity: " ^ integrity);
  t.D.wrong = 0 && t.D.failed = 0 && integrity = "check ok"

(* point_read and analytic warm up for about 1.5 s: after an idle spell, a
   2-vCPU VM was measured running its first two or three seconds of
   request/reply faster, and the measurement should not start inside them
   (see README.md). *)
let point_read d h =
  let warm = List.concat (List.init (if !smoke then 1 else 10) (fun _ -> G.point_warmup d)) in
  let keys = G.point_keys d ~seed:!seed ~ops:(count ~per_s:20_000 ~smoke:300) in
  let op i = G.point_op d keys.(i) in
  let n = Array.length keys in
  let warm_tally = D.tally () in
  warm_conn h ~tally:warm_tally ~prepare:[] warm;
  let before = snap h in
  let ln = lane n in
  let c = open_conn h [] in
  let t0 = now_us () in
  drive c ln op;
  let window_s = (now_us () -. t0) /. 1e6 in
  Client.close c;
  let after = snap h in
  let nr = min replay_cap n in
  { conns = 1; warm_ops = List.length warm; warm_tally; lanes = [ ln ];
    window_s; before; after; end_ok = true; prepare = [];
    replay_warm = actions 0 warm;
    replay_meas = actions 0 ~served:Fun.id (List.init nr op);
    replay_ops = nr; replay_sums = ln.l_sums; replay_conns = 1; reoptimize = false }

let analytic d h =
  let prepare = [ (G.portal_stmt, G.portal_sql) ] in
  let warm = G.analytic_stream d ~seed:!seed ~tag:3 ~ops:(if !smoke then 2 else 80) in
  let ops = Array.of_list (G.analytic_stream d ~seed:!seed ~tag:4 ~ops:(count ~per_s:100 ~smoke:100)) in
  let warm_tally = D.tally () in
  warm_conn h ~tally:warm_tally ~prepare warm;
  let before = snap h in
  let ln = lane (Array.length ops) in
  let c = open_conn h prepare in
  let t0 = now_us () in
  drive c ln (Array.get ops);
  let window_s = (now_us () -. t0) /. 1e6 in
  Client.close c;
  let after = snap h in
  (* Every analytic plan is cached during warm-up and none retires, so the
     replay resolves and optimizes each SELECT again: sql.resolve_us and
     optimizer.optimize_us are what misses cost, per report. *)
  { conns = 1; warm_ops = List.length warm; warm_tally; lanes = [ ln ];
    window_s; before; after; end_ok = true; prepare;
    replay_warm = actions 0 warm;
    replay_meas = actions 0 ~served:Fun.id (Array.to_list ops);
    replay_ops = Array.length ops; replay_sums = ln.l_sums; replay_conns = 1;
    reoptimize = true }

let write_txn d h =
  let n = count ~per_s:200 ~smoke:60 in
  let warm = if !smoke then 5 else 20 in
  let plan = G.txn_plan d ~seed:!seed ~count:2 ~warm ~meas:n in
  let warm_tally = D.tally () in
  Array.iter (warm_conn h ~tally:warm_tally ~prepare:[]) plan.G.warm;
  let before = snap h in
  let lanes = [ lane n; lane n ] in
  let jobs =
    List.mapi
      (fun w ln ->
        let c = open_conn h [] in
        let ops = Array.of_list plan.G.meas.(w) in
        fun () ->
          drive c ln (Array.get ops);
          Client.close c)
      lanes
  in
  let window_s = in_parallel jobs in
  let after = snap h in
  let end_ok = end_state h plan d in
  let interleaved =
    List.concat
      (List.mapi
         (fun i (a, b) ->
           [ { Pb_replay.conn = 0; op = a; served = i };
             { Pb_replay.conn = 1; op = b; served = n + i } ])
         (prefix replay_cap_txns (List.combine plan.G.meas.(0) plan.G.meas.(1))))
  in
  { conns = 2; warm_ops = 2 * warm; warm_tally; lanes; window_s;
    before; after; end_ok; prepare = [];
    replay_warm = actions 0 plan.G.warm.(0) @ actions 1 plan.G.warm.(1);
    replay_meas = interleaved; replay_ops = 2 * min n replay_cap_txns;
    replay_sums = Array.concat (List.map (fun l -> l.l_sums) lanes); replay_conns = 2;
    reoptimize = false }

(* --- metrics --------------------------------------------------------------- *)

let ratio a b = if b = 0. then 0. else a /. b

let host_layers r ~ops =
  let dlt = S.diff ~after:r.after ~before:r.before in
  let g = S.get dlt and e = S.get r.after in
  let per k = g k /. ops in
  let rows = float_of_int (List.fold_left (fun a l -> a + l.l_tally.D.rows) 0 r.lanes) in
  [ ("rss.page_fetches_per_op", "pages", per "page_fetches");
    ("rss.buffer_hit_ratio", "ratio",
     ratio (g "buffer_hits") (g "buffer_hits" +. g "page_fetches"));
    ("rss.rsi_calls_per_op", "calls", per "rsi_calls");
    ("rss.pages_written_per_op", "pages", per "pages_written");
    ("rss.sort_runs_per_op", "runs", per "sort_runs");
    ("rss.merge_passes_per_op", "passes", per "merge_passes");
    ("rss.wal_bytes_per_op", "bytes", per "wal_bytes");
    ("rss.wal_flushes_per_txn", "flushes", ratio (g "wal_flushes") (g "commits"));
    ("engine.commits_per_flush", "commits", ratio (g "grouped_commits") (g "group_flushes"));
    ("engine.plan_cache_hit_ratio", "ratio",
     ratio (g "plan_cache_hits") (g "plan_cache_hits" +. g "plan_cache_misses"));
    ("engine.plan_invalidations_per_op", "count", per "plan_cache_invalidations");
    ("engine.feedback_retirements_per_op", "count", per "feedback_retirements");
    ("engine.lock_blocks_per_op", "count", per "lock_blocks");
    ("catalog.versions_per_live_tuple", "ratio", ratio (e "versions") (e "live_tuples"));
    ("catalog.heap_pages", "pages", e "heap_pages");
    ("executor.rows_per_op", "rows", rows /. ops);
    ("gc.minor_per_op", "count", per "gc_minor");
    ("gc.major_collections", "count", g "gc_major");
    ("gc.heap_mb", "MiB", e "gc_heap_words" *. 8. /. 1048576.) ]

let traced_layers ~qerrors ~ops ~overhead =
  let us name = Pb_trace.self name /. ops in
  [ ("server.decode_us", "us", us "server.decode");
    ("server.encode_us", "us", us "server.encode");
    ("sql.parse_us", "us", us "sql.parse");
    ("sql.fingerprint_us", "us", us "sql.fingerprint");
    ("sql.resolve_us", "us", us "sql.resolve");
    ("engine.cache_probe_us", "us", us "engine.cache_probe");
    ("engine.dml_us", "us", us "engine.dml");
    ("engine.commit_us", "us", us "engine.commit");
    ("optimizer.optimize_us", "us", us "optimizer.optimize");
    ("optimizer.cost_qerror_p90", "ratio", Pb_stats.percentile 0.9 qerrors);
    ("executor.run_us", "us", us "executor.run");
    ("trace.unattributed_us", "us", us "statement");
    ("trace.overhead_ratio", "ratio", overhead) ]

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let json_str s = Printf.sprintf "%S" s

let main () =
  let run_workload =
    match !workload with
    | "point_read" -> point_read
    | "analytic" -> analytic
    | "write_txn" -> write_txn
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let d = G.dataset ~sizes !seed in
  let script = G.seed_script d in
  let script_path = Filename.concat out_dir (tag ^ ".sql") in
  Out_channel.with_open_bin script_path (fun oc -> output_string oc script);
  let workers = match !workload with "write_txn" -> 2 | _ -> 1 in
  Fun.protect ~finally:(fun () -> Sys.remove script_path) @@ fun () ->
  let h = spawn_host ~script:script_path ~workers in
  let r =
    Fun.protect ~finally:(fun () -> stop_host h) (fun () -> run_workload d h)
  in
  (* set-up time: the median of five more hosts, set up and stopped after
     the workload. A machine that has just idled runs a set-up about a
     third slower than one that has been busy, so every timed set-up
     follows the same busy stretch. *)
  let setups =
    if !trace = 0 then
      List.init 5 (fun _ ->
          let h = spawn_host ~script:script_path ~workers in
          stop_host h;
          h.setup_s)
    else [ h.setup_s ]
  in
  let ops = List.fold_left (fun a l -> a + lane_ops l) 0 r.lanes in
  let opsf = float_of_int ops in
  let lat = Array.concat (List.map (fun l -> l.l_lat) r.lanes) in
  let fin = Array.concat (List.map (fun l -> l.l_fin) r.lanes) in
  let tally = D.merge (List.map (fun l -> l.l_tally) r.lanes) in
  let attempted = ops in
  let dlt = S.diff ~after:r.after ~before:r.before in
  let e = S.get r.after in
  let w = lazy (Pb_stats.windowed ~fin ~lat ()) in
  let end_to_end () =
    let w = Lazy.force w in
    [ ("setup_s", "s", Pb_stats.median (Array.of_list setups));
      ("ops_per_s", "ops/s", w.Pb_stats.ops_per_s);
      ("lat_p50_us", "us", w.Pb_stats.p50);
      ("lat_p90_us", "us", w.Pb_stats.p90);
      ("io_cost_per_op", "cost", Rss.Counters.cost ~w:Ctx.default_w
         { (Rss.Counters.create ()) with
           Rss.Counters.page_fetches = int_of_float (S.get dlt "page_fetches");
           pages_written = int_of_float (S.get dlt "pages_written");
           rsi_calls = int_of_float (S.get dlt "rsi_calls") } /. opsf);
      ("server_rss_mb", "MiB", e "vm_hwm_kb" /. 1024.);
      ("space_amp", "ratio", e "heap_pages" *. float_of_int Rss.Page.size /. e "live_bytes") ]
  in
  let fail_ratio = float_of_int tally.D.failed /. float_of_int (max 1 attempted) in
  let replay_ok = ref true in
  let per_layer =
    if !trace = 0 then []
    else begin
      let replay traced =
        Pb_replay.run ~script ~buffer_pages:sizes.G.buffer_pages ~conns:r.replay_conns
          ~prepare:r.prepare ~warm:r.replay_warm ~meas:r.replay_meas
          ~served_sums:r.replay_sums ~reoptimize:r.reoptimize ~traced
      in
      let plain = replay false in
      let traced = replay true in
      Pb_trace.write (Filename.concat out_dir (tag ^ ".trace.jsonl"));
      if plain.Pb_replay.mismatches + traced.Pb_replay.mismatches > 0 then begin
        replay_ok := false;
        Printf.eprintf "replay: %d answers differ from the oracle or the served run\n"
          (plain.Pb_replay.mismatches + traced.Pb_replay.mismatches)
      end;
      (* The replay's copy of the engine's cardinality feedback must retire
         the plans the host retired: as many when it replays the whole
         stream, never more when it replays a prefix. *)
      let host_retired = int_of_float (S.get r.after "feedback_retirements") in
      List.iter
        (fun (res : Pb_replay.result) ->
          let n = res.Pb_replay.retirements in
          if n > host_retired || (r.replay_ops = ops && n <> host_retired) then begin
            replay_ok := false;
            Printf.eprintf "replay: %d plan retirements, the host had %d\n" n host_retired
          end)
        [ plain; traced ];
      host_layers r ~ops:opsf
      @ traced_layers ~qerrors:traced.Pb_replay.qerrors
          ~ops:(float_of_int r.replay_ops)
          ~overhead:(traced.Pb_replay.wall_s /. plain.Pb_replay.wall_s)
    end
  in
  let warm_ok = r.warm_tally.D.wrong = 0 && r.warm_tally.D.failed = 0 in
  Option.iter (fun p -> prerr_endline ("warm-up: " ^ p)) r.warm_tally.D.first_problem;
  let correct = tally.D.wrong = 0 && warm_ok && r.end_ok && !replay_ok in
  Option.iter (fun p -> prerr_endline ("first problem: " ^ p)) tally.D.first_problem;
  let rel_meta =
    List.filter_map
      (fun (k, v) ->
        if String.length k > 5 && String.sub k 0 5 = "rows." then
          let name = String.sub k 5 (String.length k - 5) in
          Some (Printf.sprintf "%s: {\"rows\": %.0f, \"heap_pages\": %.0f}" (json_str name) v
                  (e ("pages." ^ name)))
        else None)
      r.after
  in
  let meta =
    [ ("workload", json_str !workload);
      ("seed", string_of_int !seed);
      ("smoke", string_of_bool !smoke);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_str Sys.ocaml_version);
      ("commit", json_str (Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"unknown"));
      ("ops", string_of_int ops);
      ("warmup_ops", string_of_int r.warm_ops);
      ("window_s", json_num r.window_s);
      ("connections", string_of_int r.conns);
      ("pipeline_depth", "1");
      ("server_workers", string_of_int workers);
      ("buffer_pool_pages", string_of_int sizes.G.buffer_pages);
      ("flush_policy", json_str "in-memory WAL, group commit on, COMMIT_DELAY 0, no fsync stand-in");
      ("latency_samples", string_of_int (Array.length lat));
      ("ops_per_s_whole_window", json_num (opsf /. r.window_s));
      ("setup_samples_s", "[" ^ String.concat ", " (List.map json_num setups) ^ "]");
      ("fail_ratio", json_num fail_ratio);
      ("replay_ops", string_of_int (if !trace = 1 then r.replay_ops else 0));
      ("relations", "{" ^ String.concat ", " rel_meta ^ "}") ]
  in
  let metrics = if !trace = 0 then end_to_end () else per_layer in
  let meta =
    if Lazy.is_val w then
      let w = Lazy.force w in
      meta
      @ [ ("windows", string_of_int w.Pb_stats.windows);
          ("latency_windows", string_of_int w.Pb_stats.lat_windows) ]
    else meta
  in
  List.iter
    (fun (name, unit, v) -> Printf.printf "%-36s %16.4f %s\n" name v unit)
    (metrics @ [ ("fail_ratio", "ratio", fail_ratio) ]);
  Printf.printf "meta {%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_str k) v) meta));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted tally.D.failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str name) (json_num v)
              (json_str unit))
          metrics));
  if !smoke && not correct then exit 1

let () =
  match main () with
  | () -> ()
  | exception e ->
    Printf.eprintf "bench: %s\n" (Printexc.to_string e);
    exit 1
