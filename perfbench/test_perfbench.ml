(* Tests for the benchmark's own pieces: seeded generation, the percentile
   guard, the windowed estimator and the host snapshot diff. The end-to-end
   smoke run of every workload is a runtest rule in this directory's dune
   file. *)

module G = Pb_gen

let check = Alcotest.(check bool)
let sizes = G.tiny

let streams seed =
  let d = G.dataset ~sizes seed in
  let plan = G.txn_plan d ~seed ~count:2 ~warm:3 ~meas:10 in
  ( G.seed_script d,
    G.stream_bytes
      (List.map (G.point_op d) (Array.to_list (G.point_keys d ~seed ~ops:50))
       @ G.analytic_stream d ~seed ~tag:4 ~ops:5
       @ List.concat (Array.to_list plan.G.warm)
       @ List.concat (Array.to_list plan.G.meas)) )

let test_same_seed () =
  let s1, r1 = streams 7 and s2, r2 = streams 7 in
  check "seed script identical" true (String.equal s1 s2);
  check "request stream identical" true (String.equal r1 r2);
  let s3, r3 = streams 8 in
  check "another seed, another script" false (String.equal s1 s3);
  check "another seed, another stream" false (String.equal r1 r3)

let test_percentile_guard () =
  let xs n = Array.init n float_of_int in
  Alcotest.check_raises "p90 of 99 samples"
    (Invalid_argument "percentile: p90 needs 100 samples, got 99") (fun () ->
      ignore (Pb_stats.percentile 0.9 (xs 99)));
  Alcotest.(check (float 0.)) "p90 of 100 samples" 89. (Pb_stats.percentile 0.9 (xs 100));
  Alcotest.(check (float 0.)) "p50 of 20 samples" 9. (Pb_stats.percentile 0.5 (xs 20))

let test_windowed () =
  (* 2000 ops completing every 100us, latency 50us, one slow burst *)
  let fin = Array.init 2000 (fun i -> 100. *. float_of_int (i + 1)) in
  let lat = Array.init 2000 (fun i -> if i >= 100 && i < 150 then 5000. else 50.) in
  let w = Pb_stats.windowed ~fin ~lat () in
  Alcotest.(check int) "twenty rate windows" 20 w.Pb_stats.windows;
  Alcotest.(check int) "ten latency windows" 10 w.Pb_stats.lat_windows;
  Alcotest.(check bool) "rate" true (Float.abs (w.Pb_stats.ops_per_s -. 10_000.) < 10.);
  Alcotest.(check (float 0.)) "burst does not move p90" 50. w.Pb_stats.p90

(* Warm-up on its own connection lands before the first snapshot, so the
   diff counts exactly the measured reads: one RSI call and one plan-cache
   probe each. *)
let test_snapshot_excludes_warmup () =
  let d = G.dataset ~sizes 3 in
  let db = Database.create ~buffer_pages:sizes.G.buffer_pages () in
  ignore (Database.exec_script db (G.seed_script d));
  let eng = Database.engine db in
  let sock = Printf.sprintf "pbtest-%d.sock" (Unix.getpid ()) in
  let srv = Server.start ~workers:1 ~engine:eng (Server.Unix_sock sock) in
  let reads n =
    let c = Client.connect (Server.Unix_sock sock) in
    let t = Pb_drive.tally () in
    Pb_drive.run_plain c ~tally:t (List.init n (fun k -> G.point_op d (k mod sizes.G.hot_keys)));
    Client.close c;
    while eng.Engine.live_sessions > 1 do Unix.sleepf 0.001 done;
    check "answers match the oracle" true (t.Pb_drive.wrong = 0 && t.Pb_drive.failed = 0)
  in
  reads 37;
  let before = Pb_snap.collect db in
  reads 25;
  let after = Pb_snap.collect db in
  Server.stop srv;
  let dlt = Pb_snap.diff ~after ~before in
  let get = Pb_snap.get dlt in
  Alcotest.(check (float 0.)) "warm-up is in the first snapshot" 37.
    (Pb_snap.get before "plan_cache_hits" +. Pb_snap.get before "plan_cache_misses");
  Alcotest.(check (float 0.)) "rsi calls" 25. (get "rsi_calls");
  Alcotest.(check (float 0.)) "cache probes" 25. (get "plan_cache_hits" +. get "plan_cache_misses");
  Alcotest.(check (float 0.)) "gauges read from the later snapshot"
    (Pb_snap.get after "heap_pages") (get "heap_pages")

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench",
        [ Alcotest.test_case "same seed, same inputs" `Quick test_same_seed;
          Alcotest.test_case "percentile refuses thin tails" `Quick test_percentile_guard;
          Alcotest.test_case "windowed medians" `Quick test_windowed;
          Alcotest.test_case "snapshot diff excludes warm-up" `Quick
            test_snapshot_excludes_warmup ] ) ]
