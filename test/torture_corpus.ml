(* Checked-in crash-torture corpus: fixed workloads pinning the harness's
   deep scenarios so `dune runtest` exercises them deterministically, without
   the full randomized sweep of torture_main:

   - a crash at every wal.append point (an unflushed suffix dies whole:
     appends only buffer, so nothing tears);
   - a torn-tail sweep over every byte offset of a multi-commit group-flush
     batch holding a range-predicate UPDATE, with the
     per-acknowledged-commit oracle;
   - a crash during buffer-pool eviction (2-page pool);
   - a transaction with an INSERT, DELETE and UPDATE aborted before the
     crash (its undo must stay invisible to recovery);
   - a >=3-transaction deadlock cycle across mixed lock granularities;
   - the injected recovery fault (commit filter disabled) that the harness
     must detect. *)

module V = Rel.Value
module F = Rss.Failpoint
module W = Rss.Wal
module FG = Fuzz_gen
module FT = Fuzz_torture
module D = Fuzz_dml

let c name = Ast.Col { table = None; column = name }
let int n = Ast.Const (V.Int n)

let col name ty =
  { FG.cname = name; cty = ty; distinct = 4; null_pct = 0; skew = 0. }

let table name cols rows indexes = { FG.tname = name; cols; rows; indexes }

let scenario =
  { FG.tables =
      [ table "t0"
          [ col "c0" V.Tint; col "c1" V.Tstr ]
          [ [ V.Int 1; V.Str "a" ];
            [ V.Int 2; V.Str "b" ];
            [ V.Int 3; V.Str "c" ] ]
          [ ("i_t0_0", [ "c0" ], false) ];
        table "t1"
          [ col "c0" V.Tint; col "c1" V.Tint ]
          (List.init 8 (fun i -> [ V.Int i; V.Int (i * i) ]))
          [ ("i_t1_0", [ "c0"; "c1" ], true) ] ] }

let check_none what = function
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" what (Format.asprintf "%a" FT.pp_divergence d)

(* Count the workload's hits at one site (build excluded, like the
   harness's counting pass). *)
let count_hits (w : FT.workload) site =
  let db = FT.build_db ~data:true w.FT.scenario in
  F.count_only ();
  ignore (FT.run_workload db w);
  F.disarm ();
  let n = F.hits site in
  F.reset ();
  n

(* --- torn-tail WAL ------------------------------------------------------- *)

let w_torn =
  { FT.scenario;
    groups =
      [ FT.Auto (D.Insert ("t0", [ [ V.Int 5; V.Str "d" ] ]));
        FT.Txn
          ( [ D.Insert ("t1", [ [ V.Int 9; V.Int 81 ]; [ V.Int 10; V.Int 100 ] ]);
              D.Delete ("t0", Some (Ast.Cmp (c "c0", Ast.Eq, int 2))) ],
            `Commit ) ] }

let test_append_crash_loses_unflushed_suffix () =
  let total = count_hits w_torn "wal.append" in
  Alcotest.(check bool) "workload reaches wal.append" true (total > 0);
  for k = 1 to total do
    let fired, bytes, torn, _ =
      FT.crash_run (FT.single w_torn) ~site:"wal.append" ~at:k
    in
    Alcotest.(check bool) "crash fired" true fired;
    Alcotest.(check int) "appends only buffer: nothing tears" 0 torn;
    check_none
      (Printf.sprintf "append crash, hit %d" k)
      (FT.check_recovery w_torn.FT.scenario bytes ~site:"wal.append" ~hit:k
         ~torn:0)
  done

(* --- torn group-flush batch ---------------------------------------------- *)

(* Two sessions, disjoint tables, both commits closed by one explicit flush:
   the batch holds both transactions' records — session 1's include a
   BETWEEN-range UPDATE of a clustered-key column — and the crash-at-flush sweep
   tears it at every byte offset. The acked oracle must hold on every image:
   a commit acknowledged before the crash survives recovery; a torn batch
   loses only unacknowledged suffix commits. *)
let w_batch =
  { FT.ms_scenario = scenario;
    nsessions = 2;
    items =
      [ FT.S_begin 0;
        FT.S_begin 1;
        FT.S_dml (0, D.Insert ("t0", [ [ V.Int 5; V.Str "d" ] ]));
        FT.S_dml (1, D.Insert ("t1", [ [ V.Int 9; V.Int 81 ]; [ V.Int 10; V.Int 100 ] ]));
        FT.S_dml
          ( 1,
            D.Update
              ( "t1",
                [ ("c1", Ast.Binop (Ast.Add, c "c1", int 1)) ],
                Some (Ast.Between (c "c0", int 2, int 5)) ) );
        FT.S_commit 0;
        FT.S_commit 1;
        FT.S_flush ] }

let test_group_batch_torn_every_offset () =
  (* counting pass: one window closes over both commits *)
  let db = FT.build_db ~data:true w_batch.FT.ms_scenario in
  F.count_only ();
  let acked = ref [] in
  FT.run_ms db w_batch ~acked;
  F.disarm ();
  let total = F.hits "wal.group_flush" in
  F.reset ();
  Alcotest.(check int) "both commits share one flush" 1 total;
  Alcotest.(check int) "that flush acknowledged both" 2 (List.length !acked);
  let images = ref 0 in
  for k = 1 to total do
    let fired, bytes, torn, acked =
      FT.crash_run (FT.multi w_batch) ~site:"wal.group_flush" ~at:k
    in
    Alcotest.(check bool) "crash fired" true fired;
    Alcotest.(check bool)
      "batch spans more than one commit record" true
      (torn > String.length (W.encode (W.Commit 1)));
    for j = 0 to torn do
      incr images;
      let surviving = String.sub bytes 0 (String.length bytes - j) in
      check_none
        (Printf.sprintf "acked oracle, hit %d, torn %d" k j)
        (FT.check_acked surviving ~acked ~site:"wal.group_flush" ~hit:k ~torn:j);
      check_none
        (Printf.sprintf "recovery, hit %d, torn %d" k j)
        (FT.check_recovery w_batch.FT.ms_scenario surviving
           ~site:"wal.group_flush" ~hit:k ~torn:j)
    done
  done;
  Alcotest.(check bool) "swept many torn images" true (!images > 40)

(* Full multi-session torture (counting, clean, every crash site, acked
   oracle) over a small random-but-fixed interleaving. *)
let test_ms_torture_fixed_seed () =
  let rng = Random.State.make [| 0xb42c |] in
  let w = FT.gen_ms_workload rng in
  let points, flush_points, div = FT.sweep ~crash_every:3 (FT.multi w) in
  check_none "multi-session torture" div;
  Alcotest.(check bool) "covered crash points" true (points > 50);
  Alcotest.(check bool) "covered group-flush tears" true (flush_points > 0)

(* --- crash during buffer-pool eviction ----------------------------------- *)

let w_evict =
  { FT.scenario;
    groups =
      [ FT.Auto
          (D.Insert ("t1", List.init 6 (fun i -> [ V.Int (20 + i); V.Int i ])));
        FT.Auto (D.Delete ("t0", None));
        FT.Auto (D.Insert ("t0", [ [ V.Int 4; V.Str "e" ] ]));
        FT.Auto (D.Delete ("t1", Some (Ast.Cmp (c "c0", Ast.Eq, int 2)))) ] }

let test_crash_during_eviction () =
  let total = count_hits w_evict "buffer_pool.evict" in
  Alcotest.(check bool) "2-page pool evicts under this workload" true (total > 0);
  for k = 1 to total do
    let fired, bytes, _, _ =
      FT.crash_run (FT.single w_evict) ~site:"buffer_pool.evict" ~at:k
    in
    Alcotest.(check bool) "crash fired" true fired;
    check_none
      (Printf.sprintf "eviction crash, hit %d" k)
      (FT.check_recovery w_evict.FT.scenario bytes ~site:"buffer_pool.evict"
         ~hit:k ~torn:0)
  done

(* --- abort, then crash --------------------------------------------------- *)

let w_abort =
  { FT.scenario;
    groups =
      [ FT.Txn
          ( [ D.Insert ("t0", [ [ V.Int 7; V.Str "x" ] ]);
              D.Delete ("t1", Some (Ast.Cmp (c "c0", Ast.Eq, int 3)));
              D.Update
                ( "t1",
                  [ ("c1", Ast.Binop (Ast.Mul, c "c1", int 2)) ],
                  Some (Ast.Cmp (c "c0", Ast.Ge, int 5)) ) ],
            `Rollback );
        FT.Auto (D.Insert ("t1", [ [ V.Int 11; V.Int 121 ] ])) ] }

(* Full torture over the fixed workload: crashes before, inside and after
   the rolled-back transaction; its undo must never surface in a recovered
   image. *)
let test_abort_then_crash () =
  let points, _, div = FT.sweep ~crash_every:1 (FT.single w_abort) in
  check_none "abort-then-crash" div;
  Alcotest.(check bool) "covered many crash points" true (points > 100)

(* --- deadlock: 4 transactions over mixed granularities ------------------- *)

let test_deadlock_cycle_of_four () =
  let module L = Rss.Lock_table in
  let lt = L.create () in
  let res =
    [| L.Relation 0;
       L.Tuple_of (0, Rss.Tid.make ~page:1 ~slot:2);
       L.Relation 1;
       L.Tuple_of (1, Rss.Tid.make ~page:4 ~slot:0) |]
  in
  Array.iteri (fun i r -> ignore (L.acquire lt (i + 1) r L.Exclusive)) res;
  (* t1 -> t2 -> t3 -> t4 each waiting on the next one's resource *)
  for i = 1 to 3 do
    match L.acquire lt i res.(i) L.Exclusive with
    | L.Blocked [ b ] -> Alcotest.(check int) "blocked by successor" (i + 1) b
    | _ -> Alcotest.failf "t%d should block on t%d" i (i + 1)
  done;
  match L.acquire lt 4 res.(0) L.Shared with
  | L.Deadlock cycle ->
    List.iter
      (fun tx ->
        Alcotest.(check bool)
          (Printf.sprintf "cycle mentions t%d" tx)
          true (List.mem tx cycle))
      [ 1; 2; 3; 4 ]
  | _ -> Alcotest.fail "closing the loop must report a deadlock"

(* --- injected fault: recovery without the commit filter ------------------ *)

let test_injected_commit_filter_fault_is_caught () =
  Rss.Recovery.set_commit_filter false;
  Fun.protect
    ~finally:(fun () ->
      Rss.Recovery.set_commit_filter true;
      F.reset ())
    (fun () ->
      match FT.sweep ~crash_every:1 (FT.single w_abort) with
      | _, _, Some _ -> () (* the planted corruption was detected: pass *)
      | _, _, None ->
        Alcotest.fail
          "commit filter disabled yet no divergence: harness is blind to \
           uncommitted-redo corruption")

let () =
  Alcotest.run "torture_corpus"
    [ ( "corpus",
        [ Alcotest.test_case "append crash loses unflushed suffix" `Quick
            test_append_crash_loses_unflushed_suffix;
          Alcotest.test_case "group batch torn at every offset" `Quick
            test_group_batch_torn_every_offset;
          Alcotest.test_case "multi-session torture, fixed seed" `Quick
            test_ms_torture_fixed_seed;
          Alcotest.test_case "crash during eviction" `Quick
            test_crash_during_eviction;
          Alcotest.test_case "abort then crash" `Quick test_abort_then_crash;
          Alcotest.test_case "4-txn deadlock cycle" `Quick
            test_deadlock_cycle_of_four;
          Alcotest.test_case "injected commit-filter fault caught" `Quick
            test_injected_commit_filter_fault_is_caught ] ) ]
