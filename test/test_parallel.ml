(* Parallel execution: gather-order determinism (DOP > 1 byte-identical to
   serial), early close without leaks or deadlock, parallel run generation
   against the serial external sort on NULL-heavy multi-column keys, exact
   counter folding, B-tree range splitting, the DOP-aware cost decision
   surfaced through EXPLAIN, and the SET PARALLELISM statement. *)

module V = Rel.Value
module T = Rel.Tuple

let render (out : Executor.output) = List.map T.to_string out.Executor.rows

(* --- fixture: a table wide enough to span many pages --------------------- *)

let big_db () =
  let db = Database.create ~buffer_pages:256 () in
  Workload.load_uniform db ~name:"BIG" ~rows:5000
    ~cols:[ { Workload.col = "A"; distinct = 10 };
            { Workload.col = "B"; distinct = 5000 };
            { Workload.col = "C"; distinct = 25 } ]
    ~indexes:[ ("BIG_B", [ "B" ], true); ("BIG_C", [ "C" ], false) ]
    ~seed:7 ();
  db

let queries =
  [ "SELECT A, B FROM BIG WHERE A < 7 ORDER BY B";
    "SELECT B FROM BIG WHERE B >= 100";
    "SELECT A, SUM(B), COUNT(B), MIN(C), MAX(C), AVG(B) FROM BIG GROUP BY A";
    "SELECT SUM(B), COUNT(A) FROM BIG WHERE C = 3";
    "SELECT C, COUNT(C) FROM BIG WHERE A >= 2 GROUP BY C ORDER BY C DESC" ]

(* --- determinism: any DOP produces the serial row sequence --------------- *)

let test_gather_determinism () =
  let db = big_db () in
  let serial = List.map (fun sql -> render (Database.query db sql)) queries in
  Database.set_force_parallel db true;
  List.iter
    (fun dop ->
      Database.set_parallelism db dop;
      List.iteri
        (fun i sql ->
          let got = render (Database.query db sql) in
          if got <> List.nth serial i then
            Alcotest.failf "DOP=%d differs from serial on %s" dop sql)
        queries)
    [ 1; 2; 3; 4; 8 ];
  (* repeated runs at the same DOP are stable against scheduling *)
  Database.set_parallelism db 4;
  let once = render (Database.query db (List.hd queries)) in
  for _ = 1 to 5 do
    let again = render (Database.query db (List.hd queries)) in
    if again <> once then Alcotest.fail "same-DOP rerun differs"
  done

(* --- early close: cancelling producers must not leak or deadlock --------- *)

let test_gather_early_close () =
  let pager = Rss.Pager.create () in
  let mk_partition k = Parallel.Pages [ k ] in
  let open_partition quota part =
    match part with
    | Parallel.Pages [ k ] ->
      let i = ref 0 in
      fun () ->
        if !i >= quota then None
        else begin
          incr i;
          Some (T.make [ V.Int k; V.Int !i ])
        end
    | _ -> assert false
  in
  (* producers push far more than the queue bound; consume a prefix, close,
     and the join inside [close] must return (no deadlock, producers
     cancelled) *)
  let g =
    Parallel.gather pager
      ~partitions:(List.map mk_partition [ 0; 1; 2; 3 ])
      ~open_partition:(open_partition 50_000)
  in
  for _ = 1 to 5 do
    match g.Parallel.next () with
    | Some _ -> ()
    | None -> Alcotest.fail "stream ended early"
  done;
  g.Parallel.close ();
  g.Parallel.close ();  (* idempotent *)
  Alcotest.(check bool) "next after close" true (g.Parallel.next () = None);
  (* the pool is still serviceable afterwards: a full drain works and
     preserves partition order *)
  let g2 =
    Parallel.gather pager
      ~partitions:(List.map mk_partition [ 0; 1; 2 ])
      ~open_partition:(open_partition 100)
  in
  let rec drain acc =
    match g2.Parallel.next () with
    | Some t -> drain (t :: acc)
    | None -> List.rev acc
  in
  let all = drain [] in
  Alcotest.(check int) "full drain" 300 (List.length all);
  let expected =
    List.concat_map
      (fun k -> List.init 100 (fun i -> T.make [ V.Int k; V.Int (i + 1) ]))
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "partition order" true
    (List.for_all2 T.equal all expected)

(* a producer exception must re-raise from [next] after cleanup *)
let test_gather_producer_exception () =
  let pager = Rss.Pager.create () in
  let open_partition part =
    match part with
    | Parallel.Pages [ 1 ] -> fun () -> failwith "producer boom"
    | _ ->
      let i = ref 0 in
      fun () -> if !i >= 10 then None else (incr i; Some (T.make [ V.Int !i ]))
  in
  let g =
    Parallel.gather pager
      ~partitions:[ Parallel.Pages [ 0 ]; Parallel.Pages [ 1 ] ]
      ~open_partition
  in
  let rec drain () =
    match g.Parallel.next () with Some _ -> drain () | None -> ()
  in
  (match drain () with
   | () -> Alcotest.fail "producer exception swallowed"
   | exception Failure msg -> Alcotest.(check string) "message" "producer boom" msg);
  Alcotest.(check bool) "next after failure" true (g.Parallel.next () = None)

(* --- parallel run generation vs the serial external sort ----------------- *)

let null_heavy_tuples n =
  let rng = Workload.rand_init 31 in
  List.init n (fun i ->
      let v () =
        match Random.State.int rng 4 with
        | 0 -> V.Null
        | 1 -> V.Int (Random.State.int rng 5)
        | 2 -> V.Str (Printf.sprintf "s%d" (Random.State.int rng 4))
        | _ -> V.Float (float_of_int (Random.State.int rng 3))
      in
      T.make [ v (); v (); V.Int i ])

let dispense l =
  let rest = ref l in
  fun () ->
    match !rest with
    | [] -> None
    | t :: tl -> rest := tl; Some t

let test_parallel_sort_agrees () =
  let key = [ (0, Rss.Sort.Asc); (1, Rss.Sort.Desc) ] in
  let input = null_heavy_tuples 3000 in
  let serial_pager = Rss.Pager.create ~buffer_pages:8 () in
  let serial =
    let d = Rss.Sort.sort_stream serial_pager ~key (dispense input) in
    let rec go acc = match d () with Some t -> go (t :: acc) | None -> List.rev acc in
    go []
  in
  (* split the input into contiguous chunks, form runs per chunk, merge the
     concatenated run lists: must reproduce the serial order exactly, ties
     (equal keys, NULLs) included — the [V.Int i] column witnesses it *)
  List.iter
    (fun parts ->
      let pager = Rss.Pager.create ~buffer_pages:8 () in
      let n = List.length input in
      let chunk j =
        List.filteri (fun i _ -> i * parts / n = j) input
      in
      let runs =
        List.concat_map
          (fun j -> Rss.Sort.runs_of_dispenser pager ~key (dispense (chunk j)))
          (List.init parts (fun j -> j))
      in
      let d = Rss.Sort.merge_stream pager ~key runs in
      let rec go acc = match d () with Some t -> go (t :: acc) | None -> List.rev acc in
      let merged = go [] in
      Alcotest.(check int)
        (Printf.sprintf "parts=%d length" parts) n (List.length merged);
      if not (List.for_all2 T.equal merged serial) then
        Alcotest.failf "parts=%d merge differs from serial sort" parts)
    [ 2; 3; 5 ]

(* --- counters: folded per-domain counts sum exactly to serial ------------ *)

let test_counter_fold_exact () =
  let db = big_db () in
  let c = Rss.Pager.counters (Database.pager db) in
  let measure sql =
    Rss.Counters.reset c;
    Rss.Pager.evict_all (Database.pager db);
    ignore (Database.query db sql);
    (c.Rss.Counters.page_fetches, c.Rss.Counters.rsi_calls)
  in
  Database.set_plan_cache db false;
  (* pure scan: the exchange runs the identical access path split in slices,
     so the folded worker counters must match serial to the unit *)
  let scan_sql = "SELECT B FROM BIG WHERE B >= 100" in
  let serial_fetches, serial_rsi = measure scan_sql in
  Database.set_force_parallel db true;
  Database.set_parallelism db 4;
  let par_fetches, par_rsi = measure scan_sql in
  Alcotest.(check int) "scan page fetches" serial_fetches par_fetches;
  Alcotest.(check int) "scan rsi calls" serial_rsi par_rsi;
  Alcotest.(check bool) "did fetch" true (serial_fetches > 0);
  (* grouped: parallel partial aggregation skips the serial sort's spill, so
     page I/O legitimately shrinks — but every input tuple is still fetched
     through the RSI exactly once, so rsi_calls stays exact *)
  let agg_sql = "SELECT A, SUM(B) FROM BIG WHERE A < 9 GROUP BY A" in
  Database.set_force_parallel db false;
  Database.set_parallelism db 1;
  let _, serial_agg_rsi = measure agg_sql in
  Database.set_force_parallel db true;
  Database.set_parallelism db 4;
  let _, par_agg_rsi = measure agg_sql in
  Alcotest.(check int) "grouped rsi calls" serial_agg_rsi par_agg_rsi

(* --- B-tree range splitting ---------------------------------------------- *)

let test_split_range () =
  let pager = Rss.Pager.create () in
  let bt = Rss.Btree.create ~order:8 pager in
  (* duplicate-heavy: every key appears 3x, so separator duplicates must land
     on exactly one side *)
  for i = 0 to 899 do
    Rss.Btree.insert bt [| V.Int (i mod 300) |]
      { Rss.Tid.page = i; slot = 0 }
  done;
  let scan ?lo ?hi () =
    let next = Rss.Btree.range_cursor ?lo ?hi bt in
    let rec go acc = match next () with None -> List.rev acc | Some e -> go (e :: acc) in
    go []
  in
  let whole = scan () in
  List.iter
    (fun parts ->
      let ranges = Rss.Btree.split_range bt ~parts in
      Alcotest.(check bool)
        (Printf.sprintf "parts=%d count" parts)
        true
        (List.length ranges >= 1 && List.length ranges <= parts);
      let pieces = List.concat_map (fun (lo, hi) -> scan ?lo ?hi ()) ranges in
      if pieces <> whole then
        Alcotest.failf "parts=%d concatenation differs from full scan" parts)
    [ 1; 2; 4; 8; 64 ];
  (* splitting a bounded range stays inside the bounds *)
  let lo = ([| V.Int 50 |], `Inclusive) and hi = ([| V.Int 250 |], `Exclusive) in
  let bounded = scan ~lo ~hi () in
  let ranges = Rss.Btree.split_range ~lo ~hi bt ~parts:4 in
  let pieces = List.concat_map (fun (lo, hi) -> scan ?lo ?hi ()) ranges in
  Alcotest.(check bool) "bounded concatenation" true (pieces = bounded)

(* --- cost model and EXPLAIN ---------------------------------------------- *)

let explain db sql =
  match Database.exec db ("EXPLAIN " ^ sql) with
  | Database.Text s -> s
  | _ -> Alcotest.fail "EXPLAIN did not return text"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_explain_dop () =
  let db = big_db () in
  ignore (Database.exec db "SET PARALLELISM 4");
  Alcotest.(check int) "cap set" 4 (Database.parallelism db);
  (* a 5000-row scan is CPU-heavy enough for the DOP term to win *)
  let s = explain db "SELECT B FROM BIG WHERE B >= 100" in
  Alcotest.(check bool) "exchange surfaced" true (contains s "EXCHANGE dop=");
  Alcotest.(check bool) "cap surfaced" true (contains s "parallelism: max_dop=4");
  (* serial chosen for small inputs: 500-startup-per-worker dwarfs the scan *)
  Workload.load_emp_dept_job db;
  let s = explain db "SELECT NAME FROM EMP WHERE DNO = 17" in
  Alcotest.(check bool) "small input stays serial" false (contains s "EXCHANGE");
  (* W = 0: parallelism cannot reduce pure I/O cost *)
  Database.set_w db 0.;
  let s = explain db "SELECT B FROM BIG WHERE B >= 100" in
  Alcotest.(check bool) "W=0 stays serial" false (contains s "EXCHANGE");
  Database.set_w db Ctx.default_w;
  (* DOP 1 disables the post-pass entirely *)
  ignore (Database.exec db "SET PARALLELISM 1");
  let s = explain db "SELECT B FROM BIG WHERE B >= 100" in
  Alcotest.(check bool) "max_dop=1 serial" false (contains s "EXCHANGE")

let test_choose_dop () =
  let w = 0.5 in
  (* big CPU component: parallel must win and pick a dop in range *)
  (match Cost_model.choose_dop ~w ~max_dop:4 { Cost_model.pages = 10.; rsi = 100_000. } with
   | Some (dop, pc) ->
     Alcotest.(check bool) "dop in range" true (dop >= 2 && dop <= 4);
     Alcotest.(check bool) "strictly cheaper" true
       (Cost_model.total ~w pc
        < Cost_model.total ~w { Cost_model.pages = 10.; rsi = 100_000. });
     Alcotest.(check (float 1e-9)) "pages undivided" 10. pc.Cost_model.pages
   | None -> Alcotest.fail "large scan should parallelize");
  (* small input: startup dominates *)
  Alcotest.(check bool) "small stays serial" true
    (Cost_model.choose_dop ~w ~max_dop:4 { Cost_model.pages = 3.; rsi = 30. } = None);
  (* W = 0 never parallelizes (total ignores rsi) *)
  Alcotest.(check bool) "w=0 stays serial" true
    (Cost_model.choose_dop ~w:0. ~max_dop:8 { Cost_model.pages = 5.; rsi = 1e9 } = None);
  (* max_dop 1 is a no-op *)
  Alcotest.(check bool) "max_dop=1" true
    (Cost_model.choose_dop ~w ~max_dop:1 { Cost_model.pages = 5.; rsi = 1e9 } = None)

let test_set_parallelism_stmt () =
  let db = Database.create () in
  (match Database.exec db "SET PARALLELISM 3" with
   | Database.Done msg -> Alcotest.(check string) "ack" "parallelism set to 3" msg
   | _ -> Alcotest.fail "expected Done");
  Alcotest.(check int) "applied" 3 (Database.parallelism db);
  (match Database.exec db "SET PARALLELISM 0" with
   | exception Database.Error msg ->
     Alcotest.(check bool) "zero rejected" true
       (contains msg "expected positive degree of parallelism")
   | _ -> Alcotest.fail "SET PARALLELISM 0 accepted")

(* --- failpoints: armed registry forces serial execution ------------------ *)

let test_failpoints_degrade_to_serial () =
  let db = big_db () in
  Database.set_force_parallel db true;
  Database.set_parallelism db 4;
  let sql = "SELECT B FROM BIG WHERE B >= 100" in
  let want = render (Database.query db sql) in
  (* a count-only probe arms the registry; execution must fall back to the
     serial path (same rows) rather than ship failpoints across domains *)
  Rss.Failpoint.count_only ();
  let got = render (Database.query db sql) in
  Rss.Failpoint.reset ();
  Alcotest.(check bool) "rows unchanged under failpoints" true (got = want)

let () =
  Alcotest.run "parallel"
    [ ( "gather",
        [ Alcotest.test_case "determinism across DOPs" `Quick test_gather_determinism;
          Alcotest.test_case "early close" `Quick test_gather_early_close;
          Alcotest.test_case "producer exception" `Quick test_gather_producer_exception
        ] );
      ( "sort",
        [ Alcotest.test_case "partitioned runs vs serial" `Quick
            test_parallel_sort_agrees ] );
      ( "counters",
        [ Alcotest.test_case "fold exactness" `Quick test_counter_fold_exact ] );
      ( "btree",
        [ Alcotest.test_case "split_range" `Quick test_split_range ] );
      ( "cost",
        [ Alcotest.test_case "EXPLAIN DOP" `Quick test_explain_dop;
          Alcotest.test_case "choose_dop" `Quick test_choose_dop;
          Alcotest.test_case "SET PARALLELISM" `Quick test_set_parallelism_stmt ] );
      ( "failpoints",
        [ Alcotest.test_case "degrade to serial" `Quick
            test_failpoints_degrade_to_serial ] ) ]
