module V = Rel.Value
module T = Rel.Tuple
module Sg = Rss.Sarg

let t vals = T.make vals

(* --- SARG evaluation --------------------------------------------------- *)

let s col op value = { Sg.col; op; value }

let test_eval_op () =
  Alcotest.(check bool) "eq" true (Sg.eval_op Sg.Eq (V.Int 5) (V.Int 5));
  Alcotest.(check bool) "ne" true (Sg.eval_op Sg.Ne (V.Int 5) (V.Int 6));
  Alcotest.(check bool) "lt" true (Sg.eval_op Sg.Lt (V.Int 5) (V.Int 6));
  Alcotest.(check bool) "le" true (Sg.eval_op Sg.Le (V.Int 5) (V.Int 5));
  Alcotest.(check bool) "gt" false (Sg.eval_op Sg.Gt (V.Int 5) (V.Int 6));
  Alcotest.(check bool) "ge str" true (Sg.eval_op Sg.Ge (V.Str "b") (V.Str "a"));
  (* NULL comparisons are false, including NE *)
  Alcotest.(check bool) "null eq" false (Sg.eval_op Sg.Eq V.Null V.Null);
  Alcotest.(check bool) "null ne" false (Sg.eval_op Sg.Ne (V.Int 1) V.Null)

let test_dnf_matching () =
  (* (c0 = 5 AND c1 > 10) OR (c0 = 7) *)
  let sarg = [ [ s 0 Sg.Eq (V.Int 5); s 1 Sg.Gt (V.Int 10) ]; [ s 0 Sg.Eq (V.Int 7) ] ] in
  Alcotest.(check bool) "first conjunct" true
    (Sg.compile sarg (t [ V.Int 5; V.Int 11 ]));
  Alcotest.(check bool) "conjunct fails" false
    (Sg.compile sarg (t [ V.Int 5; V.Int 10 ]));
  Alcotest.(check bool) "second disjunct" true
    (Sg.compile sarg (t [ V.Int 7; V.Int 0 ]));
  Alcotest.(check bool) "no disjunct" false
    (Sg.compile sarg (t [ V.Int 6; V.Int 99 ]));
  Alcotest.(check bool) "always true" true (Sg.compile Sg.always_true (t [ V.Null ]));
  Alcotest.(check bool) "reject all" false (Sg.compile [] (t [ V.Int 1 ]))

let test_conjoin () =
  let a = [ [ s 0 Sg.Eq (V.Int 1) ]; [ s 0 Sg.Eq (V.Int 2) ] ] in
  let b = [ [ s 1 Sg.Gt (V.Int 0) ] ] in
  let c = Sg.conjoin a b in
  Alcotest.(check int) "disjunct count" 2 (List.length c);
  Alcotest.(check bool) "semantics" true
    (Sg.compile c (t [ V.Int 2; V.Int 5 ]) && not (Sg.compile c (t [ V.Int 2; V.Int 0 ])))

(* --- scans -------------------------------------------------------------- *)

(* Drain a segment scan into (TID, tuple) pairs, each TID read from the
   scan's TID cell as its tuple is returned *)
let segment_pairs ?snap ?sargs seg ~rel_id =
  let tid = ref (Rss.Tid.make ~page:0 ~slot:0) in
  let next = Rss.Scan.open_segment_scan seg ~rel_id ?snap ?sargs ~tid () in
  let rec go acc = match next () with None -> List.rev acc | Some tu -> go ((!tid, tu) :: acc) in
  go []

let setup ?(other_rows = 50) () =
  let pager = Rss.Pager.create ~buffer_pages:100 () in
  let seg = Rss.Segment.create pager in
  (* two relations share the segment *)
  for i = 0 to 299 do
    ignore
      (Rss.Segment.insert seg ~rel_id:1
         (t [ V.Int i; V.Int (i mod 10); V.Str (Printf.sprintf "n%03d" i) ]))
  done;
  for i = 0 to other_rows - 1 do
    ignore (Rss.Segment.insert seg ~rel_id:2 (t [ V.Int i; V.Int 0; V.Str "other" ]))
  done;
  (pager, seg)

let test_segment_scan_returns_own_relation () =
  let _, seg = setup () in
  let rows = Cursor.drain (Rss.Scan.open_segment_scan seg ~rel_id:1 ()) in
  Alcotest.(check int) "rel 1 rows" 300 (List.length rows);
  let rows2 = Cursor.drain (Rss.Scan.open_segment_scan seg ~rel_id:2 ()) in
  Alcotest.(check int) "rel 2 rows" 50 (List.length rows2)

let test_segment_scan_touches_every_page_once () =
  let pager, seg = setup () in
  let c = Rss.Pager.counters pager in
  Rss.Counters.reset c;
  Rss.Pager.evict_all pager;
  ignore (Cursor.drain (Rss.Scan.open_segment_scan seg ~rel_id:2 ()));
  (* all non-empty pages of the segment are touched, each exactly once, even
     though relation 2 occupies only a few *)
  let _, _, nonempty = Rss.Segment.census seg ~rel_id:2 in
  Alcotest.(check int) "fetches = nonempty pages" nonempty c.Rss.Counters.page_fetches;
  Alcotest.(check int) "no rescans" 0 c.Rss.Counters.buffer_hits

let test_segment_scan_sargs_cut_rsi () =
  let pager, seg = setup () in
  let c = Rss.Pager.counters pager in
  Rss.Counters.reset c;
  let sargs = [ [ s 1 Sg.Eq (V.Int 3) ] ] in
  let rows = Cursor.drain (Rss.Scan.open_segment_scan seg ~rel_id:1 ~sargs ()) in
  Alcotest.(check int) "filtered rows" 30 (List.length rows);
  (* SARG-rejected tuples never cross the RSI *)
  Alcotest.(check int) "rsi calls = returned" 30 c.Rss.Counters.rsi_calls

let test_index_scan_range_and_order () =
  let pager, seg = setup () in
  let bt = Rss.Btree.create ~order:8 pager in
  (* index rel 1 on column 0 *)
  let all = segment_pairs seg ~rel_id:1 in
  List.iter (fun (tid, tu) -> Rss.Btree.insert bt [| T.get tu 0 |] tid) all;
  let scan =
    Rss.Scan.open_index_scan seg ~rel_id:1 ~index:bt
      ~lo:([| V.Int 100 |], `Inclusive)
      ~hi:([| V.Int 109 |], `Inclusive)
      ()
  in
  let rows = Cursor.drain scan in
  Alcotest.(check int) "range size" 10 (List.length rows);
  let keys = List.map (fun tu -> T.get tu 0) rows in
  let sorted = List.sort V.compare keys in
  Alcotest.(check bool) "key order" true (List.for_all2 V.equal keys sorted)

let test_index_scan_with_sargs () =
  let pager, seg = setup () in
  let bt = Rss.Btree.create pager in
  let all = segment_pairs seg ~rel_id:1 in
  List.iter (fun (tid, tu) -> Rss.Btree.insert bt [| T.get tu 0 |] tid) all;
  let c = Rss.Pager.counters pager in
  Rss.Counters.reset c;
  let scan =
    Rss.Scan.open_index_scan seg ~rel_id:1 ~index:bt
      ~lo:([| V.Int 0 |], `Inclusive)
      ~hi:([| V.Int 99 |], `Inclusive)
      ~sargs:[ [ s 1 Sg.Eq (V.Int 7) ] ]
      ()
  in
  let rows = Cursor.drain scan in
  Alcotest.(check int) "rows" 10 (List.length rows);
  Alcotest.(check int) "rsi" 10 c.Rss.Counters.rsi_calls

(* A drained scan stays drained: every NEXT after the end returns [None]
   and charges nothing, even once a version that would qualify has been
   stored since (on the segment's last page, the one a segment scan walked
   last); a fresh OPEN sees it. Segment and index scans, both directions,
   each with and without a SARG and a snapshot. *)
let test_scan_protocol () =
  let pager, seg = setup ~other_rows:0 () in
  let last_page = List.hd (List.rev (Rss.Segment.page_ids seg)) in
  let bt = Rss.Btree.create ~order:8 pager in
  List.iter
    (fun (tid, tu) -> Rss.Btree.insert bt [| T.get tu 0 |] tid)
    (segment_pairs seg ~rel_id:1);
  let m = Rss.Mvcc.create () in
  let c = Rss.Pager.counters pager in
  let index dir snap sargs =
    Rss.Scan.open_index_scan seg ~rel_id:1 ~index:bt
      ~lo:([| V.Int 100 |], `Inclusive)
      ~hi:([| V.Int 199 |], `Inclusive)
      ~dir ?snap ?sargs ()
  in
  let kinds =
    [ ("segment", fun snap sargs -> Rss.Scan.open_segment_scan seg ~rel_id:1 ?snap ?sargs ());
      ("index asc", index `Asc);
      ("index desc", index `Desc) ]
  in
  let late = ref 1000 in
  List.iter
    (fun (kind, open_scan) ->
      List.iter
        (fun (snap_name, snap) ->
          List.iter
            (fun (sarg_name, sargs) ->
              let name = Printf.sprintf "%s, %s, %s" kind snap_name sarg_name in
              let scan = open_scan (snap ()) sargs in
              let rec drain n = match scan () with Some _ -> drain (n + 1) | None -> n in
              let n = drain 0 in
              Alcotest.(check bool) (name ^ ": returns rows") true (n > 0);
              let before = Rss.Counters.snapshot c in
              for _ = 1 to 3 do
                Alcotest.(check bool) (name ^ ": NEXT after the end") true (scan () = None)
              done;
              (* a version stored after the drain, in range and passing the SARG *)
              incr late;
              let tup = t [ V.Int (100 + (!late mod 100)); V.Int 3; V.Str "late" ] in
              let tid = Rss.Segment.insert seg ~rel_id:1 tup in
              Alcotest.(check int) (name ^ ": stored on the last page") last_page (Rss.Tid.page tid);
              Rss.Btree.insert bt [| T.get tup 0 |] tid;
              Alcotest.(check bool) (name ^ ": still drained") true (scan () = None);
              let d = Rss.Counters.diff ~after:(Rss.Counters.snapshot c) ~before in
              Alcotest.(check (pair int int)) (name ^ ": nothing charged") (0, 0)
                (d.Rss.Counters.page_fetches + d.Rss.Counters.buffer_hits, d.Rss.Counters.rsi_calls);
              Alcotest.(check int) (name ^ ": a fresh OPEN sees it") (n + 1)
                (List.length (Cursor.drain (open_scan (snap ()) sargs))))
            [ ("no SARG", None); ("SARG c1 = 3", Some [ [ s 1 Sg.Eq (V.Int 3) ] ]) ])
        [ ("no snapshot", fun () -> None);
          ("snapshot", fun () -> Some (Rss.Mvcc.view m (Rss.Mvcc.statement_snapshot m))) ])
    kinds

(* --- the in-place scan against a reference walk ---------------------------- *)

(* The DNF meaning of a SARG, restated with [eval_op] *)
let dnf sarg tup =
  List.exists (List.for_all (fun (p : Sg.simple) -> Sg.eval_op p.op (T.get tup p.col) p.value)) sarg

let gen_value =
  QCheck.Gen.(
    frequency
      [ (4, map (fun i -> V.Int i) (int_range (-2) 2));
        (1, map (fun f -> V.Float f) (oneofl [ -1.5; 0.; 1.; 2.5 ]));
        (1, map (fun s -> V.Str s) (oneofl [ "a"; "b" ]));
        (1, return V.Null) ])

let gen_simple =
  QCheck.Gen.(
    map3
      (fun col op value -> { Sg.col; op; value })
      (int_range 0 2)
      (oneofl Sg.[ Eq; Ne; Lt; Le; Gt; Ge ])
      gen_value)

let prop_compile_is_dnf =
  QCheck.Test.make ~name:"Sarg.compile = DNF semantics" ~count:500
    (QCheck.make
       ~print:(fun (sarg, tups) ->
         Format.asprintf "%a on %s" Sg.pp sarg
           (String.concat ", " (List.map T.to_string tups)))
       QCheck.Gen.(
         pair
           (list_size (int_range 0 4) (list_size (int_range 0 4) gen_simple))
           (list_size (return 20) (map Array.of_list (list_repeat 3 gen_value)))))
    (fun (sarg, tups) ->
      let accept = Sg.compile sarg in
      List.for_all (fun tup -> accept tup = dnf sarg tup) tups)

(* A segment shared by two relations (First_fit mixes them on one page),
   with tombstones, delete-marked versions, pages emptied by deletes, NULL
   columns and versions of committed, active and aborted transactions. *)
let shared_segment () =
  let pager = Rss.Pager.create ~buffer_pages:3 () in
  let seg = Rss.Segment.create ~policy:Rss.Segment.First_fit pager in
  let m = Rss.Mvcc.create () in
  List.iter (Rss.Mvcc.begin_txn m) [ 1; 2; 3 ];
  ignore (Rss.Mvcc.commit m 1);
  Rss.Mvcc.abort m 3;
  let tids =
    List.init 600 (fun i ->
        let rel_id = if i mod 4 = 3 then 2 else 1 in
        let tup =
          t
            [ V.Int i;
              (if i mod 5 = 0 then V.Null else V.Int (i mod 7));
              (if i mod 9 = 0 then V.Null else V.Str (if i mod 2 = 0 then "x" else "y")) ]
        in
        (i, Rss.Segment.insert seg ~xmin:[| 0; 1; 2; 3 |].(i mod 4) ~rel_id tup))
  in
  let second_page = List.nth (Rss.Segment.page_ids seg) 1 in
  List.iter
    (fun (i, tid) ->
      if Rss.Tid.page tid = second_page || i mod 11 = 0 then
        ignore (Rss.Segment.delete seg tid)
      else if i mod 6 = 1 then Rss.Segment.set_xmax seg tid [| 1; 2; 3 |].(i mod 3))
    tids;
  ignore (Rss.Mvcc.commit m 2);
  Rss.Mvcc.begin_txn m 4;
  (pager, seg, m)

(* What a segment scan means: every non-empty page touched once, in order,
   and the qualifying versions of [rel_id] it holds, one RSI call each. *)
let reference_scan pager seg ~rel_id ~snap sarg =
  let out = ref [] in
  List.iter
    (fun pid ->
      let p = Rss.Pager.data_page pager pid in
      if not (Rss.Page.is_empty p) then begin
        Rss.Pager.touch pager pid;
        for slot = 0 to Rss.Page.slots p - 1 do
          match Rss.Page.slot p slot with
          | Rss.Page.Live { rel_id = rid; tuple; xmin; xmax; _ } ->
            let visible =
              match snap with
              | None -> xmax = 0
              | Some v -> Rss.Mvcc.view_visible v ~xmin ~xmax
            in
            if rid = rel_id && visible && dnf sarg tuple then begin
              Rss.Pager.note_rsi_call pager;
              out := (Rss.Tid.make ~page:pid ~slot, tuple) :: !out
            end
          | Rss.Page.Dead -> ()
        done
      end)
    (Rss.Segment.page_ids seg);
  List.rev !out

let test_segment_scan_matches_reference () =
  let pager, seg, m = shared_segment () in
  let _, _, nonempty_pages = Rss.Segment.census seg ~rel_id:1 in
  Alcotest.(check bool) "a page emptied by deletes" true
    (nonempty_pages < List.length (Rss.Segment.page_ids seg));
  let c = Rss.Pager.counters pager in
  let measured f =
    Rss.Pager.evict_all pager;
    Rss.Counters.reset c;
    let rows = f () in
    (rows, (c.Rss.Counters.rsi_calls, c.Rss.Counters.page_fetches, c.Rss.Counters.buffer_hits))
  in
  let sargs =
    [ Sg.always_true;
      [];
      [ [ s 0 Sg.Ge (V.Int 100); s 0 Sg.Lt (V.Int 400) ]; [ s 2 Sg.Eq (V.Str "x") ] ];
      [ [ s 1 Sg.Ne (V.Int 3) ]; [ s 1 Sg.Eq V.Null ] ];
      [ [ s 1 Sg.Le (V.Float 2.5); s 2 Sg.Gt (V.Str "x"); s 0 Sg.Ne (V.Int 7) ] ] ]
  in
  let snaps =
    [ ("no snapshot", None);
      ("statement snapshot", Some (Rss.Mvcc.view m (Rss.Mvcc.statement_snapshot m)));
      ("txn 4 snapshot", Some (Rss.Mvcc.view m (Rss.Mvcc.snapshot m ~txn:4)));
      ("txn 2's own view", Some (Rss.Mvcc.view m { Rss.Mvcc.csn = 1; txn = 2 })) ]
  in
  let row = Alcotest.(pair (pair int int) (array string)) in
  let show (rows, counts) =
    ( List.map
        (fun (tid, tup) -> ((Rss.Tid.page tid, Rss.Tid.slot tid), Array.map V.to_string tup))
        rows,
      counts )
  in
  let nonempty = ref 0 in
  List.iter
    (fun rel_id ->
      List.iter
        (fun (snap_name, snap) ->
          List.iteri
            (fun k sargs ->
              let got =
                measured (fun () -> segment_pairs seg ~rel_id ?snap ~sargs)
              in
              let want = measured (fun () -> reference_scan pager seg ~rel_id ~snap sargs) in
              if fst want <> [] then incr nonempty;
              Alcotest.(check (pair (list row) (triple int int int)))
                (Printf.sprintf "rel %d, %s, SARG %d" rel_id snap_name k)
                (show want) (show got))
            sargs)
        snaps)
    [ 1; 2 ];
  (* a reference that selected nothing would compare nothing *)
  Alcotest.(check bool) "most cases return rows" true (!nonempty >= 20)

(* --- allocation per returned tuple ------------------------------------------ *)

(* Minor-heap words allocated per tuple by opening and draining [open_next ()]
   on a warm buffer pool (a first drain warms it). A NEXT returns the stored
   tuple itself, so what a returned tuple costs is its [Some] (2 words) plus
   a share of the per-page and per-open work. *)
let words_per_tuple open_next =
  let drain next =
    let rec go n = match next () with Some _ -> go (n + 1) | None -> n in
    go 0
  in
  ignore (drain (open_next ()));
  let before = Gc.minor_words () in
  let n = drain (open_next ()) in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "returns thousands of tuples" true (n >= 3000);
  words /. float_of_int n

(* 3,000 versions, written by one committed transaction per 100, read under
   a statement snapshot: by a bare RSS segment scan and by the executor's
   compiled cursor over a one-node [Scan] plan. A TID record and a
   (TID, tuple) pair per NEXT, or a cursor re-wrapping the scan's tuple,
   would take either above the bound. *)
let test_words_per_tuple () =
  let bound = 3.0 in
  let db = Database.create ~buffer_pages:256 () in
  let cat = Database.catalog db in
  let mvcc = Engine.mvcc (Database.engine db) in
  let schema =
    Rel.Schema.make
      (List.map (fun name -> { Rel.Schema.name; ty = V.Tint }) [ "A"; "B"; "C" ])
  in
  let rel = Catalog.create_relation cat ~name:"T" ~schema in
  for i = 0 to 2999 do
    let xid = 1 + (i / 100) in
    if i mod 100 = 0 then Rss.Mvcc.begin_txn mvcc xid;
    ignore
      (Catalog.insert_tuple ~xmin:xid cat rel (t [ V.Int i; V.Int (i mod 50); V.Int (i * 7) ]));
    if i mod 100 = 99 then ignore (Rss.Mvcc.commit mvcc xid)
  done;
  let snap () = Rss.Mvcc.view mvcc (Rss.Mvcc.statement_snapshot mvcc) in
  let scan =
    words_per_tuple (fun () ->
        Rss.Scan.open_segment_scan rel.Catalog.segment ~rel_id:rel.Catalog.rel_id
          ~snap:(snap ()) ())
  in
  let r = Database.optimize db "SELECT * FROM T" in
  (match r.Optimizer.plan.Plan.node with
   | Plan.Scan { access = Plan.Seg_scan; _ } -> ()
   | _ -> Alcotest.fail "SELECT * FROM T is not one segment scan");
  let cursor =
    words_per_tuple (fun () ->
        Cursor.compile ~snap:(snap ()) cat r.Optimizer.block r.Optimizer.plan () )
  in
  Alcotest.(check bool)
    (Printf.sprintf "segment scan: %.2f words per tuple <= %.1f" scan bound)
    true (scan <= bound);
  Alcotest.(check bool)
    (Printf.sprintf "compiled cursor: %.2f words per tuple <= %.1f" cursor bound)
    true (cursor <= bound)

let () =
  Alcotest.run "sarg_scan"
    [ ( "sarg",
        [ Alcotest.test_case "eval_op" `Quick test_eval_op;
          Alcotest.test_case "DNF matching" `Quick test_dnf_matching;
          Alcotest.test_case "conjoin" `Quick test_conjoin;
          QCheck_alcotest.to_alcotest prop_compile_is_dnf ] );
      ( "scan",
        [ Alcotest.test_case "segment scan filters relation" `Quick
            test_segment_scan_returns_own_relation;
          Alcotest.test_case "segment scan page accounting" `Quick
            test_segment_scan_touches_every_page_once;
          Alcotest.test_case "sargs reduce RSI calls" `Quick
            test_segment_scan_sargs_cut_rsi;
          Alcotest.test_case "index scan range+order" `Quick
            test_index_scan_range_and_order;
          Alcotest.test_case "index scan with sargs" `Quick test_index_scan_with_sargs;
          Alcotest.test_case "segment scan = reference walk" `Quick
            test_segment_scan_matches_reference;
          Alcotest.test_case "protocol" `Quick test_scan_protocol;
          Alcotest.test_case "words per returned tuple" `Quick test_words_per_tuple ] ) ]
