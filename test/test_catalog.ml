module V = Rel.Value
module T = Rel.Tuple

let schema cols =
  Rel.Schema.make (List.map (fun (name, ty) -> { Rel.Schema.name; ty }) cols)

let emp_schema = schema [ ("NAME", V.Tstr); ("DNO", V.Tint); ("SAL", V.Tint) ]

let setup () =
  let cat = Catalog.create () in
  let emp = Catalog.create_relation cat ~name:"EMP" ~schema:emp_schema in
  (cat, emp)

let load cat emp n =
  for i = 0 to n - 1 do
    ignore
      (Catalog.insert_tuple cat emp
         (T.make
            [ V.Str (Printf.sprintf "E%04d" i); V.Int (i mod 10);
              V.Int (10000 + i) ]))
  done

let test_relation_lifecycle () =
  let cat, emp = setup () in
  Alcotest.(check bool) "found" true (Catalog.find_relation cat "emp" = Some emp);
  Alcotest.(check bool) "missing" true (Catalog.find_relation cat "NOPE" = None);
  Alcotest.(check int) "listed" 1 (List.length (Catalog.relations cat));
  (match Catalog.create_relation cat ~name:"EMP" ~schema:emp_schema with
   | _ -> Alcotest.fail "duplicate relation accepted"
   | exception Invalid_argument _ -> ())

let test_insert_maintains_indexes () =
  let cat, emp = setup () in
  let idx = Catalog.create_index cat ~name:"EMP_DNO" ~rel:emp ~columns:[ "DNO" ] ~clustered:false in
  load cat emp 100;
  Alcotest.(check int) "index entries" 100 (Rss.Btree.entry_count idx.Catalog.btree);
  (* key extraction *)
  let t = T.make [ V.Str "X"; V.Int 3; V.Int 1 ] in
  Alcotest.(check bool) "key_of" true
    (Rss.Btree.compare_key (Catalog.key_of idx t) [| V.Int 3 |] = 0)

let test_index_bulk_load_existing () =
  let cat, emp = setup () in
  load cat emp 50;
  let idx = Catalog.create_index cat ~name:"EMP_DNO" ~rel:emp ~columns:[ "DNO" ] ~clustered:false in
  Alcotest.(check int) "bulk loaded" 50 (Rss.Btree.entry_count idx.Catalog.btree);
  (* index creation is DDL: it must not leak into measured counters *)
  let c = Rss.Pager.counters (Catalog.pager cat) in
  Alcotest.(check int) "no fetch charge" 0 c.Rss.Counters.page_fetches;
  Alcotest.(check int) "no rsi charge" 0 c.Rss.Counters.rsi_calls

let test_index_errors () =
  let cat, emp = setup () in
  (match Catalog.create_index cat ~name:"I" ~rel:emp ~columns:[ "NOPE" ] ~clustered:false with
   | _ -> Alcotest.fail "unknown column accepted"
   | exception Invalid_argument _ -> ());
  ignore (Catalog.create_index cat ~name:"I" ~rel:emp ~columns:[ "DNO" ] ~clustered:false);
  (match Catalog.create_index cat ~name:"I" ~rel:emp ~columns:[ "SAL" ] ~clustered:false with
   | _ -> Alcotest.fail "duplicate index accepted"
   | exception Invalid_argument _ -> ())

let test_delete_maintains_indexes () =
  let cat, emp = setup () in
  let idx = Catalog.create_index cat ~name:"EMP_DNO" ~rel:emp ~columns:[ "DNO" ] ~clustered:false in
  load cat emp 100;
  let victims =
    List.filter
      (fun (_, t, _, _) -> match T.get t 1 with V.Int d -> d = 3 | _ -> false)
      (Catalog.scan_versions emp)
  in
  let deleted =
    List.filter (fun (tid, t, _, _) -> Catalog.delete_tid cat emp tid t) victims
  in
  Alcotest.(check int) "deleted" 10 (List.length deleted);
  Alcotest.(check int) "index shrunk" 90 (Rss.Btree.entry_count idx.Catalog.btree);
  Alcotest.(check int) "lookup gone" 0
    (List.length (Rss.Btree.lookup idx.Catalog.btree [| V.Int 3 |]));
  Alcotest.(check int) "heap shrunk" 90 (List.length (Catalog.scan_versions emp));
  (* a dead slot is reported and leaves the indexes alone *)
  let tid, t, _, _ = List.hd victims in
  Alcotest.(check bool) "already dead" false (Catalog.delete_tid cat emp tid t);
  Alcotest.(check int) "index unchanged" 90 (Rss.Btree.entry_count idx.Catalog.btree)

let test_schema_mismatch_rejected () =
  let cat, emp = setup () in
  (match Catalog.insert_tuple cat emp (T.make [ V.Int 1; V.Int 2; V.Int 3 ]) with
   | _ -> Alcotest.fail "bad tuple accepted"
   | exception Invalid_argument _ -> ())

(* --- statistics ---------------------------------------------------------- *)

let test_update_statistics () =
  let cat, emp = setup () in
  load cat emp 1000;
  let idx = Catalog.create_index cat ~name:"EMP_DNO" ~rel:emp ~columns:[ "DNO" ] ~clustered:false in
  Alcotest.(check bool) "no stats before" true (emp.Catalog.rstats = None);
  Catalog.update_statistics cat;
  (match emp.Catalog.rstats with
   | None -> Alcotest.fail "no relation stats"
   | Some s ->
     Alcotest.(check int) "NCARD" 1000 s.Stats.ncard;
     (* each EMP record takes 2 + 8 + 9 + 9 tuple bytes + 8 of slot
        overhead = 36, so a 4K page (16-byte header) holds 113 of them and
        1,000 fill 9 pages *)
     Alcotest.(check int) "TCARD" 9 s.Stats.tcard;
     Alcotest.(check (float 1e-9)) "P = 1 (sole relation)" 1.0 s.Stats.p);
  (match idx.Catalog.istats with
   | None -> Alcotest.fail "no index stats"
   | Some s ->
     Alcotest.(check int) "ICARD" 10 s.Stats.icard;
     Alcotest.(check int) "NINDX" (Rss.Btree.leaf_pages idx.Catalog.btree) s.Stats.nindx;
     Alcotest.(check bool) "low key" true (s.Stats.low_key = Some (V.Int 0));
     Alcotest.(check bool) "high key" true (s.Stats.high_key = Some (V.Int 9)))

let test_cluster_ratio () =
  let cat = Catalog.create () in
  let rel = Catalog.create_relation cat ~name:"R" ~schema:(schema [ ("K", V.Tint); ("PAD", V.Tstr) ]) in
  (* load in key order: consecutive index entries land on the same pages *)
  for i = 0 to 999 do
    ignore
      (Catalog.insert_tuple cat rel
         (T.make [ V.Int i; V.Str (String.make 64 'x') ]))
  done;
  let clustered = Catalog.create_index cat ~name:"R_K" ~rel ~columns:[ "K" ] ~clustered:true in
  Catalog.update_statistics cat;
  let cr = (Option.get clustered.Catalog.istats).Stats.cluster_ratio in
  Alcotest.(check bool) "clustered ratio high" true (cr > 0.9);
  (* a random-order column is far less clustered *)
  let cat2 = Catalog.create () in
  let rel2 = Catalog.create_relation cat2 ~name:"R" ~schema:(schema [ ("K", V.Tint); ("PAD", V.Tstr) ]) in
  let rng = Random.State.make [| 5 |] in
  for _ = 0 to 999 do
    ignore
      (Catalog.insert_tuple cat2 rel2
         (T.make [ V.Int (Random.State.int rng 100000); V.Str (String.make 64 'x') ]))
  done;
  let scattered = Catalog.create_index cat2 ~name:"R_K" ~rel:rel2 ~columns:[ "K" ] ~clustered:false in
  Catalog.update_statistics cat2;
  let cr2 = (Option.get scattered.Catalog.istats).Stats.cluster_ratio in
  Alcotest.(check bool) "unclustered ratio low" true (cr2 < 0.5)

let test_shared_segment_p () =
  let cat = Catalog.create () in
  let seg = Rss.Segment.create (Catalog.pager cat) in
  let r1 = Catalog.create_relation ~segment:seg cat ~name:"A" ~schema:emp_schema in
  let r2 = Catalog.create_relation ~segment:seg cat ~name:"B" ~schema:emp_schema in
  load cat r1 300;
  load cat r2 300;
  Catalog.update_statistics cat;
  let p1 = (Option.get r1.Catalog.rstats).Stats.p in
  let p2 = (Option.get r2.Catalog.rstats).Stats.p in
  Alcotest.(check bool) "P < 1 on shared segment" true (p1 < 1.0 && p2 < 1.0);
  Alcotest.(check (float 0.01)) "P sums to 1 (homogeneous pages)" 1.0 (p1 +. p2)

(* UPDATE STATISTICS on a First_fit segment shared by two relations, with
   delete-marked versions: A and B are inserted alternately (36-byte
   records, 113 to a page, so pages 0 and 1 are full and page 2 holds the
   last 74), then every A version on page 0 and every A row whose number is
   a multiple of 3 is delete-marked. A keeps rows 58..149 not divisible by
   3 (62), all on pages 1 and 2; B keeps all 150, on every page. *)
let test_statistics_shared_first_fit () =
  let cat = Catalog.create () in
  let seg = Rss.Segment.create ~policy:Rss.Segment.First_fit (Catalog.pager cat) in
  let a = Catalog.create_relation ~segment:seg cat ~name:"A" ~schema:emp_schema in
  let b = Catalog.create_relation ~segment:seg cat ~name:"B" ~schema:emp_schema in
  let row i = T.make [ V.Str (Printf.sprintf "E%04d" i); V.Int (i mod 10); V.Int (10000 + i) ] in
  for i = 0 to 149 do
    let tid = Catalog.insert_tuple cat a (row i) in
    if Rss.Tid.page tid = 0 || i mod 3 = 0 then Catalog.mark_delete a tid 7;
    ignore (Catalog.insert_tuple cat b (row i))
  done;
  Catalog.update_statistics cat;
  let check_rel name rel ~ncard ~tcard ~p cols =
    let s = Option.get rel.Catalog.rstats in
    Alcotest.(check int) (name ^ " NCARD") ncard s.Stats.ncard;
    Alcotest.(check int) (name ^ " TCARD") tcard s.Stats.tcard;
    Alcotest.(check (float 1e-9)) (name ^ " P") p s.Stats.p;
    List.iteri
      (fun c (distinct, buckets, lo, hi) ->
        let h = rel.Catalog.cstats.(c).Stats.hist in
        let what = Printf.sprintf "%s column %d " name c in
        Alcotest.(check int) (what ^ "rows") ncard (Histogram.rows h);
        Alcotest.(check int) (what ^ "nulls") 0 h.Histogram.nulls;
        Alcotest.(check int) (what ^ "distinct") distinct (Histogram.distinct h);
        Alcotest.(check int) (what ^ "buckets") buckets (Array.length h.Histogram.buckets);
        Alcotest.(check bool) (what ^ "low") true (V.equal lo h.Histogram.buckets.(0).Histogram.b_lo);
        Alcotest.(check bool) (what ^ "high") true
          (V.equal hi h.Histogram.buckets.(buckets - 1).Histogram.b_hi))
      cols
  in
  check_rel "A" a ~ncard:62 ~tcard:2 ~p:(2. /. 3.)
    [ (62, 31, V.Str "E0058", V.Str "E0149"); (10, 10, V.Int 0, V.Int 9);
      (62, 31, V.Int 10058, V.Int 10149) ];
  check_rel "B" b ~ncard:150 ~tcard:3 ~p:1.
    [ (150, 30, V.Str "E0000", V.Str "E0149"); (10, 10, V.Int 0, V.Int 9);
      (150, 30, V.Int 10000, V.Int 10149) ]

let test_multi_column_index () =
  let cat, emp = setup () in
  load cat emp 100;
  let idx =
    Catalog.create_index cat ~name:"EMP_DNO_SAL" ~rel:emp
      ~columns:[ "DNO"; "SAL" ] ~clustered:false
  in
  Catalog.update_statistics cat;
  let s = Option.get idx.Catalog.istats in
  Alcotest.(check int) "composite icard = 100 distinct" 100 s.Stats.icard;
  (* low/high taken from the first key column *)
  Alcotest.(check bool) "low is DNO 0" true (s.Stats.low_key = Some (V.Int 0))

let () =
  Alcotest.run "catalog"
    [ ( "catalog",
        [ Alcotest.test_case "relation lifecycle" `Quick test_relation_lifecycle;
          Alcotest.test_case "insert maintains indexes" `Quick test_insert_maintains_indexes;
          Alcotest.test_case "bulk load existing" `Quick test_index_bulk_load_existing;
          Alcotest.test_case "index errors" `Quick test_index_errors;
          Alcotest.test_case "delete maintains indexes" `Quick
            test_delete_maintains_indexes;
          Alcotest.test_case "schema mismatch" `Quick test_schema_mismatch_rejected ] );
      ( "statistics",
        [ Alcotest.test_case "update statistics" `Quick test_update_statistics;
          Alcotest.test_case "cluster ratio" `Quick test_cluster_ratio;
          Alcotest.test_case "shared segment P" `Quick test_shared_segment_p;
          Alcotest.test_case "statistics on a shared First_fit segment" `Quick
            test_statistics_shared_first_fit;
          Alcotest.test_case "multi-column index" `Quick test_multi_column_index ] ) ]
