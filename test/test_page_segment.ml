module V = Rel.Value
module T = Rel.Tuple

let tup n = T.make [ V.Int n; V.Str (Printf.sprintf "row-%04d" n) ]

(* --- page -------------------------------------------------------------- *)

let test_page_insert_get () =
  let p = Rss.Page.create ~id:7 in
  let s0 = Option.get (Rss.Page.insert p ~rel_id:1 (tup 0)) in
  let s1 = Option.get (Rss.Page.insert p ~rel_id:2 (tup 1)) in
  Alcotest.(check int) "slots distinct" 1 (abs (s1 - s0));
  (match Rss.Page.get_v p ~slot:s0 with
   | Some (rid, t, _, _) ->
     Alcotest.(check int) "rel id" 1 rid;
     Alcotest.(check bool) "tuple" true (T.equal t (tup 0))
   | None -> Alcotest.fail "slot 0 missing");
  Alcotest.(check int) "page id" 7 (Rss.Page.id p)

let test_page_fills_up () =
  let p = Rss.Page.create ~id:0 in
  let rec fill n =
    match Rss.Page.insert p ~rel_id:0 (tup n) with
    | Some _ -> fill (n + 1)
    | None -> n
  in
  let n = fill 0 in
  Alcotest.(check bool) "several tuples fit on 4K" true (n > 50);
  Alcotest.(check bool) "bounded by page size" true
    (Rss.Page.used_bytes p <= Rss.Page.size);
  Alcotest.(check bool) "free below record size" true
    (Rss.Page.free_space p < Rss.Page.record_bytes (tup 0))

let test_page_delete_tombstones () =
  let p = Rss.Page.create ~id:0 in
  let s0 = Option.get (Rss.Page.insert p ~rel_id:0 (tup 0)) in
  let s1 = Option.get (Rss.Page.insert p ~rel_id:0 (tup 1)) in
  Alcotest.(check bool) "delete live" true (Rss.Page.delete p ~slot:s0);
  Alcotest.(check bool) "delete dead" false (Rss.Page.delete p ~slot:s0);
  (match Rss.Page.get_v p ~slot:s1 with
   | Some (_, t, _, _) -> Alcotest.(check bool) "s1 intact" true (T.equal t (tup 1))
   | None -> Alcotest.fail "survivor lost");
  Alcotest.(check bool) "tombstone reads None" true (Rss.Page.get_v p ~slot:s0 = None);
  let live = ref 0 in
  Rss.Page.iter_versions p (fun _ _ _ _ _ -> incr live);
  Alcotest.(check int) "live count" 1 !live;
  Alcotest.(check bool) "not empty" false (Rss.Page.is_empty p);
  ignore (Rss.Page.delete p ~slot:s1);
  Alcotest.(check bool) "empty after all deleted" true (Rss.Page.is_empty p)

let test_page_oversized_tuple () =
  let p = Rss.Page.create ~id:0 in
  let big = T.make [ V.Str (String.make 5000 'x') ] in
  Alcotest.check_raises "too big"
    (Invalid_argument "Page.insert: tuple larger than a page") (fun () ->
      ignore (Rss.Page.insert p ~rel_id:0 big))

(* --- segment ----------------------------------------------------------- *)

let test_segment_insert_fetch () =
  let pager = Rss.Pager.create () in
  let seg = Rss.Segment.create pager in
  let tids = List.init 500 (fun i -> Rss.Segment.insert seg ~rel_id:3 (tup i)) in
  Alcotest.(check bool) "multiple pages used" true
    (List.length (Rss.Segment.page_ids seg) > 1);
  List.iteri
    (fun i tid ->
      match Rss.Segment.fetch_unaccounted_v seg tid with
      | Some (rid, t, _, _) ->
        if rid <> 3 || not (T.equal t (tup i)) then Alcotest.fail "wrong tuple"
      | None -> Alcotest.fail "missing tuple")
    tids;
  Alcotest.(check int) "tuple_count" 500 (Rss.Segment.tuple_count seg ~rel_id:3);
  Alcotest.(check int) "other rel empty" 0 (Rss.Segment.tuple_count seg ~rel_id:9)

let test_segment_shared_by_relations () =
  let pager = Rss.Pager.create () in
  let seg = Rss.Segment.create pager in
  for i = 0 to 99 do
    ignore (Rss.Segment.insert seg ~rel_id:1 (tup i));
    ignore (Rss.Segment.insert seg ~rel_id:2 (tup (1000 + i)))
  done;
  let t1 = Rss.Segment.pages_holding seg ~rel_id:1 in
  let t2 = Rss.Segment.pages_holding seg ~rel_id:2 in
  let nonempty = Rss.Segment.nonempty_page_count seg in
  (* per-relation policy: pages are homogeneous, so TCARDs partition pages *)
  Alcotest.(check int) "pages partition" nonempty (t1 + t2);
  Alcotest.(check bool) "P(T) < 1 for both" true (t1 < nonempty && t2 < nonempty)

let test_segment_first_fit_mixes_pages () =
  let pager = Rss.Pager.create () in
  let seg = Rss.Segment.create ~policy:Rss.Segment.First_fit pager in
  for i = 0 to 49 do
    ignore (Rss.Segment.insert seg ~rel_id:1 (tup i));
    ignore (Rss.Segment.insert seg ~rel_id:2 (tup (1000 + i)))
  done;
  let t1 = Rss.Segment.pages_holding seg ~rel_id:1 in
  let t2 = Rss.Segment.pages_holding seg ~rel_id:2 in
  let nonempty = Rss.Segment.nonempty_page_count seg in
  (* interleaved inserts share pages: TCARDs overlap *)
  Alcotest.(check bool) "pages shared" true (t1 + t2 > nonempty)

let test_segment_delete () =
  let pager = Rss.Pager.create () in
  let seg = Rss.Segment.create pager in
  let tid = Rss.Segment.insert seg ~rel_id:1 (tup 0) in
  Alcotest.(check bool) "delete" true (Rss.Segment.delete seg tid);
  Alcotest.(check bool) "gone" true (Rss.Segment.fetch_unaccounted_v seg tid = None);
  Alcotest.(check int) "count" 0 (Rss.Segment.tuple_count seg ~rel_id:1)

let () =
  Alcotest.run "page_segment"
    [ ( "page",
        [ Alcotest.test_case "insert/get" `Quick test_page_insert_get;
          Alcotest.test_case "fills up" `Quick test_page_fills_up;
          Alcotest.test_case "delete tombstones" `Quick test_page_delete_tombstones;
          Alcotest.test_case "oversized tuple" `Quick test_page_oversized_tuple ] );
      ( "segment",
        [ Alcotest.test_case "insert/fetch" `Quick test_segment_insert_fetch;
          Alcotest.test_case "shared segment" `Quick test_segment_shared_by_relations;
          Alcotest.test_case "first-fit mixing" `Quick test_segment_first_fit_mixes_pages;
          Alcotest.test_case "delete" `Quick test_segment_delete ] ) ]
