module V = Rel.Value
module T = Rel.Tuple

let tup n = T.make [ V.Int n; V.Str (Printf.sprintf "row-%04d" n) ]

(* --- page -------------------------------------------------------------- *)

let is_dead = function Rss.Page.Dead -> true | Rss.Page.Live _ -> false

let test_page_insert_get () =
  let p = Rss.Page.create ~id:7 in
  let s0 = Option.get (Rss.Page.insert p ~rel_id:1 (tup 0)) in
  let s1 = Option.get (Rss.Page.insert p ~rel_id:2 (tup 1)) in
  Alcotest.(check int) "slots distinct" 1 (abs (s1 - s0));
  (match Rss.Page.slot p s0 with
   | Rss.Page.Live { rel_id; tuple; _ } ->
     Alcotest.(check int) "rel id" 1 rel_id;
     Alcotest.(check bool) "tuple" true (T.equal tuple (tup 0))
   | Rss.Page.Dead -> Alcotest.fail "slot 0 missing");
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
  (match Rss.Page.slot p s1 with
   | Rss.Page.Live { tuple; _ } ->
     Alcotest.(check bool) "s1 intact" true (T.equal tuple (tup 1))
   | Rss.Page.Dead -> Alcotest.fail "survivor lost");
  Alcotest.(check bool) "tombstone reads Dead" true (is_dead (Rss.Page.slot p s0));
  let live = ref 0 in
  for i = 0 to Rss.Page.slots p - 1 do
    match Rss.Page.slot p i with Rss.Page.Live _ -> incr live | Rss.Page.Dead -> ()
  done;
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

let ncard seg ~rel_id =
  let n, _, _ = Rss.Segment.census seg ~rel_id in
  n

let test_segment_insert_fetch () =
  let pager = Rss.Pager.create () in
  let seg = Rss.Segment.create pager in
  let tids = List.init 500 (fun i -> Rss.Segment.insert seg ~rel_id:3 (tup i)) in
  Alcotest.(check bool) "multiple pages used" true
    (List.length (Rss.Segment.page_ids seg) > 1);
  List.iteri
    (fun i tid ->
      match Rss.Segment.slot seg tid with
      | Rss.Page.Live { rel_id; tuple; _ } ->
        if rel_id <> 3 || not (T.equal tuple (tup i)) then Alcotest.fail "wrong tuple"
      | Rss.Page.Dead -> Alcotest.fail "missing tuple")
    tids;
  Alcotest.(check int) "NCARD" 500 (ncard seg ~rel_id:3);
  Alcotest.(check int) "other rel empty" 0 (ncard seg ~rel_id:9)

let test_segment_shared_by_relations () =
  let pager = Rss.Pager.create () in
  let seg = Rss.Segment.create pager in
  for i = 0 to 99 do
    ignore (Rss.Segment.insert seg ~rel_id:1 (tup i));
    ignore (Rss.Segment.insert seg ~rel_id:2 (tup (1000 + i)))
  done;
  let _, t1, nonempty = Rss.Segment.census seg ~rel_id:1 in
  let _, t2, _ = Rss.Segment.census seg ~rel_id:2 in
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
  let _, t1, nonempty = Rss.Segment.census seg ~rel_id:1 in
  let _, t2, _ = Rss.Segment.census seg ~rel_id:2 in
  (* interleaved inserts share pages: TCARDs overlap *)
  Alcotest.(check bool) "pages shared" true (t1 + t2 > nonempty)

(* A First_fit segment two relations share, four pages: the first holds
   only delete-marked versions, the second mixes tombstones, delete marks
   and live versions, the third is emptied by tombstones and the fourth is
   partly filled. The census must match counts rebuilt from the log of
   what was done to each TID. *)
let test_segment_census () =
  let pager = Rss.Pager.create () in
  let seg = Rss.Segment.create ~policy:Rss.Segment.First_fit pager in
  let per_page = (Rss.Page.size - 16) / Rss.Page.record_bytes (tup 0) in
  let n = (3 * per_page) + 50 in
  let log =
    List.init n (fun i ->
        let rel_id = 1 + (i mod 2) in
        (i, rel_id, Rss.Segment.insert seg ~rel_id (tup i)))
  in
  let pages = Rss.Segment.page_ids seg in
  Alcotest.(check int) "four pages" 4 (List.length pages);
  let page_no tid =
    let rec go k = function
      | [] -> assert false
      | p :: rest -> if p = Rss.Tid.page tid then k else go (k + 1) rest
    in
    go 0 pages
  in
  (* [`Live], [`Marked] or [`Tombstone], per TID *)
  let log =
    List.map
      (fun (i, rel_id, tid) ->
        let state =
          match page_no tid with
          | 0 -> `Marked
          | 1 when i mod 3 = 0 -> `Tombstone
          | 1 when i mod 5 = 0 -> `Marked
          | 2 -> `Tombstone
          | 3 when i mod 4 = 1 -> `Marked
          | _ -> `Live
        in
        (match state with
         | `Marked -> Rss.Segment.set_xmax seg tid 7
         | `Tombstone -> ignore (Rss.Segment.delete seg tid)
         | `Live -> ());
        (rel_id, tid, state))
      log
  in
  let distinct_pages tids =
    List.length (List.sort_uniq Int.compare (List.map Rss.Tid.page tids))
  in
  let reference rel_id =
    let live =
      List.filter_map
        (fun (r, tid, st) -> if r = rel_id && st = `Live then Some tid else None)
        log
    in
    let present =
      List.filter_map (fun (_, tid, st) -> if st <> `Tombstone then Some tid else None) log
    in
    (List.length live, distinct_pages live, distinct_pages present)
  in
  List.iter
    (fun rel_id ->
      let ((live, tcard, nonempty) as got) = Rss.Segment.census seg ~rel_id in
      Alcotest.(check (triple int int int))
        (Printf.sprintf "rel %d = reference" rel_id)
        (reference rel_id) got;
      (* the marked-only page holds no NCARD version, yet is non-empty *)
      Alcotest.(check int) (Printf.sprintf "rel %d TCARD" rel_id) 2 tcard;
      Alcotest.(check int) "non-empty pages" 3 nonempty;
      Alcotest.(check bool) "NCARD excludes marked" true
        (live < List.length (List.filter (fun (r, _, st) -> r = rel_id && st <> `Tombstone) log)))
    [ 1; 2 ];
  Alcotest.(check int) "absent relation" 0 (ncard seg ~rel_id:3)

let test_segment_delete () =
  let pager = Rss.Pager.create () in
  let seg = Rss.Segment.create pager in
  let tid = Rss.Segment.insert seg ~rel_id:1 (tup 0) in
  Alcotest.(check bool) "delete" true (Rss.Segment.delete seg tid);
  Alcotest.(check bool) "gone" true (is_dead (Rss.Segment.slot seg tid));
  Alcotest.(check int) "count" 0 (ncard seg ~rel_id:1)

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
          Alcotest.test_case "delete" `Quick test_segment_delete;
          Alcotest.test_case "census = reference count" `Quick test_segment_census ] ) ]
