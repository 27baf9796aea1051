module V = Rel.Value
module T = Rel.Tuple

let tup i j = T.make [ V.Int i; V.Int j; V.Str (Printf.sprintf "pad-%06d" (i * 1000 + j)) ]

(* --- temp lists --------------------------------------------------------- *)

let dispenser_of_list xs =
  let rest = ref xs in
  fun () ->
    match !rest with
    | [] -> None
    | t :: tl ->
      rest := tl;
      Some t

let drain_cursor next =
  let rec go acc = match next () with None -> List.rev acc | Some t -> go (t :: acc) in
  go []

let test_temp_roundtrip () =
  let pager = Rss.Pager.create () in
  let tl =
    Rss.Temp_list.of_dispenser pager
      (dispenser_of_list (List.init 500 (fun i -> tup i 0)))
  in
  Alcotest.(check int) "length" 500 (Rss.Temp_list.length tl);
  Alcotest.(check bool) "TEMPPAGES > 1" true (Rss.Temp_list.page_count tl > 1);
  let back = drain_cursor (Rss.Temp_list.cursor tl) in
  Alcotest.(check int) "all back" 500 (List.length back);
  List.iteri
    (fun i t -> if not (T.equal t (tup i 0)) then Alcotest.fail "order broken")
    back

let test_temp_accounting () =
  let pager = Rss.Pager.create ~buffer_pages:200 () in
  let c = Rss.Pager.counters pager in
  let tl = Rss.Temp_list.of_array pager (Array.init 500 (fun i -> tup i 0)) in
  let written = c.Rss.Counters.pages_written in
  Alcotest.(check int) "writes = TEMPPAGES" (Rss.Temp_list.page_count tl) written;
  Rss.Counters.reset c;
  Rss.Pager.evict_all pager;
  ignore (drain_cursor (Rss.Temp_list.cursor tl));
  Alcotest.(check int) "reads = TEMPPAGES" (Rss.Temp_list.page_count tl)
    c.Rss.Counters.page_fetches

let test_temp_empty () =
  let pager = Rss.Pager.create () in
  let c = Rss.Pager.counters pager in
  List.iter
    (fun (name, tl) ->
      Alcotest.(check int) (name ^ " empty length") 0 (Rss.Temp_list.length tl);
      Alcotest.(check int) (name ^ " no pages") 0 (Rss.Temp_list.page_count tl);
      Alcotest.(check bool) (name ^ " empty cursor") true
        (Rss.Temp_list.cursor tl () = None))
    [ ("of_array", Rss.Temp_list.of_array pager [||]);
      ("of_dispenser", Rss.Temp_list.of_dispenser pager (fun () -> None)) ];
  Alcotest.(check int) "nothing written" 0 c.Rss.Counters.pages_written

(* [of_array] and [of_dispenser] must cut identical pages — the same tuples
   on each page — and the index cursor must charge one access per page.
   Tuple sizes vary so the page-cut rule decides where each page ends. *)
let test_temp_of_array_cursor () =
  let pager = Rss.Pager.create ~buffer_pages:200 () in
  let c = Rss.Pager.counters pager in
  let tuples =
    Array.init 500 (fun i -> T.make [ V.Int i; V.Str (String.make (i * 7 mod 97) 'x') ])
  in
  let via_array = Rss.Temp_list.of_array pager tuples in
  let via_dispenser =
    Rss.Temp_list.of_dispenser pager (dispenser_of_list (Array.to_list tuples))
  in
  Alcotest.(check int) "same length" (Rss.Temp_list.length via_array)
    (Rss.Temp_list.length via_dispenser);
  Alcotest.(check int) "same TEMPPAGES" (Rss.Temp_list.page_count via_array)
    (Rss.Temp_list.page_count via_dispenser);
  (* the cursor charges a page fetch (cold pool) as it enters each page: the
     tuple indices where the count moves are the page starts *)
  let page_starts tl =
    Rss.Pager.evict_all pager;
    let next = Rss.Temp_list.cursor tl in
    let rec go i acc =
      let before = c.Rss.Counters.page_fetches in
      match next () with
      | None -> List.rev acc
      | Some _ ->
        go (i + 1) (if c.Rss.Counters.page_fetches > before then i :: acc else acc)
    in
    go 0 []
  in
  let starts = page_starts via_array in
  Alcotest.(check (list int)) "of_array and of_dispenser cut identical pages" starts
    (page_starts via_dispenser);
  Alcotest.(check int) "one start per page" (Rss.Temp_list.page_count via_array)
    (List.length starts);
  let by_array = drain_cursor (Rss.Temp_list.cursor via_array) in
  let by_dispenser = drain_cursor (Rss.Temp_list.cursor via_dispenser) in
  Alcotest.(check bool) "of_array and of_dispenser hold the same tuples" true
    (List.for_all2 T.equal by_array by_dispenser
     && List.for_all2 T.equal by_array (Array.to_list tuples));
  Rss.Counters.reset c;
  Rss.Pager.evict_all pager;
  ignore (drain_cursor (Rss.Temp_list.cursor via_array));
  Alcotest.(check int) "cursor accounting = TEMPPAGES"
    (Rss.Temp_list.page_count via_array)
    c.Rss.Counters.page_fetches

(* --- sort ---------------------------------------------------------------- *)

(* The executor's sort: [sort_stream] drained into a list. *)
let sort ?run_pages ?fan_in pager ~key tuples =
  drain_cursor
    (Rss.Sort.sort_stream ?run_pages ?fan_in pager ~key (dispenser_of_list tuples))

let ints_of = List.map (fun t -> match T.get t 0 with V.Int i -> i | _ -> -1)

let pairs_of =
  List.map (fun t ->
      match T.get t 0, T.get t 1 with
      | V.Int a, V.Int b -> (a, b)
      | _ -> (-1, -1))

let test_sort_basic () =
  let pager = Rss.Pager.create ~buffer_pages:4 () in
  let input = [ 5; 3; 9; 1; 4; 1; 8; 0; 7 ] in
  let got = sort pager ~key:[ (0, Rss.Sort.Asc) ] (List.map (fun i -> tup i 0) input) in
  Alcotest.(check (list int)) "sorted" (List.sort compare input) (ints_of got)

let test_sort_desc_and_multikey () =
  let pager = Rss.Pager.create () in
  let input = [ (1, 2); (0, 9); (1, 1); (0, 3); (2, 0) ] in
  let got =
    sort pager
      ~key:[ (0, Rss.Sort.Asc); (1, Rss.Sort.Desc) ]
      (List.map (fun (i, j) -> tup i j) input)
  in
  Alcotest.(check (list (pair int int))) "multi-key"
    [ (0, 9); (0, 3); (1, 2); (1, 1); (2, 0) ]
    (pairs_of got)

let test_sort_stability () =
  let pager = Rss.Pager.create ~buffer_pages:2 () in
  (* many equal keys; payload column records input order *)
  let n = 1000 in
  let got =
    pairs_of
      (sort pager ~key:[ (0, Rss.Sort.Asc) ] (List.init n (fun i -> tup (i mod 3) i)))
  in
  (* within each key the payload must be increasing *)
  let rec check prev = function
    | [] -> true
    | (k, p) :: rest ->
      (match List.assoc_opt k prev with
       | Some last when last > p -> false
       | _ -> check ((k, p) :: List.remove_assoc k prev) rest)
  in
  Alcotest.(check bool) "stable" true (check [] got);
  Alcotest.(check int) "all present" n (List.length got)

let test_sort_external_multipass () =
  (* tiny buffer forces runs + merge passes *)
  let pager = Rss.Pager.create ~buffer_pages:2 () in
  let n = 3000 in
  let rng = Random.State.make [| 7 |] in
  let data = Array.init n (fun _ -> Random.State.int rng 10000) in
  let got =
    ints_of
      (sort ~run_pages:1 ~fan_in:2 pager ~key:[ (0, Rss.Sort.Asc) ]
         (List.init n (fun i -> tup data.(i) i)))
  in
  Alcotest.(check int) "count" n (List.length got);
  Alcotest.(check (list int)) "sorted" (List.sort compare (Array.to_list data)) got

let test_sort_empty_and_single () =
  let pager = Rss.Pager.create () in
  Alcotest.(check int) "empty" 0
    (List.length (sort pager ~key:[ (0, Rss.Sort.Asc) ] []));
  Alcotest.(check (list int)) "single" [ 1 ]
    (ints_of (sort pager ~key:[ (0, Rss.Sort.Asc) ] [ tup 1 1 ]))

let test_passes_estimate () =
  Alcotest.(check int) "zero tuples" 0
    (Rss.Sort.passes ~buffer_pages:10 ~tuples:0 ~tuples_per_page:50. ());
  Alcotest.(check int) "fits one run" 1
    (Rss.Sort.passes ~buffer_pages:10 ~tuples:400 ~tuples_per_page:50. ());
  let p = Rss.Sort.passes ~run_pages:1 ~fan_in:2 ~buffer_pages:2 ~tuples:400 ~tuples_per_page:50. () in
  Alcotest.(check bool) "multi pass" true (p >= 3)

(* Spill observability: a sort forced into many runs reports its run count
   and merge levels through the counters, consistent with the [passes]
   predictor's shape (observed passes = run formation + merge levels). *)
let test_spill_counters () =
  let pager = Rss.Pager.create ~buffer_pages:2 () in
  let c = Rss.Pager.counters pager in
  Rss.Counters.reset c;
  let n = 3000 in
  let got =
    sort ~run_pages:1 ~fan_in:2 pager ~key:[ (0, Rss.Sort.Asc) ]
      (List.init n (fun i -> tup (n - i) i))
  in
  Alcotest.(check int) "all tuples" n (List.length got);
  Alcotest.(check bool) "several runs" true (c.Rss.Counters.sort_runs > 1);
  Alcotest.(check bool) "merge levels" true (c.Rss.Counters.merge_passes >= 1);
  (* each merge level at fan_in=2 at least halves the runs *)
  let bound =
    int_of_float (ceil (log (float_of_int c.Rss.Counters.sort_runs) /. log 2.))
  in
  Alcotest.(check bool) "levels <= ceil(log2 runs)" true
    (c.Rss.Counters.merge_passes <= bound);
  (* an in-memory sort spills nothing to merge *)
  Rss.Counters.reset c;
  let small =
    sort pager ~key:[ (0, Rss.Sort.Asc) ] (List.init 10 (fun i -> tup i 0))
  in
  Alcotest.(check int) "one run" 1 c.Rss.Counters.sort_runs;
  Alcotest.(check int) "no merges" 0 c.Rss.Counters.merge_passes;
  Alcotest.(check int) "sorted anyway" 10 (List.length small)

let prop_sort_matches_list_sort =
  QCheck.Test.make ~name:"external sort = List.sort" ~count:100
    QCheck.(list (int_bound 1000))
    (fun xs ->
      let pager = Rss.Pager.create ~buffer_pages:2 () in
      ints_of
        (sort ~run_pages:1 pager ~key:[ (0, Rss.Sort.Asc) ]
           (List.map (fun i -> tup i 0) xs))
      = List.sort compare xs)

(* Heap k-way merge vs the List.stable_sort oracle on duplicate-heavy keys:
   run_pages=1 forces many runs, small fan_in forces several heap-merge
   levels, and keys drawn from a tiny domain make almost every comparison a
   tie — the payload column (input position) must come back in input order
   within each key, which is exactly stability. Checked as exact (key,
   payload) list equality, so ordering and stability fail loudly. *)
let prop_heap_merge_stable =
  QCheck.Test.make ~name:"heap merge: ordering + stability vs stable_sort oracle"
    ~count:60
    QCheck.(pair (int_range 2 4) (list_of_size Gen.(int_range 0 400) (int_bound 4)))
    (fun (fan_in, keys) ->
      let pager = Rss.Pager.create ~buffer_pages:2 () in
      let input = List.mapi (fun i k -> (k, i)) keys in
      let got =
        pairs_of
          (sort ~run_pages:1 ~fan_in pager ~key:[ (0, Rss.Sort.Asc) ]
             (List.map (fun (k, i) -> tup k i) input))
      in
      let oracle =
        List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) input
      in
      got = oracle)

(* [sort_stream] against the List.stable_sort oracle (under the same tuple
   comparator) in the three merge regimes: all-Int first columns (runs
   carry the normalized-key cache), string keys (cache disabled,
   full-comparator path), a multi-column key whose first-column ties
   fall through to the comparator, and NULL-heavy mixed-type columns under an
   ASC, DESC key. *)
let prop_stream_stable_sort =
  QCheck.Test.make ~name:"sort_stream = List.stable_sort" ~count:60
    QCheck.(pair (int_range 2 4) (list (int_bound 5)))
    (fun (fan_in, ks) ->
      let agree ~key tuples =
        let pager = Rss.Pager.create ~buffer_pages:2 () in
        let got = sort ~run_pages:1 ~fan_in pager ~key tuples in
        let oracle = List.stable_sort (Rss.Sort.compare_tuples key) tuples in
        List.length got = List.length oracle && List.for_all2 T.equal got oracle
      in
      let ints = List.mapi (fun i k -> tup k i) ks in
      let strs =
        List.mapi
          (fun i k -> T.make [ V.Str (Printf.sprintf "s%02d" k); V.Int i ])
          ks
      in
      let mixed =
        List.mapi
          (fun i k ->
            let v j =
              match (k + j) mod 4 with
              | 0 -> V.Null
              | 1 -> V.Int k
              | 2 -> V.Str (Printf.sprintf "s%d" k)
              | _ -> V.Float (float_of_int k)
            in
            T.make [ v 0; v i; V.Int i ])
          ks
      in
      agree ~key:[ (0, Rss.Sort.Asc) ] ints
      && agree ~key:[ (0, Rss.Sort.Asc); (1, Rss.Sort.Desc) ] ints
      && agree ~key:[ (0, Rss.Sort.Asc) ] strs
      && agree ~key:[ (0, Rss.Sort.Asc); (1, Rss.Sort.Desc) ] mixed)

let () =
  Alcotest.run "sort_temp"
    [ ( "temp_list",
        [ Alcotest.test_case "roundtrip" `Quick test_temp_roundtrip;
          Alcotest.test_case "accounting" `Quick test_temp_accounting;
          Alcotest.test_case "empty" `Quick test_temp_empty;
          Alcotest.test_case "of_array + cursor" `Quick test_temp_of_array_cursor ] );
      ( "sort",
        [ Alcotest.test_case "basic" `Quick test_sort_basic;
          Alcotest.test_case "desc + multikey" `Quick test_sort_desc_and_multikey;
          Alcotest.test_case "stability" `Quick test_sort_stability;
          Alcotest.test_case "external multipass" `Quick test_sort_external_multipass;
          Alcotest.test_case "empty/single" `Quick test_sort_empty_and_single;
          Alcotest.test_case "passes estimate" `Quick test_passes_estimate;
          Alcotest.test_case "spill counters" `Quick test_spill_counters ] );
      ( "props",
        [ QCheck_alcotest.to_alcotest prop_sort_matches_list_sort;
          QCheck_alcotest.to_alcotest prop_heap_merge_stable;
          QCheck_alcotest.to_alcotest prop_stream_stable_sort ] ) ]
