module V = Rel.Value
module B = Rss.Btree

let key i : B.key = [| V.Int i |]
let tid i = { Rss.Tid.page = i; slot = i mod 7 }

let fresh ?order () =
  let pager = Rss.Pager.create () in
  (B.create ?order pager, pager)

let ok = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant violated: " ^ msg)

let drain next =
  let rec go acc = match next () with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

let test_insert_lookup () =
  let t, _ = fresh ~order:4 () in
  for i = 0 to 199 do
    B.insert t (key i) (tid i)
  done;
  ok (B.check_invariants t);
  for i = 0 to 199 do
    match B.lookup t (key i) with
    | [ x ] -> if not (Rss.Tid.equal x (tid i)) then Alcotest.fail "wrong tid"
    | l -> Alcotest.fail (Printf.sprintf "key %d: %d tids" i (List.length l))
  done;
  Alcotest.(check (list Alcotest.reject)) "missing key" []
    (List.map (fun _ -> ()) (B.lookup t (key 999)));
  Alcotest.(check int) "entries" 200 (B.entry_count t);
  Alcotest.(check int) "distinct" 200 (B.distinct_keys t);
  Alcotest.(check bool) "height grew" true (B.height t > 1)

let test_duplicates () =
  let t, _ = fresh ~order:4 () in
  for i = 0 to 9 do
    for j = 0 to 4 do
      B.insert t (key i) (tid (100 * i + j))
    done
  done;
  ok (B.check_invariants t);
  Alcotest.(check int) "entries" 50 (B.entry_count t);
  Alcotest.(check int) "distinct" 10 (B.distinct_keys t);
  Alcotest.(check int) "dup tids" 5 (List.length (B.lookup t (key 3)))

let test_range_scan () =
  let t, _ = fresh ~order:6 () in
  List.iter (fun i -> B.insert t (key i) (tid i)) [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ];
  let got lo hi =
    B.range_cursor
      ?lo:(Option.map (fun (v, k) -> ([| V.Int v |], k)) lo)
      ?hi:(Option.map (fun (v, k) -> ([| V.Int v |], k)) hi)
      t
    |> drain
    |> List.map (fun (k, _) -> match k.(0) with V.Int i -> i | _ -> -1)
  in
  Alcotest.(check (list int)) "full" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (got None None);
  Alcotest.(check (list int)) "closed" [ 3; 4; 5; 6 ]
    (got (Some (3, `Inclusive)) (Some (6, `Inclusive)));
  Alcotest.(check (list int)) "open lo" [ 4; 5; 6 ]
    (got (Some (3, `Exclusive)) (Some (6, `Inclusive)));
  Alcotest.(check (list int)) "open hi" [ 3; 4; 5 ]
    (got (Some (3, `Inclusive)) (Some (6, `Exclusive)));
  Alcotest.(check (list int)) "empty range" []
    (got (Some (7, `Exclusive)) (Some (7, `Exclusive)))

let test_composite_prefix_bounds () =
  let t, _ = fresh ~order:4 () in
  (* key = (NAME, LOCATION) *)
  List.iter
    (fun (a, b) -> B.insert t [| V.Str a; V.Str b |] (tid (Hashtbl.hash (a, b))))
    [ ("SMITH", "SAN JOSE"); ("SMITH", "DENVER"); ("JONES", "DENVER");
      ("ADAMS", "BOSTON"); ("SMITH", "AUSTIN"); ("YOUNG", "DENVER") ];
  let smiths =
    drain
      (B.range_cursor
         ~lo:([| V.Str "SMITH" |], `Inclusive)
         ~hi:([| V.Str "SMITH" |], `Inclusive)
         t)
  in
  Alcotest.(check int) "prefix matches all SMITH" 3 (List.length smiths);
  (* full-key bound *)
  let exact =
    drain
      (B.range_cursor
         ~lo:([| V.Str "SMITH"; V.Str "DENVER" |], `Inclusive)
         ~hi:([| V.Str "SMITH"; V.Str "DENVER" |], `Inclusive)
         t)
  in
  Alcotest.(check int) "exact composite" 1 (List.length exact)

let test_delete () =
  let t, _ = fresh ~order:4 () in
  for i = 0 to 99 do
    B.insert t (key i) (tid i)
  done;
  for i = 0 to 99 do
    if i mod 2 = 0 then
      Alcotest.(check bool) "delete ok" true (B.delete t (key i) (tid i))
  done;
  Alcotest.(check bool) "absent delete" false (B.delete t (key 0) (tid 0));
  ok (B.check_invariants t);
  Alcotest.(check int) "entries" 50 (B.entry_count t);
  for i = 0 to 99 do
    let expect = if i mod 2 = 0 then 0 else 1 in
    Alcotest.(check int)
      (Printf.sprintf "lookup %d" i)
      expect
      (List.length (B.lookup t (key i)))
  done

let test_min_max () =
  let t, _ = fresh () in
  Alcotest.(check bool) "empty min" true (B.min_key t = None);
  List.iter (fun i -> B.insert t (key i) (tid i)) [ 42; 7; 99; 13 ];
  Alcotest.(check bool) "min" true (B.min_key t = Some [| V.Int 7 |]);
  Alcotest.(check bool) "max" true (B.max_key t = Some [| V.Int 99 |])

let test_leaf_pages_grow () =
  let t, _ = fresh ~order:4 () in
  Alcotest.(check int) "one leaf initially" 1 (B.leaf_pages t);
  for i = 0 to 99 do
    B.insert t (key i) (tid i)
  done;
  Alcotest.(check bool) "many leaves" true (B.leaf_pages t > 10)

let test_scan_accounting () =
  let pager = Rss.Pager.create ~buffer_pages:4 () in
  let t = B.create ~order:4 pager in
  for i = 0 to 199 do
    B.insert t (key i) (tid i)
  done;
  let c = Rss.Pager.counters pager in
  let leaves = B.leaf_pages t in
  (* a full walk in either direction charges every leaf page once *)
  List.iter
    (fun (dir, open_cursor) ->
      Rss.Counters.reset c;
      Rss.Pager.evict_all pager;
      Alcotest.(check int) (dir ^ " all entries") 200
        (List.length (drain (open_cursor t)));
      Alcotest.(check bool) (dir ^ " fetches cover leaves") true
        (c.Rss.Counters.page_fetches >= leaves);
      Alcotest.(check bool) (dir ^ " fetches bounded") true
        (c.Rss.Counters.page_fetches <= leaves + B.height t))
    [ ("asc", fun t -> B.range_cursor t); ("desc", fun t -> B.range_cursor_desc t) ];
  (* the unaccounted listing neither charges a page nor touches the pool *)
  Rss.Counters.reset c;
  Alcotest.(check int) "unaccounted same entries" 200 (List.length (B.entries t));
  Alcotest.(check int) "unaccounted fetches" 0 c.Rss.Counters.page_fetches;
  Alcotest.(check int) "unaccounted hits" 0 c.Rss.Counters.buffer_hits

let test_desc_scan () =
  let t, _ = fresh ~order:4 () in
  List.iter (fun i -> B.insert t (key i) (tid i)) [ 5; 1; 9; 3; 7; 2; 8; 4; 6; 0 ];
  let got lo hi =
    B.range_cursor_desc
      ?lo:(Option.map (fun (v, k) -> ([| V.Int v |], k)) lo)
      ?hi:(Option.map (fun (v, k) -> ([| V.Int v |], k)) hi)
      t
    |> drain
    |> List.map (fun (k, _) -> match k.(0) with V.Int i -> i | _ -> -1)
  in
  Alcotest.(check (list int)) "full desc" [ 9; 8; 7; 6; 5; 4; 3; 2; 1; 0 ]
    (got None None);
  Alcotest.(check (list int)) "bounded desc" [ 6; 5; 4; 3 ]
    (got (Some (3, `Inclusive)) (Some (6, `Inclusive)));
  Alcotest.(check (list int)) "exclusive hi" [ 5; 4 ]
    (got (Some (4, `Inclusive)) (Some (6, `Exclusive)));
  Alcotest.(check (list int)) "empty" [] (got (Some (11, `Inclusive)) None)

(* --- the range cursor against a model ----------------------------------- *)

(* Random trees of composite (A, B) keys at small orders, with duplicate
   keys and deletes, probed with random bounds: absent, a full key or a
   one-column prefix, inclusive or exclusive. The ascending cursor must
   yield exactly the model's sorted entry list filtered by the bounds, and
   the descending cursor its reverse. *)
type cursor_case = {
  order : int;
  inserts : (int * int * int) list;  (* (a, b, TID page) *)
  deletes : int list;                (* positions into [inserts] *)
  lo : (int list * bool) option;     (* bound values, inclusive? *)
  hi : (int list * bool) option;
}

let cursor_case_gen =
  QCheck.Gen.(
    let bound =
      opt
        (pair
           (oneof [ map (fun a -> [ a ]) (int_bound 7);
                    map2 (fun a b -> [ a; b ]) (int_bound 7) (int_bound 3) ])
           bool)
    in
    map
      (fun ((order, inserts, deletes), (lo, hi)) ->
        { order; inserts; deletes; lo; hi })
      (pair
         (triple (int_range 4 8)
            (list_size (int_range 0 150)
               (triple (int_bound 7) (int_bound 3) (int_bound 30)))
            (list_size (int_range 0 60) nat))
         (pair bound bound)))

let show_cursor_case c =
  let bound = function
    | None -> "-"
    | Some (vs, incl) ->
      Printf.sprintf "%s(%s)" (if incl then "incl" else "excl")
        (String.concat "," (List.map string_of_int vs))
  in
  Printf.sprintf "order=%d inserts=[%s] deletes=[%s] lo=%s hi=%s" c.order
    (String.concat ";"
       (List.map (fun (a, b, x) -> Printf.sprintf "%d,%d/%d" a b x) c.inserts))
    (String.concat ";" (List.map string_of_int c.deletes))
    (bound c.lo) (bound c.hi)

let prop_cursor_model =
  QCheck.Test.make ~name:"cursor = bounded sorted-list model" ~count:500
    (QCheck.make ~print:show_cursor_case cursor_case_gen)
    (fun c ->
      let t, _ = fresh ~order:c.order () in
      let key (a, b, _) = [| V.Int a; V.Int b |] in
      let tid_of (_, _, x) = { Rss.Tid.page = x; slot = 0 } in
      List.iter (fun e -> B.insert t (key e) (tid_of e)) c.inserts;
      let model = ref c.inserts in
      let n = List.length c.inserts in
      List.iter
        (fun i ->
          let e = List.nth c.inserts (i mod n) in
          if B.delete t (key e) (tid_of e) then begin
            (* drop one occurrence of [e] from the model *)
            let rec drop = function
              | [] -> failwith "tree deleted an entry the model lacks"
              | x :: rest -> if x = e then rest else x :: drop rest
            in
            model := drop !model
          end)
        (if n = 0 then [] else c.deletes);
      (* a bound compares only on its own length: a prefix bound *)
      let cmp_prefix vs (a, b, _) =
        compare vs (List.filteri (fun i _ -> i < List.length vs) [ a; b ])
      in
      let lo_ok e =
        match c.lo with
        | None -> true
        | Some (vs, incl) ->
          let d = cmp_prefix vs e in
          if incl then d <= 0 else d < 0
      in
      let hi_ok e =
        match c.hi with
        | None -> true
        | Some (vs, incl) ->
          let d = cmp_prefix vs e in
          if incl then d >= 0 else d > 0
      in
      let expected =
        List.sort compare !model |> List.filter (fun e -> lo_ok e && hi_ok e)
      in
      let bound = function
        | None -> None
        | Some (vs, incl) ->
          Some
            ( Array.of_list (List.map (fun v -> V.Int v) vs),
              if incl then `Inclusive else `Exclusive )
      in
      let lo = bound c.lo and hi = bound c.hi in
      let as_model (k, (tid : Rss.Tid.t)) =
        match k with
        | [| V.Int a; V.Int b |] -> (a, b, tid.page)
        | _ -> failwith "unexpected key shape"
      in
      let asc = List.map as_model (drain (B.range_cursor ?lo ?hi t)) in
      let desc = List.map as_model (drain (B.range_cursor_desc ?lo ?hi t)) in
      asc = expected && desc = List.rev expected)

let test_bad_order () =
  let pager = Rss.Pager.create () in
  Alcotest.check_raises "order" (Invalid_argument "Btree.create: order < 4")
    (fun () -> ignore (B.create ~order:2 pager))

(* --- model-based property --------------------------------------------- *)

type op =
  | Ins of int * int
  | Del of int * int

let op_gen =
  QCheck.Gen.(
    oneof
      [ map2 (fun k t -> Ins (k, t)) (int_bound 50) (int_bound 20);
        map2 (fun k t -> Del (k, t)) (int_bound 50) (int_bound 20) ])

let show_op = function
  | Ins (k, t) -> Printf.sprintf "Ins(%d,%d)" k t
  | Del (k, t) -> Printf.sprintf "Del(%d,%d)" k t

let prop_model =
  QCheck.Test.make ~name:"btree matches sorted-list model" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 120) op_gen))
    (fun ops ->
      let t, _ = fresh ~order:4 () in
      let model = ref [] in
      List.iter
        (fun op ->
          match op with
          | Ins (k, x) ->
            B.insert t (key k) (tid x);
            model := (k, x) :: !model
          | Del (k, x) ->
            let present = List.mem (k, x) !model in
            let deleted = B.delete t (key k) (tid x) in
            if deleted <> present then failwith "delete mismatch";
            if present then begin
              let removed = ref false in
              model :=
                List.filter
                  (fun e ->
                    if e = (k, x) && not !removed then begin
                      removed := true;
                      false
                    end
                    else true)
                  !model
            end)
        ops;
      (match B.check_invariants t with
       | Ok () -> ()
       | Error m -> failwith m);
      let expected =
        List.sort compare (List.map (fun (k, x) -> (k, (tid x).Rss.Tid.page, (tid x).Rss.Tid.slot)) !model)
      in
      let actual =
        B.entries t
        |> List.map (fun (k, t) ->
               ( (match k.(0) with V.Int i -> i | _ -> -1),
                 t.Rss.Tid.page, t.Rss.Tid.slot ))
        |> List.sort compare
      in
      expected = actual)

(* Engine integration: with the debug order override forcing order-4 trees
   (as the crash-torture harness does), a modest engine-level DML workload
   drives real leaf and internal splits; the B-tree invariants and the
   engine's heap/index integrity check must hold after inserts and
   deletes. *)
let test_engine_integration_small_order () =
  B.set_order_override (Some 4);
  Fun.protect
    ~finally:(fun () -> B.set_order_override None)
    (fun () ->
      let db = Database.create () in
      ignore
        (Database.exec_script db
           "CREATE TABLE S (K INT, V INT);\nCREATE INDEX S_K ON S (K);");
      for k = 0 to 60 do
        ignore
          (Database.exec db
             (Printf.sprintf "INSERT INTO S VALUES (%d, %d)" (k * 13 mod 61) k))
      done;
      ignore (Database.exec db "DELETE FROM S WHERE K < 20");
      (match Catalog.find_index (Database.catalog db) "S_K" with
       | Some idx ->
         (match B.check_invariants idx.Catalog.btree with
          | Ok () -> ()
          | Error m -> Alcotest.fail m);
         Alcotest.(check bool) "order-4 tree actually split" true
           (B.leaf_pages idx.Catalog.btree > 1)
       | None -> Alcotest.fail "S_K missing");
      match Database.check_integrity db with
      | Ok () -> ()
      | Error m -> Alcotest.failf "integrity: %s" m)

let () =
  Alcotest.run "btree"
    [ ( "unit",
        [ Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
          Alcotest.test_case "duplicates" `Quick test_duplicates;
          Alcotest.test_case "range scan" `Quick test_range_scan;
          Alcotest.test_case "composite prefix bounds" `Quick test_composite_prefix_bounds;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "leaf pages grow" `Quick test_leaf_pages_grow;
          Alcotest.test_case "scan accounting" `Quick test_scan_accounting;
          Alcotest.test_case "descending scan" `Quick test_desc_scan;
          Alcotest.test_case "bad order" `Quick test_bad_order;
          Alcotest.test_case "engine DML at order 4" `Quick
            test_engine_integration_small_order ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_model; prop_cursor_model ] ) ]
