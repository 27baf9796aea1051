module V = Rel.Value
module B = Rss.Btree

let key i : B.key = [| V.Int i |]
let tid i = Rss.Tid.make ~page:i ~slot:(i mod 7)

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
      let tid_of (_, _, x) = Rss.Tid.make ~page:x ~slot:0 in
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
      let as_model (k, tid) =
        match k with
        | [| V.Int a; V.Int b |] -> (a, b, Rss.Tid.page tid)
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
        List.sort compare (List.map (fun (k, x) -> (k, Rss.Tid.page (tid x), Rss.Tid.slot (tid x))) !model)
      in
      let actual =
        B.entries t
        |> List.map (fun (k, t) ->
               ( (match k.(0) with V.Int i -> i | _ -> -1),
                 Rss.Tid.page t, Rss.Tid.slot t ))
        |> List.sort compare
      in
      expected = actual)

(* --- packed TIDs ----------------------------------------------------------- *)

let test_pack_boundary () =
  let ok page slot =
    let t = Rss.Tid.make ~page ~slot in
    Alcotest.(check (pair int int))
      (Printf.sprintf "%d.%d round-trips" page slot)
      (page, slot)
      (Rss.Tid.page t, Rss.Tid.slot t)
  in
  let bad page slot =
    match Rss.Tid.make ~page ~slot with
    | _ -> Alcotest.failf "%d.%d packed" page slot
    | exception Invalid_argument _ -> ()
  in
  ok 0 0;
  ok 0 65535;
  ok 12345 (Rss.Page.size / 8);
  ok (max_int lsr 16) 65535;
  bad 0 65536;
  bad 0 (-1);
  bad (-1) 0;
  bad ((max_int lsr 16) + 1) 0;
  (* a page holds at most one slot per 8 bytes: the guard never fires for a
     TID the pager hands out *)
  Alcotest.(check bool) "slots fit 16 bits" true (Rss.Page.size / 8 < 1 lsl 16)

(* (page, slot) pairs; the reference order is lexicographic on the pair *)
let tid_gen =
  QCheck.Gen.(
    pair
      (oneof [ int_bound 1000; int_bound (1 lsl 40) ])
      (oneof [ int_bound 8; int_bound 65535 ]))

let prop_pack_order =
  QCheck.Test.make ~name:"packed TIDs round-trip and order as Tid.compare"
    ~count:500
    (QCheck.make
       ~print:(fun ((p1, s1), (p2, s2)) -> Printf.sprintf "%d.%d %d.%d" p1 s1 p2 s2)
       (QCheck.Gen.pair tid_gen tid_gen))
    (fun (((p1, s1) as a), ((p2, s2) as b)) ->
      let sign x = Int.compare x 0 in
      let ta = Rss.Tid.make ~page:p1 ~slot:s1 and tb = Rss.Tid.make ~page:p2 ~slot:s2 in
      (Rss.Tid.page ta, Rss.Tid.slot ta) = a
      && sign (Rss.Tid.compare ta tb) = sign (compare a b)
      && Rss.Tid.equal ta tb = (a = b))

(* --- tree shape against the copy-on-insert tree ---------------------------- *)

(* The B-tree as it was before leaves became packed, in-place arrays: one
   (key, TID) pair per entry, every insert copying the node. Kept here as
   the shape oracle — the packed tree must split at exactly the same points,
   so NINDX, ICARD, plans and COST counts cannot move. *)
module Copy_tree = struct
  type entry = B.key * Rss.Tid.t

  let compare_entry ((k1, t1) : entry) ((k2, t2) : entry) =
    let d = B.compare_key k1 k2 in
    if d <> 0 then d else Rss.Tid.compare t1 t2

  type node =
    | Leaf of entry array ref
    | Internal of internal

  and internal = { mutable seps : entry array; mutable children : node array }

  type t = { order : int; mutable root : node }

  let create order = { order; root = Leaf (ref [||]) }

  let lower_bound arr ok =
    let lo = ref 0 and hi = ref (Array.length arr) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if ok arr.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let child_index n e = lower_bound n.seps (fun sep -> compare_entry sep e > 0)

  let insert_at arr i x =
    let n = Array.length arr in
    let out = Array.make (n + 1) x in
    Array.blit arr 0 out 0 i;
    Array.blit arr i out (i + 1) (n - i);
    out

  let remove_at arr i =
    Array.append (Array.sub arr 0 i) (Array.sub arr (i + 1) (Array.length arr - i - 1))

  let rec insert_node t node e =
    match node with
    | Leaf l ->
      let i = lower_bound !l (fun x -> compare_entry x e >= 0) in
      l := insert_at !l i e;
      let n = Array.length !l in
      if n <= t.order then None
      else begin
        let mid = n / 2 in
        let right = Array.sub !l mid (n - mid) in
        l := Array.sub !l 0 mid;
        Some (right.(0), Leaf (ref right))
      end
    | Internal n ->
      let i = child_index n e in
      (match insert_node t n.children.(i) e with
       | None -> None
       | Some (sep, right) ->
         n.seps <- insert_at n.seps i sep;
         n.children <- insert_at n.children (i + 1) right;
         let c = Array.length n.children in
         if c <= t.order then None
         else begin
           let mid = c / 2 in
           let up = n.seps.(mid - 1) in
           let right =
             { seps = Array.sub n.seps mid (Array.length n.seps - mid);
               children = Array.sub n.children mid (c - mid) }
           in
           n.seps <- Array.sub n.seps 0 (mid - 1);
           n.children <- Array.sub n.children 0 mid;
           Some (up, Internal right)
         end)

  let insert t k tid =
    match insert_node t t.root (k, tid) with
    | None -> ()
    | Some (sep, right) ->
      t.root <- Internal { seps = [| sep |]; children = [| t.root; right |] }

  let rec delete_node node e =
    match node with
    | Leaf l ->
      let i = lower_bound !l (fun x -> compare_entry x e >= 0) in
      if i < Array.length !l && compare_entry !l.(i) e = 0 then begin
        l := remove_at !l i;
        true
      end
      else false
    | Internal n ->
      let rec try_from i =
        if i < 0 then false
        else if delete_node n.children.(i) e then true
        else if i > 0 && compare_entry n.seps.(i - 1) e = 0 then try_from (i - 1)
        else false
      in
      try_from (child_index n e)

  let delete t k tid = delete_node t.root (k, tid)

  let rec leaves = function
    | Leaf l -> [ !l ]
    | Internal n -> List.concat_map leaves (Array.to_list n.children)

  let entries t = List.concat_map Array.to_list (leaves t.root)
  let leaf_sizes t = List.map Array.length (leaves t.root)

  let rec height = function Leaf _ -> 1 | Internal n -> 1 + height n.children.(0)

  let distinct_keys t =
    let rec go prev = function
      | [] -> 0
      | (k, _) :: rest ->
        (match prev with Some p when B.compare_key p k = 0 -> 0 | _ -> 1)
        + go (Some k) rest
    in
    go None (entries t)
end

type shape_op = Put of int * int | Drop of int * int

let shape_ops_gen ~keys ~max_ops =
  QCheck.Gen.(
    list_size (int_range 0 max_ops)
      (frequency
         [ (3, map2 (fun k x -> Put (k, x)) (int_bound keys) (int_bound 12));
           (1, map2 (fun k x -> Drop (k, x)) (int_bound keys) (int_bound 12)) ]))

let same_shape ~order ops =
  let t, _ = fresh ~order () in
  let c = Copy_tree.create order in
  (* TIDs repeat (x < 13), so (key, TID) pairs repeat too *)
  let tid_of x = Rss.Tid.make ~page:x ~slot:(x mod 3) in
  List.iter
    (function
      | Put (k, x) ->
        B.insert t (key k) (tid_of x);
        Copy_tree.insert c (key k) (tid_of x)
      | Drop (k, x) ->
        let a = B.delete t (key k) (tid_of x) in
        if a <> Copy_tree.delete c (key k) (tid_of x) then
          failwith "delete result differs")
    ops;
  (match B.check_invariants t with Ok () -> () | Error m -> failwith m);
  let entry_eq (k1, t1) (k2, t2) = B.compare_key k1 k2 = 0 && Rss.Tid.equal t1 t2 in
  let mine = B.entries t and theirs = Copy_tree.entries c in
  List.length mine = List.length theirs
  && List.for_all2 entry_eq mine theirs
  && B.leaf_sizes t = Copy_tree.leaf_sizes c
  && B.leaf_pages t = List.length (Copy_tree.leaf_sizes c)
  && B.height t = Copy_tree.height c.Copy_tree.root
  && B.distinct_keys t = Copy_tree.distinct_keys c
  && B.entry_count t = List.length theirs

let show_shape_ops ops =
  String.concat ";"
    (List.map
       (function
         | Put (k, x) -> Printf.sprintf "+%d/%d" k x
         | Drop (k, x) -> Printf.sprintf "-%d/%d" k x)
       ops)

let prop_shape_order4 =
  QCheck.Test.make ~name:"order 4: same shape as the copy-on-insert tree" ~count:300
    (QCheck.make ~print:show_shape_ops (shape_ops_gen ~keys:40 ~max_ops:300))
    (same_shape ~order:4)

let prop_shape_order128 =
  QCheck.Test.make ~name:"order 128: same shape as the copy-on-insert tree" ~count:20
    (QCheck.make ~print:show_shape_ops (shape_ops_gen ~keys:400 ~max_ops:6000))
    (same_shape ~order:128)

(* --- footprint ----------------------------------------------------------------- *)

(* Words reachable from the tree but not from its pager, per entry, for a
   10,000-entry single-INT index loaded in the given key order. Each entry
   owns its one-value key (array + boxed INT, 4 words), a key slot and a
   packed-TID slot; the rest is spare leaf capacity and upper levels. *)
let words_per_entry keys =
  let t, pager = fresh () in
  Array.iter
    (fun k -> B.insert t (key k) (Rss.Tid.make ~page:(k / 50) ~slot:(k mod 50)))
    keys;
  let words = Obj.reachable_words (Obj.repr t) - Obj.reachable_words (Obj.repr pager) in
  float_of_int words /. float_of_int (Array.length keys)

let test_footprint () =
  let n = 10_000 in
  let ascending = Array.init n Fun.id in
  let shuffled = Array.copy ascending in
  let st = Random.State.make [| 24 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = shuffled.(i) in
    shuffled.(i) <- shuffled.(j);
    shuffled.(j) <- x
  done;
  List.iter
    (fun (name, keys) ->
      let w = words_per_entry keys in
      if w > 8.0 then Alcotest.failf "%s load: %.2f words per entry (> 8)" name w)
    [ ("ascending", ascending); ("random", shuffled) ]

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
            test_engine_integration_small_order;
          Alcotest.test_case "packed TID boundary" `Quick test_pack_boundary;
          Alcotest.test_case "footprint: <= 8 words per entry" `Quick
            test_footprint ] );
      ( "props",
        List.map QCheck_alcotest.to_alcotest
          [ prop_model; prop_cursor_model; prop_pack_order; prop_shape_order4;
            prop_shape_order128 ] ) ]
