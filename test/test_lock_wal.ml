module L = Rss.Lock_table
module W = Rss.Wal
module V = Rel.Value
module T = Rel.Tuple

let rel r = L.Relation r

(* --- lock table ---------------------------------------------------------- *)

let test_shared_compatible () =
  let lt = L.create () in
  Alcotest.(check bool) "t1 S" true (L.acquire lt 1 (rel 0) L.Shared = L.Granted);
  Alcotest.(check bool) "t2 S" true (L.acquire lt 2 (rel 0) L.Shared = L.Granted);
  Alcotest.(check int) "two holders" 2 (List.length (L.holders lt (rel 0)))

let test_exclusive_conflicts () =
  let lt = L.create () in
  ignore (L.acquire lt 1 (rel 0) L.Exclusive);
  (match L.acquire lt 2 (rel 0) L.Shared with
   | L.Blocked [ 1 ] -> ()
   | _ -> Alcotest.fail "expected Blocked by t1");
  (match L.acquire lt 3 (rel 0) L.Exclusive with
   | L.Blocked _ -> ()
   | _ -> Alcotest.fail "expected Blocked");
  Alcotest.(check int) "queue" 2 (List.length (L.waiting lt (rel 0)))

let test_reacquire_and_upgrade () =
  let lt = L.create () in
  ignore (L.acquire lt 1 (rel 0) L.Shared);
  Alcotest.(check bool) "re-S" true (L.acquire lt 1 (rel 0) L.Shared = L.Granted);
  Alcotest.(check bool) "upgrade alone" true
    (L.acquire lt 1 (rel 0) L.Exclusive = L.Granted);
  Alcotest.(check bool) "holds X" true (L.holds lt 1 (rel 0) L.Exclusive);
  Alcotest.(check bool) "X covers S" true (L.holds lt 1 (rel 0) L.Shared);
  (* upgrade with another holder blocks *)
  let lt2 = L.create () in
  ignore (L.acquire lt2 1 (rel 0) L.Shared);
  ignore (L.acquire lt2 2 (rel 0) L.Shared);
  (match L.acquire lt2 1 (rel 0) L.Exclusive with
   | L.Blocked [ 2 ] -> ()
   | _ -> Alcotest.fail "upgrade should block on t2")

let test_release_grants_queue () =
  let lt = L.create () in
  ignore (L.acquire lt 1 (rel 0) L.Exclusive);
  ignore (L.acquire lt 2 (rel 0) L.Shared);
  ignore (L.acquire lt 3 (rel 0) L.Shared);
  L.release_all lt 1;
  Alcotest.(check bool) "t2 granted" true (L.holds lt 2 (rel 0) L.Shared);
  Alcotest.(check bool) "t3 granted" true (L.holds lt 3 (rel 0) L.Shared);
  Alcotest.(check int) "granted events" 2 (List.length (L.granted_since lt 1));
  Alcotest.(check int) "queue empty" 0 (List.length (L.waiting lt (rel 0)))

let test_fair_queue_no_jumping () =
  let lt = L.create () in
  ignore (L.acquire lt 1 (rel 0) L.Shared);
  ignore (L.acquire lt 2 (rel 0) L.Exclusive);  (* queued behind t1 *)
  (* t3's S would be compatible with t1's S but must not jump over t2 *)
  (match L.acquire lt 3 (rel 0) L.Shared with
   | L.Blocked _ -> ()
   | _ -> Alcotest.fail "t3 must queue behind t2");
  L.release_all lt 1;
  Alcotest.(check bool) "t2 got X" true (L.holds lt 2 (rel 0) L.Exclusive);
  Alcotest.(check bool) "t3 still waits" false (L.holds lt 3 (rel 0) L.Shared)

let test_deadlock_detection () =
  let lt = L.create () in
  ignore (L.acquire lt 1 (rel 0) L.Exclusive);
  ignore (L.acquire lt 2 (rel 1) L.Exclusive);
  (match L.acquire lt 1 (rel 1) L.Exclusive with
   | L.Blocked [ 2 ] -> ()
   | _ -> Alcotest.fail "t1 should block on t2");
  (match L.acquire lt 2 (rel 0) L.Exclusive with
   | L.Deadlock cycle ->
     Alcotest.(check bool) "cycle mentions both" true
       (List.mem 1 cycle || List.mem 2 cycle)
   | _ -> Alcotest.fail "expected Deadlock")

let test_tuple_granularity () =
  let lt = L.create () in
  let r1 = L.Tuple_of (0, Rss.Tid.make ~page:1 ~slot:0) in
  let r2 = L.Tuple_of (0, Rss.Tid.make ~page:1 ~slot:1) in
  ignore (L.acquire lt 1 r1 L.Exclusive);
  Alcotest.(check bool) "different tuples independent" true
    (L.acquire lt 2 r2 L.Exclusive = L.Granted)

(* A sole holder's Shared→Exclusive upgrade with waiters already queued is a
   deadlock, not a queue-jump: t1 cannot get X until t2's queued X drains,
   and t2 cannot be granted while t1 holds S. The old fast path granted the
   upgrade past the queue, starving t2 behind an arbitrarily long string of
   upgraders; now the upgrader is told Deadlock immediately so it can abort
   and retry, and the queue proceeds in arrival order. *)
let test_upgrade_with_queued_waiters () =
  let lt = L.create () in
  Alcotest.(check bool) "t1 S" true (L.acquire lt 1 (rel 0) L.Shared = L.Granted);
  (match L.acquire lt 2 (rel 0) L.Exclusive with
   | L.Blocked [ 1 ] -> ()
   | _ -> Alcotest.fail "t2 X should block on t1");
  (match L.acquire lt 3 (rel 0) L.Shared with
   | L.Blocked _ -> ()
   | _ -> Alcotest.fail "t3 S must queue behind t2");
  (match L.acquire lt 1 (rel 0) L.Exclusive with
   | L.Deadlock cycle ->
     Alcotest.(check bool) "cycle names the upgrader or its blocker" true
       (List.mem 1 cycle || List.mem 2 cycle)
   | L.Granted -> Alcotest.fail "upgrade must not jump the queue"
   | L.Blocked _ ->
     Alcotest.fail "queued-behind-own-block is an undetected deadlock");
  (* the upgrader aborts; everyone queued proceeds in arrival order *)
  L.release_all lt 1;
  Alcotest.(check bool) "t2 first in line gets X" true
    (L.holds lt 2 (rel 0) L.Exclusive);
  Alcotest.(check bool) "t3 still waits behind t2's X" false
    (L.holds lt 3 (rel 0) L.Shared);
  L.release_all lt 2;
  Alcotest.(check bool) "t3 granted after t2" true
    (L.holds lt 3 (rel 0) L.Shared)

(* Two S holders racing to upgrade: each needs the other to release first.
   The second upgrade request must come back Deadlock (the classic
   lost-update trap), never leave both Blocked forever. *)
let test_two_upgraders_deadlock () =
  let lt = L.create () in
  ignore (L.acquire lt 1 (rel 0) L.Shared);
  ignore (L.acquire lt 2 (rel 0) L.Shared);
  (match L.acquire lt 1 (rel 0) L.Exclusive with
   | L.Blocked [ 2 ] -> ()
   | _ -> Alcotest.fail "t1's upgrade should block on t2's S");
  (match L.acquire lt 2 (rel 0) L.Exclusive with
   | L.Deadlock cycle ->
     Alcotest.(check bool) "cycle mentions both upgraders" true
       (List.mem 1 cycle || List.mem 2 cycle)
   | _ -> Alcotest.fail "second upgrader must be refused as Deadlock");
  (* t2 aborts; t1's pending upgrade is promoted *)
  L.release_all lt 2;
  Alcotest.(check bool) "t1 upgraded after t2 aborts" true
    (L.holds lt 1 (rel 0) L.Exclusive)

let test_release_grant_arrival_order () =
  let lt = L.create () in
  ignore (L.acquire lt 1 (rel 0) L.Exclusive);
  ignore (L.acquire lt 2 (rel 0) L.Shared);
  ignore (L.acquire lt 3 (rel 0) L.Shared);
  ignore (L.acquire lt 4 (rel 0) L.Exclusive);
  L.release_all lt 1;
  Alcotest.(check bool) "t2 granted" true (L.holds lt 2 (rel 0) L.Shared);
  Alcotest.(check bool) "t3 granted" true (L.holds lt 3 (rel 0) L.Shared);
  Alcotest.(check bool) "t4's X incompatible, still queued" false
    (L.holds lt 4 (rel 0) L.Exclusive);
  (* grants happened in arrival order: t2 before t3 *)
  (match List.rev (L.granted_since lt 1) with
   | [ (2, _, L.Shared); (3, _, L.Shared) ] -> ()
   | l ->
     Alcotest.failf "expected grants [t2 S; t3 S] in arrival order, got %d"
       (List.length l));
  L.release_all lt 2;
  L.release_all lt 3;
  Alcotest.(check bool) "t4 granted after both readers leave" true
    (L.holds lt 4 (rel 0) L.Exclusive);
  (* across resources, grants follow the releaser's acquisition order *)
  ignore (L.acquire lt 5 (rel 1) L.Exclusive);
  ignore (L.acquire lt 5 (rel 2) L.Exclusive);
  ignore (L.acquire lt 6 (rel 2) L.Shared);
  ignore (L.acquire lt 7 (rel 1) L.Shared);
  L.release_all lt 5;
  Alcotest.(check (list int)) "t7 (rel 1) before t6 (rel 2)" [ 7; 6 ]
    (List.rev_map (fun (w, _, _) -> w) (L.granted_since lt 5))

(* A three-transaction cycle across mixed granularities: t1 waits on t2's
   tuple lock, t2 waits on t3's relation lock, and t3 closing the loop on
   t1's relation is refused as a deadlock naming all three. *)
let test_deadlock_three_txns_mixed_resources () =
  let lt = L.create () in
  let ra = rel 0 in
  let rb = L.Tuple_of (1, Rss.Tid.make ~page:3 ~slot:1) in
  let rc = rel 2 in
  ignore (L.acquire lt 1 ra L.Exclusive);
  ignore (L.acquire lt 2 rb L.Exclusive);
  ignore (L.acquire lt 3 rc L.Exclusive);
  (match L.acquire lt 1 rb L.Shared with
   | L.Blocked [ 2 ] -> ()
   | _ -> Alcotest.fail "t1 should block on t2's tuple lock");
  (match L.acquire lt 2 rc L.Exclusive with
   | L.Blocked [ 3 ] -> ()
   | _ -> Alcotest.fail "t2 should block on t3");
  (match L.acquire lt 3 ra L.Shared with
   | L.Deadlock cycle ->
     List.iter
       (fun tx ->
         Alcotest.(check bool)
           (Printf.sprintf "cycle mentions t%d" tx)
           true (List.mem tx cycle))
       [ 1; 2; 3 ]
   | _ -> Alcotest.fail "expected a three-transaction deadlock")

(* --- model test: the full-scan lock table as reference ------------------- *)

(* The lock table before releases were indexed per transaction: every entry
   ever created stays, and release_all filters and promotes all of them.
   Acquire and promotion are the same rules. *)
module Model = struct
  type entry = {
    mutable holders : (L.txn * L.mode) list;
    mutable queue : (L.txn * L.mode) list;
  }

  type t = {
    table : (L.resource, entry) Hashtbl.t;
    waits_for : (L.txn, L.txn list) Hashtbl.t;
    mutable last_granted : (L.txn * L.resource * L.mode) list;
  }

  let create () =
    { table = Hashtbl.create 8; waits_for = Hashtbl.create 8; last_granted = [] }

  let entry t r =
    match Hashtbl.find_opt t.table r with
    | Some e -> e
    | None ->
      let e = { holders = []; queue = [] } in
      Hashtbl.replace t.table r e;
      e

  let conflicting_holders e txn mode =
    List.filter_map
      (fun (h, hm) ->
        if h = txn || (mode = L.Shared && hm = L.Shared) then None else Some h)
      e.holders

  let find_cycle t waiter blockers =
    let rec reachable seen tx =
      if tx = waiter then Some (List.rev (tx :: seen))
      else if List.mem tx seen then None
      else
        List.find_map (reachable (tx :: seen))
          (Option.value (Hashtbl.find_opt t.waits_for tx) ~default:[])
    in
    List.find_map (reachable []) blockers

  let grant e txn mode =
    e.holders <- (txn, mode) :: List.filter (fun (h, _) -> h <> txn) e.holders

  let acquire t txn r mode =
    let e = entry t r in
    match List.assoc_opt txn e.holders with
    | Some held when held = mode || held = L.Exclusive -> L.Granted
    | held ->
      let want = if held = Some L.Shared then L.Exclusive else mode in
      let conflicts = conflicting_holders e txn want in
      let queued_ahead =
        List.filter_map (fun (w, _) -> if w = txn then None else Some w) e.queue
      in
      if conflicts = [] && queued_ahead = [] then (grant e txn want; L.Granted)
      else
        let blockers = conflicts @ queued_ahead in
        match find_cycle t txn blockers with
        | Some cycle -> L.Deadlock cycle
        | None ->
          e.queue <- e.queue @ [ (txn, want) ];
          Hashtbl.replace t.waits_for txn
            (blockers
            @ Option.value (Hashtbl.find_opt t.waits_for txn) ~default:[]);
          L.Blocked blockers

  let promote t r e =
    let rec go () =
      match e.queue with
      | (w, wm) :: rest when conflicting_holders e w wm = [] ->
        e.queue <- rest;
        grant e w wm;
        Hashtbl.remove t.waits_for w;
        t.last_granted <- (w, r, wm) :: t.last_granted;
        go ()
      | _ -> ()
    in
    go ()

  let release_all t txn =
    Hashtbl.remove t.waits_for txn;
    t.last_granted <- [];
    Hashtbl.iter
      (fun r e ->
        e.holders <- List.filter (fun (h, _) -> h <> txn) e.holders;
        e.queue <- List.filter (fun (w, _) -> w <> txn) e.queue;
        promote t r e)
      t.table

  let get t r f =
    match Hashtbl.find_opt t.table r with None -> [] | Some e -> f e

  let holds t txn r mode =
    match List.assoc_opt txn (get t r (fun e -> e.holders)) with
    | Some L.Exclusive -> true
    | Some L.Shared -> mode = L.Shared
    | None -> false

  let live t =
    Hashtbl.fold
      (fun _ e n -> if e.holders = [] && e.queue = [] then n else n + 1)
      t.table 0
end

(* Seeded random acquire / release_all sequences over 3–5
   transactions and a few relation and tuple resources, S and X: after
   every step the indexed table must agree with the full-scan model on the
   outcome, holds, holders, waiting and (as multisets) granted_since, and
   keep exactly the entries something holds or awaits. *)
let test_model_random_sequences () =
  let rng = Random.State.make [| 2020 |] in
  let resources =
    [| rel 0; rel 1;
       L.Tuple_of (0, Rss.Tid.make ~page:1 ~slot:0);
       L.Tuple_of (0, Rss.Tid.make ~page:1 ~slot:1);
       L.Tuple_of (1, Rss.Tid.make ~page:2 ~slot:0) |]
  in
  let seen = Hashtbl.create 8 in
  let note what = Hashtbl.replace seen what () in
  for run = 1 to 300 do
    let lt = L.create () and m = Model.create () in
    let ntx = 3 + Random.State.int rng 3 in
    for step = 1 to 60 do
      let txn = 1 + Random.State.int rng ntx in
      let r = resources.(Random.State.int rng (Array.length resources)) in
      let fail fmt =
        Alcotest.failf ("run %d step %d: " ^^ fmt) run step
      in
      (match Random.State.int rng 10 with
       | 0 | 1 ->
         L.release_all lt txn;
         Model.release_all m txn;
         if L.granted_since lt txn <> [] then note "promotion"
       | _ ->
         let mode = if Random.State.bool rng then L.Shared else L.Exclusive in
         if L.holds lt txn r L.Shared && mode = L.Exclusive then note "upgrade";
         let got = L.acquire lt txn r mode in
         if got <> Model.acquire m txn r mode then fail "acquire outcomes differ";
         note
           (match got with
            | L.Granted -> "granted"
            | L.Blocked _ -> "blocked"
            | L.Deadlock _ -> "deadlock"));
      Array.iter
        (fun r ->
          if L.holders lt r <> Model.get m r (fun e -> e.Model.holders) then
            fail "holders differ";
          if L.waiting lt r <> Model.get m r (fun e -> e.Model.queue) then
            fail "waiting differs";
          for tx = 1 to ntx do
            List.iter
              (fun mode ->
                if L.holds lt tx r mode <> Model.holds m tx r mode then
                  fail "holds differs for t%d" tx)
              [ L.Shared; L.Exclusive ]
          done)
        resources;
      if List.sort compare (L.granted_since lt txn)
         <> List.sort compare m.Model.last_granted
      then fail "granted_since differs";
      if L.length lt <> Model.live m then
        fail "%d live entries, model has %d" (L.length lt) (Model.live m)
    done
  done;
  List.iter
    (fun what ->
      if not (Hashtbl.mem seen what) then
        Alcotest.failf "the random sequences never hit %s" what)
    [ "granted"; "blocked"; "deadlock"; "upgrade"; "promotion" ]

(* Entries live exactly as long as a holder or waiter: a Deadlock adds
   none, releases drop emptied entries, and a queued request its
   transaction gives up on leaves nothing behind once that transaction
   releases. *)
let test_entries_die_with_last_holder () =
  let lt = L.create () in
  ignore (L.acquire lt 1 (rel 0) L.Exclusive);
  ignore (L.acquire lt 2 (rel 1) L.Exclusive);
  ignore (L.acquire lt 1 (rel 1) L.Exclusive);
  (match L.acquire lt 2 (rel 0) L.Shared with
   | L.Deadlock _ -> ()
   | _ -> Alcotest.fail "t2 closing the loop must deadlock");
  Alcotest.(check int) "rel 0 and rel 1" 2 (L.length lt);
  L.release_all lt 2;
  Alcotest.(check bool) "t1 promoted" true (L.holds lt 1 (rel 1) L.Exclusive);
  L.release_all lt 1;
  Alcotest.(check int) "empty after both release" 0 (L.length lt);
  ignore (L.acquire lt 3 (rel 5) L.Exclusive);
  (match L.acquire lt 4 (rel 5) L.Shared with
   | L.Blocked [ 3 ] -> ()
   | _ -> Alcotest.fail "t4 should queue behind t3");
  L.release_all lt 4;
  Alcotest.(check int) "t4 no longer waits" 0 (List.length (L.waiting lt (rel 5)));
  L.release_all lt 3;
  Alcotest.(check int) "given-up request left nothing" 0 (L.length lt)

(* --- WAL ------------------------------------------------------------------ *)

let tid p s = Rss.Tid.make ~page:p ~slot:s

let sample_records =
  [ W.Begin 1;
    W.Insert { txn = 1; rel_id = 4; tid = tid 2 0; tuple = T.make [ V.Int 7; V.Str "x" ] };
    W.Delete { txn = 1; rel_id = 4; tid = tid 2 0; tuple = T.make [ V.Int 7; V.Str "x" ] };
    W.Commit 1;
    W.Begin 2;
    W.Abort 2 ]

let test_wal_roundtrip () =
  let wal = W.create () in
  List.iter (W.append wal) sample_records;
  W.flush wal;
  let bytes = W.to_bytes wal in
  Alcotest.(check int) "byte size" (String.length bytes) (W.byte_size wal);
  let wal2 = W.of_bytes bytes in
  let r1 = W.records wal and r2 = W.records wal2 in
  Alcotest.(check int) "count" (List.length r1) (List.length r2);
  List.iter2
    (fun a b -> Alcotest.(check bool) "record equal" true (W.equal_record a b))
    r1 r2

let test_wal_torn_tail_ignored () =
  let wal = W.create () in
  List.iter (W.append wal) sample_records;
  W.flush wal;
  let bytes = W.to_bytes wal in
  (* cut the last record in half *)
  let torn = String.sub bytes 0 (String.length bytes - 4) in
  let wal2 = W.of_bytes torn in
  Alcotest.(check int) "one record dropped"
    (List.length sample_records - 1)
    (List.length (W.records wal2))

let value_gen =
  QCheck.Gen.(
    oneof
      [ map (fun i -> V.Int i) int;
        map (fun f -> V.Float f) (float_bound_inclusive 1e6);
        map (fun s -> V.Str s) (string_size (int_bound 30));
        return V.Null ])

let record_gen =
  QCheck.Gen.(
    let tuple = map Array.of_list (list_size (int_range 1 5) value_gen) in
    oneof
      [ map (fun t -> W.Begin t) (int_bound 100);
        map (fun t -> W.Commit t) (int_bound 100);
        map (fun t -> W.Abort t) (int_bound 100);
        map2
          (fun (t, r) (p, (s, tu)) ->
            W.Insert { txn = t; rel_id = r; tid = tid p s; tuple = tu })
          (pair (int_bound 50) (int_bound 10))
          (pair (int_bound 500) (pair (int_bound 50) tuple));
        map2
          (fun (t, r) (p, (s, tu)) ->
            W.Delete { txn = t; rel_id = r; tid = tid p s; tuple = tu })
          (pair (int_bound 50) (int_bound 10))
          (pair (int_bound 500) (pair (int_bound 50) tuple)) ])

let prop_record_roundtrip =
  QCheck.Test.make ~name:"record codec roundtrip" ~count:300
    (QCheck.make ~print:(Format.asprintf "%a" W.pp_record) record_gen)
    (fun r ->
      let s = W.encode r in
      let r', off = W.decode s 0 in
      off = String.length s && W.equal_record r r')

(* The same round-trip, pinned per constructor — the mixed generator above
   exercises each variant only probabilistically. *)
let tuple_gen =
  QCheck.Gen.(map Array.of_list (list_size (int_range 1 5) value_gen))

let dml_gen make =
  QCheck.Gen.(
    map2
      (fun (t, r) (p, (s, tu)) -> make t r (tid p s) tu)
      (pair (int_bound 50) (int_bound 10))
      (pair (int_bound 500) (pair (int_bound 50) tuple_gen)))

let per_constructor_gens =
  [ ("Begin", QCheck.Gen.map (fun t -> W.Begin t) (QCheck.Gen.int_bound 1000));
    ("Commit", QCheck.Gen.map (fun t -> W.Commit t) (QCheck.Gen.int_bound 1000));
    ("Abort", QCheck.Gen.map (fun t -> W.Abort t) (QCheck.Gen.int_bound 1000));
    ( "Insert",
      dml_gen (fun txn rel_id tid tuple -> W.Insert { txn; rel_id; tid; tuple }) );
    ( "Delete",
      dml_gen (fun txn rel_id tid tuple -> W.Delete { txn; rel_id; tid; tuple }) ) ]

let props_constructor_roundtrip =
  List.map
    (fun (name, gen) ->
      QCheck.Test.make ~name:("roundtrip " ^ name) ~count:100
        (QCheck.make ~print:(Format.asprintf "%a" W.pp_record) gen)
        (fun r ->
          let s = W.encode r in
          let r', off = W.decode s 0 in
          off = String.length s && W.equal_record r r'))
    per_constructor_gens

(* Torn-write tolerance as a property: for a multi-record log truncated at
   EVERY byte offset, [of_bytes] must decode exactly the records whose
   encodings fit entirely within the prefix — a record is atomic; a partial
   tail is never half-applied and never breaks the decode of what precedes
   it. *)
let prop_truncation_every_offset =
  QCheck.Test.make ~name:"of_bytes at every truncation offset" ~count:60
    (QCheck.make
       ~print:(fun rs ->
         String.concat "; " (List.map (Format.asprintf "%a" W.pp_record) rs))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 8) record_gen))
    (fun recs ->
      let wal = W.create () in
      List.iter (W.append wal) recs;
      W.flush wal;
      let bytes = W.to_bytes wal in
      let sizes = List.map (fun r -> String.length (W.encode r)) recs in
      let ok = ref true in
      for n = 0 to String.length bytes do
        let decoded = W.records (W.of_bytes (String.sub bytes 0 n)) in
        let rec fits k acc = function
          | s :: rest when acc + s <= n -> fits (k + 1) (acc + s) rest
          | _ -> k
        in
        let expect_n = fits 0 0 sizes in
        let expected = List.filteri (fun i _ -> i < expect_n) recs in
        ok :=
          !ok
          && List.length decoded = expect_n
          && List.for_all2 W.equal_record expected decoded
      done;
      !ok)

(* --- group-commit batching ------------------------------------------------ *)

(* A batched flush preserves global append order — and therefore every
   session's enqueue order, of which the global order is a superset. The
   generated value is the interleaving itself: a list of session picks, each
   committing that session's next transaction. *)
let prop_batch_preserves_enqueue_order =
  QCheck.Test.make ~name:"group batch preserves per-session enqueue order"
    ~count:200
    (QCheck.make
       ~print:(fun picks -> String.concat "" (List.map string_of_int picks))
       QCheck.Gen.(list_size (int_range 1 30) (int_bound 2)))
    (fun picks ->
      let next = Array.make 3 0 in
      let order =
        List.map
          (fun s ->
            let txn = (s * 1000) + next.(s) in
            next.(s) <- next.(s) + 1;
            (s, txn))
          picks
      in
      let wal = W.create () in
      List.iter (fun (_, txn) -> W.append wal (W.Commit txn)) order;
      W.flush wal;
      let decoded =
        List.filter_map
          (function W.Commit t -> Some t | _ -> None)
          (W.records (W.of_bytes (W.to_bytes wal)))
      in
      decoded = List.map snd order
      && List.for_all
           (fun s ->
             let mine = List.filter (fun t -> t / 1000 = s) decoded in
             mine = List.sort compare mine)
           [ 0; 1; 2 ])

(* One batched flush produces byte-for-byte the image N per-record flushes
   produce: batching changes durability timing, never log content. *)
let prop_batch_equals_serial_flushes =
  QCheck.Test.make ~name:"one batched flush = N serial flushes" ~count:100
    (QCheck.make
       ~print:(fun rs ->
         String.concat "; " (List.map (Format.asprintf "%a" W.pp_record) rs))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 1 10) record_gen))
    (fun recs ->
      let a = W.create () and b = W.create () in
      List.iter (W.append a) recs;
      W.flush a;
      List.iter
        (fun r ->
          W.append b r;
          W.flush b)
        recs;
      W.to_bytes a = W.to_bytes b
      && List.length (W.records (W.of_bytes (W.to_bytes a)))
         = List.length recs)

(* A leader that dies before its flush loses the whole window; one that
   reaches the flush loses nothing. *)
let test_unflushed_window_lost () =
  let wal = W.create () in
  W.append wal (W.Commit 1);
  W.flush wal;
  let durable = W.to_bytes wal in
  List.iter (W.append wal) [ W.Begin 2; W.Commit 2; W.Commit 3 ];
  Alcotest.(check int) "window buffered" 3 (W.unflushed wal);
  Alcotest.(check string) "no flush: whole window lost" durable (W.to_bytes wal);
  W.flush wal;
  Alcotest.(check int) "drained" 0 (W.unflushed wal);
  Alcotest.(check int) "flush loses nothing" 4
    (List.length (W.records (W.of_bytes (W.to_bytes wal))))

(* The wal.group_flush failpoint fires *after* the batch reaches the durable
   image ("killed while writing the batch"): the image holds the whole batch,
   the torn sweep may take any suffix of it back, and the halted log rejects
   everything after the crash. *)
let test_crash_at_group_flush_boundary () =
  let module F = Rss.Failpoint in
  Fun.protect ~finally:F.reset (fun () ->
      let wal = W.create () in
      List.iter (W.append wal) [ W.Begin 1; W.Commit 1; W.Commit 2 ];
      F.arm ~site:"wal.group_flush" ~at:1;
      (match W.flush wal with
       | () -> Alcotest.fail "armed flush must crash"
       | exception F.Crash _ -> ());
      Alcotest.(check int) "batch durable before the crash point" 3
        (List.length (W.records (W.of_bytes (W.to_bytes wal))));
      Alcotest.(check int) "torn-sweep span covers the whole batch"
        (String.length (W.to_bytes wal))
        (W.last_flush_size wal);
      let image = W.to_bytes wal in
      W.append wal (W.Commit 9);
      W.flush wal;
      Alcotest.(check string) "halted log rejects writes" image
        (W.to_bytes wal))

(* The log is one byte image: [records] decodes every stage — durable, a
   batch whose flush failed, and records still buffered — in append order. *)
let test_records_decode_every_stage () =
  let wal = W.create () in
  let tuple = T.make [ V.Int 5 ] in
  let durable =
    [ W.Begin 1; W.Insert { txn = 1; rel_id = 2; tid = tid 3 4; tuple }; W.Commit 1 ]
  and in_flight = [ W.Begin 2 ]
  and pending = [ W.Delete { txn = 2; rel_id = 2; tid = tid 3 4; tuple }; W.Abort 2 ] in
  let recs = durable @ in_flight @ pending in
  List.iter (W.append wal) durable;
  W.flush wal;
  (* a flush whose device sync fails leaves its batch in flight *)
  List.iter (W.append wal) in_flight;
  W.set_flush_hook wal (Some (fun () -> failwith "sync failed"));
  (try W.flush wal with Failure _ -> ());
  W.set_flush_hook wal None;
  List.iter (W.append wal) pending;
  Alcotest.(check int) "unflushed" 3 (W.unflushed wal);
  let got = W.records wal in
  Alcotest.(check int) "every stage" (List.length recs) (List.length got);
  List.iter2
    (fun a b -> Alcotest.(check bool) "append order" true (W.equal_record a b))
    recs got;
  Alcotest.(check int) "byte size"
    (List.fold_left (fun a r -> a + String.length (W.encode r)) 0 recs)
    (W.byte_size wal);
  W.flush wal;
  Alcotest.(check int) "durable after retry" (List.length recs)
    (List.length (W.records (W.of_bytes (W.to_bytes wal))))

(* Footprint: the log keeps its records as bytes only. A tuple appended and
   flushed, then dropped by its owner, is collectable: no decoded record
   keeps it alive. *)
let[@inline never] append_dropped_tuple wal weak =
  let tuple = T.make [ V.Int 1; V.Str (String.make 64 'x') ] in
  Weak.set weak 0 (Some tuple);
  List.iter (W.append wal)
    [ W.Begin 1; W.Insert { txn = 1; rel_id = 0; tid = tid 0 0; tuple }; W.Commit 1 ];
  W.flush wal

let test_wal_keeps_no_tuple () =
  let wal = W.create () in
  let weak = Weak.create 1 in
  append_dropped_tuple wal weak;
  Gc.full_major ();
  Alcotest.(check bool) "appended tuple collected" false (Weak.check weak 0);
  match W.records wal with
  | [ W.Begin 1; W.Insert { tuple; _ }; W.Commit 1 ] ->
    Alcotest.(check bool) "record decodes from the bytes" true
      (T.equal tuple (T.make [ V.Int 1; V.Str (String.make 64 'x') ]))
  | _ -> Alcotest.fail "expected Begin/Insert/Commit"

(* --- recovery -------------------------------------------------------------- *)

let test_recovery_redo_committed_only () =
  let wal = W.create () in
  let t1 = T.make [ V.Int 1; V.Str "keep" ] in
  let t2 = T.make [ V.Int 2; V.Str "discard" ] in
  let t3 = T.make [ V.Int 3; V.Str "deleted" ] in
  List.iter (W.append wal)
    [ W.Begin 1;
      W.Insert { txn = 1; rel_id = 0; tid = tid 0 0; tuple = t1 };
      W.Insert { txn = 1; rel_id = 0; tid = tid 0 1; tuple = t3 };
      W.Delete { txn = 1; rel_id = 0; tid = tid 0 1; tuple = t3 };
      W.Commit 1;
      W.Begin 2;
      W.Insert { txn = 2; rel_id = 0; tid = tid 1 0; tuple = t2 } ];
  (* txn 2 never committed: crash *)
  let result = Rss.Recovery.replay wal in
  Alcotest.(check (list int)) "committed" [ 1 ] result.Rss.Recovery.committed;
  Alcotest.(check (list int)) "discarded" [ 2 ] result.Rss.Recovery.discarded;
  Alcotest.(check int) "largest txn id" 2 result.Rss.Recovery.max_txn;
  (match result.Rss.Recovery.survivors with
   | [ (0, t) ] -> Alcotest.(check bool) "kept tuple" true (T.equal t t1)
   | _ -> Alcotest.fail "expected exactly the committed insert")

let test_recovery_empty_log () =
  let result = Rss.Recovery.replay (W.create ()) in
  Alcotest.(check int) "nothing" 0 (List.length result.Rss.Recovery.survivors);
  Alcotest.(check int) "no txn id" 0 result.Rss.Recovery.max_txn

let () =
  Alcotest.run "lock_wal"
    [ ( "lock",
        [ Alcotest.test_case "shared compatible" `Quick test_shared_compatible;
          Alcotest.test_case "exclusive conflicts" `Quick test_exclusive_conflicts;
          Alcotest.test_case "reacquire/upgrade" `Quick test_reacquire_and_upgrade;
          Alcotest.test_case "release grants queue" `Quick test_release_grants_queue;
          Alcotest.test_case "fair queue" `Quick test_fair_queue_no_jumping;
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "tuple granularity" `Quick test_tuple_granularity;
          Alcotest.test_case "upgrade with queued waiters" `Quick
            test_upgrade_with_queued_waiters;
          Alcotest.test_case "two upgraders deadlock" `Quick
            test_two_upgraders_deadlock;
          Alcotest.test_case "release grants in arrival order" `Quick
            test_release_grant_arrival_order;
          Alcotest.test_case "3-txn deadlock, mixed granularity" `Quick
            test_deadlock_three_txns_mixed_resources;
          Alcotest.test_case "entries die with their last holder" `Quick
            test_entries_die_with_last_holder;
          Alcotest.test_case "random sequences vs full-scan model" `Quick
            test_model_random_sequences ] );
      ( "wal",
        [ Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail_ignored;
          Alcotest.test_case "unflushed window lost whole" `Quick
            test_unflushed_window_lost;
          Alcotest.test_case "crash at group-flush boundary" `Quick
            test_crash_at_group_flush_boundary;
          Alcotest.test_case "records decode every stage" `Quick
            test_records_decode_every_stage;
          Alcotest.test_case "footprint: no decoded record kept" `Quick
            test_wal_keeps_no_tuple ] );
      ( "recovery",
        [ Alcotest.test_case "redo committed only" `Quick
            test_recovery_redo_committed_only;
          Alcotest.test_case "empty log" `Quick test_recovery_empty_log ] );
      ( "props",
        QCheck_alcotest.to_alcotest prop_record_roundtrip
        :: QCheck_alcotest.to_alcotest prop_truncation_every_offset
        :: QCheck_alcotest.to_alcotest prop_batch_preserves_enqueue_order
        :: QCheck_alcotest.to_alcotest prop_batch_equals_serial_flushes
        :: List.map QCheck_alcotest.to_alcotest props_constructor_roundtrip ) ]
