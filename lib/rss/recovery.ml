type result = {
  survivors : (int * Rel.Tuple.t) list;
  committed : Wal.txn list;
  discarded : Wal.txn list;
  max_txn : Wal.txn;
}

module Int_set = Set.Make (Int)

(* Debug hook for the torture harness: with the filter off, replay redoes the
   effects of every transaction in the log, committed or not — deliberately
   broken recovery the harness must be able to catch. *)
let commit_filter = ref true
let set_commit_filter on = commit_filter := on

let replay wal =
  let recs = Wal.records wal in
  let committed =
    List.fold_left
      (fun acc r -> match r with Wal.Commit tx -> Int_set.add tx acc | _ -> acc)
      Int_set.empty recs
  in
  let started =
    List.fold_left
      (fun acc r -> match r with Wal.Begin tx -> Int_set.add tx acc | _ -> acc)
      Int_set.empty recs
  in
  let max_txn =
    List.fold_left
      (fun acc r ->
        match r with
        | Wal.Begin tx | Wal.Commit tx | Wal.Abort tx -> max acc tx
        | Wal.Insert { txn; _ } | Wal.Delete { txn; _ } -> max acc txn)
      0 recs
  in
  let redo tx = Int_set.mem tx committed || not !commit_filter in
  (* Logical REDO keyed by original TID: inserts register the tuple, deletes
     retract it; survivors are listed in log order. *)
  let live : (Tid.t * int, int * Rel.Tuple.t) Hashtbl.t = Hashtbl.create 256 in
  let order = ref [] in
  List.iter
    (fun r ->
      match r with
      | Wal.Insert { txn; rel_id; tid; tuple } when redo txn ->
        Hashtbl.replace live (tid, rel_id) (rel_id, tuple);
        order := (tid, rel_id) :: !order
      | Wal.Delete { txn; rel_id; tid; _ } when redo txn ->
        Hashtbl.remove live (tid, rel_id)
      | Wal.Insert _ | Wal.Delete _ | Wal.Begin _ | Wal.Commit _ | Wal.Abort _ -> ())
    recs;
  let survivors =
    List.filter_map
      (fun key ->
        let s = Hashtbl.find_opt live key in
        Hashtbl.remove live key;
        s)
      (List.rev !order)
  in
  { survivors;
    committed = Int_set.elements committed;
    discarded = Int_set.elements (Int_set.diff started committed);
    max_txn }
