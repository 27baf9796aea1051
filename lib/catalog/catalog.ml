type relation = {
  rel_id : int;
  rel_name : string;
  schema : Rel.Schema.t;
  segment : Rss.Segment.t;
  mutable rstats : Stats.relation option;
  mutable cstats : Stats.column array;
      (* per-column histograms in schema order; [||] until the relation has
         had UPDATE STATISTICS run *)
  mutable stats_version : int;
      (* bumped whenever anything a cached plan depends on changes:
         UPDATE STATISTICS or index DDL on this relation *)
  mutable feedback_gen : int;
      (* bumped when executor cardinality feedback records a corrected
         selectivity for this relation; cached plans depend on it exactly as
         they depend on stats_version, so a gross misestimate retires the
         plans whose costing it invalidates and nothing else *)
  feedback : (string, float) Hashtbl.t;
      (* canonical local-factor-set key -> observed selectivity (actual rows /
         NCARD), recorded at cursor close on gross misestimates and consulted
         by the optimizer in place of the estimated product. Cleared by
         UPDATE STATISTICS: fresh histograms supersede runtime corrections *)
}

type index = {
  idx_name : string;
  rel : relation;
  key_cols : int list;
  btree : Rss.Btree.t;
  clustered : bool;
  mutable istats : Stats.index option;
}

type t = {
  pgr : Rss.Pager.t;
  mutable next_rel_id : int;
  rels : (string, relation) Hashtbl.t;
  idxs : (string, index) Hashtbl.t;
}

let norm = String.lowercase_ascii

let create ?buffer_pages () =
  { pgr = Rss.Pager.create ?buffer_pages ();
    next_rel_id = 0;
    rels = Hashtbl.create 16;
    idxs = Hashtbl.create 16 }

let pager t = t.pgr

let create_relation ?segment t ~name ~schema =
  let key = norm name in
  if Hashtbl.mem t.rels key then
    invalid_arg (Printf.sprintf "Catalog: relation %S already exists" name);
  let segment =
    match segment with Some s -> s | None -> Rss.Segment.create t.pgr
  in
  let rel =
    { rel_id = t.next_rel_id; rel_name = name; schema; segment; rstats = None;
      cstats = [||]; stats_version = 0; feedback_gen = 0;
      feedback = Hashtbl.create 8 }
  in
  t.next_rel_id <- t.next_rel_id + 1;
  Hashtbl.replace t.rels key rel;
  rel

let find_relation t name = Hashtbl.find_opt t.rels (norm name)
let find_index t name = Hashtbl.find_opt t.idxs (norm name)

let relations t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.rels []
  |> List.sort (fun a b -> Int.compare a.rel_id b.rel_id)

let indexes_on t rel =
  Hashtbl.fold
    (fun _ i acc -> if i.rel.rel_id = rel.rel_id then i :: acc else acc)
    t.idxs []
  |> List.sort (fun a b -> String.compare a.idx_name b.idx_name)

let key_of idx tuple =
  Array.of_list (List.map (fun c -> Rel.Tuple.get tuple c) idx.key_cols)

(* Every physical version of the relation, delete-marked or not, with no
   I/O accounting: VACUUM, index builds, wipes and integrity checks walk
   the raw heap. *)
let scan_versions rel =
  let pager = Rss.Segment.pager rel.segment in
  List.concat_map
    (fun pid ->
      let page = Rss.Pager.data_page pager pid in
      List.filter_map
        (fun (slot, rid, tuple, xmin, xmax) ->
          if rid = rel.rel_id then
            Some ({ Rss.Tid.page = pid; slot }, tuple, xmin, xmax)
          else None)
        (Rss.Page.versions page))
    (Rss.Segment.page_ids rel.segment)

let create_index ?order t ~name ~rel ~columns ~clustered =
  let key = norm name in
  if Hashtbl.mem t.idxs key then
    invalid_arg (Printf.sprintf "Catalog: index %S already exists" name);
  let key_cols =
    List.map
      (fun c ->
        match Rel.Schema.index_of rel.schema c with
        | Some i -> i
        | None ->
          invalid_arg
            (Printf.sprintf "Catalog: no column %S in relation %S" c rel.rel_name))
      columns
  in
  if key_cols = [] then invalid_arg "Catalog.create_index: empty column list";
  let btree = Rss.Btree.create ?order t.pgr in
  let idx = { idx_name = name; rel; key_cols; btree; clustered; istats = None } in
  (* Bulk-load from existing tuples without I/O accounting: index creation is
     a DDL operation, not a measured query. *)
  (* Include delete-marked versions: they may still be visible to older
     snapshots, and index scans re-check visibility per TID anyway. *)
  List.iter
    (fun (tid, tuple, _, _) -> Rss.Btree.insert btree (key_of idx tuple) tid)
    (scan_versions rel);
  Hashtbl.replace t.idxs key idx;
  rel.stats_version <- rel.stats_version + 1;
  idx

let drop_index t name =
  (match find_index t name with
   | Some idx -> idx.rel.stats_version <- idx.rel.stats_version + 1
   | None -> ());
  Hashtbl.remove t.idxs (norm name)

(* Tombstone the version's slot, then delete its entry from every index
   (using the supplied image for the keys); [false], touching no index,
   when the slot was already dead. *)
let remove_version rel idxs tid tuple =
  let live = Rss.Segment.delete rel.segment tid in
  if live then
    List.iter
      (fun idx -> ignore (Rss.Btree.delete idx.btree (key_of idx tuple) tid))
      idxs;
  live

(* Physically remove every version of the relation — delete-marked or not —
   and all index entries. Recovery wipes with this before reloading the
   committed survivors. *)
let wipe_relation t rel =
  let idxs = indexes_on t rel in
  List.iter
    (fun (tid, tuple, _, _) -> ignore (remove_version rel idxs tid tuple))
    (scan_versions rel)

let drop_relation t name =
  match find_relation t name with
  | None -> false
  | Some rel ->
    List.iter (fun (i : index) -> drop_index t i.idx_name) (indexes_on t rel);
    (* make every version unreachable even through the shared segment *)
    wipe_relation t rel;
    Hashtbl.remove t.rels (norm name);
    true

let insert_tuple ?xmin t rel tuple =
  if not (Rel.Tuple.conforms rel.schema tuple) then
    invalid_arg
      (Printf.sprintf "Catalog.insert_tuple: tuple %s does not conform to %s"
         (Rel.Tuple.to_string tuple) rel.rel_name);
  let tid = Rss.Segment.insert rel.segment ?xmin ~rel_id:rel.rel_id tuple in
  List.iter
    (fun idx -> Rss.Btree.insert idx.btree (key_of idx tuple) tid)
    (indexes_on t rel);
  tid

(* MVCC delete: stamp the version's deleter, leaving heap slot and index
   entries in place for concurrent snapshots. VACUUM reclaims later. *)
let mark_delete rel tid xid = Rss.Segment.set_xmax rel.segment tid xid

(* Rollback of a delete-mark: the version was never deleted. *)
let unmark_delete rel tid = Rss.Segment.set_xmax rel.segment tid 0

let delete_tid t rel tid tuple = remove_version rel (indexes_on t rel) tid tuple

(* Reclaim dead versions no in-flight snapshot can see (deleter committed
   at-or-before the horizon) and freeze old versions (creator committed
   at-or-before it) so their status entries can be pruned. Returns the
   number of reclaimed versions; bumps stats_version when any were, since
   cached plans were costed over a heap that just shrank. *)
let vacuum_relation t rel (mvcc : Rss.Mvcc.t) ~horizon =
  let idxs = indexes_on t rel in
  let reclaimed = ref 0 in
  List.iter
    (fun (tid, tuple, xmin, xmax) ->
      let committed_by xid =
        xid <> 0
        && (match Rss.Mvcc.commit_csn mvcc xid with
            | Some csn -> csn <= horizon
            | None -> false)
      in
      if committed_by xmax then begin
        ignore (remove_version rel idxs tid tuple);
        incr reclaimed
      end
      else if committed_by xmin then
        Rss.Segment.set_xmin rel.segment tid 0)
    (scan_versions rel);
  if !reclaimed > 0 then rel.stats_version <- rel.stats_version + 1;
  !reclaimed

let vacuum t mvcc =
  let horizon = Rss.Mvcc.horizon mvcc in
  let reclaimed =
    List.fold_left
      (fun acc rel -> acc + vacuum_relation t rel mvcc ~horizon)
      0 (relations t)
  in
  Rss.Mvcc.prune mvcc ~horizon;
  reclaimed

(* Fraction of consecutive index entries whose tuples share a data page: the
   measured notion of "physical proximity corresponding to index key value". *)
let measure_cluster_ratio idx =
  match Rss.Btree.entries idx.btree with
  | [] | [ _ ] -> 1.0
  | first :: rest ->
    let same, total, _ =
      List.fold_left
        (fun (same, total, prev) (_, tid) ->
          let same =
            if (snd prev).Rss.Tid.page = tid.Rss.Tid.page then same + 1 else same
          in
          (same, total + 1, (fst prev, tid)))
        (0, 0, first) rest
    in
    float_of_int same /. float_of_int total

let update_relation_statistics t rel =
  let ncard = Rss.Segment.tuple_count rel.segment ~rel_id:rel.rel_id in
  let tcard = Rss.Segment.pages_holding rel.segment ~rel_id:rel.rel_id in
  let nonempty = Rss.Segment.nonempty_page_count rel.segment in
  let p = if nonempty = 0 then 1.0 else float_of_int tcard /. float_of_int nonempty in
  rel.rstats <- Some { Stats.ncard; tcard; p };
  (* Per-column histograms from one full scan, for every column — indexed or
     not. Counter-neutral like index creation: statistics collection is DDL,
     not a measured query. *)
  let snapshot = Rss.Counters.snapshot (Rss.Pager.counters t.pgr) in
  let tuples =
    Rss.Scan.to_list (Rss.Scan.open_segment_scan rel.segment ~rel_id:rel.rel_id ())
    |> List.map snd
  in
  Rss.Counters.restore (Rss.Pager.counters t.pgr) ~from:snapshot;
  rel.cstats <-
    Array.init (Rel.Schema.arity rel.schema) (fun col ->
        let values = List.map (fun tup -> Rel.Tuple.get tup col) tuples in
        { Stats.hist = Histogram.build values });
  (* runtime feedback corrections are superseded by the fresh histograms *)
  Hashtbl.reset rel.feedback;
  List.iter
    (fun idx ->
      let icard = Rss.Btree.distinct_keys idx.btree in
      let nindx = Rss.Btree.leaf_pages idx.btree in
      let first_col = function
        | Some k when Array.length k > 0 -> Some k.(0)
        | Some _ | None -> None
      in
      let low_key = first_col (Rss.Btree.min_key idx.btree) in
      let high_key = first_col (Rss.Btree.max_key idx.btree) in
      let cluster_ratio = measure_cluster_ratio idx in
      idx.istats <-
        Some { Stats.icard; nindx; low_key; high_key; cluster_ratio })
    (indexes_on t rel);
  rel.stats_version <- rel.stats_version + 1

let update_statistics t = List.iter (update_relation_statistics t) (relations t)
