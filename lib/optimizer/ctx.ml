type t = {
  catalog : Catalog.t;
  w : float;
  buffer_pages : int;
  use_heuristic : bool;
  use_interesting_orders : bool;
  use_bnb : bool;
  refined_pages : bool;
  use_histograms : bool;
  use_feedback : bool;
  params : Rel.Value.t array;
}

type rel_stats = {
  ncard : float;
  tcard : float;
  p : float;
}

type idx_stats = {
  icard : float;
  nindx : float;
  low : Rel.Value.t option;
  high : Rel.Value.t option;
  clustered : bool;
  unique : bool;
}

let default_w = 0.5

let create ?(w = default_w) ?buffer_pages ?(use_heuristic = true)
    ?(use_interesting_orders = true) ?(use_bnb = true) ?(refined_pages = false)
    ?(use_histograms = true) ?(use_feedback = true) ?(params = [||]) catalog =
  let buffer_pages =
    Option.value buffer_pages
      ~default:(Rss.Pager.buffer_pages (Catalog.pager catalog))
  in
  { catalog; w; buffer_pages; use_heuristic; use_interesting_orders; use_bnb;
    refined_pages; use_histograms; use_feedback; params }

(* "We assume that a lack of statistics implies that the relation is small,
   so an arbitrary factor is chosen." *)
let default_rel_stats = { ncard = 30.; tcard = 3.; p = 1.0 }

let rel_stats _t (rel : Catalog.relation) =
  match rel.rstats with
  | None -> default_rel_stats
  | Some s ->
    { ncard = float_of_int s.Stats.ncard;
      tcard = float_of_int (max 1 s.Stats.tcard);
      p = (if s.Stats.p <= 0. then 1.0 else s.Stats.p) }

let idx_stats t (idx : Catalog.index) =
  let r = rel_stats t idx.rel in
  match idx.istats with
  | None ->
    { icard = 10.;
      nindx = 1.;
      low = None;
      high = None;
      clustered = idx.clustered;
      unique = false }
  | Some s ->
    let icard = float_of_int (max 1 s.Stats.icard) in
    (* UPDATE STATISTICS measures the fraction of consecutive index entries
       sharing a data page; when that ratio is decisively high the index
       behaves as clustered regardless of how it was declared, so cost it
       that way. The declared flag still wins when no ratio is measured. *)
    let clustered = idx.clustered || s.Stats.cluster_ratio >= 0.8 in
    { icard;
      nindx = float_of_int (max 1 s.Stats.nindx);
      low = s.Stats.low_key;
      high = s.Stats.high_key;
      clustered;
      unique = icard >= r.ncard && r.ncard > 0. }

let indexes_of t rel = Catalog.indexes_on t.catalog rel

let table_rel (block : Semant.block) tab =
  (List.nth block.tables tab).Semant.rel

(* Indexes on the referenced column, leading-column first. Prefer a
   single-column index (its ICARD is exactly the column's cardinality);
   otherwise accept a multi-column index led by the column, whose composite
   ICARD overestimates the column's. *)
let leading_indexes t block (c : Semant.col_ref) =
  let rel = table_rel block c.tab in
  List.filter
    (fun (idx : Catalog.index) ->
      match idx.key_cols with lead :: _ -> lead = c.col | [] -> false)
    (indexes_of t rel)

(* Histogram statistics for the referenced column, when collected and not
   switched off (SET HISTOGRAMS OFF pins the paper's TABLE 1 behaviour). *)
let column_stats t block (c : Semant.col_ref) =
  if not t.use_histograms then None
  else
    let rel = table_rel block c.tab in
    if c.col < Array.length rel.Catalog.cstats then
      Some rel.Catalog.cstats.(c.col).Stats.hist
    else None

(* Bound parameter value, for value-aware estimates on the plan-cache path
   (the extracted literals of the canonicalized statement). Only consulted
   when histograms are on, so SET HISTOGRAMS OFF reproduces the paper's
   value-independent estimates exactly. *)
let param_value t i =
  if t.use_histograms && i >= 0 && i < Array.length t.params then
    Some t.params.(i)
  else None

let column_icard t block c =
  (* Histogram statistics cover every column, so the TABLE 1 requirement of
     "an index on the column" no longer gates the 1/ICARD-style estimate:
     the measured distinct count serves even for never-indexed columns. *)
  let from_hist =
    match column_stats t block c with
    | Some h when Histogram.distinct h > 0 ->
      Some (float_of_int (Histogram.distinct h))
    | _ -> None
  in
  match from_hist with
  | Some _ as r -> r
  | None ->
    let candidates = leading_indexes t block c in
    let with_stats =
      List.filter (fun (i : Catalog.index) -> i.istats <> None) candidates
    in
    let single =
      List.find_opt (fun (i : Catalog.index) -> List.length i.key_cols = 1) with_stats
    in
    (match single, with_stats with
     | Some i, _ | None, i :: _ -> Some (idx_stats t i).icard
     | None, [] -> None)

let column_range t block c =
  let to_float v = Rel.Value.to_float v in
  List.find_map
    (fun (i : Catalog.index) ->
      let s = idx_stats t i in
      match s.low, s.high with
      | Some lo, Some hi ->
        (match to_float lo, to_float hi with
         | Some lo, Some hi when hi >= lo -> Some (lo, hi)
         | _ -> None)
      | _ -> None)
    (leading_indexes t block c)

let tuples_per_page t rel =
  let s = rel_stats t rel in
  if s.tcard <= 0. then s.ncard else max 1. (s.ncard /. s.tcard)
