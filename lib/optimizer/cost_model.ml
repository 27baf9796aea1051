type t = {
  pages : float;
  rsi : float;
}

let zero = { pages = 0.; rsi = 0. }
let add a b = { pages = a.pages +. b.pages; rsi = a.rsi +. b.rsi }
let scale k c = { pages = k *. c.pages; rsi = k *. c.rsi }
let total ~w c = c.pages +. (w *. c.rsi)
let compare_total ~w a b = Float.compare (total ~w a) (total ~w b)

type situation =
  | Unique_index_eq
  | Clustered_matching of float
  | Nonclustered_matching of float
  | Clustered_nonmatching
  | Nonclustered_nonmatching
  | Segment_scan_cost

(* Cardenas' approximation of Yao's formula: expected distinct pages touched
   when [k] tuples are drawn uniformly from [m] pages. *)
let distinct_pages ~tuples:k ~pages:m =
  if m <= 0. || k <= 0. then 0.
  else m *. (1. -. ((1. -. (1. /. m)) ** k))

let single_relation (ctx : Ctx.t) ~(rel : Ctx.rel_stats)
    ~(idx : Ctx.idx_stats option) ~situation ~rsicard =
  let buffer = float_of_int ctx.buffer_pages in
  let need_idx () =
    match idx with
    | Some i -> i
    | None -> invalid_arg "Cost_model.single_relation: index situation without index"
  in
  let pages =
    match situation with
    | Unique_index_eq -> 1. +. 1.
    | Clustered_matching f ->
      let i = need_idx () in
      f *. (i.nindx +. rel.tcard)
    | Nonclustered_matching f ->
      let i = need_idx () in
      if ctx.Ctx.refined_pages then begin
        (* extension: leaf pages plus Cardenas distinct data pages; when the
           working set exceeds the buffer, pages are re-fetched and the
           page-per-tuple bound takes over *)
        let touched = distinct_pages ~tuples:(f *. rel.ncard) ~pages:rel.tcard in
        if touched <= buffer then (f *. i.nindx) +. touched
        else (f *. i.nindx) +. Float.min (f *. rel.ncard) (touched *. (touched /. buffer))
      end
      else if Float.min (f *. rel.ncard) rel.tcard <= buffer then
        (* "or F(preds) * (NINDX + TCARD) if this number fits in the System R
           buffer": the TCARD form applies when the data pages the scattered
           TIDs reference stay resident, so no page is fetched twice *)
        f *. (i.nindx +. rel.tcard)
      else f *. (i.nindx +. rel.ncard)
    | Clustered_nonmatching ->
      let i = need_idx () in
      i.nindx +. rel.tcard
    | Nonclustered_nonmatching ->
      let i = need_idx () in
      if i.nindx +. rel.tcard <= buffer then i.nindx +. rel.tcard
      else i.nindx +. rel.ncard
    | Segment_scan_cost -> rel.tcard /. rel.p
  in
  let rsi = match situation with Unique_index_eq -> 1. | _ -> rsicard in
  { pages; rsi }

let temp_pages ~tuples ~tuples_per_page =
  if tuples <= 0. then 0. else Float.max 1. (ceil (tuples /. tuples_per_page))

let sort_cost (ctx : Ctx.t) ~tuples ~tuples_per_page =
  if tuples <= 0. then zero
  else
    let tp = temp_pages ~tuples ~tuples_per_page in
    let passes =
      Rss.Sort.passes ~buffer_pages:ctx.buffer_pages
        ~tuples:(int_of_float (ceil tuples))
        ~tuples_per_page ()
    in
    (* each pass writes every page; every pass after the first also re-reads *)
    let pages = tp *. float_of_int passes +. (tp *. float_of_int (max 0 (passes - 1))) in
    { pages; rsi = 0. }

let nested_loop_join ~outer ~outer_card ~inner_per_open =
  add outer (scale outer_card inner_per_open)

let merge_join_sorted_inner (_ctx : Ctx.t) ~outer ~inner_build ~temppages ~matches =
  (* C-inner(sorted list) = TEMPPAGES/N + W*RSICARD, applied N times: each
     temp page is fetched once during the whole merge. *)
  add (add outer inner_build) { pages = temppages; rsi = matches }

let merge_join_ordered_inner ~outer ~inner_whole ~matches =
  let extra_rsi = Float.max 0. (matches -. inner_whole.rsi) in
  add (add outer inner_whole) { pages = 0.; rsi = extra_rsi }

let pp ppf c = Format.fprintf ppf "{pages=%.2f; rsi=%.2f}" c.pages c.rsi
