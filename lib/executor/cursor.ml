type t = unit -> Rel.Tuple.t option

let layout_of block (p : Plan.t) = Layout.of_tables block p.Plan.tables

let drain c =
  let rec go acc = match c () with None -> List.rev acc | Some t -> go (t :: acc) in
  go []

(* Open the RSS scan of one [Plan.Scan] node: compile its factors into RSS
   search arguments and bind its index bounds. Factors that fail to compile
   (a dynamic value unavailable in this context) come back appended to the
   residuals. *)
let open_rss_scan block env ~snap ~join ~tab ~access ~sargs ~residual =
  let tr = List.nth block.Semant.tables tab in
  let rel = tr.Semant.rel in
  let rel_id = rel.Catalog.rel_id in
  let compiled_sargs, fallback =
    List.fold_left
      (fun (sarg_acc, resid) p ->
        match Eval.compile_sarg env join ~tab p with
        | Some s -> (Rss.Sarg.conjoin sarg_acc s, resid)
        | None -> (sarg_acc, p :: resid))
      (Rss.Sarg.always_true, []) sargs
  in
  let scan =
    match access with
    | Plan.Seg_scan ->
      Rss.Scan.open_segment_scan rel.Catalog.segment ~rel_id ?snap
        ~sargs:compiled_sargs ()
    | Plan.Idx_scan { index; lo; hi; dir; _ } ->
      let lo = Option.map (Eval.bound_key env join) lo in
      let hi = Option.map (Eval.bound_key env join) hi in
      let dir = match dir with Ast.Asc -> `Asc | Ast.Desc -> `Desc in
      Rss.Scan.open_index_scan rel.Catalog.segment ~rel_id ~index:index.Catalog.btree
        ?lo ?hi ~dir ?snap ~sargs:compiled_sargs ()
  in
  (scan, residual @ List.rev fallback)

let rec open_plan catalog block (env : Eval.env) ?snap ~join
    (p : Plan.t) : t =
  match p.Plan.node with
  | Plan.Scan { tab; access; sargs; residual } ->
    open_scan catalog block env ~snap ~join ~tab ~access ~sargs ~residual
  | Plan.Nl_join { outer; inner } ->
    (match join with
     | Some _ -> invalid_arg "Cursor: join node cannot itself be a join inner"
     | None -> open_nl catalog block env ~snap ~outer ~inner)
  | Plan.Merge_join { outer; inner; outer_col; inner_col; residual } ->
    (match join with
     | Some _ -> invalid_arg "Cursor: join node cannot itself be a join inner"
     | None ->
       open_merge catalog block env ~snap ~outer ~inner ~outer_col
         ~inner_col ~residual)
  | Plan.Sort { input; key } ->
    open_sort catalog block env ~snap ~join ~input ~key
  | Plan.Filter { input; preds } ->
    let inner = open_plan catalog block env ?snap ~join input in
    let layout = layout_of block input in
    let keep = Eval.compile_preds env layout preds in
    let rec pull () =
      match inner () with
      | None -> None
      | Some tuple -> if keep tuple then Some tuple else pull ()
    in
    pull

and open_scan _catalog block env ~snap ~join ~tab ~access ~sargs ~residual =
  let scan, residual =
    open_rss_scan block env ~snap ~join ~tab ~access ~sargs ~residual
  in
  let self_layout = Layout.of_tables block [ tab ] in
  match join with
  | Some f ->
    (* Pair-compiled residuals read the outer composite and the scanned tuple
       directly — the combined tuple is never built (the scan's output is the
       bare inner tuple). Subquery residuals still need a composite frame for
       correlation, so they are materialized only when the plain conjuncts
       already accepted the pair. *)
    let plain, subq = List.partition (fun p -> not (Semant.pred_has_subquery p)) residual in
    let keep_pair = Eval.compile_preds_pair env f.Eval.layout self_layout plain in
    let keep_sub =
      match subq with
      | [] -> None
      | _ ->
        Some (Eval.compile_preds env (Layout.concat f.Eval.layout self_layout) subq)
    in
    let outer_tuple = f.Eval.tuple in
    let rec pull () =
      match scan () with
      | None -> None
      | Some (_tid, tuple) ->
        if
          keep_pair outer_tuple tuple
          && (match keep_sub with
              | None -> true
              | Some k -> k (Rel.Tuple.concat outer_tuple tuple))
        then Some tuple
        else pull ()
    in
    pull
  | None ->
    let keep = Eval.compile_preds env self_layout residual in
    let rec pull () =
      match scan () with
      | None -> None
      | Some (_tid, tuple) -> if keep tuple then Some tuple else pull ()
    in
    pull

and open_nl catalog block env ~snap ~outer ~inner =
  let outer_cur = open_plan catalog block env ?snap ~join:None outer in
  let outer_layout = layout_of block outer in
  let state = ref None in
  let rec pull () =
    match !state with
    | Some (outer_tuple, inner_cur) ->
      (match inner_cur () with
       | Some inner_tuple -> Some (Rel.Tuple.concat outer_tuple inner_tuple)
       | None ->
         state := None;
         pull ())
    | None ->
      (match outer_cur () with
       | None -> None
       | Some outer_tuple ->
         let jframe = { Eval.layout = outer_layout; tuple = outer_tuple } in
         let inner_cur =
           open_plan catalog block env ?snap ~join:(Some jframe) inner
         in
         state := Some (outer_tuple, inner_cur);
         pull ())
  in
  pull

and open_merge catalog block env ~snap ~outer ~inner ~outer_col
    ~inner_col ~residual =
  let outer_cur = open_plan catalog block env ?snap ~join:None outer in
  let inner_cur = open_plan catalog block env ?snap ~join:None inner in
  let outer_layout = layout_of block outer in
  let inner_layout = layout_of block inner in
  let combined_layout = Layout.concat outer_layout inner_layout in
  let opos = Layout.pos outer_layout outer_col in
  let ipos = Layout.pos inner_layout inner_col in
  (* Residuals are checked against the (outer, inner) pair before the output
     composite is built, so rejected pairs cost no concatenation; subquery
     residuals (needing a composite frame) run after, on survivors. *)
  let plain, subq =
    List.partition (fun p -> not (Semant.pred_has_subquery p)) residual
  in
  let keep_pair = Eval.compile_preds_pair env outer_layout inner_layout plain in
  let keep = Eval.compile_preds env combined_layout subq in
  (* The inner scan is synchronized with the outer: the current group of
     equal-keyed inner tuples is remembered so equal consecutive outer keys
     rejoin it without rescanning ("remembering where matching join groups
     are located"). *)
  let inner_ahead = ref None in
  let next_inner () =
    match !inner_ahead with
    | Some t ->
      inner_ahead := None;
      Some t
    | None -> inner_cur ()
  in
  let group = ref [||] in
  let group_key = ref None in
  let load_group key =
    (* advance the inner scan to [key]'s group, buffering it *)
    let rec skip () =
      match next_inner () with
      | None -> None
      | Some t ->
        let k = Rel.Tuple.get t ipos in
        if Rel.Value.is_null k then skip ()
        else if Rel.Value.compare k key < 0 then skip ()
        else Some (t, k)
    in
    match skip () with
    | None ->
      group := [||];
      group_key := Some key
    | Some (t, k) ->
      if Rel.Value.compare k key > 0 then begin
        inner_ahead := Some t;
        group := [||];
        group_key := Some key
      end
      else begin
        let acc = ref [ t ] in
        let rec collect () =
          match next_inner () with
          | None -> ()
          | Some t' ->
            if Rel.Value.equal (Rel.Tuple.get t' ipos) key then begin
              acc := t' :: !acc;
              collect ()
            end
            else inner_ahead := Some t'
        in
        collect ();
        group := Array.of_list (List.rev !acc);
        group_key := Some key
      end
  in
  let cur_outer = ref None in
  let group_idx = ref 0 in
  let rec pull () =
    match !cur_outer with
    | Some outer_tuple when !group_idx < Array.length !group ->
      let inner_tuple = !group.(!group_idx) in
      incr group_idx;
      if keep_pair outer_tuple inner_tuple then begin
        let combined = Rel.Tuple.concat outer_tuple inner_tuple in
        if keep combined then Some combined else pull ()
      end
      else pull ()
    | _ ->
      (match outer_cur () with
       | None -> None
       | Some outer_tuple ->
         let key = Rel.Tuple.get outer_tuple opos in
         if Rel.Value.is_null key then begin
           cur_outer := None;
           pull ()
         end
         else begin
           (match !group_key with
            | Some k when Rel.Value.equal k key -> ()  (* rejoin same group *)
            | _ -> load_group key);
           cur_outer := Some outer_tuple;
           group_idx := 0;
           pull ()
         end)
  in
  pull

and open_sort catalog block env ~snap ~join ~input ~key =
  let layout = layout_of block input in
  let sort_key =
    List.map
      (fun (c, d) ->
        ( Layout.pos layout c,
          match d with Ast.Asc -> Rss.Sort.Asc | Ast.Desc -> Rss.Sort.Desc ))
      key
  in
  let cmp = Eval.compile_cmp layout key in
  let input_cur = open_plan catalog block env ?snap ~join input in
  (* the plan cursor feeds run formation directly and the final merge
     streams straight to the consumer — the sorted result is never
     rematerialized *)
  Rss.Sort.sort_stream ~cmp (Catalog.pager catalog) ~key:sort_key input_cur

(* DML victim search: the same scan opening, but each qualifying tuple
   comes back with its TID, so DELETE and UPDATE stamp exactly the versions
   the chosen access path yields. Only single-table shapes exist here: a
   scan, under the Filter that carries subquery factors. *)
let rec open_tids block env ?snap (p : Plan.t) =
  match p.Plan.node with
  | Plan.Scan { tab; access; sargs; residual } ->
    let scan, residual =
      open_rss_scan block env ~snap ~join:None ~tab ~access ~sargs ~residual
    in
    tid_filter (Eval.compile_preds env (layout_of block p) residual) scan
  | Plan.Filter { input; preds } ->
    tid_filter
      (Eval.compile_preds env (layout_of block input) preds)
      (open_tids block env ?snap input)
  | Plan.Nl_join _ | Plan.Merge_join _ | Plan.Sort _ ->
    invalid_arg "Cursor.open_tids: not a single-table scan plan"

and tid_filter keep next =
  let rec pull () =
    match next () with
    | Some (_, tuple) as hit -> if keep tuple then hit else pull ()
    | None -> None
  in
  pull
