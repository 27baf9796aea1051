type t = unit -> Rel.Tuple.t option

let layout_of block (p : Plan.t) = Layout.of_tables block p.Plan.tables

let drain c =
  let rec go acc = match c () with None -> List.rev acc | Some t -> go (t :: acc) in
  go []

(* What an opening is given when it has no join frame (a root, a join's
   outer operand): nothing reads it. *)
let no_frame : Rel.Tuple.t = [||]

let no_subqueries =
  { Eval.outer = [];
    params = [||];
    subquery = (fun _ -> invalid_arg "Cursor: subquery outside an executor") }

(* Compile one [Plan.Scan]. SARG factors over constants and parameters are
   rendered now; factors reading the join frame or an enclosing block's
   tuple are rendered by each opening; factors that compile to neither are
   appended to the residuals. [tid], when given, receives the TID of each
   tuple the scan returns (the DML victim search). *)
let compile_scan block env ~snap ~tid ~join ~tab ~access ~sargs ~residual =
  let rel = (List.nth block.Semant.tables tab).Semant.rel in
  let rel_id = rel.Catalog.rel_id in
  let fixed_env = { env with Eval.outer = [] } in
  let fixed, bound, fallback =
    List.fold_left
      (fun (fixed, bound, resid) p ->
        match Eval.compile_sarg fixed_env None ~tab p with
        | Some s -> (Rss.Sarg.conjoin fixed (s no_frame), bound, resid)
        | None ->
          (match Eval.compile_sarg env join ~tab p with
           | Some s -> (fixed, s :: bound, resid)
           | None -> (fixed, bound, p :: resid)))
      (Rss.Sarg.always_true, [], []) sargs
  in
  let sargs jt = List.fold_left (fun acc s -> Rss.Sarg.conjoin acc (s jt)) fixed bound in
  let open_scan =
    match access with
    | Plan.Seg_scan ->
      fun jt ->
        Rss.Scan.open_segment_scan rel.Catalog.segment ~rel_id ?snap ~sargs:(sargs jt)
          ?tid ()
    | Plan.Idx_scan { index; lo; hi; dir; _ } ->
      let lo = Option.map (Eval.bound_key env join) lo in
      let hi = Option.map (Eval.bound_key env join) hi in
      let dir = match dir with Ast.Asc -> `Asc | Ast.Desc -> `Desc in
      fun jt ->
        Rss.Scan.open_index_scan rel.Catalog.segment ~rel_id ~index:index.Catalog.btree
          ?lo:(Option.map (fun b -> b jt) lo)
          ?hi:(Option.map (fun b -> b jt) hi)
          ~dir ?snap ~sargs:(sargs jt) ?tid ()
  in
  let residual = residual @ List.rev fallback in
  let self_layout = Layout.of_tables block [ tab ] in
  match join with
  | Some outer_layout ->
    (* Pair-compiled residuals read the outer composite and the scanned tuple
       directly — the combined tuple is never built (the scan's output is the
       bare inner tuple). Subquery residuals still need a composite frame for
       correlation, so they are materialized only when the plain conjuncts
       already accepted the pair. *)
    let plain, subq = List.partition (fun p -> not (Semant.pred_has_subquery p)) residual in
    let keep_pair = Eval.compile_preds_pair env outer_layout self_layout plain in
    let keep_sub =
      match subq with
      | [] -> None
      | _ -> Some (Eval.compile_preds env (Layout.concat outer_layout self_layout) subq)
    in
    fun outer_tuple ->
      let scan = open_scan outer_tuple in
      let rec pull () =
        match scan () with
        | None -> None
        | Some tuple as hit ->
          if
            keep_pair outer_tuple tuple
            && (match keep_sub with
                | None -> true
                | Some k -> k (Rel.Tuple.concat outer_tuple tuple))
          then hit
          else pull ()
      in
      pull
  | None ->
    let keep = Eval.compile_preds env self_layout residual in
    fun jt ->
      let scan = open_scan jt in
      let rec pull () =
        match scan () with
        | None -> None
        | Some tuple as hit -> if keep tuple then hit else pull ()
      in
      pull

(* A nested-loop join: the inner, compiled once, is opened per outer tuple
   with that tuple as its join frame. *)
let nl_cursor outer_cur open_inner =
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
         state := Some (outer_tuple, open_inner outer_tuple);
         pull ())
  in
  pull

let merge_cursor ~opos ~ipos ~keep_pair ~keep outer_cur inner_cur =
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

let no_join = function
  | Some _ -> invalid_arg "Cursor: join node cannot itself be a join inner"
  | None -> ()

let compile ?(env = no_subqueries) ?snap ?tid catalog block plan =
  let pager = Catalog.pager catalog in
  let counters = Rss.Pager.counters pager in
  (* [join] is the layout of a nested-loop inner's outer composite; the
     compiled node is opened with that composite (or [no_frame]). *)
  let rec node ~tid ~join (p : Plan.t) : Rel.Tuple.t -> t =
    counters.Rss.Counters.nodes_compiled <- counters.Rss.Counters.nodes_compiled + 1;
    match p.Plan.node with
    | Plan.Scan { tab; access; sargs; residual } ->
      compile_scan block env ~snap ~tid ~join ~tab ~access ~sargs ~residual
    | Plan.Nl_join { outer; inner } ->
      no_join join;
      let open_outer = node ~tid:None ~join:None outer in
      let open_inner = node ~tid:None ~join:(Some (layout_of block outer)) inner in
      fun _ -> nl_cursor (open_outer no_frame) open_inner
    | Plan.Merge_join { outer; inner; outer_col; inner_col; residual } ->
      no_join join;
      let open_outer = node ~tid:None ~join:None outer in
      let open_inner = node ~tid:None ~join:None inner in
      let outer_layout = layout_of block outer in
      let inner_layout = layout_of block inner in
      (* Residuals are checked against the (outer, inner) pair before the
         output composite is built, so rejected pairs cost no concatenation;
         subquery residuals (needing a composite frame) run after, on
         survivors. *)
      let plain, subq =
        List.partition (fun p -> not (Semant.pred_has_subquery p)) residual
      in
      let keep_pair = Eval.compile_preds_pair env outer_layout inner_layout plain in
      let keep = Eval.compile_preds env (Layout.concat outer_layout inner_layout) subq in
      let opos = Layout.pos outer_layout outer_col in
      let ipos = Layout.pos inner_layout inner_col in
      fun _ ->
        (* the outer opens first: opening a sort drains its input *)
        let outer_cur = open_outer no_frame in
        merge_cursor ~opos ~ipos ~keep_pair ~keep outer_cur (open_inner no_frame)
    | Plan.Sort { input; key } ->
      let layout = layout_of block input in
      let sort_key =
        List.map
          (fun (c, d) ->
            ( Layout.pos layout c,
              match d with Ast.Asc -> Rss.Sort.Asc | Ast.Desc -> Rss.Sort.Desc ))
          key
      in
      let cmp = Eval.compile_cmp layout key in
      let open_input = node ~tid:None ~join input in
      (* the plan cursor feeds run formation directly and the final merge
         streams straight to the consumer — the sorted result is never
         rematerialized *)
      fun jt ->
        Rss.Sort.sort_stream ~cmp pager ~key:sort_key (open_input jt)
    | Plan.Filter { input; preds } ->
      let open_input = node ~tid ~join input in
      let keep = Eval.compile_preds env (layout_of block input) preds in
      fun jt ->
        let input_cur = open_input jt in
        let rec pull () =
          match input_cur () with
          | None -> None
          | Some tuple as hit -> if keep tuple then hit else pull ()
        in
        pull
  in
  let root = node ~tid ~join:None plan in
  fun () -> root no_frame
