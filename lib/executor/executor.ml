type output = {
  columns : string list;
  rows : Rel.Tuple.t list;
}

type state = {
  catalog : Catalog.t;
  snap : Rss.Mvcc.view option;
      (* MVCC read view threaded to every leaf scan, subquery blocks
         included; None = see the not-delete-marked heap *)
  params : Rel.Value.t array;
  counters : Rss.Counters.t;
      (* where this run's accounting lands (the pager's current record):
         subquery calls and evaluations are counted here *)
  caches : (Semant.block * (Rel.Value.t list, Rel.Value.t list) Hashtbl.t) list ref;
      (* per nested block, keyed by physical identity *)
}

(* References inside [b] (or blocks nested in it) that escape [b]: evaluated
   in the caller's environment they are the "referenced values" that
   determine the subquery's result — the memo key. Each is (frames up from
   the call environment, tab, col). *)
let escaped_refs (b : Semant.block) =
  let acc = ref [] in
  let rec expr depth (e : Semant.sexpr) =
    match e with
    | Semant.E_outer { levels_up; tab; col } ->
      if levels_up > depth then acc := (levels_up - depth - 1, tab, col) :: !acc
    | Semant.E_binop (_, a, b) ->
      expr depth a;
      expr depth b
    | Semant.E_agg (_, a) -> expr depth a
    | Semant.E_col _ | Semant.E_const _ | Semant.E_param _ -> ()
  and pred depth (p : Semant.spred) =
    match p with
    | Semant.P_cmp (a, _, b) ->
      expr depth a;
      expr depth b
    | Semant.P_between (e, lo, hi) ->
      expr depth e;
      expr depth lo;
      expr depth hi
    | Semant.P_in_list (e, _) -> expr depth e
    | Semant.P_in_sub { e; block; _ } ->
      expr depth e;
      block_refs (depth + 1) block
    | Semant.P_cmp_sub (e, _, block) ->
      expr depth e;
      block_refs (depth + 1) block
    | Semant.P_and (a, b) | Semant.P_or (a, b) ->
      pred depth a;
      pred depth b
    | Semant.P_not a -> pred depth a
  and block_refs depth (b : Semant.block) =
    List.iter (fun (e, _) -> expr depth e) b.Semant.select;
    Option.iter (pred depth) b.Semant.where
  in
  block_refs 0 b;
  let cmp_ref (u1, t1, c1) (u2, t2, c2) =
    let d = Int.compare u1 u2 in
    if d <> 0 then d
    else
      let d = Int.compare t1 t2 in
      if d <> 0 then d else Int.compare c1 c2
  in
  List.sort_uniq cmp_ref !acc

let ref_values (env : Eval.env) refs =
  List.map
    (fun (up, tab, col) ->
      match List.nth_opt env.Eval.blocks up with
      | Some (f : Eval.frame) ->
        Rel.Tuple.get f.tuple (Layout.pos f.layout { Semant.tab; col })
      | None -> invalid_arg "Executor: escaped reference beyond block stack")
    refs

let cache_for st block =
  match List.find_opt (fun (b, _) -> b == block) !(st.caches) with
  | Some (_, tbl) -> tbl
  | None ->
    let tbl = Hashtbl.create 64 in
    st.caches := (block, tbl) :: !(st.caches);
    tbl

let make_state ?snap ~params catalog =
  { catalog;
    snap;
    params;
    counters = Rss.Pager.counters (Catalog.pager catalog);
    caches = ref [] }

(* The evaluation environment of block [r]: its subqueries are evaluated
   (and cached) through [eval_subquery]. *)
let rec block_env st (r : Optimizer.result) blocks_stack =
  { Eval.blocks = blocks_stack;
    params = st.params;
    subquery = (fun env b -> eval_subquery st r env b) }

and run_block st (r : Optimizer.result) (blocks_stack : Eval.frame list) =
  let block = r.Optimizer.block in
  let env = block_env st r blocks_stack in
  let open_cur () =
    Cursor.open_plan st.catalog block env ?snap:st.snap ~join:None
      r.Optimizer.plan
  in
  let layout = Cursor.layout_of block r.Optimizer.plan in
  (* The cursor is consumed incrementally in every mode: aggregation folds
     tuples into O(1) accumulator state as they stream by, so the plan's
     output is never materialized ahead of the result rows. *)
  if block.Semant.scalar_agg then
    [ Exec_agg.scalar_stream env layout block (open_cur ()) ]
  else if block.Semant.group_by <> [] then begin
    let rows = Exec_agg.group_stream env layout block (open_cur ()) in
    match block.Semant.order_by with
    | [] -> rows
    | obs ->
      (* order the aggregated rows by the select positions of the ORDER BY
         columns *)
      let pos_of (c : Semant.col_ref) =
        let rec find i = function
          | [] ->
            invalid_arg
              "Executor: ORDER BY column of a grouped query must appear in its \
               select list"
          | (Semant.E_col c', _) :: _
            when c'.Semant.tab = c.Semant.tab && c'.Semant.col = c.Semant.col ->
            i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 block.Semant.select
      in
      let keys = List.map (fun (c, d) -> (pos_of c, d)) obs in
      List.stable_sort (Eval.compile_cmp_pos keys) rows
  end
  else Exec_agg.project_stream env layout block (open_cur ())

and eval_subquery st (parent : Optimizer.result) (env : Eval.env) block =
  st.counters.subquery_calls <- st.counters.subquery_calls + 1;
  let sub =
    match
      List.find_opt (fun (b, _) -> b == block) parent.Optimizer.subresults
    with
    | Some (_, sub) -> sub
    | None -> invalid_arg "Executor: subquery block has no plan"
  in
  let refs = escaped_refs block in
  let key = ref_values env refs in
  let tbl = cache_for st block in
  match Hashtbl.find_opt tbl key with
  | Some vs -> vs
  | None ->
    st.counters.subquery_evals <- st.counters.subquery_evals + 1;
    let rows = run_block st sub env.Eval.blocks in
    let vs = List.map (fun row -> Rel.Tuple.get row 0) rows in
    Hashtbl.replace tbl key vs;
    vs

let run ?snap ?(params = [||]) catalog (r : Optimizer.result) =
  let st = make_state ?snap ~params catalog in
  let rows = run_block st r [] in
  let columns = List.map snd r.Optimizer.block.Semant.select in
  { columns; rows }

let run_measured ?snap ?params catalog r =
  let counters = Rss.Pager.counters (Catalog.pager catalog) in
  let before = Rss.Counters.snapshot counters in
  let out = run ?snap ?params catalog r in
  let after = Rss.Counters.snapshot counters in
  (out, Rss.Counters.diff ~after ~before)

let victims ?snap ?(params = [||]) catalog (r : Optimizer.result) =
  let st = make_state ?snap ~params catalog in
  Cursor.drain
    (Cursor.open_tids r.Optimizer.block (block_env st r []) ?snap r.Optimizer.plan)
