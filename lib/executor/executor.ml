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
}

(* References inside [b] (or blocks nested in it) that escape [b]: evaluated
   in the caller's environment they are the "referenced values" that
   determine the subquery's result — the memo key. Each is (frames up from
   [b] itself, tab, col), as an [E_outer] of [b] would name it. *)
let escaped_refs (b : Semant.block) =
  let acc = ref [] in
  let rec expr depth (e : Semant.sexpr) =
    match e with
    | Semant.E_outer { levels_up; tab; col } ->
      if levels_up > depth then acc := (levels_up - depth, tab, col) :: !acc
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
  List.sort_uniq compare !acc

let make_state ?snap ~params catalog =
  { catalog;
    snap;
    params;
    counters = Rss.Pager.counters (Catalog.pager catalog) }

(* The environment of block [r] below the enclosing blocks' cells [outer].
   Each nested block of its WHERE tree is compiled here, once per
   execution, with its own cell, memo key and memo table; every predicate
   naming the block gets that one compiled form. *)
let rec block_env st (r : Optimizer.result) outer =
  let subs =
    List.map (fun (b, sub) -> (b, compile_subquery st sub outer)) r.Optimizer.subresults
  in
  { Eval.outer;
    params = st.params;
    subquery =
      (fun b ->
        match List.assq_opt b subs with
        | Some eval -> eval
        | None -> invalid_arg "Executor: subquery block has no plan") }

and compile_subquery st (sub : Optimizer.result) outer =
  let cell = ref { Eval.layout = Layout.empty; tuple = [||] } in
  let env = block_env st sub (cell :: outer) in
  let run = compile_block st sub env in
  (* the memo key: the escaped references, read as [sub]'s own outer
     references, whose innermost cell is the caller's frame *)
  let key =
    List.map
      (fun (levels_up, tab, col) ->
        Eval.compile_expr env Layout.empty (Semant.E_outer { levels_up; tab; col }))
      (escaped_refs sub.Optimizer.block)
  in
  let memo = Hashtbl.create 64 in
  fun frame ->
    st.counters.subquery_calls <- st.counters.subquery_calls + 1;
    cell := frame;
    let k = List.map (fun f -> f [||]) key in
    match Hashtbl.find_opt memo k with
    | Some vs -> vs
    | None ->
      st.counters.subquery_evals <- st.counters.subquery_evals + 1;
      let vs = List.map (fun row -> Rel.Tuple.get row 0) (run ()) in
      Hashtbl.replace memo k vs;
      vs

(* Compile block [r] once — plan, select list, nested blocks — into a
   function that runs one evaluation of it. *)
and compile_block st (r : Optimizer.result) env =
  let block = r.Optimizer.block in
  let open_cur = Cursor.compile ~env ?snap:st.snap st.catalog block r.Optimizer.plan in
  let rows = Exec_agg.compile env (Cursor.layout_of block r.Optimizer.plan) block in
  fun () -> rows (open_cur ())

let run ?snap ?(params = [||]) catalog (r : Optimizer.result) =
  let st = make_state ?snap ~params catalog in
  let rows = compile_block st r (block_env st r []) () in
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
  let tid = ref (Rss.Tid.make ~page:0 ~slot:0) in
  let cur =
    Cursor.compile ~env:(block_env st r []) ?snap ~tid catalog r.Optimizer.block
      r.Optimizer.plan ()
  in
  let rec go acc =
    match cur () with None -> List.rev acc | Some t -> go ((!tid, t) :: acc)
  in
  go []
