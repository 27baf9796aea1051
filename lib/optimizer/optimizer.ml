type result = {
  block : Semant.block;
  plan : Plan.t;
  search : Join_enum.stats;
  subresults : (Semant.block * result) list;
}

(* The nested blocks of [p] not already in [acc], consed on in reverse
   order: CNF may copy one block into several factors, and each distinct
   block is planned once. *)
let rec blocks_of_pred (p : Semant.spred) acc =
  match p with
  | Semant.P_in_sub { block; _ } | Semant.P_cmp_sub (_, _, block) ->
    if List.memq block acc then acc else block :: acc
  | Semant.P_and (a, b) | Semant.P_or (a, b) ->
    blocks_of_pred b (blocks_of_pred a acc)
  | Semant.P_not a -> blocks_of_pred a acc
  | Semant.P_cmp _ | Semant.P_between _ | Semant.P_in_list _ -> acc

let rec optimize ctx (block : Semant.block) =
  let factors = Normalize.factors_of_block block in
  let sub_factors, plain =
    List.partition (fun (f : Normalize.factor) -> f.has_subquery) factors
  in
  (* Boolean factors referencing no table of this block (constant predicates,
     pure outer-reference comparisons in correlated blocks) are evaluated in
     the top filter as well: no scan can absorb them. *)
  let normal, const_factors =
    List.partition (fun (f : Normalize.factor) -> f.tables <> []) plain
  in
  let subblocks =
    List.rev
      (List.fold_left
         (fun acc (f : Normalize.factor) -> blocks_of_pred f.pred acc)
         [] sub_factors)
  in
  let subresults = List.map (fun b -> (b, optimize ctx b)) subblocks in
  let env = Interesting_order.build block normal in
  let plan, search = Join_enum.plan_block ctx block ~factors:normal ~env () in
  let filter_factors = sub_factors @ const_factors in
  let plan =
    if filter_factors = [] then plan
    else begin
      (* Each nested block is evaluated once when uncorrelated; a correlated
         one is re-evaluated per candidate tuple (the executor caches by
         referenced value; the estimate here is the uncached worst case). *)
      let sub_eval_cost =
        List.fold_left
          (fun acc (b, (r : result)) ->
            let evals = if b.Semant.correlated then plan.Plan.out_card else 1. in
            Cost_model.add acc (Cost_model.scale evals r.plan.Plan.cost))
          Cost_model.zero subresults
      in
      let sel =
        List.fold_left
          (fun acc (f : Normalize.factor) ->
            acc *. Selectivity.factor ctx block f.pred)
          1. filter_factors
      in
      { Plan.node =
          Plan.Filter
            { input = plan;
              preds = List.map (fun (f : Normalize.factor) -> f.pred) filter_factors };
        tables = plan.Plan.tables;
        order = plan.Plan.order;  (* filtering preserves order *)
        cost = Cost_model.add plan.Plan.cost sub_eval_cost;
        out_card = plan.Plan.out_card *. sel }
    end
  in
  { block; plan; search; subresults }

let total_cost (ctx : Ctx.t) r = Cost_model.total ~w:ctx.Ctx.w r.plan.Plan.cost
