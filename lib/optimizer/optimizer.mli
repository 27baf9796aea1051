(** The OPTIMIZER driver.

    Determines evaluation order among query blocks (subqueries are planned
    recursively and, when uncorrelated, evaluated before their parent), runs
    the join search for each block, and attaches the subquery-bearing boolean
    factors as a filter above the block's joins — their evaluation requires
    the nested plans, so they cannot be pushed into the RSS. *)

type result = {
  block : Semant.block;
  plan : Plan.t;
  search : Join_enum.stats;
  subresults : (Semant.block * result) list;
      (** plans for the subquery blocks appearing in this block's WHERE tree,
          keyed by physical identity of the block: one per distinct block,
          even when CNF copied it into several factors *)
}

val optimize : Ctx.t -> Semant.block -> result

val total_cost : Ctx.t -> result -> float
(** COST = PAGE FETCHES + W * RSI CALLS of the chosen plan. *)
