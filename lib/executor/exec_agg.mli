(** Streaming aggregation and select-list projection over a block's composite
    tuples.

    Handles the three result shapes: plain projection, scalar aggregates
    (single row, as required of subqueries like SELECT AVG(SALARY)), and
    GROUP BY over group-ordered input. A compiled block consumes a plan
    cursor one tuple at a time: aggregation folds each tuple into
    constant-size accumulators (running count / sum / min / max — no
    per-group tuple or value lists), so a group's state is O(1) regardless
    of cardinality and the input is never materialized. Position-resolved
    closures, built once per execution, are applied per tuple. *)

val compile :
  Eval.env ->
  Layout.t ->
  Semant.block ->
  (unit -> Rel.Tuple.t option) ->
  Rel.Tuple.t list
(** [compile env layout block] closes [block]'s select list (and a grouped
    block's ORDER BY) over [layout], once; applied to a plan cursor, it
    folds the cursor into the block's result rows: the projected rows; one
    row of scalar aggregates (COUNT of empty input is 0, other aggregates
    NULL); or, for GROUP BY over input ordered on the grouping columns, one
    row per group, emitted as each group's run streams by.
    @raise Invalid_argument (at compile time) when an ORDER BY column of a
    grouped block is absent from its select list. *)
