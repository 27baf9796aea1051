(** Streaming aggregation and select-list projection over a block's composite
    tuples.

    Handles the three result shapes: plain projection, scalar aggregates
    (single row, as required of subqueries like SELECT AVG(SALARY)), and
    GROUP BY over group-ordered input. The [*_stream] functions consume a
    plan cursor one tuple at a time: aggregation folds each tuple into
    constant-size accumulators (running count / sum / min / max — no
    per-group tuple or value lists), so a group's state is O(1) regardless
    of cardinality and the input is never materialized.

    The select list is closed over the layout once, at cursor-open time, and
    position-resolved closures are applied per tuple. *)

val project_stream :
  Eval.env ->
  Layout.t ->
  Semant.block ->
  (unit -> Rel.Tuple.t option) ->
  Rel.Tuple.t list
(** Evaluate the select list per cursor tuple (no aggregates). *)

val scalar_stream :
  Eval.env ->
  Layout.t ->
  Semant.block ->
  (unit -> Rel.Tuple.t option) ->
  Rel.Tuple.t
(** One output row; aggregates folded over the whole cursor in a single pass
    (COUNT of empty input is 0, other aggregates NULL). *)

val group_stream :
  Eval.env ->
  Layout.t ->
  Semant.block ->
  (unit -> Rel.Tuple.t option) ->
  Rel.Tuple.t list
(** Input must arrive ordered on the GROUP BY columns; one row per group,
    emitted as each group's sorted run streams by. *)
