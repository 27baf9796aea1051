(** Top-level plan execution.

    Runs an optimized query block: compiles the block once per execution —
    its plan ({!Cursor.compile}), select list and every nested block — then
    opens the cursor, aggregates and projects, evaluating nested blocks on
    demand. Uncorrelated subqueries are evaluated once and their value
    reused; correlated subqueries are re-evaluated per candidate tuple, with
    results cached by the referenced outer values — the generalization of the paper's
    "if the referenced value is the same as in the previous candidate tuple,
    the previous result can be used again" optimization (and it also covers
    the ordered-relation and intermediate-block cases of section 6). *)

type output = {
  columns : string list;
  rows : Rel.Tuple.t list;
}

val run :
  ?snap:Rss.Mvcc.view ->
  ?params:Rel.Value.t array ->
  Catalog.t ->
  Optimizer.result ->
  output
(** [snap] is the MVCC read view threaded to every leaf scan, subquery
    blocks included (see {!Cursor.compile}).

    Residual predicates, select expressions, grouping keys and ORDER BY
    comparators are closed into position-resolved closures once per
    execution (see DESIGN.md, "Compiled evaluation").
    @raise Invalid_argument when a scalar subquery returns several rows or an
    ORDER BY column of a grouped query is absent from its select list. *)

val run_measured :
  ?snap:Rss.Mvcc.view ->
  ?params:Rel.Value.t array ->
  Catalog.t ->
  Optimizer.result ->
  output * Rss.Counters.t
(** Execute with the pager counters snapshotted around the run (the buffer
    pool is NOT cleared; callers wanting cold-cache numbers should call
    {!Rss.Pager.evict_all} first). The returned diff includes
    [subquery_calls] (predicate-level subquery invocations) and
    [subquery_evals] (nested blocks actually executed). *)

val victims :
  ?snap:Rss.Mvcc.view ->
  ?params:Rel.Value.t array ->
  Catalog.t ->
  Optimizer.result ->
  (Rss.Tid.t * Rel.Tuple.t) list
(** The qualifying tuples of a single-table block, each with its TID, fully
    drained before the caller changes anything (the DML victim list, and
    with it the Halloween protection). The plan compiles and opens as under
    {!run}, subqueries included; only its leaf scan also keeps each tuple's
    TID. The plan must be a scan, possibly under a [Filter]. *)
