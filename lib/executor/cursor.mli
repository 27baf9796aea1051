(** Plan execution as tuple-at-a-time cursors (the generated code's scan
    loops, as a Volcano-style interpreter — see DESIGN.md for the
    substitution note).

    A cursor yields the composite tuples of a plan node. Nested-loop inners
    are re-opened per outer tuple with the outer composite as join context,
    turning dynamic index bounds and dynamically-bound SARGs into constants
    for that opening. All page fetches and RSI calls incurred flow through
    the catalog's pager counters.

    Opening a node compiles its residual predicates and sort comparator into
    position-resolved closures ({!Eval.compile_preds}, {!Eval.compile_cmp})
    so the per-tuple path does no AST interpretation. *)

type t = unit -> Rel.Tuple.t option

val open_plan :
  Catalog.t ->
  Semant.block ->
  Eval.env ->
  ?snap:Rss.Mvcc.view ->
  join:Eval.frame option ->
  Plan.t ->
  t
(** [snap] is the MVCC read view every leaf scan of the plan filters
    through (threaded to {!Rss.Scan.open_segment_scan} /
    {!Rss.Scan.open_index_scan}); omitted, scans see exactly the
    not-delete-marked heap — the single-session behavior. *)

val layout_of : Semant.block -> Plan.t -> Layout.t
(** Layout of the composite tuples the plan produces. *)

val open_tids :
  Semant.block ->
  Eval.env ->
  ?snap:Rss.Mvcc.view ->
  Plan.t ->
  unit ->
  (Rss.Tid.t * Rel.Tuple.t) option
(** A cursor over a single-table plan — a scan, possibly under a [Filter] —
    that yields each qualifying tuple with its TID: the victims of DELETE and
    UPDATE. Scans open exactly as in {!open_plan}.
    @raise Invalid_argument on joins and [Sort]. *)

val drain : (unit -> 'a option) -> 'a list
