(** Plan execution as tuple-at-a-time cursors (the generated code's scan
    loops, as a Volcano-style interpreter — see DESIGN.md for the
    substitution note).

    A plan is compiled once per execution, the access module of the paper's
    code generator: each node's relation, layouts, compiled residual and
    pair predicates ({!Eval.compile_preds}, {!Eval.compile_preds_pair}), sort
    comparator and the SARG factors over constants and parameters are
    resolved then. Opening the compiled plan binds only what changes within
    an execution: a nested-loop inner, compiled once, is opened per outer
    tuple, and the opening renders its outer-valued key bounds and SARG
    factors from that tuple. All page fetches and RSI calls incurred flow
    through the catalog's pager counters. *)

type t = unit -> Rel.Tuple.t option

val compile :
  ?env:Eval.env ->
  ?snap:Rss.Mvcc.view ->
  ?tid:Rss.Tid.t ref ->
  Catalog.t ->
  Semant.block ->
  Plan.t ->
  unit ->
  t
(** [compile catalog block plan] compiles [plan], bumping [nodes_compiled]
    once per node; each application to [()] opens a fresh cursor. [env]
    supplies parameters, enclosing blocks and nested blocks (default: none).
    [snap] is the MVCC read view every leaf scan filters through; omitted,
    scans see exactly the not-delete-marked heap. [tid], on a scan possibly
    under a [Filter], receives each returned tuple's TID: the victims of
    DELETE and UPDATE. *)

val layout_of : Semant.block -> Plan.t -> Layout.t
(** Layout of the composite tuples the plan produces. *)

val drain : (unit -> 'a option) -> 'a list
