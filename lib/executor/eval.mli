(** Scalar expression and predicate evaluation.

    Evaluation happens against: the current composite tuple of the block (via
    its layout), the cells holding the enclosing blocks' current tuples (for
    correlation references), and the nested blocks compiled by the executor
    (nested blocks are "subroutines which return values to the predicates in
    which they occur"). Predicates follow SQL three-valued
    (Kleene) logic — comparisons involving NULL are Unknown, and only rows
    evaluating to true qualify — which keeps the normalizer's NOT-elimination
    rewrites sound in the presence of NULLs. *)

type frame = {
  layout : Layout.t;
  tuple : Rel.Tuple.t;
}

type env = {
  outer : frame ref list;
      (** enclosing blocks' current candidate tuples, innermost first: the
          caller of a nested block sets its cell before each evaluation *)
  params : Rel.Value.t array;
      (** bindings for [?] placeholders, by position (prepared statements) *)
  subquery : Semant.block -> frame -> Rel.Value.t list;
      (** [subquery b] is nested block [b], compiled once; applied to the
          calling predicate's frame, it returns the first-column values of
          [b]'s result *)
}

val arith_fn : Ast.arith -> Rel.Value.t -> Rel.Value.t -> Rel.Value.t

(** {2 Compiled evaluation}

    Expressions and predicates are never interpreted per tuple. The
    [compile_*] family closes an expression/predicate over its environment
    once per execution: column references become captured integer offsets,
    parameters captured values, outer-block references reads of the
    enclosing block's cell, operators direct functions. The returned
    closures perform zero AST traversal and zero name resolution per tuple
    while preserving three-valued NULL semantics exactly (see DESIGN.md,
    "Compiled evaluation"). What changes within an execution — a nested-loop
    inner's outer tuple, an enclosing block's tuple — is read when a cursor
    opens or a tuple is tested, never compiled in. *)

val compile_expr : env -> Layout.t -> Semant.sexpr -> Rel.Tuple.t -> Rel.Value.t
(** @raise Not_found at compile time when a column is not in the layout.
    The closure raises [Invalid_argument] on an aggregate (those are computed
    by {!Exec_agg}, never inline). *)

val compile_pred : env -> Layout.t -> Semant.spred -> Rel.Tuple.t -> bool option
(** Three-valued (Kleene) result: [None] is Unknown; a WHERE keeps a row
    only on [Some true]. *)

val compile_preds : env -> Layout.t -> Semant.spred list -> Rel.Tuple.t -> bool
(** Conjunction of compiled predicates; [true] iff every one evaluates to
    true. Non-subquery conjuncts are compiled in boolean context — the
    closure decides "does this evaluate to true" directly, with NULL tests
    inlined and no three-valued result materialized — and may short-circuit
    an operand once the answer is decided (expression evaluation is pure, so
    results are unaffected). Subquery conjuncts keep the exact three-valued
    path of {!compile_pred}. *)

val compile_preds_pair :
  env ->
  Layout.t ->
  Layout.t ->
  Semant.spred list ->
  Rel.Tuple.t ->
  Rel.Tuple.t ->
  bool
(** Boolean-context conjunction over the pair, as {!compile_preds}.
    @raise Invalid_argument (at compile time) on subquery predicates — those
    need a composite frame for correlation; partition on
    {!Semant.pred_has_subquery} and route them through {!compile_pred}. *)

val compile_cmp_pos :
  (int * Ast.order_dir) list -> Rel.Tuple.t -> Rel.Tuple.t -> int
(** Lexicographic comparator over resolved positions (sort keys, ORDER BY). *)

val compile_cmp :
  Layout.t ->
  (Semant.col_ref * Ast.order_dir) list ->
  Rel.Tuple.t ->
  Rel.Tuple.t ->
  int

val compile_sarg :
  env ->
  Layout.t option ->
  tab:int ->
  Semant.spred ->
  (Rel.Tuple.t -> Rss.Sarg.t) option
(** Render a sargable predicate on relation [tab] as an RSS search argument,
    given the join tuple (the outer composite of a nested-loop inner, whose
    layout is the [Layout.t option]) when a scan opens; outer-block columns
    take their enclosing block's current value. [None] when the predicate is
    not expressible as a SARG in this context. *)

val bound_key : env -> Layout.t option -> Plan.key_bound -> Rel.Tuple.t -> Rss.Btree.bound
(** [bound_key env join b] resolves positions once; applied to the join
    tuple, it yields the key bound's values.
    @raise Invalid_argument (when applied) on an unbound parameter or an
    outer-column bound without a join layout. *)
