(** Scalar expression and predicate evaluation.

    Evaluation happens against: the current composite tuple of the block (via
    its layout), the stack of enclosing blocks' current tuples (for
    correlation references), and a subquery evaluator supplied by the
    executor (nested blocks are "subroutines which return values to the
    predicates in which they occur"). Predicates follow SQL three-valued
    (Kleene) logic — comparisons involving NULL are Unknown, and only rows
    evaluating to true qualify — which keeps the normalizer's NOT-elimination
    rewrites sound in the presence of NULLs. *)

type frame = {
  layout : Layout.t;
  tuple : Rel.Tuple.t;
}

type env = {
  blocks : frame list;
      (** enclosing blocks' current candidate tuples, innermost first *)
  params : Rel.Value.t array;
      (** bindings for [?] placeholders, by position (prepared statements) *)
  subquery : env -> Semant.block -> Rel.Value.t list;
      (** first-column values of the nested block's result, evaluated in the
          environment current at the call *)
}

val arith_fn : Ast.arith -> Rel.Value.t -> Rel.Value.t -> Rel.Value.t

(** {2 Compiled evaluation}

    Expressions and predicates are never interpreted per tuple. The
    [compile_*] family closes an expression/predicate over its environment
    once, at plan-open time: column references become captured integer
    offsets, parameters and outer-block references captured values, operators
    direct functions. The returned closures perform zero AST traversal and
    zero name resolution per tuple while preserving three-valued NULL
    semantics exactly (see DESIGN.md, "Compiled evaluation"). Binding
    environment-dependent values at compile time is sound because a cursor
    opening fixes them: nested-loop inners are re-opened (hence re-compiled)
    per outer tuple, subquery plans per evaluation. *)

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
  env -> frame option -> tab:int -> Semant.spred -> Rss.Sarg.t option
(** Render a sargable predicate on relation [tab] as an RSS search argument,
    resolving any outer-relation or outer-block column to its current value
    ([frame option] is the join context: the outer composite of a nested-loop
    inner). [None] when the predicate is not expressible as a SARG. *)

val bound_key :
  env -> frame option -> Plan.key_bound -> Rss.Btree.bound
(** Resolve an index key bound's values against the current context. *)
