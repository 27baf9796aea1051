(** Semantic analysis: the OPTIMIZER's catalog-lookup and checking phase.

    Accumulates table and column names, verifies them against the catalog,
    checks type compatibility in expressions and predicate comparisons, and
    produces resolved query blocks in which every column reference carries
    its FROM position and column position. References into enclosing blocks
    (correlation, section 6) are resolved with their nesting distance. *)

type table_ref = {
  tab_idx : int;              (** position in this block's FROM list *)
  rel : Catalog.relation;
  alias : string;             (** alias if given, else the table name *)
}

type col_ref = {
  tab : int;
  col : int;
}

type sexpr =
  | E_col of col_ref
  | E_outer of { levels_up : int; tab : int; col : int }
      (** reference to a column of a block [levels_up] levels out *)
  | E_const of Rel.Value.t
  | E_param of int
      (** [?] placeholder: a constant whose value arrives at execution *)
  | E_binop of Ast.arith * sexpr * sexpr
  | E_agg of Ast.agg_fn * sexpr

type spred =
  | P_cmp of sexpr * Ast.comparison * sexpr
  | P_between of sexpr * sexpr * sexpr
  | P_in_list of sexpr * Rel.Value.t list
  | P_in_sub of { e : sexpr; block : block; negated : bool }
  | P_cmp_sub of sexpr * Ast.comparison * block
  | P_and of spred * spred
  | P_or of spred * spred
  | P_not of spred

and block = {
  tables : table_ref list;
  select : (sexpr * string) list;   (** output expressions with names *)
  where : spred option;
  group_by : col_ref list;
  order_by : (col_ref * Ast.order_dir) list;
  correlated : bool;                (** true when the block (or a nested one
                                        evaluated with it) references an
                                        enclosing block's columns *)
  scalar_agg : bool;                (** aggregates with no GROUP BY: the block
                                        returns exactly one row *)
}

exception Error of string

val resolve : Catalog.t -> Ast.query -> block
(** @raise Error on unknown tables/columns, ambiguity, or type errors. *)

val type_of_expr : block -> sexpr -> Rel.Value.ty option
(** [None] for expressions of unknown type (NULL literal). Outer references
    are typed against the blocks recorded at resolution; the function is
    total on resolved expressions. *)

val pred_tables : spred -> int list
(** FROM positions of the current block referenced by the predicate (outer
    references excluded), sorted, without duplicates. Tables referenced by
    a subquery operand's correlation references to this block count too: a
    predicate with a correlated subquery "uses" the correlated columns. *)

val pred_correlated : spred -> bool
(** Does the predicate involve a subquery that references this block or any
    enclosing block? *)

val pred_has_subquery : spred -> bool

val param_count : block -> int
(** Number of [?] placeholders in the block (and its nested blocks): the
    arity of the binding list an execution must supply. *)

val pp_spred : Format.formatter -> spred -> unit
