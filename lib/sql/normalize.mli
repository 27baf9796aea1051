(** WHERE-tree normalization.

    The optimizer considers the WHERE tree in conjunctive normal form; every
    conjunct is a {e boolean factor} — every returned tuple must satisfy
    every factor. A factor may be a whole OR-tree. This module converts
    resolved predicates to CNF — sound under the engine's SQL three-valued
    logic, where the standard rewrites (De Morgan, comparison negation,
    NOT BETWEEN / NOT IN expansions) preserve semantics even for NULL
    operands — and classifies factors:
    which tables they reference, whether they are sargable for a table (and
    the SARG in RSS form), and whether they are equi-join predicates. *)

type factor = {
  pred : Semant.spred;
  tables : int list;  (** FROM positions referenced, sorted *)
  sarg : (int * Rss.Sarg.t) option;
      (** when statically sargable: the single table it restricts and the
          DNF search argument over that relation's column positions *)
  sargable_at_open : bool;
      (** sargable once [?] placeholders are bound (a superset of
          [sarg <> None]); such factors filter inside the RSS at execution *)
  equi_join : (Semant.col_ref * Semant.col_ref) option;
      (** when the factor is T1.c1 = T2.c2 with distinct tables *)
  simple : (Semant.col_ref * Rss.Sarg.op * Rel.Value.t) option;
      (** when the factor is a single column-op-constant predicate (the form
          index matching works from) *)
  between : (Semant.col_ref * Rel.Value.t * Rel.Value.t) option;
      (** when the factor is column BETWEEN const AND const: one factor
          supplying both index bounds, with TABLE 1's own selectivity *)
  has_subquery : bool;
}

val boolean_factors : Semant.spred -> Semant.spred list
(** CNF conjuncts. A positive BETWEEN stays one factor (a negated one opens
    into its two strict comparisons). Distribution of OR over AND is capped;
    pathological inputs stay as single un-distributed factors. *)

val factors_of_block : Semant.block -> factor list
(** [boolean_factors] of the block's WHERE, classified. *)

(** A position of a canonical statement's parameter vector: a WHERE
    literal extracted from the statement, or the user's [?] number [i]. *)
type slot = Lit of Rel.Value.t | Arg of int

val canonicalize : Ast.query -> string * Ast.query * slot array
(** A statement's shape: its plan-cache key, the canonical query and its
    slots. WHERE-clause literal operands (of comparisons and BETWEEN, at
    every nesting depth) and every [?] become [Param]s numbered left to
    right; IN-list values and SELECT / GROUP BY / ORDER BY literals stay in
    place. The key is the canonical query as SQL ({!Ast.add_sql}, which the
    parser reads back to the same query), so [A = 5] and [A = ?] share one
    key and one plan, and a literal's type is not part of it. *)

val bind : Ast.query -> Rel.Value.t array -> Ast.query
(** Replace every [?] placeholder [i] with the literal [values.(i)]: the
    statement as the Simple path would have received it. *)

val fingerprint : Ast.query -> (string * Ast.query * Rel.Value.t list) option
(** {!canonicalize}'s key and canonical query, plus the extracted literals
    in slot order: the whole parameter vector of a statement without [?].
    [Some] for every SELECT. *)
