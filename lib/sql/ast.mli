(** Abstract syntax for the SQL subset the paper exercises.

    A query block is a SELECT list, a FROM list and a WHERE tree; a statement
    may contain many blocks because a predicate operand may itself be a query
    (nested and correlated subqueries, section 6). DDL/DML statements cover
    what the examples need: CREATE TABLE / INDEX, INSERT, DELETE,
    UPDATE STATISTICS, EXPLAIN. *)

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type arith = Add | Sub | Mul | Div

type agg_fn = Avg | Min | Max | Sum | Count

type order_dir = Asc | Desc

type expr =
  | Col of { table : string option; column : string }
  | Const of Rel.Value.t
  | Param of int
      (** [?] placeholder, numbered left to right from 0; bound at
          execution (prepared statements: compile once, run many times) *)
  | Binop of arith * expr * expr
  | Agg of agg_fn * expr

type predicate =
  | Cmp of expr * comparison * expr
  | Between of expr * expr * expr      (** e BETWEEN lo AND hi *)
  | In_list of expr * Rel.Value.t list
  | In_subquery of expr * query * bool (** [true] = NOT IN *)
  | Cmp_subquery of expr * comparison * query
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

and select_item =
  | Star
  | Sel_expr of expr * string option  (** expression with optional alias *)

and query = {
  select : select_item list;
  from : (string * string option) list;  (** table name, optional alias *)
  where : predicate option;
  group_by : expr list;
  order_by : (expr * order_dir) list;
}

type column_def = {
  col_name : string;
  col_ty : Rel.Value.ty;
}

type statement =
  | Select of query
  | Explain of { search : bool; stmt : statement }
      (** EXPLAIN [SEARCH]: plan only, or the whole solution tree, of a
          SELECT or of the victim search of a DELETE / UPDATE *)
  | Create_table of { table : string; columns : column_def list }
  | Create_index of {
      index : string;
      table : string;
      columns : string list;
      clustered : bool;
    }
  | Insert of { table : string; values : Rel.Value.t list list }
  | Delete of { table : string; where : predicate option }
  | Update of {
      table : string;
      sets : (string * expr) list;  (** column := expression *)
      where : predicate option;
    }
  | Drop_table of string
  | Drop_index of string
  | Update_statistics
  | Vacuum
  | Set_histograms of bool
      (** SET HISTOGRAMS ON/OFF: whether selectivity estimation consults the
          per-column histograms UPDATE STATISTICS collects; OFF pins the
          paper's value-independent TABLE 1 constants (and disables
          cardinality feedback), for reproducing the seed benchmarks *)
  | Set_plan_cache_size of int
      (** SET PLAN_CACHE_SIZE n: LRU bound on the shared compiled-plan cache
          and its statement-text memo, so long-lived server sessions replace
          entries instead of growing without bound *)
  | Set_commit_delay of int
      (** SET COMMIT_DELAY us: engine-wide group-commit batching window in
          microseconds — how long a commit leader waits for other sessions'
          commits to join its WAL flush; 0 flushes immediately *)
  | Set_group_commit of bool
      (** SET GROUP_COMMIT ON/OFF: OFF makes every commit pay a private WAL
          flush (the baseline group commit is benchmarked against) *)
  | Begin_transaction
  | Commit
  | Rollback

(** {2 The SQL writer}

    One writer turns a tree back into SQL text, and {!Parser} reads that
    text back to the same tree: [Parser.parse_statement (to_sql s) = s] for
    every statement the parser produces. Result-column names, plan-cache
    keys ({!Normalize.canonicalize}) and the fuzzers' statements are all
    written by it. *)

val add_value : Buffer.t -> Rel.Value.t -> unit
(** A literal: a quoted string with [''] escapes, a float with the fewest
    significant digits (15 to 17) that read back to the same float, always
    with a point or an exponent, an int, or [NULL]. *)

val add_sql : Buffer.t -> statement -> unit
val to_sql : statement -> string

val pp_comparison : Format.formatter -> comparison -> unit
val pp_expr : Format.formatter -> expr -> unit
(** The writer's text of the expression; it names an unaliased result
    column. *)
