type comparison = Eq | Ne | Lt | Le | Gt | Ge

type arith = Add | Sub | Mul | Div

type agg_fn = Avg | Min | Max | Sum | Count

type order_dir = Asc | Desc

type expr =
  | Col of { table : string option; column : string }
  | Const of Rel.Value.t
  | Param of int
  | Binop of arith * expr * expr
  | Agg of agg_fn * expr

type predicate =
  | Cmp of expr * comparison * expr
  | Between of expr * expr * expr
  | In_list of expr * Rel.Value.t list
  | In_subquery of expr * query * bool
  | Cmp_subquery of expr * comparison * query
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

and select_item =
  | Star
  | Sel_expr of expr * string option

and query = {
  select : select_item list;
  from : (string * string option) list;
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
      sets : (string * expr) list;
      where : predicate option;
    }
  | Drop_table of string
  | Drop_index of string
  | Update_statistics
  | Vacuum
  | Set_histograms of bool
  | Set_plan_cache_size of int
  | Set_commit_delay of int
  | Set_group_commit of bool
  | Begin_transaction
  | Commit
  | Rollback

let comparison_str = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let pp_comparison ppf c = Format.pp_print_string ppf (comparison_str c)

let arith_str = function Add -> " + " | Sub -> " - " | Mul -> " * " | Div -> " / "

let agg_str = function
  | Avg -> "AVG(" | Min -> "MIN(" | Max -> "MAX(" | Sum -> "SUM(" | Count -> "COUNT("

(* --- the SQL writer ------------------------------------------------------ *)

(* One writer turns every tree back into SQL text that [Parser] reads to the
   same tree. It names result columns, writes the plan-cache key (so two
   statements share a key only when they share a canonical tree) and writes
   the fuzzers' statements. It fills a Buffer and never goes through Format:
   the cache key is written on every probe. Arithmetic and AND/OR are fully
   parenthesized, so reading back needs no precedence rule. Covered: every
   tree the parser produces, i.e. finite floats and ints above [min_int]. *)

let str = Buffer.add_string
let chr = Buffer.add_char

let add_value b (v : Rel.Value.t) =
  match v with
  | Rel.Value.Int i -> str b (string_of_int i)
  | Rel.Value.Float f ->
    (* the shortest of 15, 16 or 17 significant digits that reads back *)
    let s = Printf.sprintf "%.15g" f in
    let s =
      if float_of_string s = f then s
      else
        let s = Printf.sprintf "%.16g" f in
        if float_of_string s = f then s else Printf.sprintf "%.17g" f
    in
    str b s;
    (* "%g" drops the point of an integral value: the lexer would read an INT *)
    if not (String.exists (fun c -> c = '.' || c = 'e') s) then str b ".0"
  | Rel.Value.Str s ->
    chr b '\'';
    if String.contains s '\'' then
      String.iter (fun c -> if c = '\'' then str b "''" else chr b c) s
    else str b s;
    chr b '\''
  | Rel.Value.Null -> str b "NULL"

let add_list b add xs =
  List.iteri (fun i x -> if i > 0 then str b ", "; add b x) xs

let rec add_expr b = function
  | Col { table; column } ->
    Option.iter (fun t -> str b t; chr b '.') table;
    str b column
  | Const v -> add_value b v
  | Param _ -> chr b '?'
  | Binop (op, x, y) ->
    chr b '('; add_expr b x; str b (arith_str op); add_expr b y; chr b ')'
  | Agg (f, e) -> str b (agg_str f); add_expr b e; chr b ')'

let add_cmp b x c = add_expr b x; chr b ' '; str b (comparison_str c); chr b ' '

let rec add_predicate b = function
  | Cmp (x, c, y) -> add_cmp b x c; add_expr b y
  | Between (e, lo, hi) ->
    add_expr b e; str b " BETWEEN "; add_expr b lo; str b " AND "; add_expr b hi
  | In_list (e, vs) -> add_expr b e; str b " IN ("; add_list b add_value vs; chr b ')'
  | In_subquery (e, q, negated) ->
    add_expr b e;
    str b (if negated then " NOT IN (" else " IN (");
    add_query b q;
    chr b ')'
  | Cmp_subquery (e, c, q) -> add_cmp b e c; chr b '('; add_query b q; chr b ')'
  | And (x, y) -> add_connective b x " AND " y
  | Or (x, y) -> add_connective b x " OR " y
  | Not p -> str b "NOT ("; add_predicate b p; chr b ')'

and add_connective b x op y =
  chr b '('; add_predicate b x; str b op; add_predicate b y; chr b ')'

and add_where b where = Option.iter (fun p -> str b " WHERE "; add_predicate b p) where

and add_query b q =
  str b "SELECT ";
  add_list b
    (fun b -> function
      | Star -> chr b '*'
      | Sel_expr (e, alias) ->
        add_expr b e;
        Option.iter (fun a -> str b " AS "; str b a) alias)
    q.select;
  str b " FROM ";
  add_list b
    (fun b (t, alias) -> str b t; Option.iter (fun a -> chr b ' '; str b a) alias)
    q.from;
  add_where b q.where;
  (match q.group_by with
   | [] -> ()
   | es -> str b " GROUP BY "; add_list b add_expr es);
  match q.order_by with
  | [] -> ()
  | keys ->
    str b " ORDER BY ";
    add_list b (fun b (e, d) -> add_expr b e; if d = Desc then str b " DESC") keys

let rec add_sql b stmt =
  let on_off on = if on then "ON" else "OFF" in
  match stmt with
  | Select q -> add_query b q
  | Explain { search; stmt } ->
    str b (if search then "EXPLAIN SEARCH " else "EXPLAIN "); add_sql b stmt
  | Create_table { table; columns } ->
    str b "CREATE TABLE "; str b table; str b " (";
    add_list b
      (fun b c -> str b c.col_name; chr b ' '; str b (Rel.Value.ty_to_string c.col_ty))
      columns;
    chr b ')'
  | Create_index { index; table; columns; clustered } ->
    str b (if clustered then "CREATE CLUSTERED INDEX " else "CREATE INDEX ");
    str b index; str b " ON "; str b table; str b " (";
    add_list b str columns;
    chr b ')'
  | Insert { table; values } ->
    str b "INSERT INTO "; str b table; str b " VALUES ";
    add_list b (fun b row -> chr b '('; add_list b add_value row; chr b ')') values
  | Delete { table; where } -> str b "DELETE FROM "; str b table; add_where b where
  | Update { table; sets; where } ->
    str b "UPDATE "; str b table; str b " SET ";
    add_list b (fun b (c, e) -> str b c; str b " = "; add_expr b e) sets;
    add_where b where
  | Drop_table t -> str b "DROP TABLE "; str b t
  | Drop_index i -> str b "DROP INDEX "; str b i
  | Update_statistics -> str b "UPDATE STATISTICS"
  | Vacuum -> str b "VACUUM"
  | Set_histograms on -> str b "SET HISTOGRAMS "; str b (on_off on)
  | Set_plan_cache_size n -> str b "SET PLAN_CACHE_SIZE "; str b (string_of_int n)
  | Set_commit_delay us -> str b "SET COMMIT_DELAY "; str b (string_of_int us)
  | Set_group_commit on -> str b "SET GROUP_COMMIT "; str b (on_off on)
  | Begin_transaction -> str b "BEGIN"
  | Commit -> str b "COMMIT"
  | Rollback -> str b "ROLLBACK"

let to_sql stmt =
  let b = Buffer.create 128 in
  add_sql b stmt;
  Buffer.contents b

let pp_expr ppf e =
  let b = Buffer.create 32 in
  add_expr b e;
  Format.pp_print_string ppf (Buffer.contents b)
