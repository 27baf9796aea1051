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
  | Set_parallelism of int
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

let arith_str = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let agg_str = function
  | Avg -> "AVG" | Min -> "MIN" | Max -> "MAX" | Sum -> "SUM" | Count -> "COUNT"

let rec pp_expr ppf = function
  | Col { table = None; column } -> Format.pp_print_string ppf column
  | Col { table = Some t; column } -> Format.fprintf ppf "%s.%s" t column
  | Const v -> Rel.Value.pp ppf v
  | Param _ -> Format.pp_print_string ppf "?"
  | Binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_expr a (arith_str op) pp_expr b
  | Agg (f, e) -> Format.fprintf ppf "%s(%a)" (agg_str f) pp_expr e

let pp_sep s ppf () = Format.pp_print_string ppf s

let rec pp_predicate ppf = function
  | Cmp (a, c, b) ->
    Format.fprintf ppf "%a %s %a" pp_expr a (comparison_str c) pp_expr b
  | Between (e, lo, hi) ->
    Format.fprintf ppf "%a BETWEEN %a AND %a" pp_expr e pp_expr lo pp_expr hi
  | In_list (e, vs) ->
    Format.fprintf ppf "%a IN (%a)" pp_expr e
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") Rel.Value.pp)
      vs
  | In_subquery (e, q, negated) ->
    Format.fprintf ppf "%a %sIN (%a)" pp_expr e
      (if negated then "NOT " else "")
      pp_query q
  | Cmp_subquery (e, c, q) ->
    Format.fprintf ppf "%a %s (%a)" pp_expr e (comparison_str c) pp_query q
  | And (a, b) -> Format.fprintf ppf "(%a AND %a)" pp_predicate a pp_predicate b
  | Or (a, b) -> Format.fprintf ppf "(%a OR %a)" pp_predicate a pp_predicate b
  | Not p -> Format.fprintf ppf "NOT (%a)" pp_predicate p

and pp_select_item ppf = function
  | Star -> Format.pp_print_string ppf "*"
  | Sel_expr (e, None) -> pp_expr ppf e
  | Sel_expr (e, Some a) -> Format.fprintf ppf "%a AS %s" pp_expr e a

and pp_query ppf q =
  Format.fprintf ppf "SELECT %a FROM %a"
    (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_select_item)
    q.select
    (Format.pp_print_list ~pp_sep:(pp_sep ", ") (fun ppf (t, a) ->
         match a with
         | None -> Format.pp_print_string ppf t
         | Some a -> Format.fprintf ppf "%s %s" t a))
    q.from;
  Option.iter (fun w -> Format.fprintf ppf " WHERE %a" pp_predicate w) q.where;
  (match q.group_by with
   | [] -> ()
   | gs ->
     Format.fprintf ppf " GROUP BY %a"
       (Format.pp_print_list ~pp_sep:(pp_sep ", ") pp_expr)
       gs);
  match q.order_by with
  | [] -> ()
  | os ->
    Format.fprintf ppf " ORDER BY %a"
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") (fun ppf (e, d) ->
           Format.fprintf ppf "%a %s" pp_expr e
             (match d with Asc -> "ASC" | Desc -> "DESC")))
      os

let rec pp_statement ppf = function
  | Select q -> pp_query ppf q
  | Explain { search; stmt } ->
    Format.fprintf ppf "EXPLAIN %s%a" (if search then "SEARCH " else "")
      pp_statement stmt
  | Create_table { table; columns } ->
    Format.fprintf ppf "CREATE TABLE %s (%a)" table
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") (fun ppf c ->
           Format.fprintf ppf "%s %s" c.col_name (Rel.Value.ty_to_string c.col_ty)))
      columns
  | Create_index { index; table; columns; clustered } ->
    Format.fprintf ppf "CREATE %sINDEX %s ON %s (%a)"
      (if clustered then "CLUSTERED " else "")
      index table
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") Format.pp_print_string)
      columns
  | Insert { table; values } ->
    Format.fprintf ppf "INSERT INTO %s VALUES %a" table
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") (fun ppf row ->
           Format.fprintf ppf "(%a)"
             (Format.pp_print_list ~pp_sep:(pp_sep ", ") Rel.Value.pp)
             row))
      values
  | Delete { table; where } ->
    Format.fprintf ppf "DELETE FROM %s" table;
    Option.iter (fun w -> Format.fprintf ppf " WHERE %a" pp_predicate w) where
  | Update { table; sets; where } ->
    Format.fprintf ppf "UPDATE %s SET %a" table
      (Format.pp_print_list ~pp_sep:(pp_sep ", ") (fun ppf (c, e) ->
           Format.fprintf ppf "%s = %a" c pp_expr e))
      sets;
    Option.iter (fun w -> Format.fprintf ppf " WHERE %a" pp_predicate w) where
  | Drop_table t -> Format.fprintf ppf "DROP TABLE %s" t
  | Drop_index i -> Format.fprintf ppf "DROP INDEX %s" i
  | Update_statistics -> Format.pp_print_string ppf "UPDATE STATISTICS"
  | Vacuum -> Format.pp_print_string ppf "VACUUM"
  | Set_parallelism n -> Format.fprintf ppf "SET PARALLELISM %d" n
  | Set_histograms b ->
    Format.fprintf ppf "SET HISTOGRAMS %s" (if b then "ON" else "OFF")
  | Set_plan_cache_size n -> Format.fprintf ppf "SET PLAN_CACHE_SIZE %d" n
  | Set_commit_delay us -> Format.fprintf ppf "SET COMMIT_DELAY %d" us
  | Set_group_commit b ->
    Format.fprintf ppf "SET GROUP_COMMIT %s" (if b then "ON" else "OFF")
  | Begin_transaction -> Format.pp_print_string ppf "BEGIN"
  | Commit -> Format.pp_print_string ppf "COMMIT"
  | Rollback -> Format.pp_print_string ppf "ROLLBACK"
