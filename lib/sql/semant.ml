type table_ref = {
  tab_idx : int;
  rel : Catalog.relation;
  alias : string;
}

type col_ref = {
  tab : int;
  col : int;
}

type sexpr =
  | E_col of col_ref
  | E_outer of { levels_up : int; tab : int; col : int }
  | E_const of Rel.Value.t
  | E_param of int
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
  select : (sexpr * string) list;
  where : spred option;
  group_by : col_ref list;
  order_by : (col_ref * Ast.order_dir) list;
  correlated : bool;
  scalar_agg : bool;
}

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Resolution environment: a stack of frames, innermost first. Each frame
   lists the tables of one query block; [escapes] is flipped when a lookup
   from a block nested inside this frame resolves outside it. *)

type frame = {
  f_tables : table_ref list;
  mutable escapes : bool;
}

let find_in_frame frame ~table ~column =
  match table with
  | Some tname ->
    let tname = String.lowercase_ascii tname in
    (match
       List.find_opt
         (fun tr -> String.lowercase_ascii tr.alias = tname)
         frame.f_tables
     with
     | None -> `No_table
     | Some tr ->
       (match Rel.Schema.index_of tr.rel.Catalog.schema column with
        | Some col -> `Found (tr.tab_idx, col)
        | None -> `No_column tr.alias))
  | None ->
    let hits =
      List.filter_map
        (fun tr ->
          Option.map
            (fun col -> (tr.tab_idx, col))
            (Rel.Schema.index_of tr.rel.Catalog.schema column))
        frame.f_tables
    in
    (match hits with
     | [] -> `No_table
     | [ hit ] -> `Found hit
     | _ :: _ :: _ -> `Ambiguous)

let lookup_column frames ~table ~column =
  let rec go level = function
    | [] ->
      (match table with
       | Some t -> err "unknown column %s.%s" t column
       | None -> err "unknown column %s" column)
    | frame :: outer ->
      (match find_in_frame frame ~table ~column with
       | `Found (tab, col) ->
         (* every frame the lookup skipped hosts a correlated block *)
         List.iteri
           (fun i f -> if i < level then f.escapes <- true)
           frames;
         if level = 0 then E_col { tab; col }
         else E_outer { levels_up = level; tab; col }
       | `Ambiguous -> err "ambiguous column %s" column
       | `No_column alias -> err "no column %s in %s" column alias
       | `No_table -> go (level + 1) outer)
  in
  go 0 frames

(* ------------------------------------------------------------------ *)
(* Typing *)

let rec type_in_frames frames e : Rel.Value.ty option =
  let frame_tables level =
    match List.nth_opt frames level with
    | Some f -> f.f_tables
    | None -> err "internal: outer reference beyond frame stack"
  in
  match e with
  | E_const v -> Rel.Value.type_of v
  | E_param _ -> None
  | E_col { tab; col } ->
    let tr = List.nth (frame_tables 0) tab in
    Some (Rel.Schema.column tr.rel.Catalog.schema col).ty
  | E_outer { levels_up; tab; col } ->
    let tr = List.nth (frame_tables levels_up) tab in
    Some (Rel.Schema.column tr.rel.Catalog.schema col).ty
  | E_binop (_, a, b) ->
    (match type_in_frames frames a, type_in_frames frames b with
     | Some Rel.Value.Tstr, _ | _, Some Rel.Value.Tstr ->
       err "arithmetic on a string operand"
     | Some Rel.Value.Tfloat, _ | _, Some Rel.Value.Tfloat ->
       Some Rel.Value.Tfloat
     | Some Rel.Value.Tint, _ | _, Some Rel.Value.Tint -> Some Rel.Value.Tint
     | None, None -> None)
  | E_agg (Ast.Count, _) -> Some Rel.Value.Tint
  | E_agg (Ast.Avg, a) ->
    (match type_in_frames frames a with
     | Some Rel.Value.Tstr -> err "AVG of a string column"
     | _ -> Some Rel.Value.Tfloat)
  | E_agg ((Ast.Min | Ast.Max), a) -> type_in_frames frames a
  | E_agg (Ast.Sum, a) ->
    (match type_in_frames frames a with
     | Some Rel.Value.Tstr -> err "SUM of a string column"
     | ty -> ty)

let same_class a b =
  match a, b with
  | None, _ | _, None -> true
  | Some Rel.Value.Tstr, Some Rel.Value.Tstr -> true
  | Some (Rel.Value.Tint | Rel.Value.Tfloat), Some (Rel.Value.Tint | Rel.Value.Tfloat)
    -> true
  | Some Rel.Value.Tstr, Some (Rel.Value.Tint | Rel.Value.Tfloat)
  | Some (Rel.Value.Tint | Rel.Value.Tfloat), Some Rel.Value.Tstr -> false

let check_comparable frames what a b =
  if not (same_class (type_in_frames frames a) (type_in_frames frames b)) then
    err "type mismatch in %s (string compared with number)" what

(* ------------------------------------------------------------------ *)
(* Expression / predicate resolution *)

let rec contains_agg = function
  | E_agg _ -> true
  | E_binop (_, a, b) -> contains_agg a || contains_agg b
  | E_col _ | E_outer _ | E_const _ | E_param _ -> false

let rec resolve_expr catalog frames ~allow_agg (e : Ast.expr) : sexpr =
  match e with
  | Ast.Const v -> E_const v
  | Ast.Param i -> E_param i
  | Ast.Col { table; column } -> lookup_column frames ~table ~column
  | Ast.Binop (op, a, b) ->
    let a = resolve_expr catalog frames ~allow_agg a in
    let b = resolve_expr catalog frames ~allow_agg b in
    let e = E_binop (op, a, b) in
    ignore (type_in_frames frames e);
    e
  | Ast.Agg (f, a) ->
    if not allow_agg then err "aggregate function not allowed here";
    let a = resolve_expr catalog frames ~allow_agg:false a in
    let e = E_agg (f, a) in
    ignore (type_in_frames frames e);
    e

let rec resolve_pred catalog frames (p : Ast.predicate) : spred =
  match p with
  | Ast.Cmp (a, c, b) ->
    let a = resolve_expr catalog frames ~allow_agg:false a in
    let b = resolve_expr catalog frames ~allow_agg:false b in
    check_comparable frames "comparison" a b;
    P_cmp (a, c, b)
  | Ast.Between (e, lo, hi) ->
    let e = resolve_expr catalog frames ~allow_agg:false e in
    let lo = resolve_expr catalog frames ~allow_agg:false lo in
    let hi = resolve_expr catalog frames ~allow_agg:false hi in
    check_comparable frames "BETWEEN" e lo;
    check_comparable frames "BETWEEN" e hi;
    P_between (e, lo, hi)
  | Ast.In_list (e, vs) ->
    let e = resolve_expr catalog frames ~allow_agg:false e in
    List.iter (fun v -> check_comparable frames "IN list" e (E_const v)) vs;
    P_in_list (e, vs)
  | Ast.In_subquery (e, q, negated) ->
    let e = resolve_expr catalog frames ~allow_agg:false e in
    let block = resolve_block catalog frames q in
    if List.length block.select <> 1 then
      err "subquery in IN must select exactly one column";
    check_comparable frames "IN subquery" e (E_const Rel.Value.Null);
    P_in_sub { e; block; negated }
  | Ast.Cmp_subquery (e, c, q) ->
    let e = resolve_expr catalog frames ~allow_agg:false e in
    let block = resolve_block catalog frames q in
    if List.length block.select <> 1 then
      err "scalar subquery must select exactly one column";
    P_cmp_sub (e, c, block)
  | Ast.And (a, b) -> P_and (resolve_pred catalog frames a, resolve_pred catalog frames b)
  | Ast.Or (a, b) -> P_or (resolve_pred catalog frames a, resolve_pred catalog frames b)
  | Ast.Not a -> P_not (resolve_pred catalog frames a)

and resolve_block catalog outer_frames (q : Ast.query) : block =
  if q.from = [] then err "empty FROM list";
  let tables =
    List.mapi
      (fun tab_idx (tname, alias) ->
        match Catalog.find_relation catalog tname with
        | None -> err "unknown table %s" tname
        | Some rel ->
          { tab_idx; rel; alias = Option.value alias ~default:tname })
      q.from
  in
  (* duplicate alias check *)
  let aliases = List.map (fun tr -> String.lowercase_ascii tr.alias) tables in
  let sorted = List.sort String.compare aliases in
  let rec dup = function
    | a :: b :: _ when a = b -> Some a
    | _ :: rest -> dup rest
    | [] -> None
  in
  (match dup sorted with
   | Some a -> err "duplicate table alias %s" a
   | None -> ());
  let frame = { f_tables = tables; escapes = false } in
  let frames = frame :: outer_frames in
  let select =
    List.concat_map
      (function
        | Ast.Star ->
          List.concat_map
            (fun tr ->
              List.mapi
                (fun col (c : Rel.Schema.column) ->
                  (E_col { tab = tr.tab_idx; col }, c.name))
                (Rel.Schema.columns tr.rel.Catalog.schema))
            tables
        | Ast.Sel_expr (e, alias) ->
          let se = resolve_expr catalog frames ~allow_agg:true e in
          let name =
            match alias, e with
            | Some a, _ -> a
            | None, Ast.Col { column; _ } -> column
            | None, _ -> Format.asprintf "%a" Ast.pp_expr e
          in
          [ (se, name) ])
      q.select
  in
  let where = Option.map (resolve_pred catalog frames) q.where in
  let as_col what e =
    match resolve_expr catalog frames ~allow_agg:false e with
    | E_col c -> c
    | E_outer _ | E_const _ | E_param _ | E_binop _ | E_agg _ ->
      err "%s must name a column of this block" what
  in
  let group_by = List.map (as_col "GROUP BY") q.group_by in
  let order_by = List.map (fun (e, d) -> (as_col "ORDER BY" e, d)) q.order_by in
  (* aggregate placement rules *)
  let has_agg = List.exists (fun (e, _) -> contains_agg e) select in
  let scalar_agg = has_agg && group_by = [] in
  if scalar_agg then
    List.iter
      (fun (e, name) ->
        if not (contains_agg e) then
          err "column %s must appear in GROUP BY or inside an aggregate" name)
      select;
  if group_by <> [] then
    List.iter
      (fun (e, name) ->
        match e with
        | E_col c when List.mem c group_by -> ()
        | e when contains_agg e -> ()
        | E_const _ -> ()
        | _ -> err "column %s must appear in GROUP BY or inside an aggregate" name)
      select;
  { tables;
    select;
    where;
    group_by;
    order_by;
    correlated = frame.escapes;
    scalar_agg }

let resolve catalog q = resolve_block catalog [] q

(* ------------------------------------------------------------------ *)
(* Queries over resolved forms *)

module Int_set = Set.Make (Int)

let rec expr_tables_set = function
  | E_col { tab; _ } -> Int_set.singleton tab
  | E_outer _ | E_const _ | E_param _ -> Int_set.empty
  | E_binop (_, a, b) -> Int_set.union (expr_tables_set a) (expr_tables_set b)
  | E_agg (_, a) -> expr_tables_set a

(* Tables of the *enclosing block at distance [depth]* referenced inside a
   nested block's expressions. *)
let rec block_outer_tables ~depth b =
  let rec expr_outer = function
    | E_outer { levels_up; tab; _ } when levels_up = depth -> Int_set.singleton tab
    | E_outer _ | E_col _ | E_const _ | E_param _ -> Int_set.empty
    | E_binop (_, x, y) -> Int_set.union (expr_outer x) (expr_outer y)
    | E_agg (_, x) -> expr_outer x
  in
  let rec pred_outer = function
    | P_cmp (a, _, b) -> Int_set.union (expr_outer a) (expr_outer b)
    | P_between (e, lo, hi) ->
      Int_set.union (expr_outer e) (Int_set.union (expr_outer lo) (expr_outer hi))
    | P_in_list (e, _) -> expr_outer e
    | P_in_sub { e; block; _ } ->
      Int_set.union (expr_outer e) (block_outer_tables ~depth:(depth + 1) block)
    | P_cmp_sub (e, _, block) ->
      Int_set.union (expr_outer e) (block_outer_tables ~depth:(depth + 1) block)
    | P_and (a, b) | P_or (a, b) -> Int_set.union (pred_outer a) (pred_outer b)
    | P_not a -> pred_outer a
  in
  let sel = List.fold_left (fun acc (e, _) -> Int_set.union acc (expr_outer e)) Int_set.empty b.select in
  match b.where with
  | None -> sel
  | Some w -> Int_set.union sel (pred_outer w)

let rec pred_tables_set = function
  | P_cmp (a, _, b) -> Int_set.union (expr_tables_set a) (expr_tables_set b)
  | P_between (e, lo, hi) ->
    Int_set.union (expr_tables_set e)
      (Int_set.union (expr_tables_set lo) (expr_tables_set hi))
  | P_in_list (e, _) -> expr_tables_set e
  | P_in_sub { e; block; _ } ->
    Int_set.union (expr_tables_set e) (block_outer_tables ~depth:1 block)
  | P_cmp_sub (e, _, block) ->
    Int_set.union (expr_tables_set e) (block_outer_tables ~depth:1 block)
  | P_and (a, b) | P_or (a, b) -> Int_set.union (pred_tables_set a) (pred_tables_set b)
  | P_not a -> pred_tables_set a

let pred_tables p = Int_set.elements (pred_tables_set p)

let rec pred_correlated = function
  | P_in_sub { block; _ } | P_cmp_sub (_, _, block) -> block.correlated
  | P_and (a, b) | P_or (a, b) -> pred_correlated a || pred_correlated b
  | P_not a -> pred_correlated a
  | P_cmp _ | P_between _ | P_in_list _ -> false

let rec pred_has_subquery = function
  | P_in_sub _ | P_cmp_sub _ -> true
  | P_and (a, b) | P_or (a, b) -> pred_has_subquery a || pred_has_subquery b
  | P_not a -> pred_has_subquery a
  | P_cmp _ | P_between _ | P_in_list _ -> false

(* ------------------------------------------------------------------ *)

let agg_str = function
  | Ast.Avg -> "AVG" | Ast.Min -> "MIN" | Ast.Max -> "MAX"
  | Ast.Sum -> "SUM" | Ast.Count -> "COUNT"

let arith_str = function
  | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/"

let rec pp_sexpr ppf = function
  | E_col { tab; col } -> Format.fprintf ppf "t%d.c%d" tab col
  | E_outer { levels_up; tab; col } ->
    Format.fprintf ppf "outer[%d].t%d.c%d" levels_up tab col
  | E_const v -> Rel.Value.pp ppf v
  | E_param i -> Format.fprintf ppf "?%d" i
  | E_binop (op, a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp_sexpr a (arith_str op) pp_sexpr b
  | E_agg (f, e) -> Format.fprintf ppf "%s(%a)" (agg_str f) pp_sexpr e

let rec pp_spred ppf = function
  | P_cmp (a, c, b) ->
    Format.fprintf ppf "%a %a %a" pp_sexpr a Ast.pp_comparison c pp_sexpr b
  | P_between (e, lo, hi) ->
    Format.fprintf ppf "%a BETWEEN %a AND %a" pp_sexpr e pp_sexpr lo pp_sexpr hi
  | P_in_list (e, vs) ->
    Format.fprintf ppf "%a IN (%a)" pp_sexpr e
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Rel.Value.pp)
      vs
  | P_in_sub { e; negated; _ } ->
    Format.fprintf ppf "%a %sIN (subquery)" pp_sexpr e
      (if negated then "NOT " else "")
  | P_cmp_sub (e, c, _) ->
    Format.fprintf ppf "%a %a (subquery)" pp_sexpr e Ast.pp_comparison c
  | P_and (a, b) -> Format.fprintf ppf "(%a AND %a)" pp_spred a pp_spred b
  | P_or (a, b) -> Format.fprintf ppf "(%a OR %a)" pp_spred a pp_spred b
  | P_not a -> Format.fprintf ppf "NOT (%a)" pp_spred a

(* [type_of_expr] types an expression against a single resolved block; outer
   references cannot be typed without the enclosing frames, so they type as
   None (callers in the optimizer treat them as runtime constants). *)
let type_of_expr block e =
  let frames = [ { f_tables = block.tables; escapes = false } ] in
  match e with
  | E_outer _ -> None
  | _ -> (try type_in_frames frames e with Error _ -> None)

let param_count (b : block) =
  let m = ref 0 in
  let rec expr = function
    | E_param i -> if i + 1 > !m then m := i + 1
    | E_binop (_, a, b) ->
      expr a;
      expr b
    | E_agg (_, a) -> expr a
    | E_col _ | E_outer _ | E_const _ -> ()
  and pred = function
    | P_cmp (a, _, b) ->
      expr a;
      expr b
    | P_between (a, b, c) ->
      expr a;
      expr b;
      expr c
    | P_in_list (e, _) -> expr e
    | P_in_sub { e; block; _ } ->
      expr e;
      blk block
    | P_cmp_sub (e, _, block) ->
      expr e;
      blk block
    | P_and (a, b) | P_or (a, b) ->
      pred a;
      pred b
    | P_not a -> pred a
  and blk b =
    List.iter (fun (e, _) -> expr e) b.select;
    Option.iter pred b.where
  in
  blk b;
  !m
