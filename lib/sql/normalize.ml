open Semant

type factor = {
  pred : spred;
  tables : int list;
  sarg : (int * Rss.Sarg.t) option;
  sargable_at_open : bool;
  equi_join : (col_ref * col_ref) option;
  simple : (col_ref * Rss.Sarg.op * Rel.Value.t) option;
  between : (col_ref * Rel.Value.t * Rel.Value.t) option;
  has_subquery : bool;
}

let sarg_op_of_comparison = function
  | Ast.Eq -> Rss.Sarg.Eq
  | Ast.Ne -> Rss.Sarg.Ne
  | Ast.Lt -> Rss.Sarg.Lt
  | Ast.Le -> Rss.Sarg.Le
  | Ast.Gt -> Rss.Sarg.Gt
  | Ast.Ge -> Rss.Sarg.Ge

let negate_comparison = function
  | Ast.Eq -> Ast.Ne
  | Ast.Ne -> Ast.Eq
  | Ast.Lt -> Ast.Ge
  | Ast.Le -> Ast.Gt
  | Ast.Gt -> Ast.Le
  | Ast.Ge -> Ast.Lt

(* Push NOT down to the leaves. Two-valued semantics (see .mli). *)
let rec push_not ~neg p =
  match p with
  | P_and (a, b) ->
    if neg then P_or (push_not ~neg a, push_not ~neg b)
    else P_and (push_not ~neg a, push_not ~neg b)
  | P_or (a, b) ->
    if neg then P_and (push_not ~neg a, push_not ~neg b)
    else P_or (push_not ~neg a, push_not ~neg b)
  | P_not a -> push_not ~neg:(not neg) a
  | P_cmp (a, c, b) -> if neg then P_cmp (a, negate_comparison c, b) else p
  | P_between (e, lo, hi) ->
    (* kept whole when positive: TABLE 1 has a dedicated BETWEEN selectivity
       and both bounds can match one index *)
    if neg then P_or (P_cmp (e, Ast.Lt, lo), P_cmp (e, Ast.Gt, hi)) else p
  | P_in_list (e, vs) ->
    if neg then
      List.fold_left
        (fun acc v -> P_and (acc, P_cmp (e, Ast.Ne, E_const v)))
        (P_cmp (e, Ast.Ne, E_const (List.hd vs)))
        (List.tl vs)
    else p
  | P_in_sub s -> if neg then P_in_sub { s with negated = not s.negated } else p
  | P_cmp_sub (e, c, b) -> if neg then P_cmp_sub (e, negate_comparison c, b) else p

(* Distribute OR over AND, bounded: past [max_conjuncts] the OR is left as a
   single (perfectly valid, just less decomposed) boolean factor. *)
let max_conjuncts = 64

let rec to_cnf p =
  match p with
  | P_and (a, b) -> to_cnf a @ to_cnf b
  | P_or (a, b) ->
    let ca = to_cnf a and cb = to_cnf b in
    if List.length ca * List.length cb > max_conjuncts then [ p ]
    else
      List.concat_map (fun fa -> List.map (fun fb -> P_or (fa, fb)) cb) ca
  | P_not _ -> assert false (* removed by push_not *)
  | P_cmp _ | P_between _ | P_in_list _ | P_in_sub _ | P_cmp_sub _ -> [ p ]

let boolean_factors p = to_cnf (push_not ~neg:false p)

(* --- sargability ---------------------------------------------------- *)

(* A sargable predicate is "column comparison-operator value" (or convertible
   to it); SARGs are DNF boolean expressions of such predicates over ONE
   table with constant values. *)
let rec sarg_of ~tab p : Rss.Sarg.t option =
  match p with
  | P_cmp (E_col { tab = t; col }, c, E_const v) when t = tab && c <> Ast.Ne ->
    Some [ [ { Rss.Sarg.col; op = sarg_op_of_comparison c; value = v } ] ]
  | P_cmp (E_col { tab = t; col }, Ast.Ne, E_const v) when t = tab ->
    Some [ [ { Rss.Sarg.col; op = Rss.Sarg.Ne; value = v } ] ]
  | P_cmp (E_const v, c, E_col { tab = t; col }) when t = tab ->
    (* value op column: flip *)
    let flip = function
      | Ast.Eq -> Ast.Eq | Ast.Ne -> Ast.Ne
      | Ast.Lt -> Ast.Gt | Ast.Le -> Ast.Ge
      | Ast.Gt -> Ast.Lt | Ast.Ge -> Ast.Le
    in
    Some [ [ { Rss.Sarg.col; op = sarg_op_of_comparison (flip c); value = v } ] ]
  | P_between (E_col { tab = t; col }, E_const lo, E_const hi) when t = tab ->
    Some
      [ [ { Rss.Sarg.col; op = Rss.Sarg.Ge; value = lo };
          { Rss.Sarg.col; op = Rss.Sarg.Le; value = hi } ] ]
  | P_in_list (E_col { tab = t; col }, vs) when t = tab ->
    Some (List.map (fun v -> [ { Rss.Sarg.col; op = Rss.Sarg.Eq; value = v } ]) vs)
  | P_or (a, b) ->
    (match sarg_of ~tab a, sarg_of ~tab b with
     | Some sa, Some sb -> Some (sa @ sb)
     | _ -> None)
  | P_and (a, b) ->
    (match sarg_of ~tab a, sarg_of ~tab b with
     | Some sa, Some sb -> Some (Rss.Sarg.conjoin sa sb)
     | _ -> None)
  | P_cmp _ | P_between _ | P_in_list _ | P_in_sub _ | P_cmp_sub _ | P_not _ ->
    None

(* Sargability with ? placeholders: the value is constant for the duration
   of an execution (bound at OPEN), so the predicate still becomes a search
   argument; only the static Sarg.t cannot be prebuilt. *)
let rec param_sargable ~tab (p : spred) =
  let const_or_param = function E_const _ | E_param _ -> true | _ -> false in
  match p with
  | P_cmp (E_col c, _, v) when c.tab = tab -> const_or_param v
  | P_cmp (v, _, E_col c) when c.tab = tab -> const_or_param v
  | P_between (E_col c, lo, hi) when c.tab = tab ->
    const_or_param lo && const_or_param hi
  | P_in_list (E_col c, _) when c.tab = tab -> true
  | P_or (a, b) | P_and (a, b) -> param_sargable ~tab a && param_sargable ~tab b
  | P_cmp _ | P_between _ | P_in_list _ | P_in_sub _ | P_cmp_sub _ | P_not _ ->
    false

let classify _block p =
  let tables = pred_tables p in
  let sarg =
    match tables with
    | [ tab ] when not (pred_has_subquery p) ->
      Option.map (fun s -> (tab, s)) (sarg_of ~tab p)
    | _ -> None
  in
  let sargable_at_open =
    sarg <> None
    || (match tables with
        | [ tab ] when not (pred_has_subquery p) -> param_sargable ~tab p
        | _ -> false)
  in
  let equi_join =
    match p with
    | P_cmp (E_col a, Ast.Eq, E_col b) when a.tab <> b.tab -> Some (a, b)
    | _ -> None
  in
  let simple =
    match p with
    | P_cmp (E_col c, op, E_const v) ->
      Some (c, sarg_op_of_comparison op, v)
    | P_cmp (E_const v, op, E_col c) ->
      let flip = function
        | Ast.Eq -> Rss.Sarg.Eq | Ast.Ne -> Rss.Sarg.Ne
        | Ast.Lt -> Rss.Sarg.Gt | Ast.Le -> Rss.Sarg.Ge
        | Ast.Gt -> Rss.Sarg.Lt | Ast.Ge -> Rss.Sarg.Le
      in
      Some (c, flip op, v)
    | _ -> None
  in
  let between =
    match p with
    | P_between (E_col c, E_const lo, E_const hi) -> Some (c, lo, hi)
    | _ -> None
  in
  { pred = p;
    tables;
    sarg;
    sargable_at_open;
    equi_join;
    simple;
    between;
    has_subquery = pred_has_subquery p }

let factors_of_block block =
  match block.where with
  | None -> []
  | Some w -> List.map (classify block) (boolean_factors w)

(* --- statement shapes (plan cache) ---------------------------------------- *)

(* Two statements share a compiled plan when they differ only in the literal
   constants of their WHERE clauses and in which of those are [?]
   placeholders. Canonicalization rewrites each such Const, and every user
   Param, into a positional Param numbered left to right, as the parser
   numbers [?]; each position is a slot holding the extracted literal or
   the user's argument number. Only WHERE literals are extracted: IN-list
   values are raw values in the AST (not expressions), and SELECT / GROUP
   BY / ORDER BY items feed projection and ordering, where a literal swap
   can change the output shape. *)

type slot = Lit of Rel.Value.t | Arg of int

(* [q] with [leaf ~where] applied, left to right, to every Const and Param
   at every nesting depth; [where] tells a WHERE operand from the others. *)
let map_operands leaf (q : Ast.query) =
  let rec expr ~where (e : Ast.expr) =
    match e with
    | Ast.Const _ | Ast.Param _ -> leaf ~where e
    | Ast.Col _ -> e
    | Ast.Binop (op, a, b) ->
      let a = expr ~where a in
      Ast.Binop (op, a, expr ~where b)
    | Ast.Agg (f, e) -> Ast.Agg (f, expr ~where e)
  in
  let rec pred (p : Ast.predicate) =
    let expr = expr ~where:true in
    match p with
    | Ast.Cmp (a, c, b) ->
      let a = expr a in
      Ast.Cmp (a, c, expr b)
    | Ast.Between (e, lo, hi) ->
      let e = expr e in
      let lo = expr lo in
      Ast.Between (e, lo, expr hi)
    | Ast.In_list (e, vs) -> Ast.In_list (expr e, vs)
    | Ast.In_subquery (e, sub, neg) ->
      let e = expr e in
      Ast.In_subquery (e, query sub, neg)
    | Ast.Cmp_subquery (e, c, sub) ->
      let e = expr e in
      Ast.Cmp_subquery (e, c, query sub)
    | Ast.And (a, b) ->
      let a = pred a in
      Ast.And (a, pred b)
    | Ast.Or (a, b) ->
      let a = pred a in
      Ast.Or (a, pred b)
    | Ast.Not a -> Ast.Not (pred a)
  and query (q : Ast.query) =
    let expr = expr ~where:false in
    let item = function
      | Ast.Sel_expr (e, alias) -> Ast.Sel_expr (expr e, alias)
      | Ast.Star -> Ast.Star
    in
    let select = List.map item q.select in
    let where = Option.map pred q.where in
    let group_by = List.map expr q.group_by in
    let order_by = List.map (fun (e, dir) -> (expr e, dir)) q.order_by in
    { q with select; where; group_by; order_by }
  in
  query q

let canonicalize q =
  let slots = ref [] and n = ref 0 in
  let slot s =
    slots := s :: !slots;
    incr n;
    Ast.Param (!n - 1)
  in
  let leaf ~where = function
    | Ast.Const v when where -> slot (Lit v)
    | Ast.Param i -> slot (Arg i)
    | e -> e
  in
  let canon = map_operands leaf q in
  (* The key is the canonical query's SQL, which the parser reads back to
     that same query, so two keys are equal only when the canonical queries
     are. It holds no literal's type: bindings are type-checked against the
     plan they are served (see Plan_cache.find). *)
  (Ast.to_sql (Ast.Select canon), canon, Array.of_list (List.rev !slots))

let bind q values =
  map_operands
    (fun ~where:_ -> function Ast.Param i -> Ast.Const values.(i) | e -> e)
    q

let fingerprint q =
  let key, canon, slots = canonicalize q in
  Some
    ( key,
      canon,
      List.filter_map (function Lit v -> Some v | Arg _ -> None) (Array.to_list slots) )
