type frame = {
  layout : Layout.t;
  tuple : Rel.Tuple.t;
}

type env = {
  outer : frame ref list;
  params : Rel.Value.t array;  (* ? placeholder bindings, by position *)
  subquery : Semant.block -> frame -> Rel.Value.t list;
}

let arith_fn (op : Ast.arith) =
  match op with
  | Ast.Add -> Rel.Value.add
  | Ast.Sub -> Rel.Value.sub
  | Ast.Mul -> Rel.Value.mul
  | Ast.Div -> Rel.Value.div

let cmp_op (c : Ast.comparison) =
  match c with
  | Ast.Eq -> Rss.Sarg.Eq
  | Ast.Ne -> Rss.Sarg.Ne
  | Ast.Lt -> Rss.Sarg.Lt
  | Ast.Le -> Rss.Sarg.Le
  | Ast.Gt -> Rss.Sarg.Gt
  | Ast.Ge -> Rss.Sarg.Ge

(* SQL three-valued (Kleene) logic: comparisons involving NULL are Unknown
   ([None]); a WHERE keeps only rows evaluating to true. Three-valued
   semantics make the normalizer's NOT-elimination rewrites sound in the
   presence of NULLs, which classical negation would not be. *)
let cmp3 op a b : bool option =
  if Rel.Value.is_null a || Rel.Value.is_null b then None
  else Some (Rss.Sarg.eval_op op a b)

let and3 a b =
  match a, b with
  | Some false, _ | _, Some false -> Some false
  | Some true, Some true -> Some true
  | _ -> None

let or3 a b =
  match a, b with
  | Some true, _ | _, Some true -> Some true
  | Some false, Some false -> Some false
  | _ -> None

let not3 = Option.map not

(* --- compiled evaluation ------------------------------------------------ *)

(* Close an expression/predicate over its environment once per execution:
   every Layout.pos lookup becomes a captured integer offset, every
   parameter a captured value, every operator a direct function — the
   per-tuple path then runs zero AST traversal and zero name resolution.
   Parameters are fixed for the whole execution; an outer-block reference
   reads the enclosing block's cell, which the caller of the nested block
   sets before each evaluation. Environment failures (unbound parameter,
   outer ref beyond the stack) compile to closures that raise when called,
   so an empty tuple stream never raises them. *)

(* Column (tab, col) of the enclosing block [levels_up] frames out. *)
let outer_ref env ~levels_up ~tab ~col =
  Option.map
    (fun cell ->
      let c = { Semant.tab; col } in
      fun () ->
        let f = !cell in
        Rel.Tuple.get f.tuple (Layout.pos f.layout c))
    (List.nth_opt env.outer (levels_up - 1))

let rec compile_expr env layout (e : Semant.sexpr) : Rel.Tuple.t -> Rel.Value.t =
  match e with
  | Semant.E_const v -> fun _ -> v
  | Semant.E_param i ->
    if i < Array.length env.params then
      let v = env.params.(i) in
      fun _ -> v
    else fun _ -> invalid_arg (Printf.sprintf "Eval: unbound parameter ?%d" i)
  | Semant.E_col c ->
    let p = Layout.pos layout c in
    fun tuple -> Rel.Tuple.get tuple p
  | Semant.E_outer { levels_up; tab; col } ->
    (match outer_ref env ~levels_up ~tab ~col with
     | Some get -> fun _ -> get ()
     | None -> fun _ -> invalid_arg "Eval: outer reference beyond block stack")
  | Semant.E_binop (op, a, b) ->
    let fa = compile_expr env layout a and fb = compile_expr env layout b in
    let f = arith_fn op in
    fun tuple -> f (fa tuple) (fb tuple)
  | Semant.E_agg _ -> fun _ -> invalid_arg "Eval: aggregate outside Exec_agg"

let rec compile_pred env layout (p : Semant.spred) : Rel.Tuple.t -> bool option =
  match p with
  | Semant.P_cmp (a, c, b) ->
    let fa = compile_expr env layout a and fb = compile_expr env layout b in
    let op = cmp_op c in
    fun tuple -> cmp3 op (fa tuple) (fb tuple)
  | Semant.P_between (e, lo, hi) ->
    let fe = compile_expr env layout e in
    let flo = compile_expr env layout lo and fhi = compile_expr env layout hi in
    fun tuple ->
      let v = fe tuple in
      and3 (cmp3 Rss.Sarg.Ge v (flo tuple)) (cmp3 Rss.Sarg.Le v (fhi tuple))
  | Semant.P_in_list (e, vs) ->
    let fe = compile_expr env layout e in
    let has_null = List.exists Rel.Value.is_null vs in
    fun tuple ->
      let v = fe tuple in
      if Rel.Value.is_null v then None
      else if List.exists (Rel.Value.equal v) vs then Some true
      else if has_null then None
      else Some false
  | Semant.P_in_sub { e; block; negated } ->
    let fe = compile_expr env layout e in
    let sub = env.subquery block in
    fun tuple ->
      let v = fe tuple in
      let base =
        if Rel.Value.is_null v then None
        else begin
          let vs = sub { layout; tuple } in
          if List.exists (Rel.Value.equal v) vs then Some true
          else if List.exists Rel.Value.is_null vs then None
          else Some false
        end
      in
      if negated then not3 base else base
  | Semant.P_cmp_sub (e, c, block) ->
    let fe = compile_expr env layout e in
    let op = cmp_op c in
    let sub = env.subquery block in
    fun tuple ->
      let v = fe tuple in
      (match sub { layout; tuple } with
       | [] -> None
       | [ sv ] -> cmp3 op v sv
       | _ :: _ :: _ -> invalid_arg "scalar subquery returned more than one value")
  | Semant.P_and (a, b) ->
    let fa = compile_pred env layout a and fb = compile_pred env layout b in
    fun tuple -> and3 (fa tuple) (fb tuple)
  | Semant.P_or (a, b) ->
    let fa = compile_pred env layout a and fb = compile_pred env layout b in
    fun tuple -> or3 (fa tuple) (fb tuple)
  | Semant.P_not a ->
    let fa = compile_pred env layout a in
    fun tuple -> not3 (fa tuple)

let is_true = function Some true -> true | Some false | None -> false

(* --- pair-compiled evaluation ------------------------------------------- *)

(* Join residuals are conjuncts over an (outer composite, inner tuple) pair.
   Single-tuple evaluation must concatenate the pair into one composite before
   each check — an allocation per candidate pair, mostly thrown away when the
   residual rejects. The pair-compiled forms resolve each column reference to
   (side, offset) at compile time and read the two tuples directly, so the
   concatenation happens only for surviving pairs (or never, when the join
   output is the bare inner tuple). Subquery predicates need a real composite
   frame for correlation and are not pair-compilable — callers partition on
   [Semant.pred_has_subquery] and route them through {!compile_pred}. *)

let rec compile_expr_pair env left right (e : Semant.sexpr) :
    Rel.Tuple.t -> Rel.Tuple.t -> Rel.Value.t =
  match e with
  | Semant.E_const v -> fun _ _ -> v
  | Semant.E_param i ->
    if i < Array.length env.params then
      let v = env.params.(i) in
      fun _ _ -> v
    else
      fun _ _ -> invalid_arg (Printf.sprintf "Eval: unbound parameter ?%d" i)
  | Semant.E_col c ->
    if Layout.mem left c.Semant.tab then
      let p = Layout.pos left c in
      fun a _ -> Rel.Tuple.get a p
    else
      let p = Layout.pos right c in
      fun _ b -> Rel.Tuple.get b p
  | Semant.E_outer { levels_up; tab; col } ->
    (match outer_ref env ~levels_up ~tab ~col with
     | Some get -> fun _ _ -> get ()
     | None ->
       fun _ _ -> invalid_arg "Eval: outer reference beyond block stack")
  | Semant.E_binop (op, a, b) ->
    let fa = compile_expr_pair env left right a in
    let fb = compile_expr_pair env left right b in
    let f = arith_fn op in
    fun a b -> f (fa a b) (fb a b)
  | Semant.E_agg _ -> fun _ _ -> invalid_arg "Eval: aggregate outside Exec_agg"

(* Boolean-context compilation. A WHERE keeps a row iff the predicate
   evaluates to [Some true], so conjuncts never need the three-valued result
   materialized at every node: [compile_true_pair p] answers "does p evaluate
   to true" and its dual [compile_false_pair p] "does p evaluate to false".
   NOT swaps the two questions; AND/OR distribute over them by Kleene's
   tables (and3 is true iff both operands are true, false iff either is;
   dually for or3). NULL tests inline, so the per-tuple path allocates
   nothing — no option cells, no frames. Unlike the three-valued forms, the
   boolean forms may skip an operand once the answer is decided; expression
   evaluation is pure, so this is unobservable in results (the RSS's sargs
   already skip residual evaluation wholesale for non-qualifying tuples). *)

let rec compile_true_pair env left right (p : Semant.spred) :
    Rel.Tuple.t -> Rel.Tuple.t -> bool =
  match p with
  | Semant.P_cmp (a, c, b) ->
    let fa = compile_expr_pair env left right a in
    let fb = compile_expr_pair env left right b in
    let op = cmp_op c in
    fun a b ->
      let va = fa a b in
      (not (Rel.Value.is_null va))
      &&
      let vb = fb a b in
      (not (Rel.Value.is_null vb)) && Rss.Sarg.eval_op op va vb
  | Semant.P_between (e, lo, hi) ->
    let fe = compile_expr_pair env left right e in
    let flo = compile_expr_pair env left right lo in
    let fhi = compile_expr_pair env left right hi in
    fun a b ->
      let v = fe a b in
      (not (Rel.Value.is_null v))
      && (let l = flo a b in
          (not (Rel.Value.is_null l)) && Rel.Value.compare v l >= 0)
      && (let h = fhi a b in
          (not (Rel.Value.is_null h)) && Rel.Value.compare v h <= 0)
  | Semant.P_in_list (e, vs) ->
    let fe = compile_expr_pair env left right e in
    fun a b ->
      let v = fe a b in
      (not (Rel.Value.is_null v)) && List.exists (Rel.Value.equal v) vs
  | Semant.P_in_sub _ | Semant.P_cmp_sub _ ->
    invalid_arg "Eval.compile_true_pair: subquery predicate (needs a composite)"
  | Semant.P_and (a, b) ->
    let fa = compile_true_pair env left right a in
    let fb = compile_true_pair env left right b in
    fun a b -> fa a b && fb a b
  | Semant.P_or (a, b) ->
    let fa = compile_true_pair env left right a in
    let fb = compile_true_pair env left right b in
    fun a b -> fa a b || fb a b
  | Semant.P_not a -> compile_false_pair env left right a

and compile_false_pair env left right (p : Semant.spred) :
    Rel.Tuple.t -> Rel.Tuple.t -> bool =
  match p with
  | Semant.P_cmp (a, c, b) ->
    let fa = compile_expr_pair env left right a in
    let fb = compile_expr_pair env left right b in
    let op = cmp_op c in
    fun a b ->
      let va = fa a b in
      (not (Rel.Value.is_null va))
      &&
      let vb = fb a b in
      (not (Rel.Value.is_null vb)) && not (Rss.Sarg.eval_op op va vb)
  | Semant.P_between (e, lo, hi) ->
    (* false iff either bound comparison is false — a NULL on the other
       bound cannot rescue it (and3 with None is still Some false) *)
    let fe = compile_expr_pair env left right e in
    let flo = compile_expr_pair env left right lo in
    let fhi = compile_expr_pair env left right hi in
    fun a b ->
      let v = fe a b in
      (not (Rel.Value.is_null v))
      && ((let l = flo a b in
           (not (Rel.Value.is_null l)) && Rel.Value.compare v l < 0)
          || (let h = fhi a b in
              (not (Rel.Value.is_null h)) && Rel.Value.compare v h > 0))
  | Semant.P_in_list (e, vs) ->
    let fe = compile_expr_pair env left right e in
    let has_null = List.exists Rel.Value.is_null vs in
    fun a b ->
      let v = fe a b in
      (not (Rel.Value.is_null v))
      && (not has_null)
      && not (List.exists (Rel.Value.equal v) vs)
  | Semant.P_in_sub _ | Semant.P_cmp_sub _ ->
    invalid_arg "Eval.compile_false_pair: subquery predicate (needs a composite)"
  | Semant.P_and (a, b) ->
    let fa = compile_false_pair env left right a in
    let fb = compile_false_pair env left right b in
    fun a b -> fa a b || fb a b
  | Semant.P_or (a, b) ->
    let fa = compile_false_pair env left right a in
    let fb = compile_false_pair env left right b in
    fun a b -> fa a b && fb a b
  | Semant.P_not a -> compile_true_pair env left right a

let compile_preds_pair env left right preds : Rel.Tuple.t -> Rel.Tuple.t -> bool =
  match List.map (compile_true_pair env left right) preds with
  | [] -> fun _ _ -> true
  | f :: fs -> List.fold_left (fun acc f a b -> acc a b && f a b) f fs

(* Single-tuple conjunction: subquery predicates take the exact three-valued
   path (they need a frame for correlation anyway); everything else reuses
   the boolean-context pair compiler with an empty left side. *)
let compile_preds env layout preds : Rel.Tuple.t -> bool =
  let no_tuple = Rel.Tuple.make [] in
  let fs =
    List.map
      (fun p ->
        if Semant.pred_has_subquery p then
          let f = compile_pred env layout p in
          fun tuple -> is_true (f tuple)
        else
          let f = compile_true_pair env Layout.empty layout p in
          fun tuple -> f no_tuple tuple)
      preds
  in
  match fs with
  | [] -> fun _ -> true
  | f :: fs -> List.fold_left (fun acc f tuple -> acc tuple && f tuple) f fs

(* The Int/Int arm is matched inside each closure: without it every key
   comparison pays a call into [Value.compare] just to rediscover that both
   sides are integers — on a spilling sort that dispatch is the single
   hottest path in the executor. *)
let compile_cmp_pos (key : (int * Ast.order_dir) list) :
    Rel.Tuple.t -> Rel.Tuple.t -> int =
  match key with
  | [ (p, Ast.Asc) ] ->
    fun a b ->
      (match Rel.Tuple.get a p, Rel.Tuple.get b p with
       | Rel.Value.Int x, Rel.Value.Int y -> compare (x : int) y
       | va, vb -> Rel.Value.compare va vb)
  | [ (p, Ast.Desc) ] ->
    fun a b ->
      (match Rel.Tuple.get b p, Rel.Tuple.get a p with
       | Rel.Value.Int x, Rel.Value.Int y -> compare (x : int) y
       | va, vb -> Rel.Value.compare va vb)
  | key ->
    fun a b ->
      let rec go = function
        | [] -> 0
        | (p, d) :: rest ->
          let c =
            match Rel.Tuple.get a p, Rel.Tuple.get b p with
            | Rel.Value.Int x, Rel.Value.Int y -> compare (x : int) y
            | va, vb -> Rel.Value.compare va vb
          in
          let c = match d with Ast.Asc -> c | Ast.Desc -> -c in
          if c <> 0 then c else go rest
      in
      go key

let compile_cmp layout (key : (Semant.col_ref * Ast.order_dir) list) =
  compile_cmp_pos (List.map (fun (c, d) -> (Layout.pos layout c, d)) key)

(* --- SARG compilation -------------------------------------------------- *)

(* Resolve an expression to a value that an opening binds, from the join
   frame's tuple (whose layout is [join]), a parameter, a constant or an
   enclosing block's tuple; a reference to relation [tab] itself is not
   constant. *)
let resolve_const env join ~tab (e : Semant.sexpr) :
    (Rel.Tuple.t -> Rel.Value.t) option =
  match e with
  | Semant.E_col c when c.Semant.tab <> tab ->
    Option.bind join (fun layout ->
        match Layout.pos layout c with
        | p -> Some (fun t -> Rel.Tuple.get t p)
        | exception Not_found -> None)
  | Semant.E_const v -> Some (fun _ -> v)
  | Semant.E_param i ->
    if i < Array.length env.params then
      let v = env.params.(i) in
      Some (fun _ -> v)
    else None
  | Semant.E_outer { levels_up; tab = t; col } ->
    Option.map (fun get _ -> get ()) (outer_ref env ~levels_up ~tab:t ~col)
  | Semant.E_col _ | Semant.E_binop _ | Semant.E_agg _ -> None

let flip_op = function
  | Rss.Sarg.Eq -> Rss.Sarg.Eq
  | Rss.Sarg.Ne -> Rss.Sarg.Ne
  | Rss.Sarg.Lt -> Rss.Sarg.Gt
  | Rss.Sarg.Le -> Rss.Sarg.Ge
  | Rss.Sarg.Gt -> Rss.Sarg.Lt
  | Rss.Sarg.Ge -> Rss.Sarg.Le

let rec compile_sarg env join ~tab (p : Semant.spred) :
    (Rel.Tuple.t -> Rss.Sarg.t) option =
  match p with
  | Semant.P_cmp (Semant.E_col c, op, rhs) when c.Semant.tab = tab ->
    Option.map
      (fun v t -> [ [ { Rss.Sarg.col = c.Semant.col; op = cmp_op op; value = v t } ] ])
      (resolve_const env join ~tab rhs)
  | Semant.P_cmp (lhs, op, Semant.E_col c) when c.Semant.tab = tab ->
    Option.map
      (fun v t ->
        [ [ { Rss.Sarg.col = c.Semant.col; op = flip_op (cmp_op op); value = v t } ] ])
      (resolve_const env join ~tab lhs)
  | Semant.P_between (Semant.E_col c, lo, hi) when c.Semant.tab = tab ->
    (match resolve_const env join ~tab lo, resolve_const env join ~tab hi with
     | Some vlo, Some vhi ->
       Some
         (fun t ->
           [ [ { Rss.Sarg.col = c.Semant.col; op = Rss.Sarg.Ge; value = vlo t };
               { Rss.Sarg.col = c.Semant.col; op = Rss.Sarg.Le; value = vhi t } ] ])
     | _ -> None)
  | Semant.P_in_list (Semant.E_col c, vs) when c.Semant.tab = tab ->
    let s =
      List.map (fun v -> [ { Rss.Sarg.col = c.Semant.col; op = Rss.Sarg.Eq; value = v } ]) vs
    in
    Some (fun _ -> s)
  | Semant.P_or (a, b) ->
    (match compile_sarg env join ~tab a, compile_sarg env join ~tab b with
     | Some sa, Some sb -> Some (fun t -> sa t @ sb t)
     | _ -> None)
  | Semant.P_and (a, b) ->
    (match compile_sarg env join ~tab a, compile_sarg env join ~tab b with
     | Some sa, Some sb -> Some (fun t -> Rss.Sarg.conjoin (sa t) (sb t))
     | _ -> None)
  | Semant.P_cmp _ | Semant.P_between _ | Semant.P_in_list _ | Semant.P_in_sub _
  | Semant.P_cmp_sub _ | Semant.P_not _ -> None

let bound_key env join (b : Plan.key_bound) : Rel.Tuple.t -> Rss.Btree.bound =
  let value : Plan.bound_value -> Rel.Tuple.t -> Rel.Value.t = function
    | Plan.Bv_const v -> fun _ -> v
    | Plan.Bv_param i ->
      if i < Array.length env.params then
        let v = env.params.(i) in
        fun _ -> v
      else fun _ -> invalid_arg (Printf.sprintf "Eval.bound_key: unbound parameter ?%d" i)
    | Plan.Bv_outer c ->
      (match join with
       | Some layout ->
         let p = Layout.pos layout c in
         fun t -> Rel.Tuple.get t p
       | None ->
         fun _ -> invalid_arg "Eval.bound_key: dynamic bound without join context")
  in
  let values = Array.of_list (List.map value b.Plan.values) in
  let kind = if b.Plan.inclusive then `Inclusive else `Exclusive in
  fun t -> (Array.map (fun f -> f t) values, kind)
