(* Greedy divergence shrinker: repeatedly tries smaller (scenario, query)
   candidates, keeping any that still diverge, until a fixpoint (or the step
   budget runs out). Candidates may be semantically invalid — the check
   callback answers [Unsupported] for those and the candidate is skipped —
   but most are valid by construction because the generator alias-qualifies
   every column reference, making "which FROM entries does this expression
   use" exact. *)

module V = Rel.Value

(* --- reference analysis ------------------------------------------------ *)

let rec expr_aliases (e : Ast.expr) acc =
  match e with
  | Ast.Col { table = Some t; _ } -> t :: acc
  | Ast.Col { table = None; _ } -> "?" :: acc  (* unqualified: poison *)
  | Ast.Const _ | Ast.Param _ -> acc
  | Ast.Binop (_, a, b) -> expr_aliases a (expr_aliases b acc)
  | Ast.Agg (_, a) -> expr_aliases a acc

(* Free aliases of a predicate: references not bound by a subquery's own
   FROM list escape to the enclosing block. *)
let rec pred_aliases (p : Ast.predicate) acc =
  match p with
  | Ast.Cmp (a, _, b) -> expr_aliases a (expr_aliases b acc)
  | Ast.Between (a, lo, hi) -> expr_aliases a (expr_aliases lo (expr_aliases hi acc))
  | Ast.In_list (e, _) -> expr_aliases e acc
  | Ast.In_subquery (e, q, _) -> expr_aliases e (query_free_aliases q acc)
  | Ast.Cmp_subquery (e, _, q) -> expr_aliases e (query_free_aliases q acc)
  | Ast.And (a, b) | Ast.Or (a, b) -> pred_aliases a (pred_aliases b acc)
  | Ast.Not a -> pred_aliases a acc

and query_free_aliases (q : Ast.query) acc =
  let bound =
    List.filter_map (fun (_, alias) -> alias) q.Ast.from
    @ List.map fst q.Ast.from
  in
  let inner =
    List.concat_map
      (function Ast.Star -> [] | Ast.Sel_expr (e, _) -> expr_aliases e [])
      q.Ast.select
    @ (match q.Ast.where with Some p -> pred_aliases p [] | None -> [])
    @ List.concat_map (fun e -> expr_aliases e []) q.Ast.group_by
    @ List.concat_map (fun (e, _) -> expr_aliases e []) q.Ast.order_by
  in
  List.filter (fun a -> not (List.mem a bound)) inner @ acc

let uses_alias alias (p : Ast.predicate) = List.mem alias (pred_aliases p [])
let expr_uses_alias alias e = List.mem alias (expr_aliases e [])

(* --- AND-chain helpers -------------------------------------------------- *)

let rec factors (p : Ast.predicate) =
  match p with
  | Ast.And (a, b) -> factors a @ factors b
  | p -> [ p ]

let rebuild = function
  | [] -> None
  | f :: rest -> Some (List.fold_left (fun a b -> Ast.And (a, b)) f rest)

let factor_count (q : Ast.query) =
  match q.Ast.where with None -> 0 | Some p -> List.length (factors p)

(* --- candidate generation ----------------------------------------------- *)

(* Tables actually referenced by the query (outer FROM and subquery FROM). *)
let referenced_tables (q : Ast.query) =
  let rec pred_tabs p acc =
    match p with
    | Ast.In_subquery (_, sq, _) | Ast.Cmp_subquery (_, _, sq) ->
      List.map fst sq.Ast.from @ acc
    | Ast.And (a, b) | Ast.Or (a, b) -> pred_tabs a (pred_tabs b acc)
    | Ast.Not a -> pred_tabs a acc
    | _ -> acc
  in
  List.map fst q.Ast.from
  @ (match q.Ast.where with Some p -> pred_tabs p [] | None -> [])

(* Remove the FROM entry at position [i], dropping every select item, factor
   and grouping/order key that references its alias. *)
let drop_from_entry (q : Ast.query) i =
  match List.nth_opt q.Ast.from i with
  | None | Some (_, None) -> None
  | Some (_, Some alias) ->
    if List.length q.Ast.from <= 1 then None
    else begin
      let from = List.filteri (fun j _ -> j <> i) q.Ast.from in
      let select =
        List.filter
          (function
            | Ast.Star -> true
            | Ast.Sel_expr (e, _) -> not (expr_uses_alias alias e))
          q.Ast.select
      in
      let where =
        match q.Ast.where with
        | None -> None
        | Some p -> rebuild (List.filter (fun f -> not (uses_alias alias f)) (factors p))
      in
      let group_by =
        List.filter (fun e -> not (expr_uses_alias alias e)) q.Ast.group_by
      in
      let order_by =
        List.filter (fun (e, _) -> not (expr_uses_alias alias e)) q.Ast.order_by
      in
      let had_agg =
        List.exists
          (function
            | Ast.Sel_expr (Ast.Agg _, _) -> true
            | _ -> false)
          q.Ast.select
      in
      let select =
        if select <> [] then select
        else if had_agg then [ Ast.Sel_expr (Ast.Agg (Ast.Count, Ast.Const (V.Int 1)), None) ]
        else [ Ast.Sel_expr (Ast.Const (V.Int 1), None) ]
      in
      Some { Ast.select; from; where; group_by; order_by }
    end

(* Simplify one factor in place: the [n]-th candidate rewrite of the WHERE
   tree, or None when exhausted. *)
let simplify_factor (f : Ast.predicate) =
  match f with
  | Ast.Or (a, b) -> [ a; b ]
  | Ast.Not a -> [ a ]
  | Ast.In_subquery (e, sq, negated) ->
    (match sq.Ast.where with
     | Some _ -> [ Ast.In_subquery (e, { sq with Ast.where = None }, negated) ]
     | None -> [])
  | Ast.Cmp_subquery (e, c, sq) ->
    (match sq.Ast.where with
     | Some _ -> [ Ast.Cmp_subquery (e, c, { sq with Ast.where = None }) ]
     | None -> [])
  | Ast.Between (e, lo, _) -> [ Ast.Cmp (e, Ast.Ge, lo) ]
  | Ast.In_list (e, (v :: _ :: _ as _vs)) -> [ Ast.In_list (e, [ v ]) ]
  | _ -> []

(* Literal shrinking: rewrite the [target]-th constant of the WHERE tree. *)
let shrink_value (v : V.t) =
  match v with
  | V.Int n when n <> 0 -> Some (V.Int (if abs n <= 1 then 0 else n / 2))
  | V.Str s when s <> "v0" -> Some (V.Str "v0")
  | _ -> None

let shrink_pred_literal (p : Ast.predicate) ~target =
  let counter = ref (-1) in
  let hit () = incr counter; !counter = target in
  let rec expr (e : Ast.expr) =
    match e with
    | Ast.Const v ->
      if hit () then (match shrink_value v with Some v' -> Ast.Const v' | None -> e)
      else e
    | Ast.Binop (op, a, b) -> Ast.Binop (op, expr a, expr b)
    | Ast.Agg (f, a) -> Ast.Agg (f, expr a)
    | Ast.Col _ | Ast.Param _ -> e
  in
  let rec pred (p : Ast.predicate) =
    match p with
    | Ast.Cmp (a, c, b) -> Ast.Cmp (expr a, c, expr b)
    | Ast.Between (a, lo, hi) -> Ast.Between (expr a, expr lo, expr hi)
    | Ast.In_list (e, vs) ->
      Ast.In_list
        ( expr e,
          List.map
            (fun v ->
              if hit () then Option.value (shrink_value v) ~default:v else v)
            vs )
    | Ast.In_subquery (e, sq, neg) -> Ast.In_subquery (expr e, sub sq, neg)
    | Ast.Cmp_subquery (e, c, sq) -> Ast.Cmp_subquery (expr e, c, sub sq)
    | Ast.And (a, b) -> Ast.And (pred a, pred b)
    | Ast.Or (a, b) -> Ast.Or (pred a, pred b)
    | Ast.Not a -> Ast.Not (pred a)
  and sub (sq : Ast.query) =
    { sq with Ast.where = Option.map pred sq.Ast.where }
  in
  let p' = pred p in
  if !counter < target then None else Some p'

(* --- scenario candidates --------------------------------------------------- *)

(* Smaller scenarios, shared by every shrinker: drop the tables the test
   case never [touched] (one candidate), then per table halve its rows,
   drop its first row, drop its indexes. *)
let scenario_candidates ~touched (s : Fuzz_gen.scenario) =
  let tables = s.Fuzz_gen.tables in
  let replace (t : Fuzz_gen.table) t' =
    { Fuzz_gen.tables =
        List.map
          (fun (u : Fuzz_gen.table) ->
            if u.Fuzz_gen.tname = t.Fuzz_gen.tname then t' else u)
          tables }
  in
  let used =
    List.filter (fun (t : Fuzz_gen.table) -> List.mem t.Fuzz_gen.tname touched) tables
  in
  (if used = [] || used = tables then [] else [ { Fuzz_gen.tables = used } ])
  @ List.concat_map
      (fun (t : Fuzz_gen.table) ->
        let rows = t.Fuzz_gen.rows and n = List.length t.Fuzz_gen.rows in
        (if n = 0 then []
         else
           [ replace t { t with Fuzz_gen.rows = List.filteri (fun i _ -> i < n / 2) rows };
             replace t { t with Fuzz_gen.rows = List.tl rows } ])
        @ if t.Fuzz_gen.indexes = [] then []
          else [ replace t { t with Fuzz_gen.indexes = [] } ])
      tables

(* Every list one edit away from [xs]: one element dropped, or replaced by
   one of its [smaller] versions. *)
let edits smaller xs =
  List.concat
    (List.mapi
       (fun i x ->
         List.filteri (fun j _ -> j <> i) xs
         :: List.map (fun x' -> List.mapi (fun j y -> if j = i then x' else y) xs) (smaller x))
       xs)

let scenario_size (s : Fuzz_gen.scenario) =
  List.fold_left
    (fun acc (t : Fuzz_gen.table) ->
      acc + 1000 + List.length t.Fuzz_gen.rows + (50 * List.length t.Fuzz_gen.indexes))
    0 s.Fuzz_gen.tables

(* --- candidates over the pair ------------------------------------------- *)

type pair = Fuzz_gen.scenario * Ast.query

let candidates ((s, q) : pair) : pair list =
  let cands = ref [] in
  let add s' q' = cands := (s', q') :: !cands in
  (* 1. drop the whole WHERE, then individual factors *)
  (match q.Ast.where with
   | None -> ()
   | Some p ->
     add s { q with Ast.where = None };
     let fs = factors p in
     if List.length fs > 1 then
       List.iteri
         (fun i _ ->
           add s { q with Ast.where = rebuild (List.filteri (fun j _ -> j <> i) fs) })
         fs;
     (* 2. simplify factors structurally *)
     List.iteri
       (fun i f ->
         List.iter
           (fun f' ->
             add s
               { q with
                 Ast.where =
                   rebuild (List.mapi (fun j g -> if j = i then f' else g) fs) })
           (simplify_factor f))
       fs;
     (* 3. shrink literals *)
     let rec try_literals target =
       if target < 24 then
         match shrink_pred_literal p ~target with
         | Some p' ->
           if p' <> p then add s { q with Ast.where = Some p' };
           try_literals (target + 1)
         | None -> ()
     in
     try_literals 0);
  (* 4. drop FROM entries *)
  List.iteri
    (fun i _ ->
      match drop_from_entry q i with Some q' -> add s q' | None -> ())
    q.Ast.from;
  (* 5. ungroup / unorder / narrow the select list *)
  if q.Ast.group_by <> [] then begin
    let plain =
      List.filter
        (function Ast.Sel_expr (Ast.Agg _, _) -> false | _ -> true)
        q.Ast.select
    in
    let plain =
      if plain = [] then [ Ast.Sel_expr (Ast.Const (V.Int 1), None) ] else plain
    in
    add s { q with Ast.group_by = []; select = plain }
  end;
  if q.Ast.order_by <> [] then add s { q with Ast.order_by = [] };
  if List.length q.Ast.select > 1 then
    List.iteri
      (fun i _ ->
        add s { q with Ast.select = List.filteri (fun j _ -> j <> i) q.Ast.select })
      q.Ast.select;
  (* 6. prune unreferenced tables, shrink data, drop indexes *)
  List.iter (fun s' -> add s' q) (scenario_candidates ~touched:(referenced_tables q) s);
  List.rev !cands

(* --- the greedy loop ---------------------------------------------------- *)

(* lexicographic-ish scalar: structure dominates, data breaks ties *)
let size ((s, q) : pair) =
  scenario_size s
  + (List.length q.Ast.from * 500)
  + (factor_count q * 200)
  + (List.length q.Ast.select * 50)
  + (List.length q.Ast.group_by * 50)
  + (List.length q.Ast.order_by * 50)

(* Generic greedy loop: repeatedly take the first strictly-smaller candidate
   that still fails, until a fixpoint or the step budget runs out. A step is
   counted for every strictly-smaller candidate checked (not for candidates
   discarded on size alone). Shared by the differential shrinker below, the
   MVCC history shrinker (Fuzz_mvcc) and the crash-torture workload
   shrinkers (Fuzz_torture). *)
let shrink_generic ~size ~candidates ~still_failing ~max_steps init =
  let steps = ref 0 in
  let rec fix current =
    if !steps >= max_steps then current
    else begin
      let cur_size = size current in
      let rec first = function
        | [] -> None
        | cand :: rest ->
          if !steps >= max_steps then None
          else if size cand >= cur_size then first rest
          else begin
            incr steps;
            if still_failing cand then Some cand else first rest
          end
      in
      match first (candidates current) with
      | Some smaller -> fix smaller
      | None -> current
    end
  in
  let final = fix init in
  (final, !steps)

(* [check] answers the verdict for a candidate; only candidates that still
   diverge are kept. Returns the shrunk pair and the number of steps used. *)
let shrink ~check ~max_steps ((s, q) : pair) : pair * int =
  shrink_generic ~size ~candidates
    ~still_failing:(fun (s', q') ->
      match (check s' q' : Fuzz_harness.verdict) with
      | Fuzz_harness.Diverged _ -> true
      | Fuzz_harness.Agree | Fuzz_harness.Unsupported _ -> false)
    ~max_steps (s, q)
