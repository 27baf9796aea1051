(* Reference query evaluator: the oracle the differential fuzz harness (and
   the executor tests, via test/naive_eval.ml) checks the engine against.
   Full cross product of the FROM list, predicate filtering with recursive
   subquery evaluation, then aggregation/projection — no optimizer, no
   indexes, no shortcuts. Deliberately independent of the executor's code
   paths: it shares only the SQL front end (Semant blocks) and Rel.Value
   arithmetic/comparison semantics with the engine. *)

module V = Rel.Value
module T = Rel.Tuple
module S = Semant

type frame = {
  block : S.block;
  tuple : T.t;  (* FROM-order composite *)
}

let offsets (block : S.block) =
  let _, offs =
    List.fold_left
      (fun (off, acc) (tr : S.table_ref) ->
        (off + Rel.Schema.arity tr.S.rel.Catalog.schema, (tr.S.tab_idx, off) :: acc))
      (0, []) block.S.tables
  in
  offs

let pos block (c : S.col_ref) = List.assoc c.S.tab (offsets block) + c.S.col

let table_rows _cat (tr : S.table_ref) =
  let rel = tr.S.rel in
  Cursor.drain
    (Rss.Scan.open_segment_scan rel.Catalog.segment ~rel_id:rel.Catalog.rel_id ())

let cross_product lists =
  List.fold_left
    (fun acc rows ->
      List.concat_map (fun prefix -> List.map (fun r -> T.concat prefix r) rows) acc)
    [ [||] ] lists

let rec eval_expr cat (stack : frame list) (e : S.sexpr) =
  let frame = List.hd stack in
  match e with
  | S.E_const v -> v
  | S.E_param _ -> invalid_arg "naive: parameters not supported"
  | S.E_col c -> T.get frame.tuple (pos frame.block c)
  | S.E_outer { levels_up; tab; col } ->
    let f = List.nth stack levels_up in
    T.get f.tuple (pos f.block { S.tab; col })
  | S.E_binop (op, a, b) ->
    let va = eval_expr cat stack a and vb = eval_expr cat stack b in
    (match op with
     | Ast.Add -> V.add va vb
     | Ast.Sub -> V.sub va vb
     | Ast.Mul -> V.mul va vb
     | Ast.Div -> V.div va vb)
  | S.E_agg _ -> invalid_arg "naive: aggregate in scalar position"

(* SQL three-valued logic, mirroring the engine's documented semantics. *)
and eval_cmp op a b : bool option =
  if V.is_null a || V.is_null b then None
  else
    let d = V.compare a b in
    Some
      (match op with
       | Ast.Eq -> d = 0
       | Ast.Ne -> d <> 0
       | Ast.Lt -> d < 0
       | Ast.Le -> d <= 0
       | Ast.Gt -> d > 0
       | Ast.Ge -> d >= 0)

and and3 a b =
  match a, b with
  | Some false, _ | _, Some false -> Some false
  | Some true, Some true -> Some true
  | _ -> None

and or3 a b =
  match a, b with
  | Some true, _ | _, Some true -> Some true
  | Some false, Some false -> Some false
  | _ -> None

and eval_pred cat stack (p : S.spred) : bool option =
  match p with
  | S.P_cmp (a, c, b) -> eval_cmp c (eval_expr cat stack a) (eval_expr cat stack b)
  | S.P_between (e, lo, hi) ->
    let v = eval_expr cat stack e in
    and3
      (eval_cmp Ast.Ge v (eval_expr cat stack lo))
      (eval_cmp Ast.Le v (eval_expr cat stack hi))
  | S.P_in_list (e, vs) ->
    let v = eval_expr cat stack e in
    if V.is_null v then None
    else if List.exists (V.equal v) vs then Some true
    else if List.exists V.is_null vs then None
    else Some false
  | S.P_in_sub { e; block; negated } ->
    let v = eval_expr cat stack e in
    let base =
      if V.is_null v then None
      else begin
        let rows = run cat stack block in
        if List.exists (fun row -> V.equal v (T.get row 0)) rows then Some true
        else if List.exists (fun row -> V.is_null (T.get row 0)) rows then None
        else Some false
      end
    in
    if negated then Option.map not base else base
  | S.P_cmp_sub (e, c, block) ->
    let v = eval_expr cat stack e in
    (match run cat stack block with
     | [] -> None
     | [ row ] -> eval_cmp c v (T.get row 0)
     | _ -> invalid_arg "naive: scalar subquery with several rows")
  | S.P_and (a, b) -> and3 (eval_pred cat stack a) (eval_pred cat stack b)
  | S.P_or (a, b) -> or3 (eval_pred cat stack a) (eval_pred cat stack b)
  | S.P_not a -> Option.map not (eval_pred cat stack a)

and eval_agg cat stack (f : Ast.agg_fn) inner rows block =
  let values =
    List.filter_map
      (fun tuple ->
        let v = eval_expr cat ({ block; tuple } :: List.tl stack) inner in
        if V.is_null v then None else Some v)
      rows
  in
  match f, values with
  | Ast.Count, vs -> V.Int (List.length vs)
  | (Ast.Avg | Ast.Sum | Ast.Min | Ast.Max), [] -> V.Null
  | Ast.Sum, v :: vs -> List.fold_left V.add v vs
  | Ast.Avg, v :: vs ->
    let s = List.fold_left V.add v vs in
    (match V.to_float s with
     | Some x -> V.Float (x /. float_of_int (List.length values))
     | None -> V.Null)
  | Ast.Min, v :: vs ->
    List.fold_left (fun a b -> if V.compare b a < 0 then b else a) v vs
  | Ast.Max, v :: vs ->
    List.fold_left (fun a b -> if V.compare b a > 0 then b else a) v vs

and eval_select_over cat stack block rows (e : S.sexpr) =
  match e with
  | S.E_agg (f, inner) -> eval_agg cat stack f inner rows block
  | S.E_binop (op, a, b) ->
    let va = eval_select_over cat stack block rows a in
    let vb = eval_select_over cat stack block rows b in
    (match op with
     | Ast.Add -> V.add va vb
     | Ast.Sub -> V.sub va vb
     | Ast.Mul -> V.mul va vb
     | Ast.Div -> V.div va vb)
  | S.E_col _ | S.E_outer _ | S.E_const _ | S.E_param _ ->
    (match rows with
     | [] -> V.Null
     | tuple :: _ -> eval_expr cat ({ block; tuple } :: List.tl stack) e)

(* [stack] are the enclosing frames (innermost first); a fresh frame for this
   block is pushed per candidate composite. *)
and run cat (stack : frame list) (block : S.block) : T.t list =
  let rows = cross_product (List.map (table_rows cat) block.S.tables) in
  let rows =
    match block.S.where with
    | None -> rows
    | Some w ->
      List.filter (fun tuple -> eval_pred cat ({ block; tuple } :: stack) w = Some true) rows
  in
  let project rows_for_output =
    List.map
      (fun (e, _) -> eval_select_over cat ({ block; tuple = [||] } :: stack) block rows_for_output e)
      block.S.select
    |> Array.of_list
  in
  let output =
    if block.S.scalar_agg then [ project rows ]
    else if block.S.group_by <> [] then begin
      let key t = List.map (fun c -> T.get t (pos block c)) block.S.group_by in
      let groups = Hashtbl.create 16 in
      let order = ref [] in
      List.iter
        (fun t ->
          let k = key t in
          if not (Hashtbl.mem groups k) then order := k :: !order;
          Hashtbl.replace groups k (t :: Option.value (Hashtbl.find_opt groups k) ~default:[]))
        rows;
      List.rev_map (fun k -> project (List.rev (Hashtbl.find groups k))) !order
    end
    else
      List.map
        (fun tuple ->
          Array.of_list
            (List.map
               (fun (e, _) -> eval_expr cat ({ block; tuple } :: stack) e)
               block.S.select))
        rows
  in
  output

let query cat block = run cat [] block
