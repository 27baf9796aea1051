(* DML statements shared by the MVCC history fuzzer (Fuzz_mvcc) and crash
   torture (Fuzz_torture): one statement type, its generator, its
   Ast.statement (written as SQL by Ast.to_sql), and a row-level reference
   semantics that both harnesses' oracles are built from.

   WHERE clauses are one column compared with a literal (=, <, <=, >, >=),
   a BETWEEN (sometimes an empty one), or absent, so victims are found
   through index point and range paths as well as full scans. UPDATE SET
   lists assign a same-type column, a literal, NULL, or c + k / c - k / c * k
   on INT columns — and sometimes one assignment the engine must reject
   before it touches any victim: a FLOAT value or a string for an INT
   column, SUM(c), or a ? placeholder. [rejection] predicts that error's
   message substring; a rejected statement changes nothing. *)

module V = Rel.Value

type t =
  | Insert of string * V.t list list
  | Update of string * (string * Ast.expr) list * Ast.predicate option
  | Delete of string * Ast.predicate option

let table = function Insert (t, _) | Update (t, _, _) | Delete (t, _) -> t

(* --- generation ---------------------------------------------------------- *)

let pick = Fuzz_gen.pick

let gen_rows rng (t : Fuzz_gen.table) =
  let n = 1 + Random.State.int rng 3 in
  List.init n (fun _ ->
      List.map
        (fun (c : Fuzz_gen.column) ->
          Fuzz_gen.gen_value rng
            (fun () -> Random.State.int rng c.Fuzz_gen.distinct)
            c)
        t.Fuzz_gen.cols)

let col (c : Fuzz_gen.column) = Ast.Col { table = None; column = c.Fuzz_gen.cname }

let gen_where rng (t : Fuzz_gen.table) =
  if Random.State.int rng 5 = 0 then None
  else
    let c = pick rng (Array.of_list t.Fuzz_gen.cols) in
    let lit () = Fuzz_gen.lit rng c in
    Some
      (match Random.State.int rng 6 with
       | 0 | 1 -> Ast.Cmp (col c, Ast.Eq, Ast.Const (lit ()))
       | 2 | 3 ->
         Ast.Cmp (col c, pick rng [| Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge |],
                  Ast.Const (lit ()))
       | _ ->
         (* ordered bounds, but one in six reversed (an empty range) *)
         let a = lit () and b = lit () in
         let ordered = (V.compare a b <= 0) = (Random.State.int rng 6 > 0) in
         let lo, hi = if ordered then (a, b) else (b, a) in
         Ast.Between (col c, Ast.Const lo, Ast.Const hi))

(* A valid right-hand side for column [c]. *)
let gen_set_expr rng (t : Fuzz_gen.table) (c : Fuzz_gen.column) =
  let same =
    Array.of_list
      (List.filter
         (fun (d : Fuzz_gen.column) -> d.Fuzz_gen.cty = c.Fuzz_gen.cty)
         t.Fuzz_gen.cols)
  in
  match Random.State.int rng 6 with
  | 0 -> col (pick rng same)
  | 1 -> Ast.Const V.Null
  | (2 | 3) when c.Fuzz_gen.cty = V.Tint ->
    Ast.Binop
      ( pick rng [| Ast.Add; Ast.Sub; Ast.Mul |],
        col (pick rng same),
        Ast.Const (V.Int (Random.State.int rng 5 - 1)) )
  | _ -> Ast.Const (Fuzz_gen.lit rng c)

(* An assignment to INT column [c] that must be rejected. *)
let gen_bad_set_expr rng (c : Fuzz_gen.column) =
  match Random.State.int rng 5 with
  | 0 -> Ast.Const (V.Float 1.5)
  | 1 -> Ast.Binop (Ast.Mul, col c, Ast.Const (V.Float 1.5))
  | 2 -> Ast.Const (V.Str "v1")
  | 3 -> Ast.Agg (Ast.Sum, col c)
  | _ -> Ast.Param 0

(* One or two distinct target columns; one SET list in six leads with a
   rejected assignment to column 0 (always INT). An aggregate stands alone:
   next to a column reference it fails name resolution before the SET
   checks run. *)
let gen_sets rng (t : Fuzz_gen.table) =
  let first = pick rng (Array.of_list t.Fuzz_gen.cols) in
  let targets =
    match List.filter (fun c -> c != first) t.Fuzz_gen.cols with
    | _ :: _ as rest when Random.State.int rng 3 = 0 ->
      [ first; pick rng (Array.of_list rest) ]
    | _ -> [ first ]
  in
  let sets = List.map (fun c -> (c.Fuzz_gen.cname, gen_set_expr rng t c)) targets in
  let c0 = List.hd t.Fuzz_gen.cols in
  if Random.State.int rng 6 > 0 then sets
  else
    match gen_bad_set_expr rng c0 with
    | Ast.Agg _ as e -> [ (c0.Fuzz_gen.cname, e) ]
    | e -> (c0.Fuzz_gen.cname, e) :: List.remove_assoc c0.Fuzz_gen.cname sets

let gen rng (t : Fuzz_gen.table) =
  match Random.State.int rng 8 with
  | 0 | 1 | 2 | 3 -> Insert (t.Fuzz_gen.tname, gen_rows rng t)
  | 4 | 5 -> Delete (t.Fuzz_gen.tname, gen_where rng t)
  | _ -> Update (t.Fuzz_gen.tname, gen_sets rng t, gen_where rng t)

(* --- rendering ------------------------------------------------------------ *)

let statement = function
  | Insert (table, values) -> Ast.Insert { table; values }
  | Update (table, sets, where) -> Ast.Update { table; sets; where }
  | Delete (table, where) -> Ast.Delete { table; where }

(* The statement followed by ";\n". *)
let sql d = Fuzz_harness.script [ statement d ]

(* --- reference semantics -------------------------------------------------- *)

let column cols name =
  List.find (fun (c : Fuzz_gen.column) -> c.Fuzz_gen.cname = name) cols

let rec ty_of cols (e : Ast.expr) =
  match e with
  | Ast.Col { column = name; _ } -> Some (column cols name).Fuzz_gen.cty
  | Ast.Const v -> V.type_of v
  | Ast.Param _ -> None
  | Ast.Agg (_, a) -> ty_of cols a
  | Ast.Binop (_, a, b) ->
    (match ty_of cols a, ty_of cols b with
     | Some V.Tfloat, _ | _, Some V.Tfloat -> Some V.Tfloat
     | Some ty, _ | _, Some ty -> Some ty
     | None, None -> None)

let rec mentions f (e : Ast.expr) =
  f e
  || match e with
     | Ast.Binop (_, a, b) -> mentions f a || mentions f b
     | Ast.Agg (_, a) -> mentions f a
     | Ast.Col _ | Ast.Const _ | Ast.Param _ -> false

(* The error substring the engine must report for this SET list, checked in
   the engine's order; None when every assignment is valid. *)
let rejection cols sets =
  let any f = List.exists (fun (_, e) -> mentions f e) sets in
  let mistyped (c, e) =
    match ty_of cols e with
    | Some ty -> ty <> (column cols c).Fuzz_gen.cty
    | None -> false
  in
  if any (function Ast.Agg _ -> true | _ -> false) then Some "aggregate in SET"
  else if any (function Ast.Param _ -> true | _ -> false) then Some "parameter in SET"
  else if List.exists mistyped sets then Some "type mismatch"
  else None

let rec eval cols row (e : Ast.expr) =
  match e with
  | Ast.Col { column = name; _ } ->
    List.assoc name (List.map2 (fun (c : Fuzz_gen.column) v -> (c.Fuzz_gen.cname, v)) cols row)
  | Ast.Const v -> v
  | Ast.Binop (op, a, b) ->
    let f = match op with
      | Ast.Add -> V.add | Ast.Sub -> V.sub | Ast.Mul -> V.mul | Ast.Div -> V.div
    in
    f (eval cols row a) (eval cols row b)
  | Ast.Param _ | Ast.Agg _ -> invalid_arg "Fuzz_dml.eval"

(* Two-valued WHERE: a comparison with NULL does not qualify. *)
let holds cols where row =
  let cmp op a b =
    (not (V.is_null a || V.is_null b))
    &&
    let d = V.compare a b in
    match (op : Ast.comparison) with
    | Ast.Eq -> d = 0 | Ast.Ne -> d <> 0 | Ast.Lt -> d < 0
    | Ast.Le -> d <= 0 | Ast.Gt -> d > 0 | Ast.Ge -> d >= 0
  in
  match where with
  | None -> true
  | Some (Ast.Cmp (a, op, b)) -> cmp op (eval cols row a) (eval cols row b)
  | Some (Ast.Between (e, lo, hi)) ->
    let v = eval cols row e in
    cmp Ast.Ge v (eval cols row lo) && cmp Ast.Le v (eval cols row hi)
  | Some _ -> invalid_arg "Fuzz_dml.holds"

(* The updated image of [row]: every SET expression reads the old row. *)
let image cols sets row =
  List.map2
    (fun (c : Fuzz_gen.column) v ->
      match List.assoc_opt c.Fuzz_gen.cname sets with
      | Some e -> eval cols row e
      | None -> v)
    cols row

type outcome = Rows of int | Rejected of string

let tag d n =
  Printf.sprintf "%d row%s %s" n
    (if n = 1 then "" else "s")
    (match d with
     | Insert _ -> "inserted"
     | Update _ -> "updated"
     | Delete _ -> "deleted")

(* Whether the engine's result — a command tag or an error message — is the
   predicted [outcome]. *)
let agrees d outcome result =
  match outcome, result with
  | Rows n, Ok t -> t = tag d n
  | Rejected msg, Error e -> Fuzz_harness.contains e msg
  | Rows _, Error _ | Rejected _, Ok _ -> false

(* Apply [d] to the table it names in [s] (rows as a multiset). *)
let apply (s : Fuzz_gen.scenario) d =
  let t =
    List.find (fun (t : Fuzz_gen.table) -> t.Fuzz_gen.tname = table d)
      s.Fuzz_gen.tables
  in
  let cols = t.Fuzz_gen.cols in
  let rows, outcome =
    match d with
    | Insert (_, rows) -> (t.Fuzz_gen.rows @ rows, Rows (List.length rows))
    | Delete (_, where) ->
      let victims, rest = List.partition (holds cols where) t.Fuzz_gen.rows in
      (rest, Rows (List.length victims))
    | Update (_, sets, where) ->
      (match rejection cols sets with
       | Some msg -> (t.Fuzz_gen.rows, Rejected msg)
       | None ->
         let victims, rest = List.partition (holds cols where) t.Fuzz_gen.rows in
         (rest @ List.map (image cols sets) victims, Rows (List.length victims)))
  in
  ( { Fuzz_gen.tables =
        List.map
          (fun (u : Fuzz_gen.table) ->
            if u.Fuzz_gen.tname = t.Fuzz_gen.tname then { u with Fuzz_gen.rows }
            else u)
          s.Fuzz_gen.tables },
    outcome )

(* --- shrinking ------------------------------------------------------------ *)

let size = function
  | Insert (_, rows) -> 10 + List.length rows
  | Update (_, sets, where) -> 10 + List.length sets + Bool.to_int (where <> None)
  | Delete (_, where) -> 10 + Bool.to_int (where <> None)

let candidates = function
  | Insert (t, (r :: _ :: _ as rows)) -> [ Insert (t, [ r ]); Insert (t, List.tl rows) ]
  | Insert _ | Delete (_, None) -> []
  | Delete (t, Some _) -> [ Delete (t, None) ]
  | Update (t, sets, where) ->
    (if where = None then [] else [ Update (t, sets, None) ])
    @
    if List.length sets < 2 then []
    else List.mapi (fun i _ -> Update (t, List.filteri (fun j _ -> j <> i) sets, where)) sets
