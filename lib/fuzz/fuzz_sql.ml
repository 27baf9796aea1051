(* Render generated statements back to SQL text the parser accepts.

   [Ast.pp_query] is a debugging printer, not a SQL emitter — it prints
   string constants OCaml-quoted ("...") where SQL wants '...', so the fuzz
   harness (whose whole point is feeding the engine through its public text
   interface, and printing reproducers that paste into the CLI) carries its
   own renderer. Operands are parenthesized liberally; the parser accepts
   parentheses in both expression and predicate position. *)

let buf_add = Buffer.add_string

let value b (v : Rel.Value.t) =
  match v with
  | Rel.Value.Null -> buf_add b "NULL"
  | Rel.Value.Int i -> buf_add b (string_of_int i)
  | Rel.Value.Float f -> buf_add b (Printf.sprintf "%.17g" f)
  | Rel.Value.Str s ->
    Buffer.add_char b '\'';
    String.iter
      (fun c ->
        if c = '\'' then buf_add b "''" else Buffer.add_char b c)
      s;
    Buffer.add_char b '\''

let comparison = function
  | Ast.Eq -> "=" | Ast.Ne -> "<>" | Ast.Lt -> "<"
  | Ast.Le -> "<=" | Ast.Gt -> ">" | Ast.Ge -> ">="

let agg_fn = function
  | Ast.Avg -> "AVG" | Ast.Min -> "MIN" | Ast.Max -> "MAX"
  | Ast.Sum -> "SUM" | Ast.Count -> "COUNT"

let arith = function
  | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/"

let rec expr b (e : Ast.expr) =
  match e with
  | Ast.Col { table = Some t; column } ->
    buf_add b t; Buffer.add_char b '.'; buf_add b column
  | Ast.Col { table = None; column } -> buf_add b column
  | Ast.Const v -> value b v
  | Ast.Param _ -> Buffer.add_char b '?'
  | Ast.Agg (Ast.Count, Ast.Const (Rel.Value.Int 1)) -> buf_add b "COUNT(*)"
  | Ast.Agg (f, e) ->
    buf_add b (agg_fn f); Buffer.add_char b '(';
    expr b e; Buffer.add_char b ')'
  | Ast.Binop (op, x, y) ->
    let operand o =
      match o with
      | Ast.Binop _ -> Buffer.add_char b '('; expr b o; Buffer.add_char b ')'
      | _ -> expr b o
    in
    operand x;
    Buffer.add_char b ' '; buf_add b (arith op); Buffer.add_char b ' ';
    operand y

let rec predicate b (p : Ast.predicate) =
  let atom q =
    match q with
    | Ast.And _ | Ast.Or _ | Ast.Not _ ->
      Buffer.add_char b '('; predicate b q; Buffer.add_char b ')'
    | _ -> predicate b q
  in
  match p with
  | Ast.Cmp (x, c, y) ->
    expr b x;
    Buffer.add_char b ' '; buf_add b (comparison c); Buffer.add_char b ' ';
    expr b y
  | Ast.Between (e, lo, hi) ->
    expr b e; buf_add b " BETWEEN "; expr b lo; buf_add b " AND "; expr b hi
  | Ast.In_list (e, vs) ->
    expr b e;
    buf_add b " IN (";
    List.iteri
      (fun i v ->
        if i > 0 then buf_add b ", ";
        value b v)
      vs;
    Buffer.add_char b ')'
  | Ast.In_subquery (e, q, negated) ->
    expr b e;
    buf_add b (if negated then " NOT IN (" else " IN (");
    query b q;
    Buffer.add_char b ')'
  | Ast.Cmp_subquery (e, c, q) ->
    expr b e;
    Buffer.add_char b ' '; buf_add b (comparison c);
    buf_add b " (";
    query b q;
    Buffer.add_char b ')'
  | Ast.And (x, y) -> atom x; buf_add b " AND "; atom y
  | Ast.Or (x, y) -> atom x; buf_add b " OR "; atom y
  | Ast.Not x -> buf_add b "NOT "; atom x

and query b (q : Ast.query) =
  buf_add b "SELECT ";
  List.iteri
    (fun i item ->
      if i > 0 then buf_add b ", ";
      match item with
      | Ast.Star -> Buffer.add_char b '*'
      | Ast.Sel_expr (e, None) -> expr b e
      | Ast.Sel_expr (e, Some a) -> expr b e; buf_add b " AS "; buf_add b a)
    q.Ast.select;
  buf_add b " FROM ";
  List.iteri
    (fun i (t, alias) ->
      if i > 0 then buf_add b ", ";
      buf_add b t;
      match alias with
      | Some a -> Buffer.add_char b ' '; buf_add b a
      | None -> ())
    q.Ast.from;
  (match q.Ast.where with
   | None -> ()
   | Some p -> buf_add b " WHERE "; predicate b p);
  (match q.Ast.group_by with
   | [] -> ()
   | cols ->
     buf_add b " GROUP BY ";
     List.iteri
       (fun i e ->
         if i > 0 then buf_add b ", ";
         expr b e)
       cols);
  match q.Ast.order_by with
  | [] -> ()
  | keys ->
    buf_add b " ORDER BY ";
    List.iteri
      (fun i (e, dir) ->
        if i > 0 then buf_add b ", ";
        expr b e;
        match dir with Ast.Asc -> () | Ast.Desc -> buf_add b " DESC")
      keys

let query_to_string q =
  let b = Buffer.create 256 in
  query b q;
  Buffer.contents b

(* DDL for a generated scenario. STRING columns cycle through the three
   accepted spellings (STRING / CHAR(n) / VARCHAR(n)) so every fuzz run also
   exercises the type-alias parsing. *)
let string_ty_spelling i =
  match i mod 3 with
  | 0 -> "STRING"
  | 1 -> "CHAR(8)"
  | _ -> "VARCHAR(16)"

let create_table b ~name ~cols =
  buf_add b "CREATE TABLE ";
  buf_add b name;
  buf_add b " (";
  List.iteri
    (fun i (cname, (ty : Rel.Value.ty)) ->
      if i > 0 then buf_add b ", ";
      buf_add b cname;
      Buffer.add_char b ' ';
      buf_add b
        (match ty with
         | Rel.Value.Tint -> "INT"
         | Rel.Value.Tfloat -> "FLOAT"
         | Rel.Value.Tstr -> string_ty_spelling i))
    cols;
  buf_add b ");\n"

let insert_rows b ~name rows =
  match rows with
  | [] -> ()
  | _ ->
    buf_add b "INSERT INTO ";
    buf_add b name;
    buf_add b " VALUES ";
    List.iteri
      (fun i row ->
        if i > 0 then buf_add b ", ";
        Buffer.add_char b '(';
        List.iteri
          (fun j v ->
            if j > 0 then buf_add b ", ";
            value b v)
          row;
        Buffer.add_char b ')')
      rows;
    buf_add b ";\n"

let create_index b ~name ~table ~cols ~clustered =
  buf_add b (if clustered then "CREATE CLUSTERED INDEX " else "CREATE INDEX ");
  buf_add b name;
  buf_add b " ON ";
  buf_add b table;
  buf_add b " (";
  buf_add b (String.concat ", " cols);
  buf_add b ");\n"
