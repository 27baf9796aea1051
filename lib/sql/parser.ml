exception Error of string * int

type state = {
  toks : (Lexer.token * int) array;
  mutable pos : int;
  mutable params : int;  (* number of ? placeholders seen so far *)
}

let peek st = fst st.toks.(st.pos)
let offset st = snd st.toks.(st.pos)
let advance st = st.pos <- st.pos + 1

let fail st msg = raise (Error (msg, offset st))

let expect_kw st kw =
  match peek st with
  | Lexer.Kw k when k = kw -> advance st
  | t -> fail st (Format.asprintf "expected %s, found %a" kw Lexer.pp_token t)

let expect_sym st s =
  match peek st with
  | Lexer.Sym x when x = s -> advance st
  | t -> fail st (Format.asprintf "expected %S, found %a" s Lexer.pp_token t)

let accept_kw st kw =
  match peek st with
  | Lexer.Kw k when k = kw ->
    advance st;
    true
  | _ -> false

let accept_sym st s =
  match peek st with
  | Lexer.Sym x when x = s ->
    advance st;
    true
  | _ -> false

let ident st =
  match peek st with
  | Lexer.Ident s ->
    advance st;
    s
  | t -> fail st (Format.asprintf "expected identifier, found %a" Lexer.pp_token t)

let comparison st =
  match peek st with
  | Lexer.Sym "=" -> advance st; Some Ast.Eq
  | Lexer.Sym "<>" -> advance st; Some Ast.Ne
  | Lexer.Sym "<" -> advance st; Some Ast.Lt
  | Lexer.Sym "<=" -> advance st; Some Ast.Le
  | Lexer.Sym ">" -> advance st; Some Ast.Gt
  | Lexer.Sym ">=" -> advance st; Some Ast.Ge
  | _ -> None

let constant st =
  match peek st with
  | Lexer.Int_lit i -> advance st; Some (Rel.Value.Int i)
  | Lexer.Float_lit f -> advance st; Some (Rel.Value.Float f)
  | Lexer.Str_lit s -> advance st; Some (Rel.Value.Str s)
  | Lexer.Kw "NULL" -> advance st; Some Rel.Value.Null
  | Lexer.Sym "-" ->
    (match fst st.toks.(st.pos + 1) with
     | Lexer.Int_lit i -> advance st; advance st; Some (Rel.Value.Int (-i))
     | Lexer.Float_lit f -> advance st; advance st; Some (Rel.Value.Float (-.f))
     | _ -> None)
  | _ -> None

let agg_fn = function
  | "AVG" -> Some Ast.Avg
  | "MIN" -> Some Ast.Min
  | "MAX" -> Some Ast.Max
  | "SUM" -> Some Ast.Sum
  | "COUNT" -> Some Ast.Count
  | _ -> None

let rec expr st =
  let lhs = term st in
  let rec tail lhs =
    if accept_sym st "+" then tail (Ast.Binop (Ast.Add, lhs, term st))
    else if accept_sym st "-" then tail (Ast.Binop (Ast.Sub, lhs, term st))
    else lhs
  in
  tail lhs

and term st =
  let lhs = factor st in
  let rec tail lhs =
    if accept_sym st "*" then tail (Ast.Binop (Ast.Mul, lhs, factor st))
    else if accept_sym st "/" then tail (Ast.Binop (Ast.Div, lhs, factor st))
    else lhs
  in
  tail lhs

and factor st =
  match peek st with
  | Lexer.Kw k when agg_fn k <> None ->
    let f = Option.get (agg_fn k) in
    advance st;
    expect_sym st "(";
    let e = if accept_sym st "*" then Ast.Const (Rel.Value.Int 1) else expr st in
    expect_sym st ")";
    Ast.Agg (f, e)
  | Lexer.Ident _ ->
    let first = ident st in
    if accept_sym st "." then
      let column = ident st in
      Ast.Col { table = Some first; column }
    else Ast.Col { table = None; column = first }
  | Lexer.Sym "(" ->
    advance st;
    let e = expr st in
    expect_sym st ")";
    e
  | Lexer.Sym "?" ->
    advance st;
    let i = st.params in
    st.params <- i + 1;
    Ast.Param i
  | _ ->
    (match constant st with
     | Some v -> Ast.Const v
     | None -> fail st "expected expression")

let rec predicate st = or_pred st

and or_pred st =
  let lhs = and_pred st in
  if accept_kw st "OR" then Ast.Or (lhs, or_pred st) else lhs

and and_pred st =
  let lhs = not_pred st in
  if accept_kw st "AND" then Ast.And (lhs, and_pred st) else lhs

and not_pred st =
  if accept_kw st "NOT" then Ast.Not (not_pred st) else primary_pred st

and primary_pred st =
  (* A '(' may open a parenthesized predicate or a parenthesized scalar
     expression on the left of a comparison; backtrack on failure. *)
  match peek st with
  | Lexer.Sym "(" ->
    let save = st.pos and save_params = st.params in
    (try
       advance st;
       let p = predicate st in
       expect_sym st ")";
       p
     with Error _ ->
       st.pos <- save;
       st.params <- save_params;
       comparison_pred st)
  | _ -> comparison_pred st

and comparison_pred st =
  let lhs = expr st in
  if accept_kw st "BETWEEN" then begin
    let lo = expr st in
    expect_kw st "AND";
    let hi = expr st in
    Ast.Between (lhs, lo, hi)
  end
  else if accept_kw st "NOT" then begin
    expect_kw st "IN";
    in_tail st lhs ~negated:true
  end
  else if accept_kw st "IN" then in_tail st lhs ~negated:false
  else
    match comparison st with
    | None -> fail st "expected comparison operator, BETWEEN or IN"
    | Some cmp ->
      (match peek st, fst st.toks.(st.pos + 1) with
       | Lexer.Sym "(", Lexer.Kw "SELECT" ->
         advance st;
         let q = query st in
         expect_sym st ")";
         Ast.Cmp_subquery (lhs, cmp, q)
       | _ -> Ast.Cmp (lhs, cmp, expr st))

and in_tail st lhs ~negated =
  expect_sym st "(";
  match peek st with
  | Lexer.Kw "SELECT" ->
    let q = query st in
    expect_sym st ")";
    Ast.In_subquery (lhs, q, negated)
  | _ ->
    let rec values acc =
      match constant st with
      | Some v -> if accept_sym st "," then values (v :: acc) else List.rev (v :: acc)
      | None -> fail st "expected constant in IN list"
    in
    let vs = values [] in
    expect_sym st ")";
    let inlist = Ast.In_list (lhs, vs) in
    if negated then Ast.Not inlist else inlist

and select_item st =
  if accept_sym st "*" then Ast.Star
  else
    let e = expr st in
    if accept_kw st "AS" then Ast.Sel_expr (e, Some (ident st))
    else
      match peek st with
      | Lexer.Ident a ->
        advance st;
        Ast.Sel_expr (e, Some a)
      | _ -> Ast.Sel_expr (e, None)

and query st =
  expect_kw st "SELECT";
  let rec items acc =
    let it = select_item st in
    if accept_sym st "," then items (it :: acc) else List.rev (it :: acc)
  in
  let select = items [] in
  expect_kw st "FROM";
  let rec tables acc =
    let t = ident st in
    let alias = match peek st with
      | Lexer.Ident a -> advance st; Some a
      | _ -> None
    in
    if accept_sym st "," then tables ((t, alias) :: acc)
    else List.rev ((t, alias) :: acc)
  in
  let from = tables [] in
  let where = if accept_kw st "WHERE" then Some (predicate st) else None in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      let rec go acc =
        let e = expr st in
        if accept_sym st "," then go (e :: acc) else List.rev (e :: acc)
      in
      go []
    end
    else []
  in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      let rec go acc =
        let e = expr st in
        let dir =
          if accept_kw st "DESC" then Ast.Desc
          else begin
            ignore (accept_kw st "ASC");
            Ast.Asc
          end
        in
        if accept_sym st "," then go ((e, dir) :: acc) else List.rev ((e, dir) :: acc)
      in
      go []
    end
    else []
  in
  { Ast.select; from; where; group_by; order_by }

let column_type st =
  match peek st with
  | Lexer.Kw "INT" -> advance st; Rel.Value.Tint
  | Lexer.Kw "FLOAT" -> advance st; Rel.Value.Tfloat
  | Lexer.Kw "STRING" -> advance st; Rel.Value.Tstr
  | Lexer.Ident id
    when (let u = String.uppercase_ascii id in u = "CHAR" || u = "VARCHAR") ->
    (* CHAR(n) / VARCHAR(n) are aliases for STRING; strings are stored
       variable-length, so the declared length is accepted and ignored *)
    advance st;
    if accept_sym st "(" then begin
      (match peek st with
       | Lexer.Int_lit n when n > 0 -> advance st
       | t ->
         fail st
           (Format.asprintf "expected positive character length, found %a"
              Lexer.pp_token t));
      expect_sym st ")"
    end;
    Rel.Value.Tstr
  | t -> fail st (Format.asprintf "expected column type, found %a" Lexer.pp_token t)

let rec statement st =
  match peek st with
  | Lexer.Kw "SELECT" -> Ast.Select (query st)
  | Lexer.Kw "EXPLAIN" ->
    advance st;
    let search = accept_kw st "SEARCH" in
    (match peek st with
     | Lexer.Kw ("SELECT" | "DELETE" | "UPDATE") ->
       (match statement st with
        | Ast.Update_statistics -> fail st "UPDATE STATISTICS has no plan to explain"
        | stmt -> Ast.Explain { search; stmt })
     | t ->
       fail st
         (Format.asprintf "expected SELECT, DELETE or UPDATE after EXPLAIN, found %a"
            Lexer.pp_token t))
  | Lexer.Kw "CREATE" ->
    advance st;
    let clustered = accept_kw st "CLUSTERED" in
    if accept_kw st "TABLE" then begin
      if clustered then fail st "CLUSTERED applies to indexes, not tables";
      let table = ident st in
      expect_sym st "(";
      let rec cols acc =
        let col_name = ident st in
        let col_ty = column_type st in
        let def = { Ast.col_name; col_ty } in
        if accept_sym st "," then cols (def :: acc) else List.rev (def :: acc)
      in
      let columns = cols [] in
      expect_sym st ")";
      Ast.Create_table { table; columns }
    end
    else begin
      expect_kw st "INDEX";
      let index = ident st in
      expect_kw st "ON";
      let table = ident st in
      expect_sym st "(";
      let rec cols acc =
        let c = ident st in
        if accept_sym st "," then cols (c :: acc) else List.rev (c :: acc)
      in
      let columns = cols [] in
      expect_sym st ")";
      Ast.Create_index { index; table; columns; clustered }
    end
  | Lexer.Kw "INSERT" ->
    advance st;
    expect_kw st "INTO";
    let table = ident st in
    expect_kw st "VALUES";
    let row () =
      expect_sym st "(";
      let rec vals acc =
        match constant st with
        | Some v -> if accept_sym st "," then vals (v :: acc) else List.rev (v :: acc)
        | None -> fail st "expected constant in VALUES"
      in
      let vs = vals [] in
      expect_sym st ")";
      vs
    in
    let rec rows acc =
      let r = row () in
      if accept_sym st "," then rows (r :: acc) else List.rev (r :: acc)
    in
    Ast.Insert { table; values = rows [] }
  | Lexer.Kw "DELETE" ->
    advance st;
    expect_kw st "FROM";
    let table = ident st in
    let where = if accept_kw st "WHERE" then Some (predicate st) else None in
    Ast.Delete { table; where }
  | Lexer.Kw "UPDATE" ->
    advance st;
    if accept_kw st "STATISTICS" then Ast.Update_statistics
    else begin
      let table = ident st in
      expect_kw st "SET";
      let rec sets acc =
        let col = ident st in
        expect_sym st "=";
        let e = expr st in
        if accept_sym st "," then sets ((col, e) :: acc)
        else List.rev ((col, e) :: acc)
      in
      let sets = sets [] in
      let where = if accept_kw st "WHERE" then Some (predicate st) else None in
      Ast.Update { table; sets; where }
    end
  | Lexer.Kw "DROP" ->
    advance st;
    if accept_kw st "TABLE" then Ast.Drop_table (ident st)
    else begin
      expect_kw st "INDEX";
      Ast.Drop_index (ident st)
    end
  | Lexer.Kw "SET" ->
    advance st;
    if accept_kw st "HISTOGRAMS" then begin
      if accept_kw st "ON" then Ast.Set_histograms true
      else begin
        expect_kw st "OFF";
        Ast.Set_histograms false
      end
    end
    else if accept_kw st "PLAN_CACHE_SIZE" then begin
      match peek st with
      | Lexer.Int_lit n when n >= 1 ->
        advance st;
        Ast.Set_plan_cache_size n
      | t ->
        fail st
          (Format.asprintf "expected positive plan cache size, found %a"
             Lexer.pp_token t)
    end
    else if accept_kw st "COMMIT_DELAY" then begin
      match peek st with
      | Lexer.Int_lit n when n >= 0 ->
        advance st;
        Ast.Set_commit_delay n
      | t ->
        fail st
          (Format.asprintf "expected commit delay in microseconds, found %a"
             Lexer.pp_token t)
    end
    else begin
      expect_kw st "GROUP_COMMIT";
      if accept_kw st "ON" then Ast.Set_group_commit true
      else begin
        expect_kw st "OFF";
        Ast.Set_group_commit false
      end
    end
  | Lexer.Kw "BEGIN" ->
    advance st;
    ignore (accept_kw st "TRANSACTION");
    Ast.Begin_transaction
  | Lexer.Kw "COMMIT" ->
    advance st;
    Ast.Commit
  | Lexer.Kw "ROLLBACK" ->
    advance st;
    Ast.Rollback
  | Lexer.Kw "VACUUM" ->
    advance st;
    Ast.Vacuum
  | t -> fail st (Format.asprintf "expected statement, found %a" Lexer.pp_token t)

let make_state src =
  let toks =
    try Lexer.tokenize src
    with Lexer.Error (msg, off) -> raise (Error (msg, off))
  in
  { toks; pos = 0; params = 0 }

let check_eof st =
  ignore (accept_sym st ";");
  match peek st with
  | Lexer.Eof -> ()
  | t -> fail st (Format.asprintf "trailing input: %a" Lexer.pp_token t)

let parse_statement src =
  let st = make_state src in
  let s = statement st in
  check_eof st;
  s

let parse_query src =
  let st = make_state src in
  let q = query st in
  check_eof st;
  q

let parse_script src =
  let st = make_state src in
  let rec go acc =
    match peek st with
    | Lexer.Eof -> List.rev acc
    | _ ->
      let s = statement st in
      if accept_sym st ";" then go (s :: acc)
      else begin
        (match peek st with
         | Lexer.Eof -> ()
         | t -> fail st (Format.asprintf "expected ';', found %a" Lexer.pp_token t));
        List.rev (s :: acc)
      end
  in
  go []
