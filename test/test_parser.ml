module A = Ast
module V = Rel.Value

let parse = Parser.parse_query
let parse_stmt = Parser.parse_statement

let test_lexer_basics () =
  let toks = Array.to_list (Lexer.tokenize "SELECT x, 42, 3.5, 'it''s' FROM t -- comment\n;") in
  let kinds = List.map fst toks in
  Alcotest.(check bool) "keyword" true (List.mem (Lexer.Kw "SELECT") kinds);
  Alcotest.(check bool) "ident" true (List.mem (Lexer.Ident "x") kinds);
  Alcotest.(check bool) "int" true (List.mem (Lexer.Int_lit 42) kinds);
  Alcotest.(check bool) "float" true (List.mem (Lexer.Float_lit 3.5) kinds);
  Alcotest.(check bool) "escaped quote" true (List.mem (Lexer.Str_lit "it's") kinds);
  Alcotest.(check bool) "comment skipped" true
    (not (List.exists (function Lexer.Ident "comment" -> true | _ -> false) kinds));
  Alcotest.(check bool) "eof last" true (List.rev kinds |> List.hd = Lexer.Eof)

let test_lexer_operators () =
  let ops s = List.filter_map (function Lexer.Sym x, _ -> Some x | _ -> None)
      (Array.to_list (Lexer.tokenize s)) in
  Alcotest.(check (list string)) "comparison ops" [ "<="; ">="; "<>"; "<>"; "<"; ">"; "=" ]
    (ops "<= >= <> != < > =")

let test_lexer_errors () =
  (match Lexer.tokenize "SELECT 'unterminated" with
   | _ -> Alcotest.fail "unterminated accepted"
   | exception Lexer.Error _ -> ());
  (match Lexer.tokenize "a @ b" with
   | _ -> Alcotest.fail "illegal char accepted"
   | exception Lexer.Error _ -> ());
  List.iter
    (fun s ->
      match Lexer.tokenize s with
      | _ -> Alcotest.fail ("out-of-range literal accepted: " ^ s)
      | exception Lexer.Error _ -> ())
    [ "4611686018427387904"; "1e309"; "1.5E+400" ]

let test_lexer_exponents () =
  let first s = fst (Lexer.tokenize s).(0) in
  Alcotest.(check bool) "1e+20" true (first "1e+20" = Lexer.Float_lit 1e20);
  Alcotest.(check bool) "1.5E-7" true (first "1.5E-7" = Lexer.Float_lit 1.5e-7);
  Alcotest.(check bool) "2e3" true (first "2e3" = Lexer.Float_lit 2000.);
  (* no digit after the e: the number ends before it *)
  Alcotest.(check bool) "1e alias" true (first "1e" = Lexer.Int_lit 1)

(* The keyword-list lexer as it stood before the keyword test became a
   compiled match and the tokens an array: the reference the lexer must
   agree with, token for token and offset for offset, error for error. *)
module Ref_lexer = struct
  open Lexer

  let keywords =
    [ "SELECT"; "FROM"; "WHERE"; "AND"; "OR"; "NOT"; "IN"; "BETWEEN"; "GROUP";
      "ORDER"; "BY"; "ASC"; "DESC"; "AS"; "CREATE"; "TABLE"; "INDEX"; "CLUSTERED";
      "ON"; "INSERT"; "INTO"; "VALUES"; "DELETE"; "UPDATE"; "SET"; "STATISTICS"; "SEARCH";
      "HISTOGRAMS"; "OFF"; "PLAN_CACHE_SIZE"; "COMMIT_DELAY"; "GROUP_COMMIT";
      "BEGIN"; "TRANSACTION"; "COMMIT"; "ROLLBACK"; "EXPLAIN"; "DROP"; "INT"; "FLOAT";
      "STRING"; "NULL"; "VACUUM"; "AVG"; "MIN"; "MAX"; "SUM"; "COUNT" ]

  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
  let is_digit c = c >= '0' && c <= '9'

  let tokenize src =
    let n = String.length src in
    let toks = ref [] in
    let emit tok off = toks := (tok, off) :: !toks in
    let rec go i =
      if i >= n then emit Eof i
      else
        match src.[i] with
        | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
        | '-' when i + 1 < n && src.[i + 1] = '-' ->
          let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
          go (skip (i + 2))
        | '\'' ->
          let buf = Buffer.create 16 in
          let rec scan j =
            if j >= n then raise (Error ("unterminated string literal", i))
            else if src.[j] = '\'' then
              if j + 1 < n && src.[j + 1] = '\'' then begin
                Buffer.add_char buf '\'';
                scan (j + 2)
              end
              else j + 1
            else begin
              Buffer.add_char buf src.[j];
              scan (j + 1)
            end
          in
          let next = scan (i + 1) in
          emit (Str_lit (Buffer.contents buf)) i;
          go next
        | c when is_digit c ->
          let rec scan j = if j < n && is_digit src.[j] then scan (j + 1) else j in
          let int_end = scan i in
          let frac_end =
            if int_end + 1 < n && src.[int_end] = '.' && is_digit src.[int_end + 1]
            then scan (int_end + 1)
            else int_end
          in
          let stop =
            if frac_end < n && (src.[frac_end] = 'e' || src.[frac_end] = 'E') then
              let d =
                if frac_end + 1 < n
                   && (src.[frac_end + 1] = '+' || src.[frac_end + 1] = '-')
                then frac_end + 2
                else frac_end + 1
              in
              if d < n && is_digit src.[d] then scan d else frac_end
            else frac_end
          in
          let text = String.sub src i (stop - i) in
          (if stop = int_end then
             match int_of_string_opt text with
             | Some k -> emit (Int_lit k) i
             | None -> raise (Error ("integer literal out of range", i))
           else
             let f = float_of_string text in
             if Float.is_finite f then emit (Float_lit f) i
             else raise (Error ("float literal out of range", i)));
          go stop
        | c when is_ident_start c ->
          let rec scan j = if j < n && is_ident_char src.[j] then scan (j + 1) else j in
          let e = scan i in
          let word = String.sub src i (e - i) in
          let up = String.uppercase_ascii word in
          if List.mem up keywords then emit (Kw up) i else emit (Ident word) i;
          go e
        | '<' when i + 1 < n && (src.[i + 1] = '=' || src.[i + 1] = '>') ->
          emit (Sym (String.sub src i 2)) i;
          go (i + 2)
        | '>' when i + 1 < n && src.[i + 1] = '=' ->
          emit (Sym ">=") i;
          go (i + 2)
        | '!' when i + 1 < n && src.[i + 1] = '=' ->
          emit (Sym "<>") i;
          go (i + 2)
        | ('=' | '<' | '>' | '(' | ')' | ',' | '.' | '*' | '+' | '-' | '/' | ';' | '?')
          as c ->
          emit (Sym (String.make 1 c)) i;
          go (i + 1)
        | c -> raise (Error (Printf.sprintf "illegal character %C" c, i))
    in
    go 0;
    (* the parser's second EOF sentinel *)
    List.rev ((Eof, n) :: !toks)
end

let lex_outcome f s =
  match f s with
  | toks -> Ok toks
  | exception Lexer.Error (msg, off) -> Error (msg, off)

let same_as_reference s =
  lex_outcome (fun s -> Array.to_list (Lexer.tokenize s)) s
  = lex_outcome Ref_lexer.tokenize s

let test_lexer_keywords () =
  let mixed k =
    String.mapi (fun i c -> if i mod 2 = 0 then Char.lowercase_ascii c else c) k
  in
  let check s =
    if not (same_as_reference s) then Alcotest.failf "lexer differs on %S" s
  in
  List.iter
    (fun k ->
      List.iter check
        [ k; String.lowercase_ascii k; mixed k; k ^ "X"; "X" ^ k; k ^ "_"; "_" ^ k;
          k ^ "1"; k ^ "." ^ k; "(" ^ k ^ ")"; k ^ " " ^ k ])
    Ref_lexer.keywords;
  List.iter check
    [ "SELECTED"; "FROMX"; "IN_"; "_AND"; "ORDERS"; "selected FROMx in_ _and Orders";
      "SELECT_"; "INTO1"; "NULLS"; "COUNTS(*)"; "GROUP_COMMITS"; "PLAN_CACHE" ];
  Alcotest.(check bool) "keyword token" true
    ((Lexer.tokenize "select").(0) = (Lexer.Kw "SELECT", 0));
  Alcotest.(check bool) "identifier keeps its case" true
    ((Lexer.tokenize "Selected").(0) = (Lexer.Ident "Selected", 0))


let test_simple_select () =
  let q = parse "SELECT NAME, SAL FROM EMP WHERE SAL > 100" in
  Alcotest.(check int) "two items" 2 (List.length q.A.select);
  Alcotest.(check int) "one table" 1 (List.length q.A.from);
  (match q.A.where with
   | Some (A.Cmp (A.Col { column = "SAL"; _ }, A.Gt, A.Const (V.Int 100))) -> ()
   | _ -> Alcotest.fail "where shape")

let test_star_and_aliases () =
  let q = parse "SELECT * FROM EMP E, DEPT" in
  Alcotest.(check bool) "star" true (q.A.select = [ A.Star ]);
  Alcotest.(check bool) "alias" true (q.A.from = [ ("EMP", Some "E"); ("DEPT", None) ]);
  let q2 = parse "SELECT SAL + 1 AS BUMP, SAL TOTAL FROM EMP" in
  (match q2.A.select with
   | [ A.Sel_expr (_, Some "BUMP"); A.Sel_expr (_, Some "TOTAL") ] -> ()
   | _ -> Alcotest.fail "aliases")

let test_precedence_and_or_not () =
  (* NOT binds tighter than AND, AND tighter than OR *)
  let q = parse "SELECT * FROM T WHERE NOT A = 1 AND B = 2 OR C = 3" in
  (match q.A.where with
   | Some (A.Or (A.And (A.Not _, _), A.Cmp (A.Col { column = "C"; _ }, A.Eq, _))) -> ()
   | _ -> Alcotest.fail "precedence shape")

let test_arith_precedence () =
  let q = parse "SELECT A + B * C FROM T" in
  (match q.A.select with
   | [ A.Sel_expr (A.Binop (A.Add, _, A.Binop (A.Mul, _, _)), None) ] -> ()
   | _ -> Alcotest.fail "mul binds tighter");
  let q2 = parse "SELECT (A + B) * C FROM T" in
  (match q2.A.select with
   | [ A.Sel_expr (A.Binop (A.Mul, A.Binop (A.Add, _, _), _), None) ] -> ()
   | _ -> Alcotest.fail "parens")

let test_between_in () =
  let q = parse "SELECT * FROM T WHERE A BETWEEN 1 AND 10 AND B IN (1, 2, 3)" in
  (match q.A.where with
   | Some (A.And (A.Between _, A.In_list (_, [ V.Int 1; V.Int 2; V.Int 3 ]))) -> ()
   | _ -> Alcotest.fail "between/in shape")

let test_subqueries () =
  let q =
    parse
      "SELECT NAME FROM EMPLOYEE WHERE SALARY = (SELECT AVG(SALARY) FROM EMPLOYEE)"
  in
  (match q.A.where with
   | Some (A.Cmp_subquery (_, A.Eq, sub)) ->
     (match sub.A.select with
      | [ A.Sel_expr (A.Agg (A.Avg, _), None) ] -> ()
      | _ -> Alcotest.fail "subquery agg")
   | _ -> Alcotest.fail "scalar subquery");
  let q2 =
    parse
      "SELECT NAME FROM EMPLOYEE WHERE DNO IN (SELECT DNO FROM DEPT WHERE \
       LOC = 'DENVER')"
  in
  (match q2.A.where with
   | Some (A.In_subquery (_, _, false)) -> ()
   | _ -> Alcotest.fail "IN subquery");
  let q3 = parse "SELECT NAME FROM E WHERE DNO NOT IN (SELECT DNO FROM D)" in
  (match q3.A.where with
   | Some (A.In_subquery (_, _, true)) -> ()
   | _ -> Alcotest.fail "NOT IN subquery")

let test_group_order () =
  let q =
    parse "SELECT DNO, AVG(SAL) FROM EMP GROUP BY DNO ORDER BY DNO DESC, SAL"
  in
  Alcotest.(check int) "group cols" 1 (List.length q.A.group_by);
  (match q.A.order_by with
   | [ (_, A.Desc); (_, A.Asc) ] -> ()
   | _ -> Alcotest.fail "order dirs")

let test_count_star_and_negatives () =
  let q = parse "SELECT COUNT(*) FROM T WHERE A = -5 AND B > -2.5" in
  (match q.A.select with
   | [ A.Sel_expr (A.Agg (A.Count, _), None) ] -> ()
   | _ -> Alcotest.fail "count(*)");
  (match q.A.where with
   | Some (A.And (A.Cmp (_, A.Eq, A.Const (V.Int (-5))), A.Cmp (_, A.Gt, A.Const (V.Float -2.5)))) -> ()
   | _ -> Alcotest.fail "negative literals")

let test_parenthesized_predicates () =
  let q = parse "SELECT * FROM T WHERE (A = 1 OR B = 2) AND C = 3" in
  (match q.A.where with
   | Some (A.And (A.Or _, A.Cmp _)) -> ()
   | _ -> Alcotest.fail "paren pred");
  (* parenthesized expression on the left of a comparison still works *)
  let q2 = parse "SELECT * FROM T WHERE (A + B) > 3" in
  (match q2.A.where with
   | Some (A.Cmp (A.Binop (A.Add, _, _), A.Gt, _)) -> ()
   | _ -> Alcotest.fail "paren expr")

let test_statements () =
  (match parse_stmt "CREATE TABLE T (A INT, B STRING, C FLOAT)" with
   | A.Create_table { table = "T"; columns } ->
     Alcotest.(check int) "cols" 3 (List.length columns)
   | _ -> Alcotest.fail "create table");
  (match parse_stmt "CREATE CLUSTERED INDEX I ON T (A, B)" with
   | A.Create_index { clustered = true; columns = [ "A"; "B" ]; _ } -> ()
   | _ -> Alcotest.fail "create index");
  (match parse_stmt "INSERT INTO T VALUES (1, 'x'), (2, NULL)" with
   | A.Insert { values = [ [ V.Int 1; V.Str "x" ]; [ V.Int 2; V.Null ] ]; _ } -> ()
   | _ -> Alcotest.fail "insert");
  (match parse_stmt "DELETE FROM T WHERE A = 1" with
   | A.Delete { where = Some _; _ } -> ()
   | _ -> Alcotest.fail "delete");
  (match parse_stmt "UPDATE STATISTICS" with
   | A.Update_statistics -> ()
   | _ -> Alcotest.fail "update statistics");
  (match parse_stmt "UPDATE T SET A = A + 1, B = 'x' WHERE A > 3" with
   | A.Update { table = "T"; sets = [ ("A", A.Binop _); ("B", A.Const _) ];
                where = Some _ } -> ()
   | _ -> Alcotest.fail "update");
  (match parse_stmt "SET COMMIT_DELAY 200" with
   | A.Set_commit_delay 200 -> ()
   | _ -> Alcotest.fail "set commit_delay");
  (match parse_stmt "SET GROUP_COMMIT OFF" with
   | A.Set_group_commit false -> ()
   | _ -> Alcotest.fail "set group_commit");
  (match parse_stmt "BEGIN TRANSACTION" with
   | A.Begin_transaction -> ()
   | _ -> Alcotest.fail "begin");
  (match parse_stmt "COMMIT" with
   | A.Commit -> ()
   | _ -> Alcotest.fail "commit");
  (match parse_stmt "ROLLBACK" with
   | A.Rollback -> ()
   | _ -> Alcotest.fail "rollback");
  (match parse_stmt "EXPLAIN SELECT * FROM T" with
   | A.Explain _ -> ()
   | _ -> Alcotest.fail "explain")

let test_char_varchar_aliases () =
  (* CHAR(n) / VARCHAR(n) are aliases for STRING; the length is accepted and
     ignored (strings are stored variable-length) *)
  (match parse_stmt "CREATE TABLE T (A INT, B CHAR(8), C VARCHAR(32), D varchar(1), E CHAR)" with
   | A.Create_table { table = "T"; columns } ->
     Alcotest.(check (list string))
       "types"
       [ "INT"; "STRING"; "STRING"; "STRING"; "STRING" ]
       (List.map (fun (c : A.column_def) -> V.ty_to_string c.A.col_ty) columns)
   | _ -> Alcotest.fail "create table with char/varchar");
  (* a non-positive or missing length inside parentheses is rejected *)
  let bad s =
    match parse_stmt s with
    | _ -> Alcotest.fail ("accepted: " ^ s)
    | exception Parser.Error _ -> ()
  in
  bad "CREATE TABLE T (B CHAR(0))";
  bad "CREATE TABLE T (B CHAR(-3))";
  bad "CREATE TABLE T (B VARCHAR())";
  bad "CREATE TABLE T (B VARCHAR(x))"

let test_script () =
  let stmts = Parser.parse_script "CREATE TABLE T (A INT); INSERT INTO T VALUES (1);" in
  Alcotest.(check int) "two statements" 2 (List.length stmts)

let test_syntax_errors () =
  let bad s =
    match parse_stmt s with
    | _ -> Alcotest.fail ("accepted: " ^ s)
    | exception Parser.Error _ -> ()
  in
  bad "SELECT";
  bad "SELECT * FROM";
  bad "SELECT * FROM T WHERE";
  bad "SELECT * FROM T WHERE A >";
  bad "SELECT * FROM T GROUP DNO";
  bad "CREATE TABLE T ()";
  bad "INSERT INTO T VALUES (A)";
  bad "SELECT * FROM T; garbage";
  bad "SET PARALLELISM 4"

(* EXPLAIN takes the victim search of a DELETE or UPDATE as well as a
   SELECT, and prints back to text that parses to the same statement. *)
let test_explain_dml () =
  (match parse_stmt "EXPLAIN DELETE FROM T WHERE A = 1" with
   | A.Explain { search = false; stmt = A.Delete { table = "T"; where = Some _ } } -> ()
   | _ -> Alcotest.fail "explain delete");
  (match parse_stmt "EXPLAIN SEARCH UPDATE T SET B = B + 1" with
   | A.Explain
       { search = true; stmt = A.Update { table = "T"; sets = [ ("B", _) ]; where = None } }
     ->
     ()
   | _ -> Alcotest.fail "explain search update");
  List.iter
    (fun sql ->
      let stmt = parse_stmt sql in
      Alcotest.(check bool) ("roundtrip " ^ sql) true
        (parse_stmt (A.to_sql stmt) = stmt))
    [ "EXPLAIN DELETE FROM T WHERE A BETWEEN 1 AND 2";
      "EXPLAIN SEARCH UPDATE T SET B = 3, C = A WHERE A > 1";
      "EXPLAIN SELECT A FROM T" ];
  List.iter
    (fun sql ->
      match parse_stmt sql with
      | _ -> Alcotest.fail ("accepted: " ^ sql)
      | exception Parser.Error _ -> ())
    [ "EXPLAIN UPDATE STATISTICS"; "EXPLAIN INSERT INTO T VALUES (1)";
      "EXPLAIN EXPLAIN SELECT A FROM T"; "EXPLAIN" ]

(* --- SQL writer / re-parse roundtrip ------------------------------------ *)

let ident_gen = QCheck.Gen.(map (fun i -> Printf.sprintf "C%d" i) (int_bound 5))

(* literal edge cases: negative ints, floats that need all 17 digits or an
   exponent, integral floats, strings with quotes *)
let value_gen =
  QCheck.Gen.(
    frequency
      [ (2, map (fun i -> V.Int (if i = min_int then 0 else i)) int);
        (1, map (fun i -> V.Int i) (oneofl [ 0; -1; -42; max_int; -max_int ]));
        ( 2,
          map (fun f -> V.Float f)
            (oneofl
               [ 0.1; 0.1000000000001; 0.30000000000000004; 1. /. 3.; -2.5;
                 3.0; -0.0; 1e20; 1e-7; 5e-324; max_float; -.max_float;
                 0.1234561; 0.1234569 ]) );
        (1, map (fun f -> V.Float (if Float.is_finite f then f else 1.5)) float);
        ( 1,
          map (fun s -> V.Str s)
            (oneofl [ ""; "it's"; "''"; "'"; "a''b'c"; "-- not a comment"; "x\ny" ]) );
        (1, map (fun s -> V.Str s) string_printable);
        (1, return V.Null) ])

let expr_gen =
  QCheck.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n = 0 then
              oneof
                [ map (fun c -> A.Col { table = None; column = c }) ident_gen;
                  map (fun c -> A.Col { table = Some "T"; column = c }) ident_gen;
                  map (fun v -> A.Const v) value_gen ]
            else
              frequency
                [ (2, map (fun c -> A.Col { table = None; column = c }) ident_gen);
                  ( 1,
                    map3
                      (fun op a b -> A.Binop (op, a, b))
                      (oneofl [ A.Add; A.Sub; A.Mul; A.Div ])
                      (self (n / 2)) (self (n / 2)) ) ])
          (min n 4)))

let sub_query where =
  { A.select = [ A.Sel_expr (A.Col { table = Some "U"; column = "C0" }, None) ];
    from = [ ("U", None) ];
    where;
    group_by = [];
    order_by = [] }

let pred_gen =
  QCheck.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            let cmp =
              map3
                (fun a c b -> A.Cmp (a, c, b))
                expr_gen
                (oneofl [ A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge ])
                expr_gen
            in
            if n = 0 then cmp
            else
              frequency
                [ (2, cmp);
                  (1, map3 (fun e lo hi -> A.Between (e, lo, hi)) expr_gen expr_gen expr_gen);
                  ( 1,
                    map2
                      (fun e vs -> A.In_list (e, vs))
                      expr_gen
                      (list_size (int_range 1 3) value_gen) );
                  ( 1,
                    map3
                      (fun e p neg -> A.In_subquery (e, sub_query (Some p), neg))
                      expr_gen (self (n / 2)) bool );
                  ( 1,
                    map2
                      (fun e c -> A.Cmp_subquery (e, c, sub_query None))
                      expr_gen (oneofl [ A.Eq; A.Lt ]) );
                  (1, map2 (fun a b -> A.And (a, b)) (self (n / 2)) (self (n / 2)));
                  (1, map2 (fun a b -> A.Or (a, b)) (self (n / 2)) (self (n / 2)));
                  (1, map (fun a -> A.Not a) (self (n / 2))) ])
          (min n 5)))

let query_of_pred p =
  { A.select = [ A.Star ];
    from = [ ("T", None) ];
    where = Some p;
    group_by = [];
    order_by = [] }

(* a differential-fuzzer query: aliases, COUNT(1), subqueries, GROUP BY and
   ORDER BY *)
let fuzz_query_gen =
  QCheck.Gen.map
    (fun seed ->
      let rng = Workload.rand_init seed in
      Fuzz_gen.gen_query rng (Fuzz_gen.gen_scenario rng))
    QCheck.Gen.nat

let other_statements =
  let t = "T" in
  [ A.Create_table
      { table = t;
        columns =
          [ { A.col_name = "A"; col_ty = V.Tint };
            { A.col_name = "B"; col_ty = V.Tfloat };
            { A.col_name = "C"; col_ty = V.Tstr } ] };
    A.Create_index { index = "I"; table = t; columns = [ "A"; "B" ]; clustered = true };
    A.Create_index { index = "J"; table = t; columns = [ "C" ]; clustered = false };
    A.Drop_table t; A.Drop_index "I"; A.Update_statistics; A.Vacuum;
    A.Set_histograms true; A.Set_histograms false;
    A.Set_plan_cache_size 64; A.Set_commit_delay 0; A.Set_commit_delay 200;
    A.Set_group_commit true; A.Set_group_commit false;
    A.Begin_transaction; A.Commit; A.Rollback ]

let statement_gen =
  QCheck.Gen.(
    let where = option pred_gen in
    let dml =
      frequency
        [ (2, map (fun p -> A.Select (query_of_pred p)) pred_gen);
          (1, map (fun where -> A.Delete { table = "T"; where }) where);
          ( 1,
            map3
              (fun e v where ->
                A.Update { table = "T"; sets = [ ("C1", e); ("C2", A.Const v) ]; where })
              expr_gen value_gen where ) ]
    in
    frequency
      [ (3, map (fun q -> A.Select q) fuzz_query_gen);
        (3, dml);
        (1, map2 (fun search stmt -> A.Explain { search; stmt }) bool dml);
        ( 1,
          map
            (fun values -> A.Insert { table = "T"; values })
            (list_size (int_range 1 3) (list_size (int_range 1 3) value_gen)) );
        (1, oneofl other_statements) ])

(* A plan-cache key is the canonical query's SQL: it must parse back to the
   canonical query, [?] placeholders included. *)
let key_roundtrip = function
  | A.Select q ->
    let key, canon, _ = Normalize.canonicalize q in
    parse key = canon
  | _ -> true

let prop_pp_roundtrip =
  QCheck.Test.make ~name:"pp then parse is identity" ~count:500
    (QCheck.make ~print:A.to_sql statement_gen)
    (fun s -> parse_stmt (A.to_sql s) = s && key_roundtrip s)

(* Strings drawn from lexically interesting pieces, glued with or without
   separators, so words run into keywords and numbers into exponents. *)
let lexeme_soup_gen =
  QCheck.Gen.(
    let piece =
      frequency
        [ (4, oneofl Ref_lexer.keywords);
          (2, map String.lowercase_ascii (oneofl Ref_lexer.keywords));
          ( 4,
            oneofl
              [ "x"; "ab_1"; "_"; "e"; "E"; "1"; "42"; "3.5"; "1e"; "1e+"; "2E-7";
                "1.5e309"; "4611686018427387904"; "'"; "''"; "'it''s'"; "--"; "\n";
                " "; "\t"; "<"; ">"; "="; "!"; "<>"; "<="; ">="; "!="; "("; ")"; ",";
                "."; "*"; "+"; "-"; "/"; ";"; "?"; "@"; "#" ] );
          (1, string_size ~gen:printable (int_range 1 3)) ]
    in
    map (String.concat "") (list_size (int_range 0 12) piece))

let prop_lexer_statements =
  QCheck.Test.make ~name:"lexer = reference on printed statements" ~count:500
    (QCheck.make ~print:A.to_sql statement_gen)
    (fun s -> same_as_reference (A.to_sql s))

let prop_lexer_random =
  QCheck.Test.make ~name:"lexer = reference on random text" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(
         frequency
           [ (1, string_size ~gen:printable (int_range 0 40));
             (2, lexeme_soup_gen) ]))
    same_as_reference

let () =
  Alcotest.run "parser"
    [ ( "lexer",
        [ Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "exponents" `Quick test_lexer_exponents;
          Alcotest.test_case "keywords match the reference" `Quick
            test_lexer_keywords ] );
      ( "parser",
        [ Alcotest.test_case "simple select" `Quick test_simple_select;
          Alcotest.test_case "star and aliases" `Quick test_star_and_aliases;
          Alcotest.test_case "boolean precedence" `Quick test_precedence_and_or_not;
          Alcotest.test_case "arith precedence" `Quick test_arith_precedence;
          Alcotest.test_case "between/in" `Quick test_between_in;
          Alcotest.test_case "subqueries" `Quick test_subqueries;
          Alcotest.test_case "group/order" `Quick test_group_order;
          Alcotest.test_case "count(*) and negatives" `Quick test_count_star_and_negatives;
          Alcotest.test_case "parenthesized predicates" `Quick test_parenthesized_predicates;
          Alcotest.test_case "statements" `Quick test_statements;
          Alcotest.test_case "char/varchar type aliases" `Quick
            test_char_varchar_aliases;
          Alcotest.test_case "script" `Quick test_script;
          Alcotest.test_case "syntax errors" `Quick test_syntax_errors;
          Alcotest.test_case "EXPLAIN DELETE / UPDATE" `Quick test_explain_dml ] );
      ( "props",
        [ QCheck_alcotest.to_alcotest prop_pp_roundtrip;
          QCheck_alcotest.to_alcotest prop_lexer_statements;
          QCheck_alcotest.to_alcotest prop_lexer_random ] ) ]
