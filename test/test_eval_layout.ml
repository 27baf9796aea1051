(* Direct unit coverage of the executor's evaluation layer: composite
   layouts, three-valued predicate logic, SARG compilation with join context
   and parameters, and key-bound resolution. *)

module V = Rel.Value
module T = Rel.Tuple
module S = Semant

let schema cols =
  Rel.Schema.make (List.map (fun n -> { Rel.Schema.name = n; ty = V.Tint }) cols)

let setup () =
  let cat = Catalog.create () in
  ignore (Catalog.create_relation cat ~name:"A" ~schema:(schema [ "X"; "Y" ]));
  ignore (Catalog.create_relation cat ~name:"B" ~schema:(schema [ "P"; "Q"; "R" ]));
  cat

let block cat sql = S.resolve cat (Parser.parse_query sql)

let env ?(params = [||]) () =
  { Eval.outer = [];
    params;
    subquery = (fun _ -> Alcotest.fail "no subqueries here") }

(* --- Layout -------------------------------------------------------------- *)

let test_layout () =
  let cat = setup () in
  let b = block cat "SELECT X FROM A, B" in
  let la = Layout.of_tables b [ 0 ] in
  let lb = Layout.of_tables b [ 1 ] in
  Alcotest.(check int) "A width" 2 (Layout.width la);
  Alcotest.(check int) "B width" 3 (Layout.width lb);
  (* composite in join order B then A *)
  let l = Layout.concat lb la in
  Alcotest.(check int) "composite width" 5 (Layout.width l);
  Alcotest.(check (list int)) "tables in order" [ 1; 0 ] (Layout.tables l);
  Alcotest.(check int) "B.R position" 2 (Layout.pos l { S.tab = 1; col = 2 });
  Alcotest.(check int) "A.Y position" 4 (Layout.pos l { S.tab = 0; col = 1 });
  Alcotest.(check bool) "mem" true (Layout.mem l 0 && Layout.mem l 1);
  (match Layout.pos la { S.tab = 1; col = 0 } with
   | _ -> Alcotest.fail "foreign table resolved"
   | exception Not_found -> ());
  (match Layout.concat la la with
   | _ -> Alcotest.fail "duplicate table accepted"
   | exception Invalid_argument _ -> ())

(* --- 3VL ------------------------------------------------------------------ *)

let where cat sql =
  match (block cat sql).S.where with
  | Some w -> w
  | None -> Alcotest.fail "no where"

let test_three_valued_logic () =
  let cat = setup () in
  let b = block cat "SELECT X FROM A" in
  let layout = Layout.of_tables b [ 0 ] in
  let ev p tuple = Eval.compile_pred (env ()) layout p tuple = Some true in
  let row x y = T.make [ x; y ] in
  let p_gt = where cat "SELECT X FROM A WHERE X > 5" in
  Alcotest.(check bool) "true" true (ev p_gt (row (V.Int 7) V.Null));
  Alcotest.(check bool) "false" false (ev p_gt (row (V.Int 3) V.Null));
  Alcotest.(check bool) "null is not true" false (ev p_gt (row V.Null V.Null));
  (* Kleene tables: Unknown OR true = true, Unknown AND false = false *)
  let p_or = where cat "SELECT X FROM A WHERE Y > 5 OR X = 1" in
  Alcotest.(check bool) "U or T" true (ev p_or (row (V.Int 1) V.Null));
  Alcotest.(check bool) "U or F" false (ev p_or (row (V.Int 2) V.Null));
  let p_and = where cat "SELECT X FROM A WHERE Y > 5 AND X = 1" in
  Alcotest.(check bool) "U and T rejected" false (ev p_and (row (V.Int 1) V.Null));
  (* NOT Unknown = Unknown: both a predicate and its negation reject NULLs *)
  let p = where cat "SELECT X FROM A WHERE Y = 3" in
  let np = where cat "SELECT X FROM A WHERE NOT Y = 3" in
  Alcotest.(check bool) "p on null" false (ev p (row (V.Int 0) V.Null));
  Alcotest.(check bool) "not p on null" false (ev np (row (V.Int 0) V.Null));
  (* IN list with NULL element: no match becomes Unknown, never true *)
  let p_in = where cat "SELECT X FROM A WHERE X IN (1, NULL)" in
  Alcotest.(check bool) "match wins" true (ev p_in (row (V.Int 1) V.Null));
  Alcotest.(check bool) "null element rejects" false (ev p_in (row (V.Int 2) V.Null))

(* --- SARG compilation ---------------------------------------------------- *)

let test_compile_sarg_static () =
  let cat = setup () in
  let p = where cat "SELECT X FROM A WHERE X BETWEEN 2 AND 8" in
  (match Eval.compile_sarg (env ()) None ~tab:0 p with
   | Some sarg ->
     let sarg = sarg [||] in
     Alcotest.(check bool) "between as conjunct" true
       (Rss.Sarg.compile sarg (T.make [ V.Int 5; V.Null ])
        && not (Rss.Sarg.compile sarg (T.make [ V.Int 9; V.Null ])))
   | None -> Alcotest.fail "between should compile");
  (* arithmetic is not sargable *)
  let p2 = where cat "SELECT X FROM A WHERE X + 1 = 5" in
  Alcotest.(check bool) "arith not sargable" true
    (Eval.compile_sarg (env ()) None ~tab:0 p2 = None)

let test_compile_sarg_join_context () =
  let cat = setup () in
  let b = block cat "SELECT X FROM A, B WHERE A.X = B.P" in
  let p = Option.get b.S.where in
  (* compiling for A (tab 0) with B's current tuple as join context turns the
     join predicate into X = <value of B.P> *)
  let jlayout = Layout.of_tables b [ 1 ] in
  let jtuple = T.make [ V.Int 42; V.Int 0; V.Int 0 ] in
  (match Eval.compile_sarg (env ()) (Some jlayout) ~tab:0 p with
   | Some sarg ->
     let sarg = sarg jtuple in
     Alcotest.(check bool) "dynamic value bound" true
       (Rss.Sarg.compile sarg (T.make [ V.Int 42; V.Null ])
        && not (Rss.Sarg.compile sarg (T.make [ V.Int 41; V.Null ])))
   | None -> Alcotest.fail "join predicate should compile with context");
  (* without context it cannot compile *)
  Alcotest.(check bool) "no context" true
    (Eval.compile_sarg (env ()) None ~tab:0 p = None)

let test_compile_sarg_params () =
  let cat = setup () in
  let p = where cat "SELECT X FROM A WHERE X = ?" in
  (match Eval.compile_sarg (env ~params:[| V.Int 9 |] ()) None ~tab:0 p with
   | Some sarg ->
     let sarg = sarg [||] in
     Alcotest.(check bool) "param bound" true
       (Rss.Sarg.compile sarg (T.make [ V.Int 9; V.Null ]))
   | None -> Alcotest.fail "param predicate should compile");
  (* unbound parameter: not compilable as a SARG *)
  Alcotest.(check bool) "unbound param" true
    (Eval.compile_sarg (env ()) None ~tab:0 p = None)

let test_bound_key () =
  let cat = setup () in
  let b = block cat "SELECT X FROM A, B" in
  let jlayout = Layout.of_tables b [ 1 ] in
  let jtuple = T.make [ V.Int 7; V.Int 8; V.Int 9 ] in
  let kb =
    { Plan.values = [ Plan.Bv_const (V.Int 1); Plan.Bv_outer { S.tab = 1; col = 2 };
                      Plan.Bv_param 0 ];
      inclusive = false }
  in
  let key, kind = Eval.bound_key (env ~params:[| V.Int 5 |] ()) (Some jlayout) kb jtuple in
  Alcotest.(check bool) "values resolved" true
    (key = [| V.Int 1; V.Int 9; V.Int 5 |]);
  Alcotest.(check bool) "exclusive" true (kind = `Exclusive);
  (match Eval.bound_key (env ()) None kb jtuple with
   | _ -> Alcotest.fail "outer bound without context accepted"
   | exception Invalid_argument _ -> ())

let test_expr_eval () =
  let cat = setup () in
  let b = block cat "SELECT X * 2 + Y / 2, X - 1 FROM A" in
  let layout = Layout.of_tables b [ 0 ] in
  let tuple = T.make [ V.Int 10; V.Int 6 ] in
  (match b.S.select with
   | [ (e1, _); (e2, _) ] ->
     Alcotest.(check bool) "arith" true
       (V.equal (Eval.compile_expr (env ()) layout e1 tuple) (V.Int 23));
     Alcotest.(check bool) "sub" true
       (V.equal (Eval.compile_expr (env ()) layout e2 tuple) (V.Int 9))
   | _ -> Alcotest.fail "select shape")

let () =
  Alcotest.run "eval_layout"
    [ ( "layout", [ Alcotest.test_case "composite layouts" `Quick test_layout ] );
      ( "eval",
        [ Alcotest.test_case "three-valued logic" `Quick test_three_valued_logic;
          Alcotest.test_case "expression eval" `Quick test_expr_eval ] );
      ( "sargs",
        [ Alcotest.test_case "static compilation" `Quick test_compile_sarg_static;
          Alcotest.test_case "join context" `Quick test_compile_sarg_join_context;
          Alcotest.test_case "parameters" `Quick test_compile_sarg_params;
          Alcotest.test_case "key bounds" `Quick test_bound_key ] ) ]
