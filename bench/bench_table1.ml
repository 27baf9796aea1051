(* T1 — TABLE 1: selectivity factors.

   For each predicate class of TABLE 1, print the paper's formula, the F the
   optimizer computes on a seeded catalog, and the fraction of tuples that
   actually satisfy the predicate, so estimate-vs-reality can be read off
   per rule. *)

let setup () =
  let db = Database.create () in
  (* this bench reads off the paper's TABLE 1 rules: pin them *)
  Database.set_histograms db false;
  Workload.load_uniform db ~name:"R" ~rows:2000
    ~cols:
      [ { Workload.col = "A"; distinct = 50 };   (* indexed *)
        { Workload.col = "B"; distinct = 100 };  (* not indexed *)
        { Workload.col = "S"; distinct = 1000 } ]
    ~indexes:[ ("R_A", [ "A" ], true) ]
    ~seed:11 ();
  Workload.load_uniform db ~name:"U" ~rows:400
    ~cols:
      [ { Workload.col = "A"; distinct = 25 };
        { Workload.col = "D"; distinct = 8 } ]
    ~indexes:[ ("U_A", [ "A" ], false) ]
    ~seed:12 ();
  db

let estimate db sql =
  let block = Database.resolve db sql in
  match block.Semant.where with
  | Some wp -> Selectivity.factor (Database.ctx db) block wp
  | None -> 1.

(* measured fraction of the cross product satisfying the WHERE, via the
   (oracle-tested) executor *)
let measured db sql =
  let block = Database.resolve db sql in
  let out = Database.query db sql in
  let denom =
    List.fold_left
      (fun acc (tr : Semant.table_ref) ->
        acc
        * (let ncard, _, _ =
             Rss.Segment.census tr.Semant.rel.Catalog.segment
               ~rel_id:tr.Semant.rel.Catalog.rel_id
           in
           ncard))
      1 block.Semant.tables
  in
  float_of_int (List.length out.Executor.rows) /. float_of_int denom

let run () =
  Bench_util.section "T1: TABLE 1 — selectivity factors (estimated F vs measured fraction)";
  let db = setup () in
  let cases =
    [ ("column = value (index)", "SELECT A FROM R WHERE A = 7", "1/ICARD(index)");
      ("column = value (no index)", "SELECT A FROM R WHERE B = 7", "1/10");
      ( "col1 = col2 (both indexed)",
        "SELECT R.A FROM R, U WHERE R.A = U.A",
        "1/max(ICARD1,ICARD2)" );
      ( "col1 = col2 (one indexed)",
        "SELECT R.B FROM R, U WHERE R.B = U.A",
        "1/ICARD(i)" );
      ( "col1 = col2 (no index)",
        "SELECT R.B FROM R, U WHERE R.B = U.D",
        "1/10" );
      ( "column > value (arith, index)",
        "SELECT A FROM R WHERE A > 35",
        "(high-value)/(high-low)" );
      ("column > value (no index)", "SELECT A FROM R WHERE B > 66", "1/3");
      ( "BETWEEN (arith, index)",
        "SELECT A FROM R WHERE A BETWEEN 10 AND 19",
        "(v2-v1)/(high-low)" );
      ("BETWEEN (no index)", "SELECT A FROM R WHERE B BETWEEN 10 AND 19", "1/4");
      ( "column IN (list)",
        "SELECT A FROM R WHERE A IN (3, 17, 42)",
        "n * F(col = value)" );
      ( "columnA IN subquery",
        "SELECT A FROM R WHERE A IN (SELECT A FROM U WHERE D = 3)",
        "card(sub)/prod(card)" );
      ( "pred1 OR pred2",
        "SELECT A FROM R WHERE A = 3 OR B = 9",
        "F1 + F2 - F1*F2" );
      ( "pred1 AND pred2 (one factor)",
        "SELECT A FROM R WHERE (A = 3 AND B = 9) OR (A = 3 AND B = 9)",
        "F1 * F2 (independence)" );
      ("NOT pred", "SELECT A FROM R WHERE NOT A = 3", "1 - F") ]
  in
  let rows =
    List.map
      (fun (label, sql, formula) ->
        (* BETWEEN splits into two boolean factors; multiply them *)
        let block = Database.resolve db sql in
        let est =
          match Normalize.factors_of_block block with
          | [] -> 1.
          | fs ->
            List.fold_left
              (fun acc (f : Normalize.factor) ->
                acc *. Selectivity.factor (Database.ctx db) block f.Normalize.pred)
              1. fs
        in
        ignore (estimate db sql);
        [ label; formula; Bench_util.f4 est; Bench_util.f4 (measured db sql) ])
      cases
  in
  Bench_util.print_table
    ~header:[ "predicate class"; "TABLE 1 formula"; "estimated F"; "measured" ]
    rows
