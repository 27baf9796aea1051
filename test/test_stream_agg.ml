(* Differential test for streaming aggregation: random NULL-heavy tables,
   aggregate/grouped queries run through the full pipeline, results compared
   against the independent Naive_eval oracle (cross product + list-based
   grouping — nothing shared with the executor's single-pass accumulators).
   NULL density is the point: star-COUNT vs column-COUNT, SUM/AVG/MIN/MAX
   over mostly-NULL columns, and all-NULL groups exercise exactly the
   accumulator edge cases (seen = 0 => NULL, Count => 0). *)

module V = Rel.Value
module T = Rel.Tuple

let schema cols =
  Rel.Schema.make (List.map (fun n -> { Rel.Schema.name = n; ty = V.Tint }) cols)

(* R(G, H, X, Y): G/H tiny group domains; X ~60% NULL, Y ~30% NULL. *)
let setup ~seed ~rows =
  let rng = Random.State.make [| seed; 0xa66 |] in
  let db = Database.create ~buffer_pages:16 () in
  let cat = Database.catalog db in
  let r = Catalog.create_relation cat ~name:"R" ~schema:(schema [ "G"; "H"; "X"; "Y" ]) in
  for _ = 1 to rows do
    let maybe_null pct v = if Random.State.int rng 100 < pct then V.Null else V.Int v in
    ignore
      (Catalog.insert_tuple cat r
         (T.make
            [ V.Int (Random.State.int rng 5);
              V.Int (Random.State.int rng 3);
              maybe_null 60 (Random.State.int rng 50 - 25);
              maybe_null 30 (Random.State.int rng 100) ]))
  done;
  Catalog.update_statistics cat;
  db

let row_bytes row =
  let b = Buffer.create 64 in
  T.write b row;
  Buffer.contents b

let canon rows =
  List.sort
    (fun a b ->
      let n = min (T.arity a) (T.arity b) in
      T.compare_on (List.init n Fun.id) a b)
    rows

let rows_bytes rows = String.concat "|" (List.map row_bytes (canon rows))

let corpus =
  [ "SELECT COUNT(*), COUNT(X), SUM(X), MIN(X), MAX(X), AVG(X) FROM R";
    "SELECT SUM(Y), AVG(Y), MIN(Y), MAX(Y) FROM R WHERE X > 0";
    "SELECT COUNT(X) FROM R WHERE G = 99";
    "SELECT G, COUNT(*), COUNT(X), SUM(X), MIN(X), MAX(Y), AVG(X) FROM R GROUP BY G";
    "SELECT G, H, SUM(X + Y), COUNT(*) FROM R GROUP BY G, H";
    "SELECT H, SUM(X * 2 + Y) FROM R WHERE Y > 10 GROUP BY H";
    "SELECT G, AVG(X), MAX(X) FROM R WHERE X <> 0 GROUP BY G ORDER BY G DESC";
    "SELECT G, COUNT(Y) FROM R WHERE NOT (Y BETWEEN 10 AND 60) GROUP BY G" ]

let check db sql =
  let block = Database.resolve db sql in
  let r = Database.optimize db sql in
  let cat = Database.catalog db in
  let expected = rows_bytes (Naive_eval.query cat block) in
  let got = rows_bytes (Executor.run cat r).Executor.rows in
  if got <> expected then
    Alcotest.fail (Printf.sprintf "%s disagrees with naive oracle" sql)

let test_random_corpora () =
  List.iter
    (fun seed ->
      let db = setup ~seed ~rows:(150 + (seed * 37 mod 100)) in
      List.iter (check db) corpus)
    [ 1; 2; 3; 4; 5 ]

(* A table whose aggregate column is entirely NULL: every group must report
   a positive star-count, a zero column-count and NULL for SUM/AVG/MIN/MAX. *)
let test_all_null_column () =
  let db = Database.create () in
  let cat = Database.catalog db in
  let r = Catalog.create_relation cat ~name:"R" ~schema:(schema [ "G"; "X" ]) in
  for i = 0 to 29 do
    ignore (Catalog.insert_tuple cat r (T.make [ V.Int (i mod 3); V.Null ]))
  done;
  Catalog.update_statistics cat;
  List.iter (check db)
    [ "SELECT COUNT(*), COUNT(X), SUM(X), AVG(X), MIN(X), MAX(X) FROM R";
      "SELECT G, COUNT(*), COUNT(X), SUM(X), AVG(X), MIN(X), MAX(X) FROM R GROUP BY G" ]

(* Empty input: scalar aggregates must produce their defined empty-set row. *)
let test_empty_input () =
  let db = Database.create () in
  let cat = Database.catalog db in
  let _ = Catalog.create_relation cat ~name:"R" ~schema:(schema [ "G"; "X" ]) in
  Catalog.update_statistics cat;
  List.iter (check db)
    [ "SELECT COUNT(*), SUM(X), MIN(X) FROM R";
      "SELECT G, COUNT(*) FROM R GROUP BY G" ]

let () =
  Alcotest.run "stream_agg"
    [ ( "differential",
        [ Alcotest.test_case "NULL-heavy random corpora" `Quick test_random_corpora;
          Alcotest.test_case "all-NULL aggregate column" `Quick test_all_null_column;
          Alcotest.test_case "empty input" `Quick test_empty_input ] ) ]
