(* Differential check: one generated (scenario, query) pair is executed under
   every engine configuration — with and without indexes, W in {0, 1/3, 3},
   before and after UPDATE STATISTICS, the literal statement's uncached
   plan, plan cache cold / warm, the canonical form prepared (literals as
   [?], sharing the statement's plan-cache entry) and executed with the
   extracted values, B&B off (exhaustive DP reference) — and every result
   multiset must agree with the naive cross-product oracle. A final stage
   recreates a scanned table with mutated rows behind a warmed plan cache
   and a statement prepared before the recreate, neither of which may be
   served the stale plan (both are when the harness is run with
   [~break_invalidation:true], the intentional fault used to prove the
   harness catches stale-plan corruption).

   Before any of that, the query's SQL text (Ast.to_sql) must parse back to
   the generated query, or the pair diverges at config "printer".

   Results are compared as sorted multisets of rendered rows; ORDER BY is
   verified separately by checking the engine's output is sorted on the
   select-list positions of the order keys (the oracle does not order). *)

module V = Rel.Value

type divergence = {
  d_sql : string;
  d_config : string;       (* which lattice point disagreed *)
  d_detail : string;       (* "rows" or "order" *)
  d_expected : string list;  (* sorted multiset *)
  d_actual : string list;
}

type verdict =
  | Agree
  | Diverged of divergence
  | Unsupported of string
      (* the statement failed to parse/resolve/execute: a generator or
         shrinker candidate outside the supported grammar, not a divergence *)

type stats = {
  mutable queries : int;
  mutable executions : int;
  mutable plans_cached : int;
  mutable qerrors : float list;  (* estimate-vs-actual, one per query per db *)
}

let stats_create () =
  { queries = 0; executions = 0; plans_cached = 0; qerrors = [] }

let quantile sorted p =
  match Array.length sorted with
  | 0 -> nan
  | n ->
    let i = int_of_float (p *. float_of_int (n - 1) +. 0.5) in
    sorted.(min (n - 1) (max 0 i))

let stats_report st =
  let q = Array.of_list st.qerrors in
  Array.sort compare q;
  Printf.sprintf
    "queries=%d executions=%d plans_cached=%d\n\
     cardinality q-error: p50=%.2f p90=%.2f p99=%.2f max=%.2f (n=%d)"
    st.queries st.executions st.plans_cached
    (quantile q 0.5) (quantile q 0.9) (quantile q 0.99)
    (if Array.length q = 0 then nan else q.(Array.length q - 1))
    (Array.length q)

exception Found of divergence

(* --- database construction -------------------------------------------- *)

(* CREATE TABLE for [t], plus an INSERT of [rows] when there are any. *)
let table_ddl (t : Fuzz_gen.table) rows =
  Ast.Create_table
    { table = t.tname;
      columns =
        List.map
          (fun (c : Fuzz_gen.column) -> { Ast.col_name = c.cname; col_ty = c.cty })
          t.cols }
  :: (if rows = [] then [] else [ Ast.Insert { table = t.tname; values = rows } ])

(* Statements as a script, one per line. *)
let script stmts = String.concat "" (List.map (fun s -> Ast.to_sql s ^ ";\n") stmts)

let ddl_script ?(indexes = true) ?(data = true) (s : Fuzz_gen.scenario) =
  script
    (List.concat_map
       (fun (t : Fuzz_gen.table) ->
         table_ddl t (if data then t.rows else [])
         @
         if indexes then
           List.map
             (fun (index, columns, clustered) ->
               Ast.Create_index { index; table = t.tname; columns; clustered })
             t.indexes
         else [])
       s.tables)

let build ~indexes (s : Fuzz_gen.scenario) =
  let db = Database.create () in
  ignore (Database.exec_script db (ddl_script ~indexes s));
  db

(* --- result comparison ------------------------------------------------- *)

let row_key (row : Rel.Tuple.t) =
  String.concat "|" (List.map V.to_string (Array.to_list row))

let multiset rows = List.sort String.compare (List.map row_key rows)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Positions (within the output row) of the ORDER BY keys. The generator
   always projects order columns, so every key resolves to a position. *)
let order_positions (block : Semant.block) =
  List.filter_map
    (fun ((c : Semant.col_ref), dir) ->
      let rec idx i = function
        | [] -> None
        | (Semant.E_col c', _) :: _ when c' = c -> Some (i, dir)
        | _ :: rest -> idx (i + 1) rest
      in
      idx 0 block.Semant.select)
    block.Semant.order_by

let sorted_on keys rows =
  let cmp a b =
    let rec go = function
      | [] -> 0
      | (i, dir) :: rest ->
        let d = V.compare a.(i) b.(i) in
        if d <> 0 then (match dir with Ast.Asc -> d | Ast.Desc -> -d)
        else go rest
    in
    go keys
  in
  let rec ok = function
    | a :: (b :: _ as rest) -> cmp a b <= 0 && ok rest
    | _ -> true
  in
  keys = [] || ok rows

let q_error ~est ~act =
  let est = est +. 1. and act = act +. 1. in
  Float.max (est /. act) (act /. est)

(* --- the configuration lattice ----------------------------------------- *)

let w_points = [ 0.; 1. /. 3.; 3. ]

let mutate_rows (t : Fuzz_gen.table) =
  let bump = function
    | V.Int i -> V.Int (i + 1)
    | V.Str s -> V.Str (s ^ "z")
    | v -> v
  in
  match t.rows with
  | [] ->
    (* an empty table grows a row so the recreate visibly changes results *)
    [ List.map
        (fun (c : Fuzz_gen.column) ->
          match c.cty with
          | V.Tint -> V.Int 0
          | V.Tstr -> V.Str "m0"
          | V.Tfloat -> V.Null)
        t.cols ]
  | _ :: rest -> List.map (List.map bump) rest

(* The query's canonical form prepared: literals become [?] placeholders,
   executed with the extracted values. *)
let prepare_canonical db (q : Ast.query) =
  let key, _, slots = Normalize.canonicalize q in
  let lit = function Normalize.Lit v -> v | Normalize.Arg _ -> invalid_arg "?" in
  (Database.prepare db key, List.map lit (Array.to_list slots))

(* Recreate the first FROM table with mutated rows behind a warmed cache and
   a statement prepared before the recreate; both reruns must match a fresh
   oracle (they do not when invalidation is broken: the stale plan scans the
   dropped table's old segment). *)
let stale_stage db (scenario : Fuzz_gen.scenario) (q : Ast.query) sql st =
  match q.Ast.from with
  | [] -> ()
  | (tname, _) :: _ ->
    let t = List.find (fun (t : Fuzz_gen.table) -> t.tname = tname) scenario.tables in
    ignore (Database.query db sql);  (* warm the cache and the text memo *)
    let p, values = prepare_canonical db q in
    ignore (Database.exec db ("DROP TABLE " ^ tname));
    ignore (Database.exec_script db (script (table_ddl t (mutate_rows t))));
    let block = Database.resolve db sql in
    let expected = multiset (Fuzz_oracle.query (Database.catalog db) block) in
    List.iter
      (fun (config, run) ->
        let actual = multiset (run ()).Executor.rows in
        (match st with Some st -> st.executions <- st.executions + 1 | None -> ());
        if actual <> expected then
          raise
            (Found
               { d_sql = sql;
                 d_config = Printf.sprintf "stale-%s (recreate %s)" config tname;
                 d_detail = "rows";
                 d_expected = expected;
                 d_actual = actual }))
      [ ("prepared", fun () -> Database.execute_prepared db p values);
        ("cache", fun () -> Database.query db sql) ]

let check ?(break_invalidation = false) ?stats
    (scenario : Fuzz_gen.scenario) (q : Ast.query) : verdict =
  let st = stats in
  let sql = Ast.to_sql (Ast.Select q) in
  let bump_exec () =
    match st with Some s -> s.executions <- s.executions + 1 | None -> ()
  in
  try
    (match st with Some s -> s.queries <- s.queries + 1 | None -> ());
    (* the text every configuration runs must parse back to the generated
       query: the SQL writer and the parser are under test too *)
    let printer got =
      raise
        (Found
           { d_sql = sql; d_config = "printer"; d_detail = "round trip";
             d_expected = [ sql ]; d_actual = [ got ] })
    in
    (match Parser.parse_query sql with
     | q' -> if q' <> q then printer (Ast.to_sql (Ast.Select q'))
     | exception Parser.Error (msg, _) -> printer msg);
    List.iter
      (fun indexed ->
        let db = build ~indexes:indexed scenario in
        if break_invalidation then Database.set_plan_cache_validation db false;
        let block = Database.resolve db sql in
        let expected = multiset (Fuzz_oracle.query (Database.catalog db) block) in
        let keys = order_positions block in
        let prepared = ref None in
        let compare_out config (out : Executor.output) =
          bump_exec ();
          let actual = multiset out.Executor.rows in
          if actual <> expected then
            raise
              (Found
                 { d_sql = sql; d_config = config; d_detail = "rows";
                   d_expected = expected; d_actual = actual })
          else if not (sorted_on keys out.Executor.rows) then
            raise
              (Found
                 { d_sql = sql; d_config = config; d_detail = "order";
                   d_expected = expected;
                   d_actual = List.map row_key out.Executor.rows })
        in
        (match st with
         | Some s ->
           let est = Selectivity.block_qcard (Database.ctx db) block in
           s.qerrors <-
             q_error ~est ~act:(float_of_int (List.length expected)) :: s.qerrors
         | None -> ());
        List.iter
          (fun phase ->
            if phase = `After then Database.update_statistics db;
            List.iter
              (fun w ->
                Database.set_w db w;
                let name part =
                  Printf.sprintf "%s idx=%b W=%.2f stats=%s" part indexed w
                    (match phase with `Before -> "cold" | `After -> "updated")
                in
                (* the literal statement's uncached plan *)
                compare_out (name "uncached")
                  (Database.run_plan db (Database.optimize db sql));
                (* branch-and-bound off: exhaustive DP reference *)
                let ctx = Ctx.create ~w ~use_bnb:false (Database.catalog db) in
                compare_out (name "bnb-off")
                  (Database.run_plan db (Database.optimize ~ctx db sql));
                (* the statement and its canonical form share one plan: at
                   the first W of each phase a Parse optimizes it, peeking
                   at no values; elsewhere the cold statement's miss does *)
                if w = List.hd w_points then prepared := Some (prepare_canonical db q);
                compare_out (name "cache-cold") (Database.query db sql);
                compare_out (name "cache-warm") (Database.query db sql);
                let p, values = Option.get !prepared in
                compare_out (name "prepared") (Database.execute_prepared db p values))
              w_points;
            (* the stale-plan stage below runs at the default W *)
            Database.set_w db Ctx.default_w)
          [ `Before; `After ];
        (match st with
         | Some s -> s.plans_cached <- s.plans_cached + Database.plan_cache_size db
         | None -> ());
        (* stale-plan stage on the indexed database only: it mutates data *)
        if indexed then stale_stage db scenario q sql st)
      [ false; true ];
    Agree
  with
  | Found d -> Diverged d
  | Database.Error msg -> Unsupported msg
  | Semant.Error msg -> Unsupported ("semantic: " ^ msg)
  | Invalid_argument msg -> Unsupported ("invalid: " ^ msg)
  | Not_found -> Unsupported "lookup failed"

(* Reproducer: DDL + data + query as a paste-ready script. *)
let reproducer (scenario : Fuzz_gen.scenario) (q : Ast.query) =
  ddl_script ~indexes:true scenario ^ script [ Ast.Select q ]
