(* The traced replay: the served run's request stream executed in this
   process, with spans around each layer's public function. A Simple SELECT
   runs the steps Session.exec runs for it, in the same order:

     Protocol.decode_client -> Parser.parse_statement -> Normalize.fingerprint
     -> Plan_cache.find -> (on a miss: Semant.resolve, Optimizer.optimize,
     Plan_cache.store) -> Executor.run_measured -> Protocol.encode_server

   A prepared Execute runs the statement's plan through
   Executor.run_measured; DML and BEGIN run whole through Session.exec,
   COMMIT through Session.commit. Every SELECT reads a statement snapshot:
   the only in-transaction SELECT (write_txn's, before the transaction's
   own writes) sees the same rows under either. A Simple SELECT ends with
   the session's cardinality feedback, so misestimated plans retire (and
   re-optimize) as they do in the served run. With [reoptimize] a cache hit
   also runs the miss path, its plan dropped, so resolve and optimize are
   timed on every SELECT. Two-connection workloads become two sessions
   interleaved on one thread.

   Each statement is one parent span; time inside it that no layer span
   covers is [trace.unattributed]. *)

module G = Pb_gen
module P = Protocol

type session = {
  sess : Session.t;
  prepared : (string, Session.prepared) Hashtbl.t;
  mutable portal : Rel.Tuple.t list;
}

(* One replayed op: which session runs it, the op, and the index of the
   served op whose checksum it must reproduce (-1: unmeasured). *)
type action = { conn : int; op : G.op; served : int }

type result = {
  wall_s : float;
  qerrors : float array;  (* estimated vs measured COST, per SELECT *)
  mismatches : int;       (* ops whose answer disagrees with oracle or served run *)
  retirements : int;      (* plans retired by feedback, warm-up included *)
}

let span = Pb_trace.span
let batch_rows = 256

let rec take n l =
  if n = 0 then ([], l)
  else match l with [] -> ([], []) | x :: tl -> let a, b = take (n - 1) tl in (x :: a, b)

let encode msgs =
  span "server.encode" (fun () -> List.iter (fun m -> ignore (P.encode_server m)) msgs)

let batches rows =
  let rec go acc rows =
    match rows with
    | [] -> List.rev acc
    | _ -> let b, rest = take batch_rows rows in go (P.Row_batch b :: acc) rest
  in
  go [] rows

let snapshot_view eng =
  let m = Engine.mvcc eng in
  Rss.Mvcc.view m (Rss.Mvcc.statement_snapshot m)

(* Execute a plan, recording its estimated-vs-measured COST q-error. *)
let execute s ~qerrs ~params r =
  let eng = Session.engine s.sess in
  let out, cnt =
    span "executor.run" (fun () ->
        Executor.run_measured ~snap:(snapshot_view eng) ~params
          (Engine.catalog eng) r)
  in
  qerrs := (params, r, cnt) :: !qerrs;
  out

(* Session.exec's cardinality feedback after a cached SELECT: on a gross
   misestimate of a single-table, ungrouped block, record the observed
   selectivity, which retires the plans costed under the old estimate. The
   session's threshold is not public; the benchmark checks that the replay
   retires as many plans as the host did. *)
let feedback_threshold = 4.0
let retirements = ref 0

let feedback s ~params (r : Optimizer.result) act =
  let block = r.Optimizer.block in
  if (not block.Semant.scalar_agg) && block.Semant.group_by = [] then begin
    let c = Session.ctx ~params s.sess in
    let est = Float.max 0. (Selectivity.block_qcard c block) and a = float_of_int act in
    if Float.max ((est +. 1.) /. (a +. 1.)) ((a +. 1.) /. (est +. 1.)) > feedback_threshold
    then
      match block.Semant.tables with
      | [ tr ] ->
        let factors = Normalize.factors_of_block block in
        let local = Feedback.local_factors factors ~tab:tr.Semant.tab_idx in
        let ncard = (Ctx.rel_stats c tr.Semant.rel).Ctx.ncard in
        if List.length local = List.length factors && ncard > 0. then
          Option.iter
            (fun key -> if Feedback.record tr.Semant.rel ~key (a /. ncard) then incr retirements)
            (Feedback.key ~params local)
      | _ -> ()
  end

(* [reoptimize]: on a cache hit, run the miss path too and drop its plan,
   so resolve and optimize are timed on every SELECT. *)
let select s ~qerrs ~reoptimize (q : Ast.query) =
  let eng = Session.engine s.sess in
  let cat = Engine.catalog eng in
  let cache = Engine.plan_cache eng in
  match span "sql.fingerprint" (fun () -> Normalize.fingerprint q) with
  | None -> failwith "replay: statement is not cacheable"
  | Some (key, canon, values) ->
    let params = Array.of_list values in
    let plan () =
      ignore (span "sql.resolve" (fun () -> Semant.resolve cat q));
      let block = span "sql.resolve" (fun () -> Semant.resolve cat canon) in
      span "optimizer.optimize" (fun () ->
          Optimizer.optimize (Session.ctx ~params s.sess) block)
    in
    let r =
      match span "engine.cache_probe" (fun () -> Plan_cache.find cache cat key) with
      | Plan_cache.Hit r ->
        if reoptimize then ignore (plan ());
        r
      | Plan_cache.Miss | Plan_cache.Invalidated ->
        let r = plan () in
        Plan_cache.store cache key r;
        r
    in
    let out = execute s ~qerrs ~params r in
    feedback s ~params r (List.length out.Executor.rows);
    out

(* One client message, as the server would handle it; returns its rows. *)
let message s ~qerrs ~reoptimize m =
  let c, payload = P.encode_client m in
  span "statement" (fun () ->
      match span "server.decode" (fun () -> P.decode_client c payload) with
      | P.Simple sql ->
        (match span "sql.parse" (fun () -> Parser.parse_statement sql) with
         | Ast.Select q ->
           let out = select s ~qerrs ~reoptimize q in
           encode
             ((P.Row_desc out.Executor.columns :: batches out.Executor.rows)
              @ [ P.Complete (Printf.sprintf "SELECT %d" (List.length out.Executor.rows));
                  P.Ready ]);
           out.Executor.rows
         | Ast.Commit ->
           let id = span "engine.commit" (fun () -> Session.commit s.sess) in
           encode [ P.Complete (Printf.sprintf "transaction %d committed" id); P.Ready ];
           []
         | Ast.Insert _ | Ast.Update _ | Ast.Delete _ ->
           let tag =
             match span "engine.dml" (fun () -> Session.exec s.sess sql) with
             | Session.Done t | Session.Text t -> t
             | Session.Rows _ -> ""
           in
           encode [ P.Complete tag; P.Ready ];
           []
         | _ ->
           ignore (Session.exec s.sess sql);
           encode [ P.Complete ""; P.Ready ];
           [])
      | P.Execute { name; params; fetch } ->
        let p = Hashtbl.find s.prepared name in
        let params = Array.of_list (Option.value params ~default:[]) in
        let out = execute s ~qerrs ~params (Session.prepared_plan p) in
        let rows = out.Executor.rows in
        if fetch <= 0 || List.length rows <= fetch then begin
          encode (batches rows @ [ P.Complete (Printf.sprintf "SELECT %d" (List.length rows)); P.Ready ]);
          rows
        end
        else begin
          let first, rest = take fetch rows in
          s.portal <- rest;
          encode (batches first @ [ P.Suspended; P.Ready ]);
          first
        end
      | P.Fetch n ->
        let first, rest = take n s.portal in
        s.portal <- rest;
        encode
          [ P.Row_batch first;
            (if rest = [] then P.Complete (Printf.sprintf "FETCH %d" (List.length first))
             else P.Suspended);
            P.Ready ];
        first
      | _ -> failwith "replay: unexpected message")

(* Seed a fresh engine from the script, open [conns] sessions with the
   workload's prepared statements, run [warm] untraced, then [meas] with
   spans on when [traced]. Checks every answer against the oracle and every
   measured op's checksum against the served run's [served_sums]. *)
let run ~script ~buffer_pages ~conns ~prepare ~warm ~meas ~served_sums ~reoptimize ~traced =
  let db = Database.create ~buffer_pages () in
  ignore (Database.exec_script db script);
  let eng = Database.engine db in
  retirements := 0;
  let sessions =
    Array.init conns (fun _ ->
        let sess = Session.create ~serial_only:true ~counters:(Rss.Counters.create ()) eng in
        let prepared = Hashtbl.create 4 in
        List.iter (fun (name, sql) -> Hashtbl.replace prepared name (Session.prepare sess sql)) prepare;
        { sess; prepared; portal = [] })
  in
  let mismatches = ref 0 in
  let qerrs = ref [] in
  let act a =
    let s = sessions.(a.conn) in
    let h =
      List.fold_left
        (fun h (st : G.step) ->
          let rows = List.concat_map (message s ~qerrs ~reoptimize) st.G.msgs in
          let got = G.sum_tuples rows in
          (match st.G.expect with
           | G.Rows want when got <> want -> incr mismatches
           | _ -> ());
          (h + got.G.sum) land max_int)
        0 a.op
    in
    if a.served >= 0 && a.served < Array.length served_sums && served_sums.(a.served) <> h
    then incr mismatches
  in
  Pb_trace.on := false;
  List.iter act warm;
  qerrs := [];
  Pb_trace.reset ();
  Pb_trace.on := traced;
  let t0 = Pb_trace.now_us () in
  List.iter (fun a -> Pb_trace.req := max 0 a.served; act a) meas;
  let wall_s = (Pb_trace.now_us () -. t0) /. 1e6 in
  Pb_trace.on := false;
  let w = Ctx.default_w in
  let qerrors =
    Array.of_list
      (List.rev_map
         (fun (params, r, cnt) ->
           let est = Optimizer.total_cost (Session.ctx ~params sessions.(0).sess) r in
           let act = Rss.Counters.cost ~w cnt in
           Float.max ((est +. 1.) /. (act +. 1.)) ((act +. 1.) /. (est +. 1.)))
         !qerrs)
  in
  Array.iter (fun s -> Session.close s.sess) sessions;
  { wall_s; qerrors; mismatches = !mismatches; retirements = !retirements }
