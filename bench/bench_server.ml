(* E10 — server throughput: sustained QPS over the wire protocol.

   One in-process server over one engine; K client connections (1, 2, 4),
   each on its own domain, each pipelining batches of requests. Three
   workloads — point select on an indexed key, a small indexed join, and a
   write mix (INSERT / UPDATE / SELECT / DELETE on a private key range) —
   each driven two ways:

     simple    one Simple frame per statement, distinct literals per call,
               so every request pays lex + parse + fingerprint before the
               compiled-plan cache can help;
     prepared  Parse once per connection, then one Execute per call —
               the plan cache's steady state with zero parse/fingerprint/
               optimize work per request.

   Writes BENCH_server.json; the prepared/simple QPS ratio is reported as
   data. With BENCH_ENFORCE_SERVER=1 the bench exits nonzero unless the
   sessions' counters show what the statement pipeline claims: in every
   cell each Simple request parses exactly one statement, every SELECT,
   UPDATE, DELETE, Execute and Parse probes the plan cache once, and no
   more plans are optimized than the cell has statement shapes; on every
   prepared point-select cell each Execute is one plan-cache hit, with no
   miss and no statement parsed. *)

let enforce = Sys.getenv_opt "BENCH_ENFORCE_SERVER" <> None

let kv_rows = if Bench_util.smoke then 400 else 2000
let iters = if Bench_util.smoke then 192 else 1440
let batch = 32 (* pipelined requests in flight per connection *)
let levels = [ 1; 2; 4 ]

let seed_sql () =
  let b = Buffer.create (kv_rows * 24) in
  Buffer.add_string b "CREATE TABLE KV (K INT, V STRING);\n";
  Buffer.add_string b "CREATE CLUSTERED INDEX KV_K ON KV (K);\n";
  Buffer.add_string b "CREATE TABLE DIM (DK INT, DNAME STRING);\n";
  Buffer.add_string b "CREATE INDEX DIM_DK ON DIM (DK);\n";
  let rec chunk lo =
    if lo < kv_rows then begin
      let hi = min (lo + 100) kv_rows in
      Buffer.add_string b "INSERT INTO KV VALUES ";
      for i = lo to hi - 1 do
        if i > lo then Buffer.add_string b ", ";
        Buffer.add_string b (Printf.sprintf "(%d, 'v%d')" i (i mod 97))
      done;
      Buffer.add_string b ";\n";
      chunk hi
    end
  in
  chunk 0;
  Buffer.add_string b "INSERT INTO DIM VALUES ";
  for d = 0 to 49 do
    if d > 0 then Buffer.add_string b ", ";
    Buffer.add_string b (Printf.sprintf "(%d, 'dept%d')" d d)
  done;
  Buffer.add_string b ";\nUPDATE STATISTICS;\n";
  Buffer.contents b

(* --- pipelined driving ---------------------------------------------------- *)

(* Pipeline in batches: write [batch] requests with one flush, then read
   the [batch] replies — one write(2) and a handful of read(2)s per batch
   on each side, so the per-op cost is the protocol work, not syscalls.
   Raise on any error so a broken workload can't report a fantasy QPS. *)
let rec drive c msgs =
  match msgs with
  | [] -> ()
  | _ ->
    let rec split n acc = function
      | rest when n = 0 -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | m :: rest -> split (n - 1) (m :: acc) rest
    in
    let chunk, rest = split batch [] msgs in
    List.iter (Client.send c) chunk;
    Client.flush c;
    List.iter (fun _ -> ignore (Client.ok (Client.read_reply c))) chunk;
    drive c rest

(* The per-call request list for [conn_id], one of the workload/mode cells.
   Returns (messages, ops) — ops is what QPS counts. *)
let requests workload mode conn_id =
  let key i = (conn_id * 7919 + i * 13) mod kv_rows in
  let dkey i = (conn_id * 31 + i * 7) mod 50 in
  (* each writer owns a disjoint key range far above the seeded keys, and
     every iteration deletes what it inserted: steady-state table size *)
  let wkey i = 1_000_000 + (conn_id * 100_000) + i in
  match workload, mode with
  | `Point, `Simple ->
    ( List.init iters (fun i ->
          Protocol.Simple (Printf.sprintf "SELECT V FROM KV WHERE K = %d" (key i))),
      iters )
  | `Point, `Prepared ->
    ( List.init iters (fun i ->
          Protocol.Execute
            { name = "pt"; params = Some [ Rel.Value.Int (key i) ]; fetch = 0 }),
      iters )
  | `Join, `Simple ->
    ( List.init iters (fun i ->
          Protocol.Simple
            (Printf.sprintf
               "SELECT V, DNAME FROM KV, DIM WHERE K = DK AND DK = %d" (dkey i))),
      iters )
  | `Join, `Prepared ->
    ( List.init iters (fun i ->
          Protocol.Execute
            { name = "jn"; params = Some [ Rel.Value.Int (dkey i) ]; fetch = 0 }),
      iters )
  | `Write, `Simple ->
    ( List.concat
        (List.init (iters / 4) (fun i ->
             let k = wkey i in
             [ Protocol.Simple (Printf.sprintf "INSERT INTO KV VALUES (%d, 'w')" k);
               Protocol.Simple
                 (Printf.sprintf "UPDATE KV SET V = 'u' WHERE K = %d" k);
               Protocol.Simple (Printf.sprintf "SELECT V FROM KV WHERE K = %d" k);
               Protocol.Simple (Printf.sprintf "DELETE FROM KV WHERE K = %d" k) ])),
      4 * (iters / 4) )
  | `Write, `Prepared ->
    (* prepared statements are SELECT-only (System R cursors), so the DML
       stays textual; its victim search probes the cache under the shape
       SELECT * FROM KV WHERE K = ?, as a SELECT would *)
    ( List.concat
        (List.init (iters / 4) (fun i ->
             let k = wkey i in
             [ Protocol.Simple (Printf.sprintf "INSERT INTO KV VALUES (%d, 'w')" k);
               Protocol.Simple
                 (Printf.sprintf "UPDATE KV SET V = 'u' WHERE K = %d" k);
               Protocol.Execute
                 { name = "pt"; params = Some [ Rel.Value.Int k ]; fetch = 0 };
               Protocol.Simple (Printf.sprintf "DELETE FROM KV WHERE K = %d" k) ])),
      4 * (iters / 4) )

let prepared_sql =
  [ ("pt", "SELECT V FROM KV WHERE K = ?");
    ("jn", "SELECT V, DNAME FROM KV, DIM WHERE K = DK AND DK = ?") ]

let prepare_all c =
  List.iter
    (fun (name, sql) -> ignore (Client.ok (Client.parse c ~name sql)))
    prepared_sql

(* Requests sent, by kind: what the session counters are checked against.
   [probes] counts the requests that reach a plan (SELECT, UPDATE, DELETE,
   Execute, Parse) and [shapes] their distinct plan-cache keys. *)
type sent = {
  simple : int;
  execute : int;
  parse : int;
  probes : int;
  shapes : string list;
}

let no_sent = { simple = 0; execute = 0; parse = 0; probes = 0; shapes = [] }

let add_sent a b =
  { simple = a.simple + b.simple; execute = a.execute + b.execute;
    parse = a.parse + b.parse; probes = a.probes + b.probes;
    shapes = List.sort_uniq compare (a.shapes @ b.shapes) }

(* The plan-cache key a statement's plan is reached under: its own shape,
   or for DELETE / UPDATE that of its victim search. *)
let shape sql =
  let key q =
    let k, _, _ = Normalize.canonicalize q in
    Some k
  in
  match Parser.parse_statement sql with
  | Ast.Select q -> key q
  | Ast.Update { table; where; _ } | Ast.Delete { table; where } ->
    key { Ast.select = [ Ast.Star ]; from = [ (table, None) ]; where;
          group_by = []; order_by = [] }
  | _ -> None

let probing acc sql =
  match shape sql with
  | Some k -> add_sent acc { no_sent with probes = 1; shapes = [ k ] }
  | None -> acc

let tally msgs =
  List.fold_left
    (fun acc -> function
      | Protocol.Simple sql -> probing { acc with simple = acc.simple + 1 } sql
      | Protocol.Execute { name; _ } ->
        probing { acc with execute = acc.execute + 1 } (List.assoc name prepared_sql)
      | _ -> acc)
    no_sent msgs

(* Run one cell: [conns] connections, all driving [workload]/[mode]
   concurrently, started on a shared barrier. QPS = total ops / slowest
   connection's wall time; also returns the requests sent. *)
let run_cell_once addr workload mode conns =
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let worker conn_id () =
    (* client domains get the same large nursery as the server's pool
       workers: a minor collection in any domain stops them all, so a
       256k-word client nursery would re-impose the rendezvous cost the
       pool sizing removed (Gc.set is domain-local — set it here, not in
       run()) *)
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = 2_097_152 };
    (* any setup failure must still release the barrier, or the main domain
       spins forever; Domain.join re-raises the failure afterwards *)
    match
      let c = Client.connect addr in
      let parses =
        match mode with
        | `Prepared ->
          prepare_all c;
          List.fold_left
            (fun acc (_, sql) -> probing { acc with parse = acc.parse + 1 } sql)
            no_sent prepared_sql
        | `Simple -> no_sent
      in
      let msgs, ops = requests workload mode conn_id in
      (* warm up: plan cache, buffer pool, allocator *)
      let warm, _ = requests workload mode (conn_id + 100) in
      let warm = List.filteri (fun i _ -> i < 8) warm in
      drive c warm;
      (c, msgs, ops, add_sent parses (add_sent (tally warm) (tally msgs)))
    with
    | exception e ->
      Atomic.incr ready;
      raise e
    | c, msgs, ops, sent ->
      Atomic.incr ready;
      while not (Atomic.get go) do Domain.cpu_relax () done;
      let t0 = Unix.gettimeofday () in
      drive c msgs;
      let dt = Unix.gettimeofday () -. t0 in
      Client.close c;
      (ops, dt, sent)
  in
  let doms = List.init conns (fun id -> Domain.spawn (worker id)) in
  while Atomic.get ready < conns do Domain.cpu_relax () done;
  Atomic.set go true;
  let cells = List.map Domain.join doms in
  let total_ops = List.fold_left (fun a (o, _, _) -> a + o) 0 cells in
  let slowest = List.fold_left (fun a (_, dt, _) -> max a dt) 0. cells in
  ( float_of_int total_ops /. slowest,
    List.fold_left (fun a (_, _, s) -> add_sent a s) no_sent cells )

(* Best of [reps]: the measurement windows are tens of milliseconds, so a
   single descheduling or GC pause swings a run by 2-3x; the max is the
   stable estimate of what the path costs. A full major collection between
   reps keeps one cell's garbage from billing the next. Smoke keeps the
   reps — its windows are shorter and noisier, and the whole bench still
   finishes in seconds. *)
let reps = 3

(* The engine-global counters once every server session has closed and
   folded its own record into them (a handler closes its session after the
   client hangs up). Read under the engine latch, which orders them after
   the closing sessions' writes. *)
let settled_counters eng sessions =
  let rec wait tries =
    if Engine.with_latch eng (fun () -> eng.Engine.live_sessions) > sessions then
      if tries = 0 then failwith "server sessions still open 10s after their clients left"
      else begin
        Unix.sleepf 0.001;
        wait (tries - 1)
      end
  in
  wait 10_000;
  Engine.with_latch eng (fun () ->
      Rss.Counters.snapshot (Rss.Pager.base_counters (Engine.pager eng)))

(* Best QPS of [reps], the requests the cell sent, and what its sessions
   counted; [sessions] is the engine's session count with no client
   connected. *)
let run_cell eng ~sessions addr workload mode conns =
  let before = settled_counters eng sessions in
  let best = ref 0. and sent = ref no_sent in
  for _ = 1 to reps do
    Gc.full_major ();
    let q, s = run_cell_once addr workload mode conns in
    best := Float.max !best q;
    sent := add_sent !sent s
  done;
  let counted = Rss.Counters.diff ~after:(settled_counters eng sessions) ~before in
  (!best, !sent, counted)

let workload_name = function
  | `Point -> "point_select"
  | `Join -> "small_join"
  | `Write -> "write_mix"

(* The gate, on one cell's counters: every Simple request and every Parse
   parses exactly one statement (so an Execute parses none); every request
   that reaches a plan probes the cache once, and each probe counts one hit
   or one miss (a probe that finds a stale entry counts an invalidation as
   well as its miss); a shape misses at most once; and on point selects
   every Execute is a plan-cache hit with no miss (the Parse requests probe
   too, and hit the plan the warm-up cached). *)
let cell_faults workload mode conns (sent, (c : Rss.Counters.t)) =
  let cell =
    Printf.sprintf "%s/%s/%d conns" (workload_name workload)
      (match mode with `Simple -> "simple" | `Prepared -> "prepared")
      conns
  in
  let parsed = c.Rss.Counters.statements_parsed in
  let hits = c.Rss.Counters.plan_cache_hits
  and misses = c.Rss.Counters.plan_cache_misses in
  (if parsed <> sent.simple + sent.parse then
     [ Printf.sprintf "%s: %d statements parsed for %d Simple + %d Parse requests"
         cell parsed sent.simple sent.parse ]
   else [])
  @ (if hits + misses <> sent.probes then
       [ Printf.sprintf "%s: %d plan-cache hits + %d misses for %d requests that \
                         reach a plan"
           cell hits misses sent.probes ]
     else [])
  @ (if misses > List.length sent.shapes then
       [ Printf.sprintf "%s: %d plan-cache misses for %d statement shapes" cell
           misses (List.length sent.shapes) ]
     else [])
  @
  match workload, mode with
  | `Point, `Prepared when misses <> 0 || hits <> sent.execute + sent.parse ->
    [ Printf.sprintf "%s: %d plan-cache hits, %d misses for %d Execute + %d Parse \
                      requests"
        cell hits misses sent.execute sent.parse ]
  | _ -> []

let run () =
  Bench_util.section "E10: server throughput — simple vs prepared QPS";
  let db = Database.create ~buffer_pages:256 () in
  ignore (Database.exec_script db (seed_sql ()));
  let eng = Database.engine db in
  let sessions = eng.Engine.live_sessions in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "systemr_bench_%d.sock" (Unix.getpid ()))
  in
  let srv = Server.start ~workers:8 ~engine:eng (Server.Unix_sock sock) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let addr = Server.addr srv in
  (* cache the prepared plans once, so every cell's Parse requests hit *)
  (let c = Client.connect addr in
   prepare_all c;
   Client.close c);
  let results =
    List.map
      (fun conns ->
        let per_workload =
          List.map
            (fun w ->
              let cell mode = run_cell eng ~sessions addr w mode conns in
              let simple = cell `Simple in
              let prepared = cell `Prepared in
              (w, simple, prepared))
            [ `Point; `Join; `Write ]
        in
        (conns, per_workload))
      levels
  in
  Bench_util.print_table
    ~header:
      [ "workload"; "conns"; "simple QPS"; "prepared QPS"; "speedup";
        "parsed/simple req"; "parsed/Execute"; "hits/plan req" ]
    (List.concat_map
       (fun (conns, per_workload) ->
         List.map
           (fun (w, (s, s_sent, s_cnt), (p, p_sent, p_cnt)) ->
             let per n d = if d = 0 then "-" else Printf.sprintf "%.2f" (float n /. float d) in
             [ workload_name w; string_of_int conns;
               Printf.sprintf "%.0f" s; Printf.sprintf "%.0f" p;
               Printf.sprintf "%.2fx" (p /. s);
               per s_cnt.Rss.Counters.statements_parsed s_sent.simple;
               per
                 (p_cnt.Rss.Counters.statements_parsed - p_sent.simple - p_sent.parse)
                 p_sent.execute;
               per p_cnt.Rss.Counters.plan_cache_hits p_sent.probes ])
           per_workload)
       results);
  Printf.printf
    "\n(single-core container: QPS measures protocol + session overhead\n\
    \ under concurrency, not parallel scan scaling; see the MVCC bench for\n\
    \ read concurrency under writers)\n";
  let point_ratios =
    List.filter_map
      (fun (_, pw) ->
        List.find_map
          (fun (w, (s, _, _), (p, _, _)) ->
            if w = `Point then Some (p /. s) else None)
          pw)
      results
  in
  let best_ratio = List.fold_left max 0. point_ratios in
  let faults =
    List.concat_map
      (fun (conns, pw) ->
        List.concat_map
          (fun (w, (_, s_sent, s_cnt), (_, p_sent, p_cnt)) ->
            cell_faults w `Simple conns (s_sent, s_cnt)
            @ cell_faults w `Prepared conns (p_sent, p_cnt))
          pw)
      results
  in
  let counts (sent, (c : Rss.Counters.t)) =
    Bench_util.
      [ ("simple_requests", J_int sent.simple);
        ("execute_requests", J_int sent.execute);
        ("parse_requests", J_int sent.parse);
        ("plan_requests", J_int sent.probes);
        ("statement_shapes", J_int (List.length sent.shapes));
        ("statements_parsed", J_int c.Rss.Counters.statements_parsed);
        ("plan_cache_hits", J_int c.Rss.Counters.plan_cache_hits);
        ("plan_cache_misses", J_int c.Rss.Counters.plan_cache_misses) ]
  in
  let j =
    Bench_util.(
      J_obj
        [ ("bench", J_str "server");
          ("smoke", J_bool smoke);
          ("kv_rows", J_int kv_rows);
          ("iters_per_conn", J_int iters);
          ("pipeline_batch", J_int batch);
          ("best_point_select_speedup", J_float best_ratio);
          ("counter_gate_faults", J_list (List.map (fun f -> J_str f) faults));
          ( "levels",
            J_list
              (List.map
                 (fun (conns, pw) ->
                   J_obj
                     [ ("connections", J_int conns);
                       ( "workloads",
                         J_list
                           (List.map
                              (fun (w, (s, s_sent, s_cnt), (p, p_sent, p_cnt)) ->
                                J_obj
                                  [ ("name", J_str (workload_name w));
                                    ("simple_qps", J_float s);
                                    ("prepared_qps", J_float p);
                                    ("speedup", J_float (p /. s));
                                    ("simple_counts", J_obj (counts (s_sent, s_cnt)));
                                    ( "prepared_counts",
                                      J_obj (counts (p_sent, p_cnt)) ) ])
                              pw) ) ])
                 results) ) ])
  in
  Bench_util.write_json ~file:"BENCH_server.json" j;
  if enforce then
    match faults with
    | [] ->
      Printf.printf
        "ENFORCE: every Execute a plan-cache hit with nothing parsed, one \
         statement parsed per Simple request, one probe per request that \
         reaches a plan, at most one miss per shape — ok (prepared/simple on \
         point selects %.2fx, data only)\n"
        best_ratio
    | _ ->
      List.iter (Printf.printf "ENFORCE FAILED: %s\n") faults;
      exit 1
