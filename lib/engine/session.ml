(* A session: one user's statements against the shared engine (Database is
   the embedded default session). Holds the active transaction, SET
   overrides, prepared statements and a per-session counters record;
   everything shared (catalog, buffer pool, WAL, lock table, plan cache,
   MVCC status table) lives in Engine.t and is reached
   through [with_engine] (exclusive latch — DML, DDL, transaction control)
   or [with_engine_read] (shared latch — SELECT, EXPLAIN, prepared
   execution), each redirecting I/O accounting to this session's counters
   for the duration of the statement.

   Isolation is snapshot-based. Every statement reads through an MVCC
   snapshot (the transaction's, taken at BEGIN, or a statement snapshot):
   tuple versions carry (xmin, xmax) transaction ids and the scan layer
   filters by commit visibility, so read-only statements take NO locks and
   are never blocked by an uncommitted writer. Writers keep 2PL for
   write-write conflicts only: a relation-level Shared lock (fencing DDL,
   which takes the relation Exclusive) plus an Exclusive tuple lock per
   delete victim. First committer wins — a delete victim found re-marked
   after the tuple lock is finally granted fails the statement with a
   serialization error. DELETE stamps xmax instead of removing the tuple;
   VACUUM reclaims versions behind the oldest snapshot.

   Undo keeps TIDs stable: undoing a delete clears the version's xmax
   (Catalog.unmark_delete) and undoing an insert removes the slot it made
   (Catalog.delete_tid), so no undo step moves a tuple that later WAL
   records or the txn's own undo entries name by TID. The torture
   harness's shrunk reproducer for a TID-moving undo — INSERT x; DELETE x;
   ROLLBACK leaving a phantom x — is pinned in test_engine. *)

type undo_op =
  | Undo_insert of Catalog.relation * Rss.Tid.t * Rel.Tuple.t
  | Undo_delete of Catalog.relation * Rss.Tid.t * Rel.Tuple.t

type txn = {
  txn_id : int;
  explicit_txn : bool;
  snap : Rss.Mvcc.snapshot;
      (* taken at transaction start: every statement of the transaction
         reads this snapshot (plus its own writes) — transaction-level
         snapshot isolation *)
  mutable undo : undo_op list;  (* newest first *)
}

type t = {
  eng : Engine.t;
  counters : Rss.Counters.t;
      (* where this session's statements account their I/O; the engine-global
         record for the embedded default session, a private record (folded
         into the global one at close) for server sessions *)
  serial_only : bool;
      (* server sessions run on Domain_pool workers, which must never submit
         exchange subtasks (the pool's deadlock-freedom invariant); their
         plans are pinned serial regardless of SET PARALLELISM *)
  mutable w : float;
  mutable max_dop : int;
  mutable force_parallel : bool;
  mutable use_histograms : bool;
      (* SET HISTOGRAMS ON/OFF: estimate selectivities from the per-column
         equi-depth histograms UPDATE STATISTICS collects; OFF pins the
         paper's value-independent TABLE 1 constants (and suspends the
         cardinality-feedback loop, which would also perturb them) *)
  mutable use_feedback : bool;
  mutable last_feedback : (float * int * float * bool) option;
      (* (estimated QCARD, actual rows, q-error, retired a plan) of the most
         recent feedback-observed execution, surfaced by EXPLAIN *)
  mutable active : txn option;
  mutable pending_ack : int option;
      (* group-commit durability ticket of a commit this session performed
         inside the current engine step; the public entry point awaits it
         (outside the latch) before returning — the ack rule *)
  mutable cache_sig : string;
      (* settings fingerprint prefixed onto plan-cache keys: sessions with
         identical settings share cached plans, sessions with different W /
         parallelism / histogram modes never serve each other's plans *)
  mutable closed : bool;
}

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* SYSTEMR_DOMAINS seeds the parallelism cap for every new session, so CI
   can run the whole suite with parallel plans enabled without touching the
   tests; SET PARALLELISM overrides it per session. *)
let default_max_dop () =
  match Sys.getenv_opt "SYSTEMR_DOMAINS" with
  | Some s -> (match int_of_string_opt (String.trim s) with
               | Some n when n >= 1 -> n
               | _ -> 1)
  | None -> 1

(* q-error above which an execution counts as a gross misestimate *)
let feedback_threshold = 4.0

(* feedback corrections are only consulted (and recorded) under histogram
   estimation: SET HISTOGRAMS OFF pins the paper's constants exactly *)
let feedback_active s = s.use_feedback && s.use_histograms

let effective_dop s = if s.serial_only then 1 else s.max_dop

let recompute_sig s =
  s.cache_sig <-
    Printf.sprintf "%h|%d|%b|%b|%b#" s.w (effective_dop s) s.force_parallel
      s.use_histograms (feedback_active s)

let create ?(w = Ctx.default_w) ?counters ?(serial_only = false) eng =
  let counters =
    match counters with
    | Some c -> c
    | None -> Rss.Pager.base_counters (Engine.pager eng)
  in
  let s =
    { eng;
      counters;
      serial_only;
      w;
      max_dop = default_max_dop ();
      force_parallel = false;
      use_histograms = true;
      use_feedback = true;
      last_feedback = None;
      active = None;
      pending_ack = None;
      cache_sig = "";
      closed = false }
  in
  recompute_sig s;
  Engine.with_latch eng (fun () ->
      eng.Engine.live_sessions <- eng.Engine.live_sessions + 1);
  s

let engine s = s.eng
let catalog s = Engine.catalog s.eng
let pager s = Engine.pager s.eng
let wal s = Engine.wal s.eng

(* Run [f] as one engine step with this session's counters record active.
   [with_engine] holds the engine latch exclusively (statements that mutate
   engine state); [with_engine_read] holds it shared, so read-only
   statements of different sessions run concurrently. Public entry points
   wrap exactly once — internal helpers assume they are already inside. *)
let with_engine s f =
  Engine.with_latch s.eng (fun () ->
      Rss.Pager.with_counters (Engine.pager s.eng) s.counters f)

let with_engine_read s f =
  Engine.with_read_latch s.eng (fun () ->
      Rss.Pager.with_counters (Engine.pager s.eng) s.counters f)

(* The MVCC read view of the current statement: the active transaction's
   snapshot, or a fresh statement snapshot. *)
let read_view s =
  let m = Engine.mvcc s.eng in
  let snap =
    match s.active with
    | Some txn -> txn.snap
    | None -> Rss.Mvcc.statement_snapshot m
  in
  Rss.Mvcc.view m snap

let compose_key s key = s.cache_sig ^ key

let ctx ?(params = [||]) s =
  Ctx.create ~w:s.w ~max_dop:(effective_dop s) ~force_parallel:s.force_parallel
    ~use_histograms:s.use_histograms ~use_feedback:(feedback_active s) ~params
    (Engine.catalog s.eng)

(* --- SET-style session settings ----------------------------------------- *)

(* Settings changes clear the shared plan cache (they are rare, and cached
   plans embed decisions made under the old setting); the settings signature
   in the key additionally guarantees that sessions with different settings
   can never serve each other's plans. *)
let change_setting s changed assign =
  if changed then begin
    assign ();
    recompute_sig s;
    Plan_cache.clear (Engine.plan_cache s.eng)
  end

let set_w s w = change_setting s (w <> s.w) (fun () -> s.w <- w)

let set_parallelism s n =
  let n = max 1 n in
  change_setting s (n <> s.max_dop) (fun () -> s.max_dop <- n)

let parallelism s = s.max_dop

let set_force_parallel s on =
  change_setting s (on <> s.force_parallel) (fun () -> s.force_parallel <- on)

let set_histograms s on =
  change_setting s (on <> s.use_histograms) (fun () -> s.use_histograms <- on)

let set_feedback s on =
  change_setting s (on <> s.use_feedback) (fun () -> s.use_feedback <- on)

let last_feedback s = s.last_feedback

let set_plan_cache s on = Plan_cache.set_enabled (Engine.plan_cache s.eng) on

let set_plan_cache_validation s on =
  Plan_cache.set_validation (Engine.plan_cache s.eng) on

let plan_cache_size s = Plan_cache.size (Engine.plan_cache s.eng)
let in_transaction s =
  match s.active with Some { explicit_txn; _ } -> explicit_txn | None -> false

type result =
  | Rows of Executor.output
  | Text of string
  | Done of string

let wrap f =
  try f () with
  | Parser.Error (msg, off) -> err "syntax error at offset %d: %s" off msg
  | Semant.Error msg -> err "semantic error: %s" msg
  | Invalid_argument msg -> err "%s" msg

(* --- locking ------------------------------------------------------------- *)

(* Acquire [mode] on [resource] for [txn_id], waiting (in shared mode)
   while the request is blocked: the request is queued by the lock table,
   the session sleeps on the engine's condition variable (releasing the
   write latch), and each release_all broadcast re-checks whether the
   queued request was promoted. Deadlocks are detected at request time and
   surface as an error, failing the statement — an implicit transaction
   rolls back, an explicit one stays open for the client to ROLLBACK.
   Unlatched (embedded or the fuzz scheduler), a blocked request errors
   immediately — there is no second domain to release the lock. *)
let acquire_resource s txn_id resource ~what mode =
  let eng = s.eng in
  match Rss.Lock_table.acquire eng.Engine.locks txn_id resource mode with
  | Rss.Lock_table.Granted -> ()
  | Rss.Lock_table.Deadlock cycle ->
    err "deadlock on %s (transactions %s)" what
      (String.concat " -> " (List.map string_of_int cycle))
  | Rss.Lock_table.Blocked _ ->
    if not (Engine.latched eng) then
      err "%s is locked by another transaction" what
    else begin
      Engine.note_blocked eng;
      while not (Rss.Lock_table.holds eng.Engine.locks txn_id resource mode) do
        Engine.wait_locks eng
      done
    end

let acquire_rel_lock s txn_id (rel : Catalog.relation) mode =
  acquire_resource s txn_id
    (Rss.Lock_table.Relation rel.Catalog.rel_id)
    ~what:(Printf.sprintf "relation %s" rel.Catalog.rel_name)
    mode

let acquire_tuple_x s txn_id (rel : Catalog.relation) (tid : Rss.Tid.t) =
  acquire_resource s txn_id
    (Rss.Lock_table.Tuple_of (rel.Catalog.rel_id, tid))
    ~what:
      (Printf.sprintf "tuple %d.%d of %s" tid.Rss.Tid.page tid.Rss.Tid.slot
         rel.Catalog.rel_name)
    Rss.Lock_table.Exclusive

let release_txn_locks s txn_id =
  Rss.Lock_table.release_all s.eng.Engine.locks txn_id;
  Engine.signal_locks s.eng

(* --- transactions ------------------------------------------------------- *)

let apply_undo s ops =
  let cat = Engine.catalog s.eng in
  List.iter
    (fun op ->
      match op with
      | Undo_insert (rel, tid, tuple) ->
        ignore (Catalog.delete_tid cat rel tid tuple)
      | Undo_delete (rel, tid, _tuple) ->
        (* the delete only stamped xmax; the version never left the heap *)
        Catalog.unmark_delete rel tid)
    ops

(* Transaction start/commit/abort keep the WAL and the MVCC status table in
   step: Begin registers the txn Active (pinning the VACUUM horizon at its
   snapshot), Commit stamps it with a fresh CSN — the instant its versions
   become visible to later snapshots — and Abort forgets it after the
   physical undo (no heap reference survives, so no status entry needs
   to). *)
let start_txn s ~explicit_txn =
  let eng = s.eng in
  let txn_id = Engine.fresh_txn_id eng in
  let m = Engine.mvcc eng in
  Rss.Mvcc.begin_txn m txn_id;
  let txn =
    { txn_id; explicit_txn; snap = Rss.Mvcc.snapshot m ~txn:txn_id; undo = [] }
  in
  s.active <- Some txn;
  Rss.Wal.append eng.Engine.wal (Rss.Wal.Begin txn_id);
  txn

(* Group commit moves the durability boundary out of the latched commit
   step: under the latch we make the commit visible (MVCC), release its
   locks, and enqueue it in the engine's commit window — ticket order equals
   visibility order equals the order the leader will append Commit records,
   which keeps prefix durability sound. The WAL flush (and the Commit
   append itself) happens in [sync_commit], after the latch is released.
   With GROUP_COMMIT OFF every commit appends and flushes privately right
   here — the per-commit baseline. *)
let finish_commit s txn =
  let eng = s.eng in
  if Engine.group_commit_enabled eng then begin
    ignore (Rss.Mvcc.commit (Engine.mvcc eng) txn.txn_id);
    release_txn_locks s txn.txn_id;
    let ticket = Engine.enqueue_commit eng txn.txn_id in
    s.counters.Rss.Counters.group_commits <-
      s.counters.Rss.Counters.group_commits + 1;
    s.pending_ack <- Some ticket
  end
  else begin
    Rss.Wal.append eng.Engine.wal (Rss.Wal.Commit txn.txn_id);
    Rss.Wal.flush eng.Engine.wal;
    s.counters.Rss.Counters.wal_flushes <-
      s.counters.Rss.Counters.wal_flushes + 1;
    ignore (Rss.Mvcc.commit (Engine.mvcc eng) txn.txn_id);
    release_txn_locks s txn.txn_id
  end;
  s.active <- None

let finish_abort s txn =
  apply_undo s txn.undo;
  Rss.Wal.append s.eng.Engine.wal (Rss.Wal.Abort txn.txn_id);
  Rss.Mvcc.abort (Engine.mvcc s.eng) txn.txn_id;
  release_txn_locks s txn.txn_id;
  s.active <- None

(* Run [f txn] inside the active transaction, or an implicit auto-committed
   one. Errors inside an implicit transaction roll its effects back. *)
let with_txn s f =
  match s.active with
  | Some txn -> f txn
  | None ->
    let txn = start_txn s ~explicit_txn:false in
    (match f txn with
     | v ->
       finish_commit s txn;
       v
     | exception e ->
       (* undo the partial effects of the failed statement *)
       finish_abort s txn;
       raise e)

(* COMMIT / ROLLBACK end the explicit transaction BEGIN opened *)
let end_explicit s finish =
  match s.active with
  | Some txn when txn.explicit_txn ->
    finish s txn;
    txn.txn_id
  | Some _ | None -> err "no transaction is active"

(* logged, undoable DML primitives. Writers take the relation Shared (DML
   of different transactions is compatible at relation granularity — DDL
   takes it Exclusive) plus an Exclusive tuple lock per delete victim.
   Inserts need no tuple lock: an uncommitted version is invisible to every
   other transaction, so nothing can conflict with it. *)
let dml_insert s txn (rel : Catalog.relation) tuple =
  acquire_rel_lock s txn.txn_id rel Rss.Lock_table.Shared;
  let cat = Engine.catalog s.eng in
  let tid = Catalog.insert_tuple ~xmin:txn.txn_id cat rel tuple in
  Rss.Wal.append s.eng.Engine.wal
    (Rss.Wal.Insert { txn = txn.txn_id; rel_id = rel.Catalog.rel_id; tid; tuple });
  txn.undo <- Undo_insert (rel, tid, tuple) :: txn.undo

(* --- DDL locks ----------------------------------------------------------- *)

(* DDL on an existing relation (DROP TABLE, CREATE/DROP INDEX) takes the
   relation Exclusive, conflicting with the Shared holds of in-flight DML
   transactions — the only readers-vs-schema fence left now that SELECTs
   take no locks at all (a read-only statement holds the shared engine
   latch, which DDL's exclusive latch already excludes). Inside a
   transaction the lock rides to commit; standalone DDL uses a throwaway
   txn id released at statement end. *)
let with_ddl_lock s (rel : Catalog.relation) f =
  if not (Engine.latched s.eng) then f ()
  else
    match s.active with
    | Some txn ->
      acquire_rel_lock s txn.txn_id rel Rss.Lock_table.Exclusive;
      f ()
    | None ->
      let txn_id = Engine.fresh_txn_id s.eng in
      acquire_rel_lock s txn_id rel Rss.Lock_table.Exclusive;
      Fun.protect ~finally:(fun () -> release_txn_locks s txn_id) f

(* --- statements ---------------------------------------------------------- *)

let resolve_query s q = wrap (fun () -> Semant.resolve (Engine.catalog s.eng) q)

let resolve_i s sql =
  let q = wrap (fun () -> Parser.parse_query sql) in
  resolve_query s q

let optimize_block ?ctx:c s block =
  let c = Option.value c ~default:(ctx s) in
  wrap (fun () -> Optimizer.optimize c block)

let optimize_i ?ctx s sql = optimize_block ?ctx s (resolve_i s sql)

let run_plan_i s r =
  wrap (fun () -> Executor.run ~snap:(read_view s) (Engine.catalog s.eng) r)

let query_block s block = run_plan_i s (optimize_block s block)

(* SELECT [select] FROM [table] WHERE [where], resolved. *)
let table_block s table select where =
  resolve_query s
    { Ast.select; from = [ (table, None) ]; where; group_by = []; order_by = [] }

(* The victim search of DELETE / UPDATE — and what EXPLAIN DELETE / UPDATE
   print: SELECT * FROM table WHERE where, through the same access path
   selection as any query (no WHERE is just a segment scan). Optimized at
   DOP 1: it runs under the write latch on the calling domain. *)
let victim_plan s table where =
  optimize_block
    ~ctx:{ (ctx s) with Ctx.max_dop = 1; force_parallel = false }
    s
    (table_block s table [ Ast.Star ] where)

(* Stamp every version the victim plan yields under the transaction's
   snapshot, by TID. The relation Shared lock comes first, so no DDL can
   change the access path under the plan, and the (TID, tuple) list is
   drained before anything is stamped — an updated image inserted later
   cannot requalify (no Halloween problem). Each victim is then locked
   Exclusive (waiting out a concurrent writer) and re-read: if its xmax is
   no longer clear — or the slot was reclaimed and reused while we waited —
   the first committer won and this statement fails with a serialization
   error rather than silently double-deleting. The surviving victims are
   stamped xmax = txn and logged; the heap slot and index entries stay for
   concurrent snapshots (VACUUM reclaims them later). *)
let dml_delete_where s txn (rel : Catalog.relation) where =
  acquire_rel_lock s txn.txn_id rel Rss.Lock_table.Shared;
  let r = victim_plan s rel.Catalog.rel_name where in
  let victims =
    wrap (fun () ->
        Executor.victims
          ~snap:(Rss.Mvcc.view (Engine.mvcc s.eng) txn.snap)
          (Engine.catalog s.eng) r)
  in
  List.iter
    (fun (tid, tuple) ->
      acquire_tuple_x s txn.txn_id rel tid;
      (match Rss.Segment.fetch_unaccounted_v rel.Catalog.segment tid with
       | Some (rid, tuple', _, 0)
         when rid = rel.Catalog.rel_id && Rel.Tuple.equal tuple tuple' ->
         ()
       | Some _ | None ->
         err
           "could not serialize: tuple %d.%d of %s was deleted by a \
            concurrent transaction"
           tid.Rss.Tid.page tid.Rss.Tid.slot rel.Catalog.rel_name);
      Catalog.mark_delete rel tid txn.txn_id;
      Rss.Wal.append s.eng.Engine.wal
        (Rss.Wal.Delete { txn = txn.txn_id; rel_id = rel.Catalog.rel_id; tid; tuple });
      txn.undo <- Undo_delete (rel, tid, tuple) :: txn.undo)
    victims;
  victims

(* UPDATE: resolve the SET expressions against the table, stamp the
   victims exactly as DELETE does, then insert one updated image per victim
   (indexes follow automatically). *)
let update_where s txn (rel : Catalog.relation) sets where =
  let schema = rel.Catalog.schema in
  let set_block =
    table_block s rel.Catalog.rel_name
      (List.map (fun (_, e) -> Ast.Sel_expr (e, None)) sets)
      None
  in
  let targets =
    List.map
      (fun (col, _) ->
        match Rel.Schema.index_of schema col with
        | Some i -> i
        | None -> err "no column %s in %s" col rel.Catalog.rel_name)
      sets
  in
  (* Everything that could make a SET expression fail is rejected here,
     before any victim is stamped: nothing undoes a half-applied UPDATE
     short of aborting the whole transaction. SET has no bound parameters
     and no aggregation, and each assignment must produce what
     [Rel.Tuple.conforms] accepts — the column's exact type, or NULL. *)
  if set_block.Semant.scalar_agg then err "aggregate in SET";
  if Semant.param_count set_block > 0 then err "parameter in SET";
  List.iteri
    (fun i (e, _) ->
      let target_ty = (Rel.Schema.column schema (List.nth targets i)).Rel.Schema.ty in
      match Semant.type_of_expr set_block e with
      | None -> ()
      | Some ty when ty = target_ty -> ()
      | Some _ -> err "type mismatch assigning to %s" (fst (List.nth sets i)))
    set_block.Semant.select;
  let layout = Layout.of_tables set_block [ 0 ] in
  let env =
    { Eval.blocks = []; params = [||];
      subquery = (fun _ _ -> err "subquery in SET") }
  in
  let news =
    List.map (fun (e, _) -> Eval.compile_expr env layout e) set_block.Semant.select
  in
  let updated_image tuple =
    let out = Array.copy tuple in
    List.iter2 (fun pos f -> out.(pos) <- f tuple) targets news;
    out
  in
  let victims = dml_delete_where s txn rel where in
  List.iter
    (fun (_, tuple) -> dml_insert s txn rel (updated_image tuple))
    victims;
  List.length victims

(* --- cardinality feedback ------------------------------------------------ *)

let q_error est act =
  let est = Float.max est 0. and act = float_of_int act in
  Float.max ((est +. 1.) /. (act +. 1.)) ((act +. 1.) /. (est +. 1.))

(* Compare the optimizer's QCARD estimate against the top block's actual
   output cardinality, the rows [Executor.run] returned (subquery
   evaluations fold several bindings together and are never fed back). On
   a gross misestimate (q-error above the threshold), record the observed
   selectivity on the relation when the block's shape makes it unambiguous:
   a single table, no grouping, and every boolean factor local to that
   table — then actual rows / NCARD is exactly the restriction's joint
   selectivity. Recording bumps the relation's feedback_gen, so the plan
   cache retires the plans costed under the stale estimate and the next
   optimization of the same restriction sees the corrected value. *)
let feedback_note s (r : Optimizer.result) ~params act =
  if feedback_active s then begin
    let block = r.Optimizer.block in
    if (not block.Semant.scalar_agg) && block.Semant.group_by = [] then begin
      let c = ctx ~params s in
      let est = Selectivity.block_qcard c block in
      let qerr = q_error est act in
      s.last_feedback <- Some (est, act, qerr, false);
      if qerr > feedback_threshold then begin
        let cnt = Rss.Pager.counters (Engine.pager s.eng) in
        cnt.Rss.Counters.feedback_misestimates <-
          cnt.Rss.Counters.feedback_misestimates + 1;
        match block.Semant.tables with
        | [ tr ] ->
          let factors = Normalize.factors_of_block block in
          let local =
            Feedback.local_factors factors ~tab:tr.Semant.tab_idx
          in
          (* only when the local factors are ALL the factors: a subquery or
             constant factor would fold its filtering into the recording *)
          if List.length local = List.length factors then begin
            match Feedback.key ~params local with
            | Some key ->
              let ncard = (Ctx.rel_stats c tr.Semant.rel).Ctx.ncard in
              if ncard > 0. then begin
                let sel = float_of_int act /. ncard in
                if Feedback.record tr.Semant.rel ~key sel then begin
                  cnt.Rss.Counters.feedback_retirements <-
                    cnt.Rss.Counters.feedback_retirements + 1;
                  s.last_feedback <- Some (est, act, qerr, true)
                end
              end
            | None -> ()
          end
        | _ -> ()
      end
    end
  end

(* Execute a (possibly cached) plan, then feed its output cardinality back.
   No locks: the statement's MVCC snapshot is its isolation. *)
let run_observed s r ~params =
  let out =
    wrap (fun () ->
        Executor.run ~snap:(read_view s) ~params (Engine.catalog s.eng) r)
  in
  feedback_note s r ~params (List.length out.Executor.rows);
  out

(* Look up a composed plan-cache key. With [count], a hit or an
   invalidation bumps its counter (the caller that goes on to optimize
   counts the miss); the invalidated entry is evicted either way, so a
   re-probe of the same key finds a plain miss. *)
let probe ~count s full_key =
  let c = Rss.Pager.counters (Engine.pager s.eng) in
  match Plan_cache.find (Engine.plan_cache s.eng) (Engine.catalog s.eng) full_key with
  | Plan_cache.Hit r ->
    if count then
      c.Rss.Counters.plan_cache_hits <- c.Rss.Counters.plan_cache_hits + 1;
    Some r
  | Plan_cache.Invalidated ->
    if count then
      c.Rss.Counters.plan_cache_invalidations <-
        c.Rss.Counters.plan_cache_invalidations + 1;
    None
  | Plan_cache.Miss -> None

(* SELECT through the compiled-plan cache: fingerprint the statement, serve
   a valid cached plan by rebinding the extracted literals as parameters, or
   optimize the canonicalized (parameterized) statement once and cache it.
   The optimization "peeks" at the extracted literals (Ctx.params), so
   histogram estimates stay value-aware on the parameterized plan; like any
   bind-peeking scheme, the cached plan is the one chosen for the literals
   first seen. Statements that already carry user [?] parameters bypass the
   cache — the prepared-statement path owns their bindings. [text], when
   given, is memoized against the key so that {!query} can serve an exact
   repeat without parsing. *)
let query_cached ?text s q =
  let cache = Engine.plan_cache s.eng in
  let fp = if Plan_cache.enabled cache then Normalize.fingerprint q else None in
  match fp with
  | None -> query_block s (resolve_query s q)
  | Some (key, canon_q, values) ->
    let full_key = compose_key s key in
    let params = Array.of_list values in
    let r =
      match probe ~count:true s full_key with
      | Some r -> r
      | None ->
        let c = Rss.Pager.counters (Engine.pager s.eng) in
        c.Rss.Counters.plan_cache_misses <- c.Rss.Counters.plan_cache_misses + 1;
        (* resolve the literal statement first: parameter positions always
           type-check, so a type error in the original must still surface *)
        ignore (resolve_query s q);
        let r =
          optimize_block ~ctx:(ctx ~params s) s (resolve_query s canon_q)
        in
        Plan_cache.store cache full_key r;
        r
    in
    (match text with
     | Some sql -> Plan_cache.memo_text cache ~sql ~key ~values
     | None -> ());
    run_observed s r ~params

let explain_cache_line s =
  let c = Rss.Pager.counters (Engine.pager s.eng) in
  let cache = Engine.plan_cache s.eng in
  Printf.sprintf
    "plan cache: hits=%d misses=%d invalidations=%d evictions=%d entries=%d cap=%d\n"
    c.Rss.Counters.plan_cache_hits c.Rss.Counters.plan_cache_misses
    c.Rss.Counters.plan_cache_invalidations c.Rss.Counters.plan_cache_evictions
    (Plan_cache.size cache) (Plan_cache.cap cache)
  ^ Printf.sprintf "parallelism: max_dop=%d\n" s.max_dop
  ^ Printf.sprintf "histograms: %s\n" (if s.use_histograms then "on" else "off")
  ^ Printf.sprintf "feedback: misestimates=%d retirements=%d%s\n"
      c.Rss.Counters.feedback_misestimates
      c.Rss.Counters.feedback_retirements
      (match s.last_feedback with
       | Some (est, act, qerr, retired) ->
         Printf.sprintf " last=[est=%.1f act=%d qerr=%.2f%s]" est act qerr
           (if retired then " retired" else "")
       | None -> "")
  ^ (let g = Engine.group_commit_stats s.eng in
     Printf.sprintf
       "group commit: %s delay=%.0fus commits=%d flushes=%d commits/flush=%.2f\n"
       (if Engine.group_commit_enabled s.eng then "on" else "off")
       (Engine.commit_delay s.eng *. 1e6)
       g.Engine.grouped_commits g.Engine.flushes
       (if g.Engine.flushes = 0 then 0.
        else float_of_int g.Engine.grouped_commits /. float_of_int g.Engine.flushes))

let exec_stmt s (stmt : Ast.statement) =
  match stmt with
  | Ast.Select q -> Rows (query_cached s q)
  | Ast.Explain { search; stmt } ->
    let r =
      match stmt with
      | Ast.Delete { table; where } | Ast.Update { table; where; _ } ->
        victim_plan s table where
      | Ast.Select q -> optimize_block s (resolve_query s q)
      | _ -> err "EXPLAIN applies to SELECT, DELETE and UPDATE"
    in
    let cache_line = explain_cache_line s in
    if search then
      Text
        (Explain.search_tree r.Optimizer.block r.Optimizer.search
         ^ "chosen plan:\n" ^ Explain.plan r ^ cache_line)
    else Text (Explain.plan r ^ cache_line)
  | Ast.Create_table { table; columns } ->
    let schema =
      wrap (fun () ->
          Rel.Schema.make
            (List.map
               (fun (c : Ast.column_def) ->
                 { Rel.Schema.name = c.col_name; ty = c.col_ty })
               columns))
    in
    ignore
      (wrap (fun () ->
           Catalog.create_relation (Engine.catalog s.eng) ~name:table ~schema));
    Done (Printf.sprintf "table %s created" table)
  | Ast.Create_index { index; table; columns; clustered } ->
    (match Catalog.find_relation (Engine.catalog s.eng) table with
     | None -> err "unknown table %s" table
     | Some rel ->
       with_ddl_lock s rel (fun () ->
           ignore
             (wrap (fun () ->
                  Catalog.create_index (Engine.catalog s.eng) ~name:index ~rel
                    ~columns ~clustered)));
       Done (Printf.sprintf "index %s created on %s" index table))
  | Ast.Insert { table; values } ->
    (match Catalog.find_relation (Engine.catalog s.eng) table with
     | None -> err "unknown table %s" table
     | Some rel ->
       let n =
         with_txn s (fun txn ->
             wrap (fun () ->
                 List.iter
                   (fun row -> dml_insert s txn rel (Rel.Tuple.make row))
                   values;
                 List.length values))
       in
       Done (Printf.sprintf "%d row%s inserted" n (if n = 1 then "" else "s")))
  | Ast.Delete { table; where } ->
    (match Catalog.find_relation (Engine.catalog s.eng) table with
     | None -> err "unknown table %s" table
     | Some rel ->
       let n =
         with_txn s (fun txn -> List.length (dml_delete_where s txn rel where))
       in
       Done (Printf.sprintf "%d row%s deleted" n (if n = 1 then "" else "s")))
  | Ast.Update { table; sets; where } ->
    (match Catalog.find_relation (Engine.catalog s.eng) table with
     | None -> err "unknown table %s" table
     | Some rel ->
       let n =
         with_txn s (fun txn -> wrap (fun () -> update_where s txn rel sets where))
       in
       Done (Printf.sprintf "%d row%s updated" n (if n = 1 then "" else "s")))
  | Ast.Drop_table table ->
    if s.active <> None then err "DROP TABLE inside a transaction is not supported";
    (match Catalog.find_relation (Engine.catalog s.eng) table with
     | None -> err "unknown table %s" table
     | Some rel ->
       with_ddl_lock s rel (fun () ->
           ignore (Catalog.drop_relation (Engine.catalog s.eng) table));
       Done (Printf.sprintf "table %s dropped" table))
  | Ast.Drop_index index ->
    (match Catalog.find_index (Engine.catalog s.eng) index with
     | None -> err "unknown index %s" index
     | Some idx ->
       with_ddl_lock s idx.Catalog.rel (fun () ->
           Catalog.drop_index (Engine.catalog s.eng) index);
       Done (Printf.sprintf "index %s dropped" index))
  | Ast.Update_statistics ->
    Catalog.update_statistics (Engine.catalog s.eng);
    Done "statistics updated"
  | Ast.Vacuum ->
    let n = Catalog.vacuum (Engine.catalog s.eng) (Engine.mvcc s.eng) in
    Done
      (Printf.sprintf "%d dead version%s reclaimed" n (if n = 1 then "" else "s"))
  | Ast.Set_parallelism n ->
    set_parallelism s n;
    Done (Printf.sprintf "parallelism set to %d" (parallelism s))
  | Ast.Set_histograms on ->
    set_histograms s on;
    Done (Printf.sprintf "histograms %s" (if on then "on" else "off"))
  | Ast.Set_plan_cache_size n ->
    Plan_cache.set_cap (Engine.plan_cache s.eng) n;
    Done
      (Printf.sprintf "plan cache size set to %d"
         (Plan_cache.cap (Engine.plan_cache s.eng)))
  | Ast.Set_commit_delay us ->
    Engine.set_commit_delay s.eng (float_of_int us *. 1e-6);
    Done (Printf.sprintf "commit delay set to %dus" us)
  | Ast.Set_group_commit on ->
    Engine.set_group_commit s.eng on;
    Done (Printf.sprintf "group commit %s" (if on then "on" else "off"))
  | Ast.Begin_transaction ->
    if s.active <> None then err "a transaction is already active";
    let txn = start_txn s ~explicit_txn:true in
    Done (Printf.sprintf "transaction %d started" txn.txn_id)
  | Ast.Commit ->
    let id = end_explicit s finish_commit in
    Done (Printf.sprintf "transaction %d committed" id)
  | Ast.Rollback ->
    let id = end_explicit s finish_abort in
    Done (Printf.sprintf "transaction %d rolled back" id)

let syntax_error msg off = err "syntax error at offset %d: %s" off msg

let parse_stmt sql =
  try Parser.parse_statement sql with Parser.Error (msg, off) -> syntax_error msg off

(* --- public entry points (each takes the engine step exactly once) ------- *)

(* The ack rule: if the engine step committed a transaction into the
   group-commit window, wait (outside the latch) until the leader's flush
   makes it durable before returning to the caller. A simulated crash
   propagates raw so the torture harness sees it; any other flush failure
   surfaces as a commit-uncertain error — the commit is visible and may yet
   be made durable by a successor leader, but this session cannot confirm
   it. *)
let sync_commit s =
  match s.pending_ack with
  | None -> ()
  | Some ticket ->
    s.pending_ack <- None;
    (try Engine.await_durable s.eng s.counters ticket with
     | Rss.Failpoint.Crash _ as e -> raise e
     | e ->
       err "commit not durable: flush failed (%s); the commit is visible and \
            will be retried by the next group flush" (Printexc.to_string e))

(* One statement as one engine step. Read-only statements (SELECT, EXPLAIN)
   run under the shared engine latch; everything else (DML, DDL, transaction
   control, SET, VACUUM, UPDATE STATISTICS) mutates engine state, takes it
   exclusively, and awaits its commit's durability after releasing it. *)
let step s (stmt : Ast.statement) =
  match stmt with
  | Ast.Select _ | Ast.Explain _ -> with_engine_read s (fun () -> exec_stmt s stmt)
  | _ ->
    let r = with_engine s (fun () -> exec_stmt s stmt) in
    sync_commit s;
    r

let exec s sql = step s (parse_stmt sql)

(* one engine step per statement: a long script does not starve concurrent
   sessions, and explicit transactions still hold their locks across
   statements (that is the lock table's job, not the latch's) *)
let exec_script s src =
  let stmts =
    try Parser.parse_script src with Parser.Error (msg, off) -> syntax_error msg off
  in
  List.map (step s) stmts

(* The text fast path serves an exact repeat of a memoized SELECT without
   parsing or fingerprinting; a stale entry (its invalidation counted by the
   probe) falls through to the parsed path, which re-optimizes and counts
   the miss — the same accounting as one {!exec}. Anything but a SELECT is
   rejected before it runs. *)
let query s sql =
  let cache = Engine.plan_cache s.eng in
  let fast =
    with_engine_read s (fun () ->
        match Plan_cache.text_entry cache sql with
        | None -> None
        | Some (key, values) ->
          (match probe ~count:true s (compose_key s key) with
           | Some r -> Some (run_observed s r ~params:(Array.of_list values))
           | None -> None))
  in
  match fast with
  | Some out -> out
  | None ->
    (match parse_stmt sql with
     | Ast.Select q -> with_engine_read s (fun () -> query_cached ~text:sql s q)
     | _ -> err "not a SELECT: %s" sql)

let cached_plan s sql =
  with_engine_read s (fun () ->
      let key =
        match Plan_cache.text_entry (Engine.plan_cache s.eng) sql with
        | Some (key, _) -> Some key
        | None ->
          let q =
            try Parser.parse_query sql
            with Parser.Error (msg, off) -> syntax_error msg off
          in
          Option.map (fun (key, _, _) -> key) (Normalize.fingerprint q)
      in
      Option.bind key (fun key -> probe ~count:false s (compose_key s key)))

let resolve s sql = with_engine_read s (fun () -> resolve_i s sql)
let optimize ?ctx s sql = with_engine_read s (fun () -> optimize_i ?ctx s sql)
let run_plan s r = with_engine_read s (fun () -> run_plan_i s r)
let explain s sql = Explain.plan (optimize s sql)
let update_statistics s =
  with_engine s (fun () -> Catalog.update_statistics (Engine.catalog s.eng))

(* --- session lifecycle ---------------------------------------------------- *)

(* Abort any in-flight transaction (explicit or a crashed implicit one),
   release its locks, and fold the session's counters into the engine-global
   record. A disconnected connection must never keep its locks. *)
let close s =
  if not s.closed then
    with_engine s (fun () ->
        (match s.active with
         | Some txn -> finish_abort s txn
         | None -> ());
        let base = Rss.Pager.base_counters (Engine.pager s.eng) in
        if s.counters != base then Rss.Counters.add s.counters ~into:base;
        s.eng.Engine.live_sessions <- s.eng.Engine.live_sessions - 1;
        s.closed <- true)

(* --- integrity & recovery ------------------------------------------------ *)

(* Heap/index consistency: every index entry resolves to a live tuple whose
   key matches, and every live tuple appears in every index on its relation
   exactly once. Counter-neutral (integrity checking is not a measured
   query). *)
let check_integrity s =
  with_engine s (fun () ->
      let cat = Engine.catalog s.eng in
      let c = Rss.Pager.counters (Engine.pager s.eng) in
      let snap = Rss.Counters.snapshot c in
      let check_index (rel : Catalog.relation) heap (idx : Catalog.index) =
        let entries = Rss.Btree.entries idx.Catalog.btree in
        let resolve_err =
          List.find_map
            (fun (key, tid) ->
              match Rss.Segment.fetch_unaccounted_v rel.Catalog.segment tid with
              | None ->
                Some
                  (Printf.sprintf "index %s: entry for dead TID %d.%d"
                     idx.Catalog.idx_name tid.Rss.Tid.page tid.Rss.Tid.slot)
              | Some (rid, tuple, _, _) ->
                if rid <> rel.Catalog.rel_id then
                  Some
                    (Printf.sprintf "index %s: TID %d.%d holds relation %d, not %d"
                       idx.Catalog.idx_name tid.Rss.Tid.page tid.Rss.Tid.slot rid
                       rel.Catalog.rel_id)
                else if
                  Rss.Btree.compare_key (Catalog.key_of idx tuple) key <> 0
                then
                  Some
                    (Printf.sprintf "index %s: key mismatch at TID %d.%d"
                       idx.Catalog.idx_name tid.Rss.Tid.page tid.Rss.Tid.slot)
                else None)
            entries
        in
        match resolve_err with
        | Some _ as e -> e
        | None ->
          let cmp (k1, t1) (k2, t2) =
            let d = Rss.Btree.compare_key k1 k2 in
            if d <> 0 then d else Rss.Tid.compare t1 t2
          in
          let expected =
            List.sort cmp
              (List.map (fun (tid, tup) -> (Catalog.key_of idx tup, tid)) heap)
          in
          let actual = List.sort cmp entries in
          if List.length expected <> List.length actual then
            Some
              (Printf.sprintf "index %s: %d entries for %d live tuples of %s"
                 idx.Catalog.idx_name (List.length actual) (List.length expected)
                 rel.Catalog.rel_name)
          else if not (List.for_all2 (fun a b -> cmp a b = 0) expected actual)
          then
            Some
              (Printf.sprintf "index %s: entry set differs from heap of %s"
                 idx.Catalog.idx_name rel.Catalog.rel_name)
          else None
      in
      let check_rel (rel : Catalog.relation) =
        (* every physical version, delete-marked included: a marked tuple
           keeps its index entries until VACUUM reclaims both together *)
        let heap =
          List.map (fun (tid, tup, _, _) -> (tid, tup)) (Catalog.scan_versions rel)
        in
        List.find_map (check_index rel heap) (Catalog.indexes_on cat rel)
      in
      let verdict = List.find_map check_rel (Catalog.relations cat) in
      Rss.Counters.restore c ~from:snap;
      match verdict with
      | None -> Stdlib.Ok ()
      | Some msg -> Stdlib.Error msg)

(* Crash recovery: replay the serialized WAL (Recovery.replay) into the list
   of surviving tuples, then reload them through the catalog so all indexes
   are rebuilt over the new TIDs (Recovery does not preserve TIDs).
   The reloaded state is re-logged as one committed checkpoint transaction so
   a later crash recovers through this one. Run with failpoints reset — a
   recovery is not itself a crash candidate. Embedded-only: replacing the
   lock table would orphan concurrent waiters, so never call this while
   other sessions are live. *)
let recover s bytes =
  with_engine s (fun () ->
      let eng = s.eng in
      let cat = Engine.catalog eng in
      let c = Rss.Pager.counters (Engine.pager eng) in
      let snap = Rss.Counters.snapshot c in
      let wal = Rss.Wal.of_bytes bytes in
      let result = Rss.Recovery.replay wal in
      s.active <- None;
      eng.Engine.locks <- Rss.Lock_table.create ();
      Plan_cache.clear eng.Engine.plan_cache;
      (* transaction ids stay unique across the crash *)
      let max_txn =
        List.fold_left
          (fun acc r ->
            match r with
            | Rss.Wal.Begin tx | Rss.Wal.Commit tx | Rss.Wal.Abort tx -> max acc tx
            | Rss.Wal.Insert { txn; _ } | Rss.Wal.Delete { txn; _ } -> max acc txn)
          0 (Rss.Wal.records wal)
      in
      eng.Engine.next_txn <- max eng.Engine.next_txn (max_txn + 1);
      Rss.Mvcc.reset (Engine.mvcc eng);
      (* wipe current contents physically — delete-marked versions included;
         the log alone defines the recovered state *)
      List.iter (Catalog.wipe_relation cat) (Catalog.relations cat);
      let rels = Catalog.relations cat in
      let checkpoint = Engine.fresh_txn_id eng in
      Rss.Wal.clear eng.Engine.wal;
      Rss.Wal.append eng.Engine.wal (Rss.Wal.Begin checkpoint);
      let restored = ref 0 in
      List.iter
        (fun (rel_id, tuple) ->
          match List.find_opt (fun r -> r.Catalog.rel_id = rel_id) rels with
          | None -> () (* logged relation no longer in the catalog *)
          | Some rel ->
            let tid = Catalog.insert_tuple cat rel tuple in
            Rss.Wal.append eng.Engine.wal
              (Rss.Wal.Insert { txn = checkpoint; rel_id; tid; tuple });
            incr restored)
        result.Rss.Recovery.survivors;
      Rss.Wal.append eng.Engine.wal (Rss.Wal.Commit checkpoint);
      (* the checkpoint must be durable: a crash right after recovery
         replays this log, not the one that produced it *)
      Rss.Wal.flush eng.Engine.wal;
      Engine.reset_group eng;
      Rss.Counters.restore c ~from:snap;
      !restored)

(* --- prepared statements ------------------------------------------------- *)

(* The paper's closing argument: compile once, run many. A prepared
   statement keeps its optimized plan outside the keyed cache but validates
   it the same way: the dependency versions captured at optimize time are
   checked before every execution (a handful of integer compares), and the
   plan silently re-optimizes when UPDATE STATISTICS, index DDL or another
   session's feedback correction moved a dependency — the wire protocol's
   Bind/Execute path re-parses only on that rare invalidation, never on the
   steady state. *)
type compiled = {
  c_result : Optimizer.result;
  c_params : int;
  c_deps : Plan_cache.deps;
  c_sig : string;
  c_gen : int;  (* revalidation re-optimizations since prepare *)
}

type prepared = {
  p_sql : string;
  mutable p_plan : compiled;
}

(* Resolve and optimize [sql] under the session's current settings,
   capturing what revalidation checks. *)
let compile s sql ~gen =
  let block = resolve_i s sql in
  let r = optimize_block s block in
  { c_result = r;
    c_params = Semant.param_count block;
    c_deps = Plan_cache.capture_deps r;
    c_sig = s.cache_sig;
    c_gen = gen }

let prepare s sql =
  with_engine_read s (fun () -> { p_sql = sql; p_plan = compile s sql ~gen:0 })

let prepared_param_count p = p.p_plan.c_params
let prepared_plan p = p.p_plan.c_result
let prepared_generation p = p.p_plan.c_gen

let execute_prepared s p bindings =
  let n = p.p_plan.c_params in
  if List.length bindings <> n then
    err "prepared statement takes %d parameter%s, %d given" n
      (if n = 1 then "" else "s")
      (List.length bindings);
  with_engine_read s (fun () ->
      let c = p.p_plan in
      if
        c.c_sig <> s.cache_sig
        || not (Plan_cache.deps_valid (Engine.catalog s.eng) c.c_deps)
      then p.p_plan <- compile s p.p_sql ~gen:(c.c_gen + 1);
      wrap (fun () ->
          Executor.run ~snap:(read_view s) ~params:(Array.of_list bindings)
            (Engine.catalog s.eng) p.p_plan.c_result))

let commit s =
  let id = with_engine s (fun () -> end_explicit s finish_commit) in
  sync_commit s;
  id
