(* Interleaved multi-session MVCC histories checked against a model oracle.

   A history is a scenario (schema + seed rows), one operation stream per
   session, and a schedule — the deterministic interleaving that says which
   session executes its next statement at each step. The engine stays
   UNLATCHED: both Session.t values live on one domain and the scheduler is
   the only source of concurrency, so a blocked 2PL request reports an
   immediate error instead of waiting (there is no second domain to release
   the lock) and every run is exactly reproducible from the seed.

   The oracle is a from-scratch model of snapshot isolation over value
   lists: versions carry (creator txn, creator CSN, deleter txn, deleter
   CSN), snapshots are CSN watermarks, and visibility is the same
   "creator committed at-or-before my snapshot (or is me), deleter did
   not" rule — but implemented with none of the engine's page, lock-table
   or status-table machinery. The model predicts, per statement:
   - SELECT: the exact visible multiset under the session's snapshot
     (the transaction's, or a fresh statement snapshot);
   - INSERT/UPDATE/DELETE (Fuzz_dml, with =, range and BETWEEN
     predicates): the row-count tag, or a write-write conflict — a visible
     victim whose xmax is already stamped by another transaction is either
     an immediate lock error (stamper still active) or a first-committer-
     wins serialization error (stamper committed after our snapshot).
     UPDATE stamps its victims like DELETE and inserts their new images; a
     SET the engine must reject fails with the predicted message and
     changes nothing;
   - VACUUM: the exact number of dead versions reclaimed under the
     horizon rule (CSN offsets between model and engine cancel — only
     relative order matters);
   - transaction-control misuse (BEGIN inside a txn, COMMIT outside):
     some error, no state change.

   A DML statement that fails (a conflict or a rejected SET) inside an
   explicit transaction aborts it in the model as in the engine: its
   effects are rolled back, every later statement of the block fails as
   "aborted", ROLLBACK ends the block and COMMIT ends it with an error. The
   streams go on after a failure, so some histories COMMIT an aborted
   transaction. After the schedule drains, [run] saves a snapshot and
   checks the loaded tables against the model's committed state, then rolls
   back every open or aborted block on both sides, audits every table
   against the model's committed state and the lock table for leftover
   entries, runs VACUUM (count checked), re-audits, and cross-checks
   heap/index integrity. An engine exception other than Session.Error is a
   divergence too, so it is shrunk and reported with a reproducer like any
   other. *)

module V = Rel.Value

type op =
  | Begin
  | Commit
  | Rollback
  | Dml of Fuzz_dml.t
  | Select of string * Ast.predicate option
  | Vacuum

type history = {
  scenario : Fuzz_gen.scenario;
  streams : op list array;
  schedule : int list;
}

(* --- generation --------------------------------------------------------- *)

let gen_stream rng (s : Fuzz_gen.scenario) =
  let tables = Array.of_list s.Fuzz_gen.tables in
  let pick () = tables.(Random.State.int rng (Array.length tables)) in
  let nops = 8 + Random.State.int rng 11 in
  let in_txn = ref false in
  let ops = ref [] in
  for _ = 1 to nops do
    let op =
      match Random.State.int rng 12 with
      | 0 | 1 when not !in_txn ->
        in_txn := true;
        Begin
      | 0 | 1 ->
        in_txn := false;
        if Random.State.int rng 3 = 0 then Rollback else Commit
      | 2 | 3 | 4 | 5 | 6 | 7 | 8 -> Dml (Fuzz_dml.gen rng (pick ()))
      | 9 when Random.State.int rng 2 = 0 -> Vacuum
      | _ ->
        let t = pick () in
        Select (t.Fuzz_gen.tname, Fuzz_dml.gen_where rng t)
    in
    ops := op :: !ops
  done;
  List.rev !ops

let gen_history rng =
  let scenario = Fuzz_gen.gen_scenario rng in
  let streams = Array.init 2 (fun _ -> gen_stream rng scenario) in
  let total = Array.fold_left (fun a s -> a + List.length s) 0 streams in
  let schedule = List.init total (fun _ -> Random.State.int rng 2) in
  { scenario; streams; schedule }

(* --- rendering ----------------------------------------------------------- *)

let op_sql op =
  Fuzz_harness.script
    [ (match op with
       | Begin -> Ast.Begin_transaction
       | Commit -> Ast.Commit
       | Rollback -> Ast.Rollback
       | Dml d -> Fuzz_dml.statement d
       | Select (t, where) ->
         Ast.Select
           { select = [ Ast.Star ]; from = [ (t, None) ]; where;
             group_by = []; order_by = [] }
       | Vacuum -> Ast.Vacuum) ]

(* DDL + seed data + the two streams with their interleaving, paste-ready
   modulo the schedule comment. *)
let reproducer (h : history) =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Fuzz_harness.ddl_script ~indexes:true h.scenario);
  Array.iteri
    (fun i ops ->
      Buffer.add_string b (Printf.sprintf "-- session %d:\n" i);
      List.iter (fun op -> Buffer.add_string b (op_sql op)) ops)
    h.streams;
  Buffer.add_string b
    ("-- schedule: "
    ^ String.concat "" (List.map string_of_int h.schedule)
    ^ "\n");
  Buffer.contents b

(* --- the model ----------------------------------------------------------- *)

type mver = {
  m_vals : V.t list;
  m_xmin : int;  (* model txn id; 0 = seed row *)
  mutable m_xmin_csn : int option;
  mutable m_xmax : int;  (* 0 = not deleted *)
  mutable m_xmax_csn : int option;
}

type mtxn = {
  mt_id : int;
  mt_snap : int;
  mutable mt_ins : mver list;
  mutable mt_del : mver list;
}

type model = {
  mutable m_csn : int;
  mutable m_next_txn : int;
  m_tables : (string, mver list ref) Hashtbl.t;
  m_schemas : (string, Fuzz_gen.column list) Hashtbl.t;
}

let model_of_scenario (s : Fuzz_gen.scenario) =
  let m =
    { m_csn = 0; m_next_txn = 0; m_tables = Hashtbl.create 8;
      m_schemas = Hashtbl.create 8 }
  in
  List.iter
    (fun (t : Fuzz_gen.table) ->
      Hashtbl.replace m.m_schemas t.Fuzz_gen.tname t.Fuzz_gen.cols;
      Hashtbl.replace m.m_tables t.Fuzz_gen.tname
        (ref
           (List.map
              (fun row ->
                { m_vals = row; m_xmin = 0; m_xmin_csn = Some 0; m_xmax = 0;
                  m_xmax_csn = None })
              t.Fuzz_gen.rows)))
    s.Fuzz_gen.tables;
  m

let fresh_mtxn m =
  m.m_next_txn <- m.m_next_txn + 1;
  { mt_id = m.m_next_txn; mt_snap = m.m_csn; mt_ins = []; mt_del = [] }

(* Snapshot visibility, the model's restatement of Mvcc.visible. *)
let m_visible ~self ~snap v =
  let ins_vis =
    (v.m_xmin <> 0 && v.m_xmin = self)
    || (match v.m_xmin_csn with Some c -> c <= snap | None -> false)
  in
  let del_vis =
    v.m_xmax <> 0
    && ((v.m_xmax = self)
        || (match v.m_xmax_csn with Some c -> c <= snap | None -> false))
  in
  ins_vis && not del_vis

let m_commit m (txn : mtxn) =
  m.m_csn <- m.m_csn + 1;
  let csn = m.m_csn in
  List.iter (fun v -> v.m_xmin_csn <- Some csn) txn.mt_ins;
  List.iter (fun v -> v.m_xmax_csn <- Some csn) txn.mt_del

let m_rollback m (txn : mtxn) =
  List.iter
    (fun v ->
      v.m_xmax <- 0;
      v.m_xmax_csn <- None)
    txn.mt_del;
  Hashtbl.iter
    (fun _ versions ->
      versions := List.filter (fun v -> v.m_xmin <> txn.mt_id) !versions)
    m.m_tables

(* VACUUM horizon: the oldest CSN an in-flight snapshot can still read.
   Reclaimable = deleter committed at-or-before it. Model and engine CSNs
   differ by a constant seeding offset, which cancels in the comparison. *)
let m_vacuum m ~active =
  let horizon =
    List.fold_left
      (fun acc (t : mtxn) -> min acc t.mt_snap)
      m.m_csn active
  in
  let reclaimed = ref 0 in
  Hashtbl.iter
    (fun _ versions ->
      versions :=
        List.filter
          (fun v ->
            match v.m_xmax_csn with
            | Some c when c <= horizon ->
              incr reclaimed;
              false
            | _ -> true)
          !versions)
    m.m_tables;
  !reclaimed

(* The sorted multiset of [tname]'s rows visible to ([self], [snap]) that
   satisfy [pred]. *)
let m_rows m tname ~self ~snap pred =
  let cols = Hashtbl.find m.m_schemas tname in
  List.sort String.compare
    (List.filter_map
       (fun v ->
         if m_visible ~self ~snap v && Fuzz_dml.holds cols pred v.m_vals then
           Some (Fuzz_harness.row_key (Array.of_list v.m_vals))
         else None)
       !(Hashtbl.find m.m_tables tname))

let vacuum_tag n =
  Printf.sprintf "%d dead version%s reclaimed" n (if n = 1 then "" else "s")

(* --- expectations -------------------------------------------------------- *)

type expected =
  | Ok_any  (* succeeds; tag not predicted (engine txn ids) *)
  | Ok_tag of string
  | Ok_rows of string list  (* sorted multiset *)
  | Conflict  (* fails with a lock or serialization error *)
  | Misuse  (* fails (txn-control misuse); no state change *)
  | Rejected of string  (* fails with this message *)

(* A session's transaction in the model: none, open, or aborted by a failed
   DML statement (already rolled back; the block refuses statements until
   COMMIT or ROLLBACK ends it). *)
type mstate = Idle | Open of mtxn | Aborted

(* Apply [op] for session [i] to the model and return what the engine must
   do. *)
let m_step m (state : mstate array) i op : expected =
  match op, state.(i) with
  | Commit, Aborted ->
    state.(i) <- Idle;
    Rejected "rolled back, not committed"
  | Rollback, Aborted ->
    state.(i) <- Idle;
    Ok_any
  | _, Aborted -> Rejected "is aborted"
  | Begin, Open _ | (Commit | Rollback), Idle -> Misuse
  | Begin, Idle ->
    state.(i) <- Open (fresh_mtxn m);
    Ok_any
  | Commit, Open txn ->
    m_commit m txn;
    state.(i) <- Idle;
    Ok_any
  | Rollback, Open txn ->
    m_rollback m txn;
    state.(i) <- Idle;
    Ok_any
  | Dml d, st ->
    let cols = Hashtbl.find m.m_schemas (Fuzz_dml.table d) in
    let versions = Hashtbl.find m.m_tables (Fuzz_dml.table d) in
    (* a failed statement aborts an explicit transaction; an implicit one
       leaves nothing behind *)
    let fail expected =
      (match st with
       | Open txn ->
         m_rollback m txn;
         state.(i) <- Aborted
       | Idle | Aborted -> ());
      expected
    in
    let insert txn rows =
      let vs =
        List.map
          (fun row ->
            { m_vals = row; m_xmin = txn.mt_id; m_xmin_csn = None;
              m_xmax = 0; m_xmax_csn = None })
          rows
      in
      versions := !versions @ vs;
      txn.mt_ins <- vs @ txn.mt_ins
    in
    (* DELETE and UPDATE stamp xmax on their visible victims (UPDATE then
       inserts their new images) *)
    let stamp txn where =
      let victims =
        List.filter
          (fun v ->
            m_visible ~self:txn.mt_id ~snap:txn.mt_snap v
            && Fuzz_dml.holds cols where v.m_vals)
          !versions
      in
      (* a visible victim with a stamped xmax is a write-write conflict:
         stamper active = lock error, stamper committed (necessarily after
         our snapshot, or it would be invisible) = serialization *)
      if List.exists (fun v -> v.m_xmax <> 0) victims then None
      else begin
        List.iter (fun v -> v.m_xmax <- txn.mt_id) victims;
        txn.mt_del <- victims @ txn.mt_del;
        Some victims
      end
    in
    let run txn =
      match d with
      | Fuzz_dml.Insert (_, rows) -> insert txn rows; Some (List.length rows)
      | Fuzz_dml.Delete (_, where) -> Option.map List.length (stamp txn where)
      | Fuzz_dml.Update (_, sets, where) ->
        Option.map
          (fun victims ->
            insert txn (List.map (fun v -> Fuzz_dml.image cols sets v.m_vals) victims);
            List.length victims)
          (stamp txn where)
    in
    (match d with
     | Fuzz_dml.Update (_, sets, _) when Fuzz_dml.rejection cols sets <> None ->
       fail (Rejected (Option.get (Fuzz_dml.rejection cols sets)))
     | _ ->
       (* the statement runs in the session's transaction or an implicit
          auto-committed one *)
       let txn, implicit =
         match st with Open txn -> (txn, false) | Idle | Aborted -> (fresh_mtxn m, true)
       in
       (match run txn with
        | None -> fail Conflict
        | Some n ->
          if implicit then m_commit m txn;
          Ok_tag (Fuzz_dml.tag d n)))
  | Select (tname, pred), Open txn ->
    Ok_rows (m_rows m tname ~self:txn.mt_id ~snap:txn.mt_snap pred)
  | Select (tname, pred), Idle -> Ok_rows (m_rows m tname ~self:0 ~snap:m.m_csn pred)
  | Vacuum, _ ->
    let active =
      List.filter_map (function Open t -> Some t | Idle | Aborted -> None)
        (Array.to_list state)
    in
    Ok_tag (vacuum_tag (m_vacuum m ~active))

(* --- driving the engine --------------------------------------------------- *)

type divergence = {
  v_step : int;  (* -1 for the post-schedule audit *)
  v_session : int;
  v_sql : string;
  v_detail : string;
  v_expected : string;
  v_actual : string;
}

exception Found of divergence

let run (h : history) : divergence option =
  let db = Database.create () in
  ignore (Database.exec_script db (Fuzz_harness.ddl_script ~indexes:true h.scenario));
  let eng = Database.engine db in
  let sessions = Array.init 2 (fun _ -> Session.create eng) in
  let model = model_of_scenario h.scenario in
  let state = [| Idle; Idle |] in
  let streams = Array.map (fun s -> ref s) h.streams in
  let diverge step i sql detail expected actual =
    raise
      (Found
         { v_step = step; v_session = i; v_sql = String.trim sql; v_detail = detail;
           v_expected = expected; v_actual = actual })
  in
  let exec_step step i op =
    let sql = op_sql op in
    let expected = m_step model state i op in
    let outcome =
      match Session.exec sessions.(i) sql with
      | r -> Ok r
      | exception Session.Error e -> Error e
      | exception e ->
        diverge step i sql "engine raised" "success or Session.Error"
          (Printexc.to_string e)
    in
    match expected, outcome with
    | (Ok_any | Ok_tag _ | Ok_rows _), Error e ->
      diverge step i sql "engine failed where the model succeeds" "success" e
    | (Conflict | Misuse | Rejected _), Ok _ ->
      diverge step i sql "engine succeeded where the model predicts an error"
        "error" "success"
    | Misuse, Error _ -> ()  (* no state change on either side *)
    | Rejected msg, Error e ->
      if not (Fuzz_harness.contains e msg) then
        diverge step i sql "rejection of an unexpected kind" msg e
    | Conflict, Error e ->
      if not (List.exists (Fuzz_harness.contains e) [ "locked"; "serialize"; "deadlock" ])
      then
        diverge step i sql "conflict error of an unexpected kind"
          "locked/serialize/deadlock" e
    | Ok_any, Ok _ -> ()
    | Ok_tag t, Ok (Session.Done t') ->
      if t <> t' then diverge step i sql "command tag differs" t t'
    | Ok_tag t, Ok _ ->
      diverge step i sql "expected a command tag" t "rows/text"
    | Ok_rows ms, Ok (Session.Rows out) ->
      let actual = Fuzz_harness.multiset out.Executor.rows in
      if actual <> ms then
        diverge step i sql "snapshot SELECT differs"
          (String.concat "; " ms)
          (String.concat "; " actual)
    | Ok_rows _, Ok _ -> diverge step i sql "expected rows" "rows" "tag/text"
  in
  let audit step phase =
    List.iter
      (fun (t : Fuzz_gen.table) ->
        let tname = t.Fuzz_gen.tname in
        let expected = m_rows model tname ~self:0 ~snap:model.m_csn None in
        let out = Database.query db ("SELECT * FROM " ^ tname) in
        let actual = Fuzz_harness.multiset out.Executor.rows in
        if actual <> expected then
          diverge step (-1)
            ("SELECT * FROM " ^ tname)
            (phase ^ ": committed state differs from model")
            (String.concat "; " expected)
            (String.concat "; " actual))
      h.scenario.Fuzz_gen.tables;
    (* no transaction is open here, so no lock may be held or awaited *)
    let live = Rss.Lock_table.length eng.Engine.locks in
    if live <> 0 then
      diverge step (-1) "(lock table)"
        (phase ^ ": lock entries outlive their transactions")
        "0 entries"
        (Printf.sprintf "%d entries" live);
    match Database.check_integrity db with
    | Ok () -> ()
    | Error msg ->
      diverge step (-1) "check_integrity" (phase ^ ": heap/index divergence")
        "consistent" msg
  in
  Fun.protect
    ~finally:(fun () -> Array.iter Session.close sessions)
    (fun () ->
      try
        let step = ref 0 in
        let take i =
          match !(streams.(i)) with
          | [] -> false
          | op :: rest ->
            streams.(i) := rest;
            exec_step !step i op;
            incr step;
            true
        in
        List.iter (fun i -> if not (take i) then ignore (take (1 - i))) h.schedule;
        (* drain anything the schedule did not cover *)
        while take 0 || take 1 do
          ()
        done;
        (* a snapshot saved while blocks are still open or aborted holds
           exactly what a statement snapshot sees *)
        let image = Snapshot.load (Snapshot.save db) in
        List.iter
          (fun (t : Fuzz_gen.table) ->
            let tname = t.Fuzz_gen.tname in
            let expected = m_rows model tname ~self:0 ~snap:model.m_csn None in
            let out = Database.query image ("SELECT * FROM " ^ tname) in
            let actual = Fuzz_harness.multiset out.Executor.rows in
            if actual <> expected then
              diverge !step (-1) "(snapshot)"
                ("snapshot of " ^ tname ^ " differs from the committed state")
                (String.concat "; " expected)
                (String.concat "; " actual))
          h.scenario.Fuzz_gen.tables;
        (* end of history: ROLLBACK every open or aborted block on both
           sides, then audit *)
        Array.iteri
          (fun i st -> if st <> Idle then exec_step !step i Rollback)
          (Array.copy state);
        audit (-1) "final";
        (* VACUUM with no snapshots live must reclaim every dead version —
           and must not change any visible result *)
        let want = vacuum_tag (m_vacuum model ~active:[]) in
        (match Database.exec db "VACUUM" with
         | Database.Done tag when tag = want -> ()
         | Database.Done tag ->
           diverge (-1) (-1) "VACUUM" "reclaim count differs" want tag
         | _ -> diverge (-1) (-1) "VACUUM" "expected Done" "Done" "other");
        audit (-1) "post-vacuum";
        None
      with
      | Found d -> Some d
      | e ->
        Some { v_step = -1; v_session = -1; v_sql = "(audit)"; v_detail = "engine raised";
               v_expected = "success or Session.Error"; v_actual = Printexc.to_string e })

(* --- shrinking ------------------------------------------------------------ *)

let h_size (h : history) =
  let op_weight = function Dml d -> 10 + Fuzz_dml.size d | _ -> 10 in
  Array.fold_left
    (fun acc s -> List.fold_left (fun acc op -> acc + op_weight op) acc s)
    0 h.streams
  + Fuzz_shrink.scenario_size h.scenario

(* Unbalanced streams are fine — the model treats txn-control misuse as an
   expected error — so candidates can drop ANY single op. *)
let h_candidates (h : history) =
  let smaller = function
    | Dml d -> List.map (fun d' -> Dml d') (Fuzz_dml.candidates d)
    | Begin | Commit | Rollback | Select _ | Vacuum -> []
  in
  let ops_cands =
    List.concat
      (List.mapi
         (fun si ops ->
           List.map
             (fun ops' ->
               let streams = Array.copy h.streams in
               streams.(si) <- ops';
               { h with streams })
             (Fuzz_shrink.edits smaller ops))
         (Array.to_list h.streams))
  in
  let touched =
    List.concat_map
      (List.filter_map (function
         | Dml d -> Some (Fuzz_dml.table d)
         | Select (t, _) -> Some t
         | Begin | Commit | Rollback | Vacuum -> None))
      (Array.to_list h.streams)
  in
  ops_cands
  @ List.map
      (fun scenario -> { h with scenario })
      (Fuzz_shrink.scenario_candidates ~touched h.scenario)

let shrink ~max_steps (h : history) =
  Fuzz_shrink.shrink_generic ~size:h_size ~candidates:h_candidates
    ~still_failing:(fun c -> run c <> None)
    ~max_steps h
