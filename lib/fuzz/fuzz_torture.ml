(* Crash-recovery torture: a generated multi-transaction workload is run
   against the engine once under Failpoint.count_only to enumerate every
   durability-relevant write it performs, then re-run once per enumerated
   crash point with that point armed. Each armed run dies mid-flight with
   Failpoint.Crash; the WAL bytes that survive the "power cut" are replayed
   into a fresh database (Database.recover) and the recovered state is
   compared against an independent oracle computed from the committed prefix
   of those same bytes. Appends only buffer; the durability boundary is
   Wal.flush (the "wal.group_flush" site, one flush per commit group), so a
   crash at wal.group_flush expands into a torn-tail sweep over the *batch*
   that was being written — truncated at every byte offset up to the batch
   size — while a crash at wal.append tears nothing (the record never left
   the buffer).

   Workloads are Fuzz_dml statements (INSERT, UPDATE — some with a SET the
   engine must reject — and DELETE, with =, range and BETWEEN predicates)
   plus VACUUM, in one of two shapes sharing one [sweep]:
   - single-session ([single]): statements run one at a time, and a
     rejected statement aborts its transaction; the clean pass also checks
     every statement's tag or error, and the live state, against
     Fuzz_dml.apply folded over the groups — an UPDATE that writes a wrong
     image but logs it consistently passes every log-based check;
   - multi-session ([multi]): interleaved transactions of several sessions
     of one engine under [Engine.set_group_hold], so explicit flush points
     form multi-commit batches; each crash image must also keep every
     *acknowledged* commit (its covering [Engine.flush_group] returned) —
     a torn batch may lose only commits whose ack was never released.

   The committed-prefix oracle shares only the WAL codec (property-tested
   in test_lock_wal) with the recovery path it audits: a naive replay of
   the Insert/Delete records of committed transactions, with none of
   Recovery's segment/page machinery. A divergence is a live state that
   differs from its log or reference semantics, a committed effect missing
   or an uncommitted one surviving recovery, a lost acknowledged commit,
   heap/index disagreement after recovery (Database.check_integrity), or an
   armed failpoint that did not fire on the re-run (a harness bug).

   Databases are built with a 2-page buffer pool (evictions) and a B-tree
   order override of 4 (splits), so tiny workloads reach the deep paths. *)

module F = Rss.Failpoint
module W = Rss.Wal

(* --- single-session workloads -------------------------------------------- *)

type group =
  | Auto of Fuzz_dml.t                       (* auto-commit statement *)
  | Txn of Fuzz_dml.t list * [ `Commit | `Rollback ]
  | Vac                                      (* VACUUM: reclaim dead versions *)

type workload = { scenario : Fuzz_gen.scenario; groups : group list }

let pick_table rng (s : Fuzz_gen.scenario) =
  Fuzz_gen.pick rng (Array.of_list s.Fuzz_gen.tables)

let gen_workload rng =
  let scenario = Fuzz_gen.gen_scenario rng in
  let stmt () = Fuzz_dml.gen rng (pick_table rng scenario) in
  let ngroups = 3 + Random.State.int rng 5 in
  let groups =
    List.init ngroups (fun _ ->
        if Random.State.int rng 6 = 0 then Vac
        else if Random.State.int rng 3 = 0 then Auto (stmt ())
        else begin
          let n = 1 + Random.State.int rng 3 in
          let dmls = List.init n (fun _ -> stmt ()) in
          let fin =
            if Random.State.int rng 4 = 0 then `Rollback else `Commit
          in
          Txn (dmls, fin)
        end)
  in
  { scenario; groups }

(* The workload as the statements it executes, one per entry, each with
   the DML statement it came from (None for BEGIN/COMMIT/ROLLBACK/VACUUM). *)
let statements (w : workload) =
  let dml d = (Fuzz_dml.statement d, Some d) and ctl s = (s, None) in
  List.concat_map
    (function
      | Auto d -> [ dml d ]
      | Vac -> [ ctl Ast.Vacuum ]
      | Txn (ds, fin) ->
        (ctl Ast.Begin_transaction :: List.map dml ds)
        @ [ ctl (match fin with `Commit -> Ast.Commit | `Rollback -> Ast.Rollback) ])
    w.groups

(* DDL + initial data + workload as a paste-ready script. *)
let reproducer (w : workload) =
  Fuzz_harness.ddl_script ~indexes:true w.scenario
  ^ Fuzz_harness.script (List.map fst (statements w))

(* The reference run: Fuzz_dml.apply folded over the groups — a
   transaction's statements see its own writes, only committed groups reach
   the final state, and a rejected statement changes nothing. Inside a
   transaction it aborts the whole transaction: the statements after it
   fail as "aborted", and its COMMIT commits nothing. Returns the final
   state and every DML statement's outcome, in order. *)
let reference (w : workload) =
  let step (s, outs, ok) d =
    if not ok then (s, Fuzz_dml.Rejected "is aborted" :: outs, false)
    else
      let s', o = Fuzz_dml.apply s d in
      (s', o :: outs, match o with Fuzz_dml.Rows _ -> true | Fuzz_dml.Rejected _ -> false)
  in
  let final, outs =
    List.fold_left
      (fun (s, outs) -> function
        | Auto d ->
          let s', outs, _ = step (s, outs, true) d in
          (s', outs)
        | Vac -> (s, outs)
        | Txn (ds, fin) ->
          let s', outs, ok = List.fold_left step (s, outs, true) ds in
          ((if ok && fin = `Commit then s' else s), outs))
      (w.scenario, []) w.groups
  in
  (final, List.rev outs)

(* --- database construction ----------------------------------------------- *)

(* A deliberately cramped instance: 2 buffer pages force evictions and
   order-4 B-trees force splits on workloads of a dozen rows. [data] is off
   for recovery targets — their contents come from the log, not the DDL. *)
let small_btrees f =
  Rss.Btree.set_order_override (Some 4);
  Fun.protect ~finally:(fun () -> Rss.Btree.set_order_override None) f

let build_db ~data (s : Fuzz_gen.scenario) =
  small_btrees (fun () ->
      let db = Database.create ~buffer_pages:2 () in
      ignore (Database.exec_script db (Fuzz_harness.ddl_script ~data s));
      db)

(* One statement at a time: a rejected statement aborts its transaction,
   whose later statements and COMMIT then fail; Failpoint.Crash propagates. Returns each DML
   statement with its command tag or error message. *)
let run_workload db w =
  List.filter_map
    (fun (stmt, d) ->
      let r =
        match Database.exec db (Ast.to_sql stmt) with
        | Database.Done tag -> Ok tag
        | Database.Rows _ | Database.Text _ -> Ok ""
        | exception Database.Error e -> Error e
      in
      Option.map (fun d -> (d, r)) d)
    (statements w)

(* --- the committed-prefix oracle ----------------------------------------- *)

let commits recs = List.filter_map (function W.Commit tx -> Some tx | _ -> None) recs

(* rel_id -> sorted multiset of rendered rows, by naive replay of the
   surviving bytes. Relations are identified by creation order, which the
   recovery target reproduces by running the same DDL. *)
let oracle_multisets bytes =
  let recs = W.records (W.of_bytes bytes) in
  let committed = commits recs in
  let is_committed tx = List.mem tx committed in
  let live = ref [] in
  List.iter
    (function
      | W.Insert { txn; rel_id; tid; tuple } when is_committed txn ->
        live := ((tid, rel_id), tuple) :: !live
      | W.Delete { txn; rel_id; tid; _ } when is_committed txn ->
        live := List.remove_assoc (tid, rel_id) !live
      | _ -> ())
    recs;
  let by_rel : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ((_, rel_id), tuple) ->
      let prev = Option.value (Hashtbl.find_opt by_rel rel_id) ~default:[] in
      Hashtbl.replace by_rel rel_id (Fuzz_harness.row_key tuple :: prev))
    !live;
  fun rel_id ->
    List.sort String.compare
      (Option.value (Hashtbl.find_opt by_rel rel_id) ~default:[])

let db_multiset db tname =
  match Catalog.find_relation (Database.catalog db) tname with
  | None -> []
  | Some rel ->
    let tuples =
      Cursor.drain
        (Rss.Scan.open_segment_scan rel.Catalog.segment
           ~rel_id:rel.Catalog.rel_id ())
    in
    List.sort String.compare
      (List.map Fuzz_harness.row_key tuples)

(* --- divergences --------------------------------------------------------- *)

type divergence = {
  t_site : string;      (* failpoint site; "clean" for the no-crash pass *)
  t_hit : int;          (* 1-based hit index the crash was armed at *)
  t_torn : int;         (* bytes torn off the final WAL record (0 = whole) *)
  t_table : string;     (* "" when not table-specific *)
  t_detail : string;
  t_expected : string list;
  t_actual : string list;
}

let divergence ?(table = "") ?(expected = []) ?(actual = []) ~site ~hit ~torn
    detail =
  { t_site = site; t_hit = hit; t_torn = torn; t_table = table;
    t_detail = detail; t_expected = expected; t_actual = actual }

let pp_divergence ppf d =
  Format.fprintf ppf
    "site=%s hit=%d torn=%d%s: %s@\nexpected: [%s]@\nactual:   [%s]"
    d.t_site d.t_hit d.t_torn
    (if d.t_table = "" then "" else " table=" ^ d.t_table)
    d.t_detail
    (String.concat "; " d.t_expected)
    (String.concat "; " d.t_actual)

(* The first table of [s] whose rows in [db] differ from [expected rel_id]. *)
let diff_tables (s : Fuzz_gen.scenario) db ~site ~hit ~torn ~detail expected =
  List.find_map
    (fun (rel_id, (t : Fuzz_gen.table)) ->
      let expected = expected rel_id in
      let actual = db_multiset db t.Fuzz_gen.tname in
      if expected = actual then None
      else
        Some
          (divergence ~table:t.Fuzz_gen.tname ~expected ~actual ~site ~hit
             ~torn detail))
    (List.mapi (fun i t -> (i, t)) s.Fuzz_gen.tables)

(* [db] against the committed state of [bytes]: heap and indexes in
   agreement, committed effects present, uncommitted effects absent. *)
let check_state ~what s db bytes ~site ~hit ~torn =
  match Database.check_integrity db with
  | Error msg ->
    Some (divergence ~site ~hit ~torn ("integrity after " ^ what ^ ": " ^ msg))
  | Ok () ->
    diff_tables s db ~site ~hit ~torn
      ~detail:(what ^ ": state differs from committed prefix")
      (oracle_multisets bytes)

let recover_fresh s bytes =
  let rdb = build_db ~data:false s in
  ignore (Database.recover rdb bytes);
  rdb

let check_recovery s bytes =
  check_state ~what:"recovery" s (recover_fresh s bytes) bytes

(* Save the final engine and load the image. The loaded database holds the
   committed state of [bytes], and so does a fresh engine recovered from
   the loaded database's own log: the load is logged. *)
let check_snapshot s db bytes =
  let ldb =
    small_btrees (fun () -> Snapshot.load ~buffer_pages:2 (Snapshot.save db))
  in
  let rdb = recover_fresh s (W.to_bytes (Database.wal ldb)) in
  List.find_map
    (fun (what, db) -> check_state ~what s db bytes ~site:"snapshot" ~hit:0 ~torn:0)
    [ ("snapshot load", ldb); ("recovery from the loaded log", rdb) ]

(* --- multi-session interleaved workloads --------------------------------- *)

(* Several sessions of ONE engine on ONE domain (the failpoint registry is
   single-domain-only), interleaved by an explicit deterministic item list —
   the same cooperative-scheduler shape as fuzz_mvcc. The engine runs under
   [Engine.set_group_hold]: commits enqueue without flushing, and each
   [S_flush] item closes the window with one [Engine.flush_group] — whose
   return value defines which commits were *acknowledged*. *)

type ms_item =
  | S_begin of int              (* session index *)
  | S_dml of int * Fuzz_dml.t
  | S_commit of int
  | S_rollback of int
  | S_flush                     (* the leader's window closes: one batch *)

type ms_workload = {
  ms_scenario : Fuzz_gen.scenario;
  nsessions : int;
  items : ms_item list;
}

let gen_ms_workload rng =
  let scenario = Fuzz_gen.gen_scenario rng in
  let nsessions = 2 + Random.State.int rng 2 in
  let streams =
    Array.init nsessions (fun i ->
        let ngroups = 1 + Random.State.int rng 3 in
        List.concat
          (List.init ngroups (fun _ ->
               let n = 1 + Random.State.int rng 3 in
               let dmls =
                 List.init n (fun _ ->
                     S_dml (i, Fuzz_dml.gen rng (pick_table rng scenario)))
               in
               let fin =
                 if Random.State.int rng 4 = 0 then S_rollback i else S_commit i
               in
               (S_begin i :: dmls) @ [ fin ])))
  in
  (* deterministic interleave; flush points close commit windows mid-run so
     batches of >1 commit form (and some commits die unflushed) *)
  let items = ref [] in
  let live () =
    Array.to_list
      (Array.mapi (fun i s -> (i, s)) streams)
    |> List.filter (fun (_, s) -> s <> [])
  in
  let rec weave () =
    match live () with
    | [] -> ()
    | choices ->
      let i, s = List.nth choices (Random.State.int rng (List.length choices)) in
      items := List.hd s :: !items;
      streams.(i) <- List.tl s;
      if Random.State.int rng 5 = 0 then items := S_flush :: !items;
      weave ()
  in
  weave ();
  { ms_scenario = scenario; nsessions; items = List.rev (S_flush :: !items) }

let ms_item_sql item =
  let line i stmt = Printf.sprintf "-- s%d\n%s" i (Fuzz_harness.script [ stmt ]) in
  match item with
  | S_begin i -> line i Ast.Begin_transaction
  | S_dml (i, d) -> line i (Fuzz_dml.statement d)
  | S_commit i -> line i Ast.Commit
  | S_rollback i -> line i Ast.Rollback
  | S_flush -> "-- group flush\n"

(* DDL + data + the interleaved history, annotated per session — not
   machine-replayable as one script, but paste-ready for a bug report. *)
let ms_reproducer (w : ms_workload) =
  Fuzz_harness.ddl_script ~indexes:true w.ms_scenario
  ^ String.concat "" (List.map ms_item_sql w.items)

(* Execute the history. Cross-session 2PL conflicts surface as immediate
   errors on an unlatched engine; the loser's transaction is rolled back and
   the rest of its stream skipped — any deterministic outcome is fine, since
   the oracle derives from what the WAL actually saw. Appends every
   acknowledged transaction id to [acked] as its covering flush returns, so
   a crash run keeps the acks released before the crash. *)
let run_ms db (w : ms_workload) ~(acked : int list ref) =
  let eng = Database.engine db in
  Engine.set_group_hold eng true;
  let counters = Rss.Pager.base_counters (Engine.pager eng) in
  let sessions = Array.init w.nsessions (fun _ -> Session.create eng) in
  let in_txn = Array.make w.nsessions false in
  let exec i sql =
    try ignore (Session.exec sessions.(i) sql)
    with Session.Error _ ->
      if in_txn.(i) then begin
        (try ignore (Session.exec sessions.(i) "ROLLBACK;")
         with Session.Error _ -> ());
        in_txn.(i) <- false
      end
  in
  let finish i sql =
    if in_txn.(i) then begin
      exec i sql;
      in_txn.(i) <- false
    end
  in
  List.iter
    (function
      | S_begin i ->
        exec i "BEGIN;";
        in_txn.(i) <- true
      | S_dml (i, d) -> if in_txn.(i) then exec i (Fuzz_dml.sql d)
      | S_commit i -> finish i "COMMIT;"
      | S_rollback i -> finish i "ROLLBACK;"
      | S_flush -> acked := !acked @ Engine.flush_group eng counters)
    w.items;
  (* final drain: commits after the last generated flush point *)
  acked := !acked @ Engine.flush_group eng counters

(* The group-commit ack rule, checked against one surviving image: every
   transaction whose commit was acknowledged before the crash must be in
   the image's committed set — a torn batch may lose only unacknowledged
   suffix commits. *)
let check_acked bytes ~acked ~site ~hit ~torn =
  let committed = commits (W.records (W.of_bytes bytes)) in
  List.find_opt (fun tx -> not (List.mem tx committed)) acked
  |> Option.map (fun tx ->
         divergence ~site ~hit ~torn
           ~expected:(List.map string_of_int acked)
           ~actual:(List.map string_of_int committed)
           (Printf.sprintf
              "acknowledged commit %d is missing from the surviving log" tx))

(* --- the sweep ------------------------------------------------------------ *)

(* A workload as the sweep drives it. [run db ~acked] executes it on a
   database built from [scenario], appending each acknowledged commit to
   [acked]. [clean db ~committed ~acked] is the extra check of the no-crash
   pass ([committed]: the workload's commits in the log); [image] the extra
   check of every surviving crash image. *)
type target = {
  scenario : Fuzz_gen.scenario;
  run : Database.t -> acked:int list ref -> unit;
  clean : Database.t -> committed:int list -> acked:int list -> divergence option;
  image :
    string -> acked:int list -> site:string -> hit:int -> torn:int ->
    divergence option;
}

let rows_multiset rows =
  List.sort String.compare
    (List.map (fun row -> Fuzz_harness.row_key (Array.of_list row)) rows)

(* The single-session clean pass also checks the counting run's statement
   outcomes and final state against [reference]. *)
let single (w : workload) =
  let final, expected = reference w in
  let outcomes = ref [] in
  let check_outcome ((d, actual), want) =
    if Fuzz_dml.agrees d want actual then None
    else
      Some
        (divergence ~table:(Fuzz_dml.table d) ~site:"clean" ~hit:0 ~torn:0
           ~expected:
             [ (match want with
                | Fuzz_dml.Rows n -> Fuzz_dml.tag d n
                | Fuzz_dml.Rejected msg -> "error: ..." ^ msg ^ "...") ]
           ~actual:[ (match actual with Ok tag -> tag | Error e -> "error: " ^ e) ]
           ("statement outcome differs from its reference semantics: "
           ^ String.trim (Fuzz_dml.sql d)))
  in
  { scenario = w.scenario;
    run = (fun db ~acked:_ -> outcomes := run_workload db w);
    clean =
      (fun db ~committed:_ ~acked:_ ->
        match List.find_map check_outcome (List.combine !outcomes expected) with
        | Some _ as d -> d
        | None ->
          diff_tables w.scenario db ~site:"clean" ~hit:0 ~torn:0
            ~detail:"live state differs from the statements' reference semantics"
            (fun rel_id -> rows_multiset (List.nth final.Fuzz_gen.tables rel_id).Fuzz_gen.rows));
    image = (fun _ ~acked:_ ~site:_ ~hit:_ ~torn:_ -> None) }

let multi (w : ms_workload) =
  { scenario = w.ms_scenario;
    run = (fun db ~acked -> run_ms db w ~acked);
    clean =
      (* with no crash every commit's flush returned: acked = committed *)
      (fun _ ~committed ~acked ->
        if List.sort compare acked = List.sort compare committed then None
        else
          Some
            (divergence ~site:"harness" ~hit:0 ~torn:0
               ~expected:(List.map string_of_int committed)
               ~actual:(List.map string_of_int acked)
               "clean run acked a different set than the log committed"));
    image = check_acked }

(* Maximal torn span of a crash at [site]: a crash during the flush tears
   the batch that was being written (the whole batch, down to nothing); a
   crash anywhere else leaves the device exactly at the last completed
   flush, so nothing tears. *)
let torn_span ~site db bytes =
  if site = "wal.group_flush" then
    min (W.last_flush_size (Database.wal db)) (String.length bytes)
  else 0

(* One armed run: build, arm, execute until the crash, capture the frozen
   log. Returns whether the crash fired, the serialized WAL, the torn sweep
   span and the commits acknowledged before the crash. *)
let crash_run (tg : target) ~site ~at =
  let db = build_db ~data:true tg.scenario in
  F.arm ~site ~at;
  let acked = ref [] in
  let fired = (try tg.run db ~acked; false with F.Crash _ -> true) in
  F.disarm ();
  let bytes = W.to_bytes (Database.wal db) in
  let torn = torn_span ~site db bytes in
  F.reset ();
  (fired, bytes, torn, !acked)

exception Found of divergence

(* Torture one workload: a counting pass enumerates crash points; the clean
   pass checks the live state against its own log and [tg.clean], and
   recovery from the full log; then a crash at every [crash_every]-th hit of
   every site (with the torn sweep for wal.group_flush crashes), each
   surviving image checked by [tg.image] and by recovery against the
   committed-prefix oracle. Returns the number of images checked, how many
   came from wal.group_flush crashes, and the first divergence. *)
let sweep ?(crash_every = 1) (tg : target) : int * int * divergence option =
  let points = ref 0 and flush_points = ref 0 in
  let check = function Some d -> raise (Found d) | None -> () in
  try
    let db = build_db ~data:true tg.scenario in
    (* the data load commits its own transactions before the workload runs *)
    let setup = commits (W.records (Database.wal db)) in
    F.count_only ();
    let acked = ref [] in
    tg.run db ~acked;
    F.disarm ();
    let counts = F.counts () in
    F.reset ();
    let bytes = W.to_bytes (Database.wal db) in
    check
      (diff_tables tg.scenario db ~site:"clean" ~hit:0 ~torn:0
         ~detail:"live state differs from its own log" (oracle_multisets bytes));
    let committed =
      List.filter (fun tx -> not (List.mem tx setup))
        (commits (W.records (W.of_bytes bytes)))
    in
    check (tg.clean db ~committed ~acked:!acked);
    check (check_recovery tg.scenario bytes ~site:"clean" ~hit:0 ~torn:0);
    check (check_snapshot tg.scenario db bytes);
    List.iter
      (fun (site, total) ->
        let k = ref 1 in
        while !k <= total do
          let fired, bytes, torn_max, acked = crash_run tg ~site ~at:!k in
          if not fired then
            raise
              (Found
                 (divergence ~site:"harness" ~hit:0 ~torn:0
                    (Printf.sprintf
                       "failpoint %s did not fire at hit %d on re-run \
                        (workload not deterministic?)"
                       site !k)));
          for j = 0 to torn_max do
            let surviving = String.sub bytes 0 (String.length bytes - j) in
            incr points;
            if site = "wal.group_flush" then incr flush_points;
            check (tg.image surviving ~acked ~site ~hit:!k ~torn:j);
            check (check_recovery tg.scenario surviving ~site ~hit:!k ~torn:j)
          done;
          k := !k + crash_every
        done)
      counts;
    (!points, !flush_points, None)
  with Found d -> (!points, !flush_points, Some d)

(* --- shrinking ----------------------------------------------------------- *)

let w_size (w : workload) =
  let group_weight = function
    | Auto d -> 100 + Fuzz_dml.size d
    | Vac -> 100
    | Txn (ds, _) -> List.fold_left (fun acc d -> acc + Fuzz_dml.size d) 105 ds
  in
  List.fold_left (fun acc g -> acc + group_weight g)
    (Fuzz_shrink.scenario_size w.scenario) w.groups

let w_candidates (w : workload) : workload list =
  let smaller = function
    | Vac -> []
    | Auto d -> List.map (fun d' -> Auto d') (Fuzz_dml.candidates d)
    | Txn (ds, fin) ->
      (match ds, fin with [ d ], `Commit -> [ Auto d ] | _ -> [])
      @ List.filter_map
          (function [] -> None | ds' -> Some (Txn (ds', fin)))
          (Fuzz_shrink.edits Fuzz_dml.candidates ds)
  in
  let touched =
    List.concat_map
      (function
        | Auto d -> [ Fuzz_dml.table d ]
        | Vac -> []
        | Txn (ds, _) -> List.map Fuzz_dml.table ds)
      w.groups
  in
  List.map (fun groups -> { w with groups }) (Fuzz_shrink.edits smaller w.groups)
  @ List.map
      (fun scenario -> { w with scenario })
      (Fuzz_shrink.scenario_candidates ~touched w.scenario)

let ms_size (w : ms_workload) =
  let item_weight = function
    | S_dml (_, d) -> Fuzz_dml.size d
    | S_begin _ | S_commit _ | S_rollback _ -> 2
    | S_flush -> 1
  in
  List.fold_left (fun acc it -> acc + item_weight it)
    (Fuzz_shrink.scenario_size w.ms_scenario) w.items

let ms_candidates (w : ms_workload) : ms_workload list =
  let session = function
    | S_begin j | S_dml (j, _) | S_commit j | S_rollback j -> Some j
    | S_flush -> None
  in
  (* drop the transaction the S_begin at [p] opens: its session's items up
     to and including the commit/rollback *)
  let drop_txn p i =
    let rec go q live = function
      | [] -> []
      | it :: rest when q >= p && live && session it = Some i ->
        go (q + 1) (match it with S_commit _ | S_rollback _ -> false | _ -> true) rest
      | it :: rest -> it :: go (q + 1) live rest
    in
    go 0 true w.items
  in
  let smaller = function
    | S_dml (i, d) -> List.map (fun d' -> S_dml (i, d')) (Fuzz_dml.candidates d)
    | S_begin _ | S_commit _ | S_rollback _ | S_flush -> []
  in
  let touched =
    List.filter_map (function S_dml (_, d) -> Some (Fuzz_dml.table d) | _ -> None) w.items
  in
  List.map
    (fun items -> { w with items })
    (List.concat
       (List.mapi (fun p it -> match it with S_begin i -> [ drop_txn p i ] | _ -> []) w.items)
    @ Fuzz_shrink.edits smaller w.items)
  @ List.map
      (fun ms_scenario -> { w with ms_scenario })
      (Fuzz_shrink.scenario_candidates ~touched w.ms_scenario)

(* Shrink a diverging workload: a candidate is kept when a full sweep over
   it still finds a divergence. *)
let shrink ?crash_every ~max_steps ~size ~candidates ~target w =
  Fuzz_shrink.shrink_generic ~size ~candidates
    ~still_failing:(fun c ->
      match sweep ?crash_every (target c) with _, _, Some _ -> true | _ -> false)
    ~max_steps w
