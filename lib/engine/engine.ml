(* The shared half of the former Database: one engine (catalog, buffer pool,
   WAL, lock table, plan cache, transaction-id fountain, MVCC status table)
   serving N sessions. Session-local state — the active transaction, SET
   overrides, prepared statements, per-session counters — lives in
   Session.t.

   Concurrency follows the buffer pool's latched-only-when-concurrent
   treatment from PR 6: embedded single-session use pays no synchronization
   at all (with_latch / with_read_latch are plain calls), and the
   wire-protocol server flips [set_latched true] for the lifetime of its
   listener. In latched mode the engine latch is a reader/writer latch:

   - statements that mutate engine state (DML, DDL, transaction control,
     SET, VACUUM) hold it exclusively, one at a time;
   - read-only statements (SELECT, EXPLAIN, prepared execution) hold it
     shared and run concurrently across sessions — their isolation comes
     from MVCC snapshots, not locks, so a reader is never Blocked by an
     uncommitted writer.

   Writer preference (readers admit only while no writer waits) keeps a
   stream of point reads from starving DML. 2PL still mediates write/write
   conflicts: a writer whose lock request is blocked waits on
   [locks_changed], releasing the write latch for the duration so the
   conflicting holder can commit, and every lock release broadcasts.

   The mutex only guards the latch state (readers/writer counts) and the
   condition variables; statement bodies run outside it. *)

type t = {
  cat : Catalog.t;
  wal : Rss.Wal.t;
  mutable locks : Rss.Lock_table.t;
  plan_cache : Plan_cache.t;
  mvcc : Rss.Mvcc.t;
  mutable next_txn : int;
  latch : Mutex.t;
  latch_changed : Condition.t;  (* reader/writer latch state transitions *)
  locks_changed : Condition.t;  (* some transaction released 2PL locks *)
  mutable readers : int;        (* sessions holding the latch shared *)
  mutable writer : bool;        (* a session holds the latch exclusively *)
  mutable writers_waiting : int;
  mutable latched : bool;
  mutable live_sessions : int;
  (* -- group commit: one WAL flush amortized across a commit window -- *)
  gc_m : Mutex.t;               (* guards gc_* below; taken after the latch *)
  gc_cond : Condition.t;        (* durability watermark / leadership changes *)
  mutable gc_next_ticket : int;
  mutable gc_queue : (int * int) list;    (* (ticket, txn), newest first *)
  mutable gc_inflight : (int * int) list; (* appended, not durable; oldest first *)
  mutable gc_durable : int;     (* highest ticket whose commit record is durable *)
  mutable gc_leader : bool;     (* a session is running the flush protocol *)
  mutable gc_enabled : bool;    (* off: every commit pays a private flush *)
  mutable gc_delay : float;     (* leader batching window, seconds *)
  mutable gc_hold : bool;       (* harness: defer all flushing to flush_group *)
  mutable gc_enqueued : int;
  mutable gc_flushes : int;
  mutable gc_grouped : int;     (* commits made durable by group flushes *)
  mutable gc_max_batch : int;
  (* -- blocked-transaction events: tests wait on these, never poll -- *)
  blocked_changed : Condition.t;
  mutable block_events : int;
}

let create ?buffer_pages () =
  let cat = Catalog.create ?buffer_pages () in
  let plan_cache = Plan_cache.create () in
  let pager = Catalog.pager cat in
  (* LRU evictions land in whatever counters record is active, so a server
     session's EXPLAIN attributes them to the session that caused them *)
  Plan_cache.set_evict_hook plan_cache (fun n ->
      let c = Rss.Pager.counters pager in
      c.Rss.Counters.plan_cache_evictions <-
        c.Rss.Counters.plan_cache_evictions + n);
  { cat;
    wal = Rss.Wal.create ();
    locks = Rss.Lock_table.create ();
    plan_cache;
    mvcc = Rss.Mvcc.create ();
    next_txn = 1;
    latch = Mutex.create ();
    latch_changed = Condition.create ();
    locks_changed = Condition.create ();
    readers = 0;
    writer = false;
    writers_waiting = 0;
    latched = false;
    live_sessions = 0;
    gc_m = Mutex.create ();
    gc_cond = Condition.create ();
    gc_next_ticket = 1;
    gc_queue = [];
    gc_inflight = [];
    gc_durable = 0;
    gc_leader = false;
    gc_enabled = true;
    gc_delay = 0.;
    gc_hold = false;
    gc_enqueued = 0;
    gc_flushes = 0;
    gc_grouped = 0;
    gc_max_batch = 0;
    blocked_changed = Condition.create ();
    block_events = 0 }

let catalog t = t.cat
let pager t = Catalog.pager t.cat
let wal t = t.wal
let plan_cache t = t.plan_cache
let mvcc t = t.mvcc

let set_latched t on =
  t.latched <- on;
  (* concurrent readers touch the buffer pool from several domains *)
  Rss.Pager.set_shared (pager t) on

let latched t = t.latched

(* Must be called with t.latch held. *)
let acquire_write_locked t =
  t.writers_waiting <- t.writers_waiting + 1;
  while t.writer || t.readers > 0 do
    Condition.wait t.latch_changed t.latch
  done;
  t.writers_waiting <- t.writers_waiting - 1;
  t.writer <- true

let release_write t =
  Mutex.lock t.latch;
  t.writer <- false;
  Condition.broadcast t.latch_changed;
  Mutex.unlock t.latch

let with_latch t f =
  if not t.latched then f ()
  else begin
    Mutex.lock t.latch;
    acquire_write_locked t;
    Mutex.unlock t.latch;
    Fun.protect ~finally:(fun () -> release_write t) f
  end

let with_read_latch t f =
  if not t.latched then f ()
  else begin
    Mutex.lock t.latch;
    (* writer preference: a waiting writer bars new readers *)
    while t.writer || t.writers_waiting > 0 do
      Condition.wait t.latch_changed t.latch
    done;
    t.readers <- t.readers + 1;
    Mutex.unlock t.latch;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock t.latch;
        t.readers <- t.readers - 1;
        if t.readers = 0 then Condition.broadcast t.latch_changed;
        Mutex.unlock t.latch)
      f
  end

(* Called from inside a [with_latch] (write) body whose 2PL lock request was
   Blocked: atomically surrender the write latch and sleep until some
   transaction releases locks, then re-acquire exclusivity. Holding the
   mutex across surrender-and-wait closes the lost-wakeup window — the lock
   holder needs the write latch to commit, which it cannot take until our
   broadcast, and its release broadcast needs this mutex. *)
let wait_locks t =
  if t.latched then begin
    Mutex.lock t.latch;
    t.writer <- false;
    Condition.broadcast t.latch_changed;
    Condition.wait t.locks_changed t.latch;
    acquire_write_locked t;
    Mutex.unlock t.latch
  end

let signal_locks t =
  if t.latched then begin
    Mutex.lock t.latch;
    Condition.broadcast t.locks_changed;
    Mutex.unlock t.latch
  end

let fresh_txn_id t =
  let id = t.next_txn in
  t.next_txn <- id + 1;
  id

(* --- group commit ---------------------------------------------------------

   Committing sessions enqueue their transaction under the engine write
   latch — so ticket order equals MVCC visibility order equals the order the
   leader appends commit records, which keeps prefix-durability sound: if a
   commit's ack was released, every commit it could depend on is in the same
   or an earlier durable batch. They then block in [await_durable] until a
   leader's flush covers their ticket. The first waiter with no leader in
   place becomes leader: it sleeps out the batching window (latch free, so
   later commits join), drains the queue, appends all commit records in
   enqueue order under the latch, and flushes outside it. If the leader's
   flush fails, leadership is released and a waiting follower takes over,
   retrying the still-buffered batch — a leader failure never strands
   followers. *)

let enqueue_commit t txn =
  Mutex.lock t.gc_m;
  let ticket = t.gc_next_ticket in
  t.gc_next_ticket <- ticket + 1;
  t.gc_queue <- (ticket, txn) :: t.gc_queue;
  t.gc_enqueued <- t.gc_enqueued + 1;
  Mutex.unlock t.gc_m;
  ticket

(* One leader pass: drain + append under the write latch (commit records
   interleave with DML appends in latch order), flush outside it so the next
   window's statements keep executing during the device sync. Returns the
   txns whose acks this flush released. The caller must hold leadership (or
   be the only live session). *)
let leader_step t (counters : Rss.Counters.t) =
  let batch =
    with_latch t (fun () ->
        Mutex.lock t.gc_m;
        let fresh = List.rev t.gc_queue in
        t.gc_queue <- [];
        Mutex.unlock t.gc_m;
        List.iter (fun (_, txn) -> Rss.Wal.append t.wal (Rss.Wal.Commit txn)) fresh;
        (* a previous leader's failed flush leaves its batch in inflight;
           this pass covers it too *)
        t.gc_inflight <- t.gc_inflight @ fresh;
        t.gc_inflight)
  in
  if batch = [] then []
  else begin
    Rss.Wal.flush t.wal;  (* may raise: the batch stays buffered, not durable *)
    counters.Rss.Counters.wal_flushes <- counters.Rss.Counters.wal_flushes + 1;
    Mutex.lock t.gc_m;
    t.gc_inflight <- [];
    t.gc_durable <- List.fold_left (fun a (k, _) -> max a k) t.gc_durable batch;
    t.gc_flushes <- t.gc_flushes + 1;
    let n = List.length batch in
    t.gc_grouped <- t.gc_grouped + n;
    if n > t.gc_max_batch then t.gc_max_batch <- n;
    Condition.broadcast t.gc_cond;
    Mutex.unlock t.gc_m;
    List.map snd batch
  end

let await_durable t counters ticket =
  (* After a simulated crash nothing more reaches the device; the unwind
     path must not flush on the dead machine's behalf. *)
  if not (Rss.Failpoint.halted ()) then begin
    if t.gc_hold then ()
    else if not t.latched then begin
      (* embedded single-session use: nobody else will flush; run the leader
         inline, no window *)
      if t.gc_durable < ticket then ignore (leader_step t counters)
    end
    else begin
      Mutex.lock t.gc_m;
      (* [loop] returns holding gc_m; every raising path (a failed leader
         pass) re-raises with gc_m already released, so no unlock guard. *)
      let rec loop () =
        if t.gc_durable >= ticket then ()
        else if t.gc_leader then begin
          Condition.wait t.gc_cond t.gc_m;
          loop ()
        end
        else begin
          t.gc_leader <- true;
          Mutex.unlock t.gc_m;
          let release_leadership () =
            Mutex.lock t.gc_m;
            t.gc_leader <- false;
            Condition.broadcast t.gc_cond;
            Mutex.unlock t.gc_m
          in
          (match
             (if t.gc_delay > 0. then Unix.sleepf t.gc_delay);
             leader_step t counters
           with
           | _ -> release_leadership ()
           | exception e ->
             release_leadership ();
             raise e);
          Mutex.lock t.gc_m;
          loop ()
        end
      in
      loop ();
      Mutex.unlock t.gc_m
    end
  end

let flush_group t counters = leader_step t counters

let set_group_hold t on =
  if t.latched then invalid_arg "Engine.set_group_hold: latched engine";
  t.gc_hold <- on

let set_group_commit t on = t.gc_enabled <- on
let group_commit_enabled t = t.gc_enabled
let set_commit_delay t s = t.gc_delay <- Float.max 0. s
let commit_delay t = t.gc_delay

type gc_stats = {
  enqueued : int;
  durable_ticket : int;
  flushes : int;
  grouped_commits : int;
  max_batch : int;
}

(* Readable while a leader is blocked inside the device sync: only gc_m is
   taken, never the engine latch. *)
let group_commit_stats t =
  Mutex.lock t.gc_m;
  let s =
    { enqueued = t.gc_enqueued;
      durable_ticket = t.gc_durable;
      flushes = t.gc_flushes;
      grouped_commits = t.gc_grouped;
      max_batch = t.gc_max_batch }
  in
  Mutex.unlock t.gc_m;
  s

(* Recovery replaced the lock table and WAL wholesale; whatever commit queue
   state the crash stranded is moot. *)
let reset_group t =
  Mutex.lock t.gc_m;
  t.gc_queue <- [];
  t.gc_inflight <- [];
  t.gc_durable <- t.gc_next_ticket - 1;
  t.gc_leader <- false;
  Condition.broadcast t.gc_cond;
  Mutex.unlock t.gc_m

(* --- blocked-transaction events ------------------------------------------

   A session whose 2PL request came back Blocked notes it here before
   sleeping on [locks_changed]. Tests that need "some transaction is now
   queued waiting" wait for the event counter to move instead of polling the
   lock table on a timer. *)

let note_blocked t =
  Mutex.lock t.latch;
  t.block_events <- t.block_events + 1;
  Condition.broadcast t.blocked_changed;
  Mutex.unlock t.latch

let block_epoch t =
  Mutex.lock t.latch;
  let v = t.block_events in
  Mutex.unlock t.latch;
  v

let await_block_epoch t epoch =
  Mutex.lock t.latch;
  while t.block_events <= epoch do
    Condition.wait t.blocked_changed t.latch
  done;
  Mutex.unlock t.latch
