(* Transaction status and snapshot visibility for tuple versioning.

   Every tuple carries (xmin, xmax): the txn that created it and the txn
   that delete-marked it (0 = never deleted / frozen creator). Commits are
   stamped with a commit sequence number (CSN) drawn from a monotonic
   counter; a snapshot is just the highest CSN committed at acquisition
   time plus the reader's own txn id. A version is visible when its
   creator committed at-or-before the snapshot (or is the reader itself)
   and its deleter did not.

   Mutating entry points (begin/commit/abort/prune) are called with the
   engine write latch held, so the status table sees one writer at a
   time. Readers holding only the shared latch probe [status] while no
   writer runs, which is what makes the plain Hashtbl safe: the engine's
   reader/writer latch is the synchronization, not this module. *)

type status =
  | Active of int  (* snapshot CSN the txn started with (VACUUM horizon) *)
  | Committed of int  (* CSN *)

type t = {
  status : (int, status) Hashtbl.t;
  mutable last_csn : int;  (* highest CSN ever assigned *)
}

type snapshot = {
  csn : int;  (* versions committed at-or-before this CSN are in the past *)
  txn : int;  (* reader's own txn id; 0 = plain statement snapshot *)
}

let create () = { status = Hashtbl.create 64; last_csn = 0 }

let reset t =
  Hashtbl.reset t.status;
  t.last_csn <- 0

let begin_txn t txn =
  Hashtbl.replace t.status txn (Active t.last_csn)

let commit t txn =
  t.last_csn <- t.last_csn + 1;
  Hashtbl.replace t.status txn (Committed t.last_csn);
  t.last_csn

let abort t txn = Hashtbl.remove t.status txn
(* aborted txns leave no heap references (undo is physical), so no
   tombstone status is needed: an unknown xid reads as aborted *)

let snapshot t ~txn = { csn = t.last_csn; txn }

let statement_snapshot t = { csn = t.last_csn; txn = 0 }

(* The oldest CSN any in-flight transaction's snapshot can still read.
   Versions whose deleter committed at-or-before this horizon are invisible
   to every present and future snapshot, hence reclaimable. *)
let horizon t =
  Hashtbl.fold
    (fun _ s acc -> match s with Active c -> min c acc | _ -> acc)
    t.status t.last_csn

(* Did [xid]'s transaction commit at-or-before the snapshot? *)
let committed_before t snap xid =
  xid = 0
  ||
  match Hashtbl.find_opt t.status xid with
  | Some (Committed c) -> c <= snap.csn
  | Some (Active _) | None -> false

let committed t xid =
  xid = 0
  ||
  match Hashtbl.find_opt t.status xid with
  | Some (Committed _) -> true
  | Some (Active _) | None -> false

(* Commit CSN of [xid], if committed. *)
let commit_csn t xid =
  if xid = 0 then Some 0
  else
    match Hashtbl.find_opt t.status xid with
    | Some (Committed c) -> Some c
    | Some (Active _) | None -> None

let visible t snap ~xmin ~xmax =
  (xmin = snap.txn || committed_before t snap xmin)
  && not (xmax <> 0 && (xmax = snap.txn || committed_before t snap xmax))

(* Drop Committed entries at-or-before [horizon] once VACUUM has frozen or
   reclaimed every tuple referencing them. *)
let prune t ~horizon =
  let stale =
    Hashtbl.fold
      (fun xid s acc ->
        match s with Committed c when c <= horizon -> xid :: acc | _ -> acc)
      t.status []
  in
  List.iter (Hashtbl.remove t.status) stale

(* A read view packages the status table with a snapshot so the executor
   can carry one value through scans. *)
type view = { m : t; snap : snapshot }

let view t snap = { m = t; snap }

let view_visible v ~xmin ~xmax = visible v.m v.snap ~xmin ~xmax
