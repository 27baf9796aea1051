(* Transaction status and snapshot visibility for tuple versioning.

   Every tuple carries (xmin, xmax): the txn that created it and the txn
   that delete-marked it (0 = never deleted / frozen creator). Commits are
   stamped with a commit sequence number (CSN) drawn from a monotonic
   counter; a snapshot is just the highest CSN committed at acquisition
   time plus the reader's own txn id. A version is visible when its
   creator committed at-or-before the snapshot (or is the reader itself)
   and its deleter did not.

   Mutating entry points (begin/commit/abort/prune/reset) are called with
   the engine write latch held, so the status table sees one writer at a
   time. Readers holding only the shared latch probe [status] while no
   writer runs, which is what makes the plain array safe (a relocation
   swaps it only under the write latch): the engine's reader/writer latch
   is the synchronization, not this module. *)

(* The status table is a dense int array indexed by [xid - base]:
     c > 0   committed with commit sequence number c
     c < 0   active; [lnot c] is the CSN its snapshot started from
     0       unknown: never begun, aborted, or pruned by VACUUM
   Transaction ids come from one counter, so the ids that still matter form
   a dense range and a visibility check is one bounds test and one load
   (8 bytes per xid, where a [Hashtbl] entry costs about 48). Ids outside
   [base, base + length) read as 0. The active transactions are also kept
   in a small side table, which is all [horizon] walks. *)
type t = {
  mutable status : int array;
  mutable base : int;  (* xid of [status.(0)] *)
  active : int Int_table.t;  (* active xid -> its snapshot floor CSN *)
  mutable last_csn : int;  (* highest CSN ever assigned *)
}

type snapshot = {
  csn : int;  (* versions committed at-or-before this CSN are in the past *)
  txn : int;  (* reader's own txn id; 0 = plain statement snapshot *)
}

let create () =
  { status = [||]; base = 0; active = Int_table.create 16; last_csn = 0 }

(* Recovery restarts the table: the next xid registered becomes the base,
   so no zero-filled prefix for the pre-crash ids is kept. *)
let reset t =
  t.status <- [||];
  t.base <- 0;
  Int_table.reset t.active;
  t.last_csn <- 0

let status t xid =
  let i = xid - t.base in
  if i >= 0 && i < Array.length t.status then Array.unsafe_get t.status i
  else 0

(* Index of the first non-zero entry of [a], or its length. *)
let first_live a =
  let i = ref 0 in
  while !i < Array.length a && a.(!i) = 0 do incr i done;
  !i

(* Make room for [xid]: move the live span (first to last non-zero entry)
   and [xid] into an array twice their extent, so fresh ids cost amortized
   O(1) and a pruned prefix is dropped. *)
let relocate t xid =
  let a = t.status in
  let lo = first_live a and hi = ref (Array.length a) in
  while !hi > lo && a.(!hi - 1) = 0 do decr hi done;
  let first, last =
    if lo = !hi then (xid, xid)
    else (min xid (t.base + lo), max xid (t.base + !hi - 1))
  in
  let fresh = Array.make (max 64 (2 * (last - first + 1))) 0 in
  if !hi > lo then Array.blit a lo fresh (t.base + lo - first) (!hi - lo);
  t.status <- fresh;
  t.base <- first

let set t xid c =
  let i = xid - t.base in
  if i < 0 || i >= Array.length t.status then relocate t xid;
  t.status.(xid - t.base) <- c

let begin_txn t txn =
  set t txn (lnot t.last_csn);
  Int_table.replace t.active txn t.last_csn

let commit t txn =
  t.last_csn <- t.last_csn + 1;
  set t txn t.last_csn;
  Int_table.remove t.active txn;
  t.last_csn

(* aborted txns leave no heap references (undo is physical), so no
   tombstone status is needed: an unknown xid reads as aborted *)
let abort t txn =
  if status t txn <> 0 then t.status.(txn - t.base) <- 0;
  Int_table.remove t.active txn

let snapshot t ~txn = { csn = t.last_csn; txn }

let statement_snapshot t = { csn = t.last_csn; txn = 0 }

(* The oldest CSN any in-flight transaction's snapshot can still read.
   Versions whose deleter committed at-or-before this horizon are invisible
   to every present and future snapshot, hence reclaimable. *)
let horizon t = Int_table.fold (fun _ floor acc -> min floor acc) t.active t.last_csn

(* Did [xid]'s transaction commit at-or-before the snapshot? *)
let committed_before t snap xid =
  xid = 0
  ||
  let c = status t xid in
  c > 0 && c <= snap.csn

let committed t xid = xid = 0 || status t xid > 0

(* Commit CSN of [xid], if committed. *)
let commit_csn t xid =
  if xid = 0 then Some 0
  else
    let c = status t xid in
    if c > 0 then Some c else None

let visible t snap ~xmin ~xmax =
  (xmin = snap.txn || committed_before t snap xmin)
  && not (xmax <> 0 && (xmax = snap.txn || committed_before t snap xmax))

(* Zero Committed entries at-or-before [horizon] once VACUUM has frozen or
   reclaimed every tuple referencing them, then advance the base past the
   zeroed prefix. *)
let prune t ~horizon =
  let a = t.status in
  let n = Array.length a in
  Array.iteri (fun i c -> if c > 0 && c <= horizon then a.(i) <- 0) a;
  let lo = first_live a in
  Array.blit a lo a 0 (n - lo);
  Array.fill a (n - lo) lo 0;
  t.base <- t.base + lo

(* A read view packages the status table with a snapshot so the executor
   can carry one value through scans. *)
type view = { m : t; snap : snapshot }

let view t snap = { m = t; snap }

let view_visible v ~xmin ~xmax = visible v.m v.snap ~xmin ~xmax
