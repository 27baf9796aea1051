type txn = int

type record =
  | Begin of txn
  | Insert of { txn : txn; rel_id : int; tid : Tid.t; tuple : Rel.Tuple.t }
  | Delete of { txn : txn; rel_id : int; tid : Tid.t; tuple : Rel.Tuple.t }
  | Commit of txn
  | Abort of txn

(* The log is staged: [append] only buffers a record's encoding ([pending]);
   [flush] moves everything buffered to the durable image in one batch — the
   single durability boundary group commit amortizes. A batch whose flush
   failed stays in [flushing] and is retried (prepended) by the next flush,
   so a leader failure between append and durability loses nothing
   silently. Each stage is bytes plus a record count: the encoding is the
   log, and [records] decodes it on demand, so no decoded copy of the log
   stays resident.

   The mutex exists because a group-commit leader flushes *outside* the
   engine latch (so other sessions keep executing statements — and appending
   records — while the device sync is in flight). Appends and flushes of
   distinct batches may therefore overlap; at most one flush runs at a time
   (the engine's leader flag / per-commit latch enforces that). *)
type t = {
  m : Mutex.t;
  durable_buf : Buffer.t;               (* serialized durable image *)
  mutable flushing_bytes : string;      (* batch mid-flush *)
  mutable flushing_count : int;
  pending_buf : Buffer.t;               (* not yet flushed *)
  mutable pending_count : int;
  mutable bytes : int;                  (* all stages *)
  mutable last_flush : int;             (* byte size of the last flushed batch *)
  mutable flushes : int;
  mutable flush_hook : (unit -> unit) option;
}

let create () =
  { m = Mutex.create ();
    durable_buf = Buffer.create 256;
    flushing_bytes = "";
    flushing_count = 0;
    pending_buf = Buffer.create 256;
    pending_count = 0;
    bytes = 0;
    last_flush = 0;
    flushes = 0;
    flush_hook = None }

let add_int buf i = Buffer.add_int64_le buf (Int64.of_int i)

let encode r =
  let buf = Buffer.create 64 in
  (match r with
   | Begin tx ->
     Buffer.add_char buf 'B';
     add_int buf tx
   | Commit tx ->
     Buffer.add_char buf 'C';
     add_int buf tx
   | Abort tx ->
     Buffer.add_char buf 'A';
     add_int buf tx
   | Insert { txn; rel_id; tid; tuple } | Delete { txn; rel_id; tid; tuple } ->
     Buffer.add_char buf (match r with Insert _ -> 'I' | _ -> 'D');
     add_int buf txn;
     add_int buf rel_id;
     add_int buf (Tid.page tid);
     add_int buf (Tid.slot tid);
     Rel.Tuple.write buf tuple);
  Buffer.contents buf

let get_int b off = Int64.to_int (Bytes.get_int64_le b off), off + 8

let decode s off =
  let b = Bytes.unsafe_of_string s in
  if off >= String.length s then invalid_arg "Wal.decode: past end";
  let tag = Bytes.get b off in
  let off = off + 1 in
  match tag with
  | 'B' | 'C' | 'A' ->
    let tx, off = get_int b off in
    (match tag with
     | 'B' -> Begin tx, off
     | 'C' -> Commit tx, off
     | _ -> Abort tx, off)
  | 'I' | 'D' ->
    let txn, off = get_int b off in
    let rel_id, off = get_int b off in
    let page, off = get_int b off in
    let slot, off = get_int b off in
    let tuple, off = Rel.Tuple.read b off in
    let tid = Tid.make ~page ~slot in
    if tag = 'I' then Insert { txn; rel_id; tid; tuple }, off
    else Delete { txn; rel_id; tid; tuple }, off
  | c -> invalid_arg (Printf.sprintf "Wal.decode: bad tag %C" c)

let locked t f =
  Mutex.lock t.m;
  match f () with
  | v ->
    Mutex.unlock t.m;
    v
  | exception e ->
    Mutex.unlock t.m;
    raise e

let append t r =
  (* After a simulated crash the log device is gone: appends attempted by
     in-process unwind handlers (rollback, abort records) must not reach the
     surviving byte image a recovery will read. *)
  if not (Failpoint.halted ()) then begin
    locked t (fun () ->
        t.pending_count <- t.pending_count + 1;
        let enc = encode r in
        t.bytes <- t.bytes + String.length enc;
        Buffer.add_string t.pending_buf enc);
    (* A crash here leaves the record buffered only: nothing new reaches the
       device between flushes, so the torture harness treats wal.append
       crashes as losing every unflushed record and tearing nothing. *)
    Failpoint.hit "wal.append"
  end

let set_flush_hook t h = locked t (fun () -> t.flush_hook <- h)

let unflushed t =
  locked t (fun () -> t.pending_count + t.flushing_count)

let last_flush_size t = locked t (fun () -> t.last_flush)
let flushes t = locked t (fun () -> t.flushes)

let flush t =
  (* The device died with the crash: a flush attempted by unwind handlers
     must not retroactively make the lost batch durable. *)
  if not (Failpoint.halted ()) then begin
    let batch, hook =
      locked t (fun () ->
          (* Absorb pending into the in-flight batch. A previous failed flush
             leaves its batch in [flushing]; the retry covers it too. *)
          if Buffer.length t.pending_buf > 0 then begin
            t.flushing_count <- t.flushing_count + t.pending_count;
            t.flushing_bytes <- t.flushing_bytes ^ Buffer.contents t.pending_buf;
            t.pending_count <- 0;
            Buffer.clear t.pending_buf
          end;
          t.flushing_bytes, t.flush_hook)
    in
    if String.length batch > 0 then begin
      (* The hook stands in for the device sync (tests gate on it, benches
         sleep in it). It runs outside the mutex so concurrent appends — the
         next window's statements — proceed during the sync. If it raises,
         the batch stays in [flushing]: not durable, not lost. *)
      (match hook with Some f -> f () | None -> ());
      locked t (fun () ->
          Buffer.add_string t.durable_buf t.flushing_bytes;
          t.last_flush <- String.length t.flushing_bytes;
          t.flushing_count <- 0;
          t.flushing_bytes <- "";
          t.flushes <- t.flushes + 1);
      (* The site fires after the batch reached the device, so a crash here
         means "killed while the batch was being written": the harness derives
         torn images by truncating this batch at every byte offset. *)
      Failpoint.hit "wal.group_flush"
    end
  end

let clear t =
  locked t (fun () ->
      (* reset, not clear: the truncated log's capacity is released too *)
      Buffer.reset t.durable_buf;
      t.flushing_bytes <- "";
      t.flushing_count <- 0;
      Buffer.clear t.pending_buf;
      t.pending_count <- 0;
      t.bytes <- 0;
      t.last_flush <- 0)

(* Every record of [s], in order, stopping at the end or at the first record
   that does not decode (a torn tail). *)
let decode_all s =
  let rec go off acc =
    if off >= String.length s then List.rev acc
    else
      match decode s off with
      | r, next -> go next (r :: acc)
      | exception Invalid_argument _ -> List.rev acc
  in
  go 0 []

let records t =
  let stages =
    locked t (fun () ->
        [ Buffer.contents t.durable_buf; t.flushing_bytes;
          Buffer.contents t.pending_buf ])
  in
  List.concat_map decode_all stages

let byte_size t = locked t (fun () -> t.bytes)

let to_bytes t =
  Failpoint.hit "wal.to_bytes";
  (* Durable image only: records still buffered never reached the device. *)
  locked t (fun () -> Buffer.contents t.durable_buf)

let of_bytes s =
  (* Straight into the durable stage: these bytes *are* the device. The
     image keeps only whole records; a torn tail is dropped. The records
     decoded here to find the cut are not kept. *)
  let rec cut off =
    if off >= String.length s then off
    else
      match decode s off with
      | _, next -> cut next
      | exception Invalid_argument _ -> off
  in
  let valid = cut 0 in
  let t = create () in
  Buffer.add_substring t.durable_buf s 0 valid;
  t.bytes <- valid;
  t

let equal_record a b =
  match a, b with
  | Begin x, Begin y | Commit x, Commit y | Abort x, Abort y -> x = y
  | Insert x, Insert y ->
    x.txn = y.txn && x.rel_id = y.rel_id && Tid.equal x.tid y.tid
    && Rel.Tuple.equal x.tuple y.tuple
  | Delete x, Delete y ->
    x.txn = y.txn && x.rel_id = y.rel_id && Tid.equal x.tid y.tid
    && Rel.Tuple.equal x.tuple y.tuple
  | (Begin _ | Commit _ | Abort _ | Insert _ | Delete _), _ -> false

let pp_record ppf = function
  | Begin tx -> Format.fprintf ppf "BEGIN %d" tx
  | Commit tx -> Format.fprintf ppf "COMMIT %d" tx
  | Abort tx -> Format.fprintf ppf "ABORT %d" tx
  | Insert { txn; rel_id; tid; tuple } ->
    Format.fprintf ppf "INSERT txn=%d rel=%d tid=%a %a" txn rel_id Tid.pp tid
      Rel.Tuple.pp tuple
  | Delete { txn; rel_id; tid; tuple } ->
    Format.fprintf ppf "DELETE txn=%d rel=%d tid=%a %a" txn rel_id Tid.pp tid
      Rel.Tuple.pp tuple
