let size = 4096

(* Each record costs a 4-byte slot entry (offset + length in a real on-disk
   layout) plus a 4-byte relation tag alongside the tuple bytes. We track the
   byte budget exactly but keep decoded slots in memory for speed; the
   serialized form is what [used_bytes] accounts for. *)
let slot_overhead = 8

(* (xmin, xmax) are the creating and delete-marking transaction ids of the
   version stored in the slot; xmin = 0 means frozen (committed before every
   snapshot), xmax = 0 means not deleted. A delete under MVCC only stamps
   xmax — the slot stays physically live until VACUUM reclaims it. *)
type slot =
  | Live of {
      rel_id : int;
      bytes : int;
      tuple : Rel.Tuple.t;
      mutable xmin : int;
      mutable xmax : int;
    }
  | Dead

type t = {
  id : int;
  mutable slots : slot array;
  mutable nslots : int;
  mutable used : int;
}

let header_bytes = 16

let create ~id = { id; slots = Array.make 8 Dead; nslots = 0; used = header_bytes }

let id t = t.id

let free_space t = size - t.used - slot_overhead

let record_bytes tup = Rel.Tuple.serialized_size tup + slot_overhead

let grow t =
  if t.nslots = Array.length t.slots then begin
    let bigger = Array.make (2 * Array.length t.slots) Dead in
    Array.blit t.slots 0 bigger 0 t.nslots;
    t.slots <- bigger
  end

let insert t ?(xmin = 0) ~rel_id tuple =
  let bytes = Rel.Tuple.serialized_size tuple in
  if bytes + slot_overhead > size - header_bytes then
    invalid_arg "Page.insert: tuple larger than a page";
  if t.used + bytes + slot_overhead > size then None
  else begin
    grow t;
    let slot = t.nslots in
    t.slots.(slot) <- Live { rel_id; bytes; tuple; xmin; xmax = 0 };
    t.nslots <- slot + 1;
    t.used <- t.used + bytes + slot_overhead;
    Some slot
  end

let check_slot t slot =
  if slot < 0 || slot >= t.nslots then
    invalid_arg (Printf.sprintf "Page: slot %d out of range (page %d)" slot t.id)

let get_v t ~slot =
  check_slot t slot;
  match t.slots.(slot) with
  | Live { rel_id; tuple; xmin; xmax; _ } -> Some (rel_id, tuple, xmin, xmax)
  | Dead -> None

let set_xmax t ~slot xid =
  check_slot t slot;
  match t.slots.(slot) with
  | Live s -> s.xmax <- xid
  | Dead ->
    invalid_arg
      (Printf.sprintf "Page.set_xmax: slot %d is dead (page %d)" slot t.id)

let set_xmin t ~slot xid =
  check_slot t slot;
  match t.slots.(slot) with
  | Live s -> s.xmin <- xid
  | Dead ->
    invalid_arg
      (Printf.sprintf "Page.set_xmin: slot %d is dead (page %d)" slot t.id)

let delete t ~slot =
  check_slot t slot;
  match t.slots.(slot) with
  | Live { bytes; _ } ->
    t.slots.(slot) <- Dead;
    t.used <- t.used - bytes;
    true
  | Dead -> false

let slots t = t.nslots

(* Default visibility (no snapshot): versions not delete-marked. Reproduces
   pre-MVCC behavior for statistics and single-session embedded use. *)
let live_tuples t =
  let acc = ref [] in
  for i = t.nslots - 1 downto 0 do
    match t.slots.(i) with
    | Live { rel_id; tuple; xmax = 0; _ } -> acc := (i, rel_id, tuple) :: !acc
    | Live _ | Dead -> ()
  done;
  !acc

(* Every physically live version, delete-marked or not: scans apply their
   own snapshot, VACUUM and index builds need the full chain. *)
let versions t =
  let acc = ref [] in
  for i = t.nslots - 1 downto 0 do
    match t.slots.(i) with
    | Live { rel_id; tuple; xmin; xmax; _ } ->
      acc := (i, rel_id, tuple, xmin, xmax) :: !acc
    | Dead -> ()
  done;
  !acc

let is_empty t =
  let rec go i = i >= t.nslots || (match t.slots.(i) with Dead -> go (i + 1) | Live _ -> false) in
  go 0

let used_bytes t = t.used
