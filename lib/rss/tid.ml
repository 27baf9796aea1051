type t = {
  page : int;
  slot : int;
}

let compare a b =
  let d = Int.compare a.page b.page in
  if d <> 0 then d else Int.compare a.slot b.slot

let equal a b = compare a b = 0

let pp ppf t = Format.fprintf ppf "%d.%d" t.page t.slot

let slot_bits = 16

let pack t =
  if t.page < 0 || t.page > max_int lsr slot_bits || t.slot < 0
     || t.slot >= 1 lsl slot_bits
  then
    invalid_arg (Printf.sprintf "Tid.pack: %d.%d out of range" t.page t.slot);
  (t.page lsl slot_bits) lor t.slot

let unpack p = { page = p lsr slot_bits; slot = p land ((1 lsl slot_bits) - 1) }
