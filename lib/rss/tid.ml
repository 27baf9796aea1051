type t = int

let slot_bits = 16
let slot_mask = (1 lsl slot_bits) - 1

let make ~page ~slot =
  if page < 0 || page > max_int lsr slot_bits || slot < 0 || slot > slot_mask then
    invalid_arg (Printf.sprintf "Tid.make: %d.%d out of range" page slot);
  (page lsl slot_bits) lor slot

let page t = t lsr slot_bits
let slot t = t land slot_mask
let compare = Int.compare
let equal = Int.equal
let pp ppf t = Format.fprintf ppf "%d.%d" (page t) (slot t)
