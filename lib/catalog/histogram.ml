(* Equi-depth histogram over one column's values, plus the distinct count and
   NULL fraction — the per-column statistics UPDATE STATISTICS collects so the
   optimizer can estimate selectivities from the data distribution instead of
   TABLE 1's value-independent constants.

   Buckets partition the sorted non-NULL values into runs of roughly equal row
   count. A boundary never splits a value: every occurrence of one value lives
   in exactly one bucket, so the per-value depth rows/distinct of its bucket is
   an unbiased equality estimate under the uniform-within-bucket assumption.

   All estimators reduce to two cumulative counts — the estimated number of
   non-NULL rows strictly below / at-or-below a probe value — so equality,
   open ranges and BETWEEN are mutually consistent and each is monotone in the
   probe value (cum_le(v) = cum_lt(v) + per-value depth when v lands inside a
   bucket). Within a numeric bucket the mass below the probe is linearly
   interpolated between the bucket bounds; string buckets fall back to the
   half-bucket midpoint (comparisons on strings have no distance metric).
   Fractions are of ALL rows including NULLs, so the NULL-fraction discount is
   built into every comparison estimate (NULL satisfies no comparison). *)

type bucket = {
  b_lo : Rel.Value.t;   (* smallest value in the bucket (inclusive) *)
  b_hi : Rel.Value.t;   (* largest value in the bucket (inclusive) *)
  b_rows : int;         (* rows whose value falls in [b_lo, b_hi] *)
  b_distinct : int;     (* distinct values among them *)
}

type t = {
  rows : int;           (* total rows, NULLs included *)
  nulls : int;
  distinct : int;       (* distinct non-NULL values *)
  buckets : bucket array;
}

let default_buckets = 32

let rows t = t.rows
let distinct t = t.distinct
let null_fraction t =
  if t.rows = 0 then 0. else float_of_int t.nulls /. float_of_int t.rows

let build ?(max_buckets = default_buckets) a =
  (* NULL sorts below every value, so after the sort the NULLs are a prefix
     and the non-NULL values follow it in order. *)
  Array.stable_sort Rel.Value.compare a;
  let len = Array.length a in
  let nulls =
    let rec count i = if i < len && Rel.Value.is_null a.(i) then count (i + 1) else i in
    count 0
  in
  let n = len - nulls in
  if n = 0 then { rows = nulls; nulls; distinct = 0; buckets = [||] }
  else begin
    let depth = max 1 ((n + max_buckets - 1) / max_buckets) in
    let buckets = ref [] in
    let total_distinct = ref 0 in
    let i = ref nulls in
    while !i < len do
      let start = !i in
      let distinct = ref 1 in
      let j = ref (start + 1) in
      (* extend to the target depth, counting value changes as we go *)
      while !j < len && !j - start < depth do
        if Rel.Value.compare a.(!j) a.(!j - 1) <> 0 then incr distinct;
        incr j
      done;
      (* never split a value across buckets: absorb the rest of its run *)
      while !j < len && Rel.Value.compare a.(!j) a.(!j - 1) = 0 do
        incr j
      done;
      buckets :=
        { b_lo = a.(start); b_hi = a.(!j - 1); b_rows = !j - start;
          b_distinct = !distinct }
        :: !buckets;
      total_distinct := !total_distinct + !distinct;
      i := !j
    done;
    { rows = len;
      nulls;
      distinct = !total_distinct;
      buckets = Array.of_list (List.rev !buckets) }
  end

(* Fraction of a bucket's rows strictly below [v], for v inside [b_lo, b_hi].
   The depth of one value (rows/distinct) is excluded from the interpolated
   mass so that cum_lt(b_hi) + depth = b_rows exactly. *)
let below_within (b : bucket) v =
  let per_value = float_of_int b.b_rows /. float_of_int (max 1 b.b_distinct) in
  let spread = float_of_int b.b_rows -. per_value in
  if Rel.Value.compare b.b_lo b.b_hi = 0 then 0.
  else
    match Rel.Value.to_float v, Rel.Value.to_float b.b_lo,
          Rel.Value.to_float b.b_hi with
    | Some fv, Some flo, Some fhi when fhi > flo ->
      let frac = (fv -. flo) /. (fhi -. flo) in
      let frac = if frac < 0. then 0. else if frac > 1. then 1. else frac in
      frac *. spread
    | _ -> 0.5 *. spread (* non-numeric: mid-bucket, no distance metric *)

(* (estimated rows strictly below v, estimated rows at or below v), over the
   non-NULL population *)
let cumulative t v =
  let lt = ref 0. and le = ref 0. in
  Array.iter
    (fun b ->
      if Rel.Value.compare v b.b_lo < 0 then ()
      else if Rel.Value.compare v b.b_hi > 0 then begin
        lt := !lt +. float_of_int b.b_rows;
        le := !le +. float_of_int b.b_rows
      end
      else begin
        let per_value =
          float_of_int b.b_rows /. float_of_int (max 1 b.b_distinct)
        in
        let below = below_within b v in
        lt := !lt +. below;
        le := !le +. below +. per_value
      end)
    t.buckets;
  (!lt, !le)

let frac t count =
  if t.rows = 0 then 0.
  else
    let f = count /. float_of_int t.rows in
    if f < 0. then 0. else if f > 1. then 1. else f

let nonnull t = float_of_int (t.rows - t.nulls)

let selectivity_eq t v =
  if Rel.Value.is_null v then 0.
  else
    let lt, le = cumulative t v in
    frac t (le -. lt)

let selectivity_cmp t op v =
  if Rel.Value.is_null v then 0.
  else
    let lt, le = cumulative t v in
    match op with
    | `Lt -> frac t lt
    | `Le -> frac t le
    | `Gt -> frac t (nonnull t -. le)
    | `Ge -> frac t (nonnull t -. lt)

let selectivity_between t lo hi =
  if Rel.Value.is_null lo || Rel.Value.is_null hi then 0.
  else
    let lt_lo, _ = cumulative t lo in
    let _, le_hi = cumulative t hi in
    frac t (le_hi -. lt_lo)
