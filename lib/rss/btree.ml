type key = Rel.Value.t array

let compare_key (a : key) (b : key) =
  let la = Array.length a and lb = Array.length b in
  let n = min la lb in
  let rec go i =
    if i = n then Int.compare la lb
    else
      let d = Rel.Value.compare a.(i) b.(i) in
      if d <> 0 then d else go (i + 1)
  in
  go 0

(* Prefix comparison for bounds: a bound shorter than the stored key compares
   only on its own length, so an index on (NAME, LOCATION) can be scanned with
   a bound on NAME alone ("initial substring" matching from section 4). *)
let compare_prefix (bound : key) (k : key) =
  let n = min (Array.length bound) (Array.length k) in
  let rec go i =
    if i = n then 0
    else
      let d = Rel.Value.compare bound.(i) k.(i) in
      if d <> 0 then d else go (i + 1)
  in
  go 0

type entry = key * Tid.t

(* Entries are totally ordered by (key, TID); separators are full entries so
   duplicate keys route deterministically. *)
let compare_entry ((k1, t1) : entry) ((k2, t2) : entry) =
  let d = compare_key k1 k2 in
  if d <> 0 then d else Tid.compare t1 t2

type leaf = {
  lpage : int;
  mutable entries : entry array;
  mutable next : leaf option;
  mutable prev : leaf option;
}

type internal = {
  ipage : int;
  (* children.(i) covers entries e with seps.(i-1) <= e < seps.(i) *)
  mutable seps : entry array;
  mutable children : node array;
}

and node =
  | Leaf of leaf
  | Internal of internal

type t = {
  pgr : Pager.t;
  order : int;
  mutable root : node;
}


(* Debug hook for the torture harness: an override makes every new tree use
   a tiny order so that a handful of tuples already drives the split paths
   (and their failpoints). Never set in normal operation. *)
let order_override = ref None

let set_order_override o =
  Failpoint.assert_main_domain "Btree.set_order_override";
  order_override := o

let create ?(order = 128) pgr =
  let order = match !order_override with Some o -> o | None -> order in
  if order < 4 then invalid_arg "Btree.create: order < 4";
  let root =
    Leaf { lpage = Pager.alloc_page_id pgr; entries = [||]; next = None; prev = None }
  in
  { pgr; order; root }

let pager t = t.pgr

(* First index of sorted [arr] at which the monotone predicate [ok] holds
   ([ok] is false on a prefix of the array and true on the rest);
   [Array.length arr] when it never holds. Separator and entry arrays are
   sorted and every predicate below is monotone over that order, so every
   position search is logarithmic — a point probe must not pay a linear
   walk over a node. *)
let lower_bound arr ok =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ok (Array.unsafe_get arr mid) then hi := mid else lo := mid + 1
  done;
  !lo

(* Child covering [e]: the number of separators <= e. *)
let child_index (n : internal) (e : entry) =
  lower_bound n.seps (fun sep -> compare_entry sep e > 0)

let insert_at arr i x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (n - i);
  out

let remove_at arr i =
  let n = Array.length arr in
  let out = Array.make (n - 1) arr.(0) in
  Array.blit arr 0 out 0 i;
  Array.blit arr (i + 1) out i (n - 1 - i);
  out

type split = (entry * node) option

let rec insert_node t node entry : split =
  match node with
  | Leaf l ->
    let i = lower_bound l.entries (fun e -> compare_entry e entry >= 0) in
    l.entries <- insert_at l.entries i entry;
    if Array.length l.entries <= t.order then None
    else begin
      Failpoint.hit "btree.split";
      let n = Array.length l.entries in
      let mid = n / 2 in
      let right_entries = Array.sub l.entries mid (n - mid) in
      l.entries <- Array.sub l.entries 0 mid;
      let right =
        { lpage = Pager.alloc_page_id t.pgr; entries = right_entries;
          next = l.next; prev = Some l }
      in
      (match l.next with Some n -> n.prev <- Some right | None -> ());
      l.next <- Some right;
      Some (right_entries.(0), Leaf right)
    end
  | Internal n ->
    let i = child_index n entry in
    (match insert_node t n.children.(i) entry with
     | None -> None
     | Some (sep, right_child) ->
       n.seps <- insert_at n.seps i sep;
       n.children <- insert_at n.children (i + 1) right_child;
       if Array.length n.children <= t.order then None
       else begin
         Failpoint.hit "btree.split";
         let c = Array.length n.children in
         let mid = c / 2 in
         (* separator promoted to the parent, not kept in either half *)
         let up = n.seps.(mid - 1) in
         let right =
           { ipage = Pager.alloc_page_id t.pgr;
             seps = Array.sub n.seps mid (Array.length n.seps - mid);
             children = Array.sub n.children mid (c - mid) }
         in
         n.seps <- Array.sub n.seps 0 (mid - 1);
         n.children <- Array.sub n.children 0 mid;
         Some (up, Internal right)
       end)

let insert t k tid =
  match insert_node t t.root (k, tid) with
  | None -> ()
  | Some (sep, right) ->
    let root =
      Internal
        { ipage = Pager.alloc_page_id t.pgr;
          seps = [| sep |];
          children = [| t.root; right |] }
    in
    t.root <- root

let rec delete_node node entry =
  match node with
  | Leaf l ->
    let i = lower_bound l.entries (fun e -> compare_entry e entry >= 0) in
    if i < Array.length l.entries && compare_entry l.entries.(i) entry = 0 then begin
      l.entries <- remove_at l.entries i;
      true
    end
    else false
  | Internal n ->
    (* Exact-duplicate entries may straddle a separator equal to them; step
       left across equal separators until found. *)
    let rec try_from i =
      if i < 0 then false
      else if delete_node n.children.(i) entry then true
      else if i > 0 && compare_entry n.seps.(i - 1) entry = 0 then try_from (i - 1)
      else false
    in
    try_from (child_index n entry)

let delete t k tid = delete_node t.root (k, tid)

(* Leftmost leaf that may contain entries whose key is >= the bound, charging
   the leaf when [accounted]. [lo_cmp sep_key] compares the bound against a
   separator's key part. *)
let rec descend t ~accounted node lo_cmp =
  (* Only leaf pages are charged: the paper's cost formulas count NINDX leaf
     pages and assume the few upper index levels stay buffer-resident
     (cf. the 1-index-page term of the unique-index formula). *)
  match node with
  | Leaf l ->
    if accounted then Pager.touch t.pgr l.lpage;
    l
  | Internal n ->
    let i =
      match lo_cmp with
      | None -> 0
      | Some cmp ->
        (* Skip child i while everything under it is below the bound, i.e.
           while the bound is strictly greater than separator i's key (a
           separator sharing the bound's prefix may still have matches to
           its left). *)
        lower_bound n.seps (fun sep -> cmp (fst sep) <= 0)
    in
    descend t ~accounted n.children.(i) lo_cmp

(* Rightmost leaf that may contain entries whose key is <= the bound
   (or the rightmost leaf when unbounded), charging the leaf. *)
let rec descend_hi t node hi_cmp =
  match node with
  | Leaf l ->
    Pager.touch t.pgr l.lpage;
    l
  | Internal n ->
    let i =
      match hi_cmp with
      | None -> Array.length n.children - 1
      | Some cmp ->
        (* Step left from the last child while its lower separator is
           strictly above the bound. *)
        lower_bound n.seps (fun sep -> cmp (fst sep) < 0)
    in
    descend_hi t n.children.(i) hi_cmp

let bound_cmp_lo = function
  | None -> fun _ -> true
  | Some (k, `Inclusive) -> fun key -> compare_prefix k key <= 0
  | Some (k, `Exclusive) -> fun key -> compare_prefix k key < 0

let bound_cmp_hi = function
  | None -> fun _ -> true
  | Some (k, `Inclusive) -> fun key -> compare_prefix k key >= 0
  | Some (k, `Exclusive) -> fun key -> compare_prefix k key > 0

type bound = Rel.Value.t array * [ `Inclusive | `Exclusive ]

(* Start offset within the descended leaf. Ascending: first entry at or above
   the low bound. Descending: last entry at or below the high bound (may be -1,
   which sends the traversal to the prev leaf). Only the start leaf needs a
   search — every entry of the leaves that follow is past the bound. *)
let asc_start entries lo_ok = lower_bound entries (fun (k, _) -> lo_ok k)
let desc_start entries hi_ok =
  lower_bound entries (fun (k, _) -> not (hi_ok k)) - 1

(* The one range walk: a dispenser over mutable leaf/offset state, with no
   Seq cell or continuation closure per entry. The executor's index scans
   pull every indexed tuple through it, so the per-entry path is one array
   load and one bound check. Each leaf page is charged when entered (the
   start leaf by the descent) unless [accounted] is false, which leaves the
   counters and the buffer pool untouched. *)
let cursor ~accounted ?lo ?hi t =
  let lo_ok = bound_cmp_lo lo and hi_ok = bound_cmp_hi hi in
  let lo_probe = Option.map (fun (k, _) -> fun sep -> compare_prefix k sep) lo in
  let start = descend t ~accounted t.root lo_probe in
  let leaf = ref (Some start) in
  let i = ref (asc_start start.entries lo_ok) in
  let rec next () =
    match !leaf with
    | None -> None
    | Some l ->
      if !i >= Array.length l.entries then begin
        (match l.next with
         | None -> leaf := None
         | Some nl ->
           if accounted then Pager.touch t.pgr nl.lpage;
           leaf := Some nl;
           i := 0);
        next ()
      end
      else begin
        let (k, _) as e = Array.unsafe_get l.entries !i in
        if not (hi_ok k) then begin
          leaf := None;
          None
        end
        else begin
          incr i;
          if lo_ok k then Some e else next ()
        end
      end
  in
  next

let range_cursor ?lo ?hi t = cursor ~accounted:true ?lo ?hi t

(* Descending counterpart: start at the rightmost candidate leaf for [hi]
   and walk the [prev] chain, yielding entries in reverse key order. *)
let range_cursor_desc ?lo ?hi t =
  let lo_ok = bound_cmp_lo lo and hi_ok = bound_cmp_hi hi in
  let hi_probe = Option.map (fun (k, _) -> fun sep -> compare_prefix k sep) hi in
  let start = descend_hi t t.root hi_probe in
  let leaf = ref (Some start) in
  let i = ref (desc_start start.entries hi_ok) in
  let rec next () =
    match !leaf with
    | None -> None
    | Some l ->
      if !i < 0 then begin
        (match l.prev with
         | None -> leaf := None
         | Some pl ->
           Pager.touch t.pgr pl.lpage;
           leaf := Some pl;
           i := Array.length pl.entries - 1);
        next ()
      end
      else begin
        let (k, _) as e = Array.unsafe_get l.entries !i in
        if not (lo_ok k) then begin
          leaf := None;  (* descending: below the low bound *)
          None
        end
        else begin
          decr i;
          if hi_ok k then Some e else next ()
        end
      end
  in
  next

let drain next =
  let rec go acc = match next () with None -> List.rev acc | Some e -> go (e :: acc) in
  go []

let entries t = drain (cursor ~accounted:false t)

let lookup t k =
  drain (range_cursor ~lo:(k, `Inclusive) ~hi:(k, `Inclusive) t) |> List.map snd

(* Split [lo, hi) into up to [parts] contiguous key ranges along existing
   separator keys, for parallel index scans. Splitting at a separator key [k]
   with hi-`Exclusive` / lo-`Inclusive` sends every duplicate of [k] into the
   right-hand range, so the concatenation of the ranges' scans is exactly the
   serial scan. Planning-time only: no I/O is charged. *)
let split_range ?lo ?hi t ~parts =
  if parts <= 1 then [ (lo, hi) ]
  else
    let cands =
      match t.root with
      | Leaf _ -> []
      | Internal n ->
        let top = Array.to_list n.seps |> List.map fst in
        if List.length top >= parts - 1 then top
        else
          (* Root fan-out too small; pull in the grandchildren's separators
             so a freshly split root can still feed several partitions. *)
          let deeper =
            Array.fold_left
              (fun acc c ->
                match c with
                | Leaf _ -> acc
                | Internal m ->
                  Array.fold_left (fun acc (k, _) -> k :: acc) acc m.seps)
              [] n.children
          in
          List.sort_uniq compare_key (top @ deeper)
    in
    (* Keep only split keys strictly inside (lo, hi): every resulting range
       must be able to hold at least one key. *)
    let inside k =
      (match lo with None -> true | Some (b, _) -> compare_prefix b k < 0)
      && match hi with None -> true | Some (b, _) -> compare_prefix b k > 0
    in
    let cands = List.filter inside cands |> List.sort_uniq compare_key in
    match cands with
    | [] -> [ (lo, hi) ]
    | _ ->
      let arr = Array.of_list cands in
      let n = Array.length arr in
      let want = min (parts - 1) n in
      let picks =
        List.init want (fun j -> arr.((j + 1) * n / (want + 1)))
        |> List.sort_uniq compare_key
      in
      let rec build prev = function
        | [] -> [ (prev, hi) ]
        | k :: rest ->
          (prev, Some (k, `Exclusive)) :: build (Some (k, `Inclusive)) rest
      in
      build lo picks

let rec fold_leaves f acc node =
  match node with
  | Leaf l -> f acc l
  | Internal n -> Array.fold_left (fun acc c -> fold_leaves f acc c) acc n.children

let entry_count t = fold_leaves (fun acc l -> acc + Array.length l.entries) 0 t.root

let distinct_keys t =
  let count, _ =
    fold_leaves
      (fun (count, prev) l ->
        Array.fold_left
          (fun (count, prev) (k, _) ->
            match prev with
            | Some p when compare_key p k = 0 -> count, prev
            | _ -> count + 1, Some k)
          (count, prev) l.entries)
      (0, None) t.root
  in
  count

let leaf_pages t = fold_leaves (fun acc _ -> acc + 1) 0 t.root

let rec height_node = function
  | Leaf _ -> 1
  | Internal n -> 1 + height_node n.children.(0)

let height t = height_node t.root

let min_key t =
  let l = descend t ~accounted:false t.root None in
  let rec first l =
    if Array.length l.entries > 0 then Some (fst l.entries.(0))
    else match l.next with None -> None | Some n -> first n
  in
  first l

let max_key t =
  (* Lazy deletion can leave trailing leaves empty; walk all leaves. *)
  fold_leaves
    (fun acc l ->
      if Array.length l.entries > 0 then Some (fst l.entries.(Array.length l.entries - 1))
      else acc)
    None t.root

let check_invariants t =
  let ( let* ) = Result.bind in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  (* 1. entries sorted within every leaf *)
  let* () =
    fold_leaves
      (fun acc l ->
        let* () = acc in
        let rec go i =
          if i + 1 >= Array.length l.entries then Ok ()
          else if compare_entry l.entries.(i) l.entries.(i + 1) > 0 then
            err "leaf %d not sorted at %d" l.lpage i
          else go (i + 1)
        in
        go 0)
      (Ok ()) t.root
  in
  (* 2. entries sorted across the whole leaf chain *)
  let* () =
    let all =
      fold_leaves
        (fun acc l -> Array.fold_left (fun a e -> e :: a) acc l.entries)
        [] t.root
      |> List.rev
    in
    let rec sorted = function
      | a :: (b :: _ as rest) ->
        if compare_entry a b > 0 then Error "entries not globally sorted"
        else sorted rest
      | [ _ ] | [] -> Ok ()
    in
    sorted all
  in
  (* 3. separators bound their subtrees; an entry may equal the upper
     separator only when it is an exact duplicate of it (duplicates of one
     (key, TID) pair can straddle their separator) *)
  let rec check_sep node lo hi =
    let in_range e =
      (match lo with None -> true | Some b -> compare_entry b e <= 0)
      && match hi with None -> true | Some b -> compare_entry e b <= 0
    in
    match node with
    | Leaf l ->
      if Array.for_all in_range l.entries then Ok ()
      else err "leaf %d violates separator bounds" l.lpage
    | Internal n ->
      if Array.length n.children <> Array.length n.seps + 1 then
        err "internal %d: %d children, %d seps" n.ipage
          (Array.length n.children) (Array.length n.seps)
      else
        let rec go i acc =
          if i >= Array.length n.children then acc
          else
            let lo_i = if i = 0 then lo else Some n.seps.(i - 1) in
            let hi_i = if i = Array.length n.seps then hi else Some n.seps.(i) in
            let* () = acc in
            go (i + 1) (check_sep n.children.(i) lo_i hi_i)
        in
        go 0 (Ok ())
  in
  let* () = check_sep t.root None None in
  (* 4. the leaf chain visits exactly the leaves, in order *)
  let leaves_in_tree = fold_leaves (fun acc l -> l :: acc) [] t.root |> List.rev in
  let rec chain l acc =
    match l.next with None -> List.rev (l :: acc) | Some n -> chain n (l :: acc)
  in
  let leftmost = descend t ~accounted:false t.root None in
  let chained = chain leftmost [] in
  if List.length chained <> List.length leaves_in_tree then
    err "leaf chain has %d leaves, tree has %d" (List.length chained)
      (List.length leaves_in_tree)
  else if List.exists2 (fun a b -> a.lpage <> b.lpage) chained leaves_in_tree then
    Error "leaf chain order differs from tree order"
  else begin
    (* 5. the prev chain mirrors the next chain *)
    let rec back l acc = match l.prev with None -> l :: acc | Some p -> back p (l :: acc) in
    let rightmost = List.nth chained (List.length chained - 1) in
    let backward = back rightmost [] in
    if List.length backward <> List.length chained then
      err "prev chain has %d leaves, next chain %d" (List.length backward)
        (List.length chained)
    else if List.exists2 (fun a b -> a.lpage <> b.lpage) backward chained then
      Error "prev chain order differs from next chain"
    else Ok ()
  end
