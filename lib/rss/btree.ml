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

(* Entries are totally ordered by (key, TID); separators are full entries so
   duplicate keys route deterministically. *)
let compare_entry (k1 : key) (t1 : Tid.t) (k2 : key) (t2 : Tid.t) =
  let d = compare_key k1 k2 in
  if d <> 0 then d else Tid.compare t1 t2

(* A leaf holds its [n] entries, in order, in the prefix of two parallel
   arrays: the keys and the TIDs (immediate ints). No per-entry pair
   exists; a cursor builds one as it yields an entry. The arrays may have
   spare capacity past [n] (never more than [order] slots), so an insert or
   delete shifts entries in place; slots past [n] hold [no_key] and keep
   nothing alive. *)
type leaf = {
  lpage : int;
  mutable keys : key array;
  mutable tids : Tid.t array;
  mutable n : int;
  mutable next : leaf option;
  mutable prev : leaf option;
}

type internal = {
  ipage : int;
  (* children.(i) covers entries e with sep (i-1) <= e < sep i, where sep i
     is (sep_keys.(i), sep_tids.(i)) *)
  mutable sep_keys : key array;
  mutable sep_tids : Tid.t array;
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

let no_key : key = [||]
let no_tid = Tid.make ~page:0 ~slot:0

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
    Leaf
      { lpage = Pager.alloc_page_id pgr; keys = [||]; tids = [||]; n = 0;
        next = None; prev = None }
  in
  { pgr; order; root }

let pager t = t.pgr

(* First index in [0, n) at which the monotone predicate [ok] holds ([ok] is
   false on a prefix of the indices and true on the rest); [n] when it never
   holds. Separator and entry arrays are sorted and every predicate below is
   monotone over that order, so every position search is logarithmic — a
   point probe must not pay a linear walk over a node. *)
let lower_bound n ok =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ok mid then hi := mid else lo := mid + 1
  done;
  !lo

(* Child covering entry (k, tid): the number of separators <= it. *)
let child_index (n : internal) k tid =
  lower_bound (Array.length n.sep_keys) (fun i ->
      compare_entry (Array.unsafe_get n.sep_keys i) (Array.unsafe_get n.sep_tids i)
        k tid
      > 0)

(* Position of the first leaf entry >= (k, tid). *)
let leaf_index (l : leaf) k tid =
  lower_bound l.n (fun i ->
      compare_entry (Array.unsafe_get l.keys i) (Array.unsafe_get l.tids i) k tid >= 0)

(* Internal nodes are few (one per ~order leaves): they copy on insert. *)
let insert_at arr i x =
  let n = Array.length arr in
  let out = Array.make (n + 1) x in
  Array.blit arr 0 out 0 i;
  Array.blit arr i out (i + 1) (n - i);
  out

(* A full leaf has [order] slots; below that the capacity doubles. *)
let grow t (l : leaf) =
  let cap = min t.order (max 4 (2 * l.n)) in
  let keys = Array.make cap no_key and tids = Array.make cap no_tid in
  Array.blit l.keys 0 keys 0 l.n;
  Array.blit l.tids 0 tids 0 l.n;
  l.keys <- keys;
  l.tids <- tids

type split = (key * Tid.t * node) option

let insert_leaf t (l : leaf) k tid : split =
  let i = leaf_index l k tid in
  let n = l.n in
  if n < t.order then begin
    if n = Array.length l.keys then grow t l;
    Array.blit l.keys i l.keys (i + 1) (n - i);
    Array.blit l.tids i l.tids (i + 1) (n - i);
    l.keys.(i) <- k;
    l.tids.(i) <- tid;
    l.n <- n + 1;
    None
  end
  else begin
    Failpoint.hit "btree.split";
    (* The leaf overflows to order + 1 entries: the first half stays, the
       rest moves to a new right sibling, each half in arrays sized to its
       entries (an ascending load never inserts into the left half again). *)
    let total = n + 1 in
    let mid = total / 2 in
    let key_at j = if j < i then l.keys.(j) else if j = i then k else l.keys.(j - 1) in
    let tid_at j = if j < i then l.tids.(j) else if j = i then tid else l.tids.(j - 1) in
    let right =
      { lpage = Pager.alloc_page_id t.pgr;
        keys = Array.init (total - mid) (fun j -> key_at (mid + j));
        tids = Array.init (total - mid) (fun j -> tid_at (mid + j));
        n = total - mid; next = l.next; prev = Some l }
    in
    l.keys <- Array.init mid key_at;
    l.tids <- Array.init mid tid_at;
    l.n <- mid;
    (match l.next with Some nx -> nx.prev <- Some right | None -> ());
    l.next <- Some right;
    Some (right.keys.(0), right.tids.(0), Leaf right)
  end

let rec insert_node t node k tid : split =
  match node with
  | Leaf l -> insert_leaf t l k tid
  | Internal n ->
    let i = child_index n k tid in
    (match insert_node t n.children.(i) k tid with
     | None -> None
     | Some (sep_k, sep_t, right_child) ->
       n.sep_keys <- insert_at n.sep_keys i sep_k;
       n.sep_tids <- insert_at n.sep_tids i sep_t;
       n.children <- insert_at n.children (i + 1) right_child;
       if Array.length n.children <= t.order then None
       else begin
         Failpoint.hit "btree.split";
         let c = Array.length n.children in
         let mid = c / 2 in
         let s = Array.length n.sep_keys in
         (* separator promoted to the parent, not kept in either half *)
         let up_k = n.sep_keys.(mid - 1) and up_t = n.sep_tids.(mid - 1) in
         let right =
           { ipage = Pager.alloc_page_id t.pgr;
             sep_keys = Array.sub n.sep_keys mid (s - mid);
             sep_tids = Array.sub n.sep_tids mid (s - mid);
             children = Array.sub n.children mid (c - mid) }
         in
         n.sep_keys <- Array.sub n.sep_keys 0 (mid - 1);
         n.sep_tids <- Array.sub n.sep_tids 0 (mid - 1);
         n.children <- Array.sub n.children 0 mid;
         Some (up_k, up_t, Internal right)
       end)

let insert t k tid =
  match insert_node t t.root k tid with
  | None -> ()
  | Some (sep_k, sep_t, right) ->
    let root =
      Internal
        { ipage = Pager.alloc_page_id t.pgr;
          sep_keys = [| sep_k |];
          sep_tids = [| sep_t |];
          children = [| t.root; right |] }
    in
    t.root <- root

let rec delete_node node k tid =
  match node with
  | Leaf l ->
    let i = leaf_index l k tid in
    if i < l.n && compare_entry l.keys.(i) l.tids.(i) k tid = 0 then begin
      let n = l.n - 1 in
      Array.blit l.keys (i + 1) l.keys i (n - i);
      Array.blit l.tids (i + 1) l.tids i (n - i);
      l.keys.(n) <- no_key;
      l.n <- n;
      true
    end
    else false
  | Internal n ->
    (* Exact-duplicate entries may straddle a separator equal to them; step
       left across equal separators until found. *)
    let rec try_from i =
      if i < 0 then false
      else if delete_node n.children.(i) k tid then true
      else if
        i > 0 && compare_entry n.sep_keys.(i - 1) n.sep_tids.(i - 1) k tid = 0
      then try_from (i - 1)
      else false
    in
    try_from (child_index n k tid)

let delete t k tid = delete_node t.root k tid

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
        lower_bound (Array.length n.sep_keys) (fun i ->
            cmp (Array.unsafe_get n.sep_keys i) <= 0)
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
        lower_bound (Array.length n.sep_keys) (fun i ->
            cmp (Array.unsafe_get n.sep_keys i) < 0)
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
let asc_start (l : leaf) lo_ok =
  lower_bound l.n (fun i -> lo_ok (Array.unsafe_get l.keys i))
let desc_start (l : leaf) hi_ok =
  lower_bound l.n (fun i -> not (hi_ok (Array.unsafe_get l.keys i))) - 1

(* The one range walk: a dispenser over mutable leaf/offset state, with no
   Seq cell or continuation closure per entry. The executor's index scans
   pull every indexed tuple through it, so the per-entry path is one key
   load and one bound check; the (key, TID) pair is built only for an entry
   it yields. Each leaf page is charged when entered (the start leaf by the
   descent) unless [accounted] is false, which leaves the counters and the
   buffer pool untouched. *)
let cursor ~accounted ?lo ?hi t =
  let lo_ok = bound_cmp_lo lo and hi_ok = bound_cmp_hi hi in
  let lo_probe = Option.map (fun (k, _) -> fun sep -> compare_prefix k sep) lo in
  let start = descend t ~accounted t.root lo_probe in
  let leaf = ref (Some start) in
  let i = ref (asc_start start lo_ok) in
  let rec next () =
    match !leaf with
    | None -> None
    | Some l ->
      if !i >= l.n then begin
        (match l.next with
         | None -> leaf := None
         | Some nl ->
           if accounted then Pager.touch t.pgr nl.lpage;
           leaf := Some nl;
           i := 0);
        next ()
      end
      else begin
        let k = Array.unsafe_get l.keys !i in
        if not (hi_ok k) then begin
          leaf := None;
          None
        end
        else begin
          let tid = Array.unsafe_get l.tids !i in
          incr i;
          if lo_ok k then Some (k, tid) else next ()
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
  let i = ref (desc_start start hi_ok) in
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
           i := pl.n - 1);
        next ()
      end
      else begin
        let k = Array.unsafe_get l.keys !i in
        if not (lo_ok k) then begin
          leaf := None;  (* descending: below the low bound *)
          None
        end
        else begin
          let tid = Array.unsafe_get l.tids !i in
          decr i;
          if hi_ok k then Some (k, tid) else next ()
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

let rec fold_leaves f acc node =
  match node with
  | Leaf l -> f acc l
  | Internal n -> Array.fold_left (fun acc c -> fold_leaves f acc c) acc n.children

let entry_count t = fold_leaves (fun acc l -> acc + l.n) 0 t.root

let leaf_sizes t = List.rev (fold_leaves (fun acc l -> l.n :: acc) [] t.root)

let distinct_keys t =
  let count, _ =
    fold_leaves
      (fun (count, prev) l ->
        let count = ref count and prev = ref prev in
        for i = 0 to l.n - 1 do
          let k = l.keys.(i) in
          match !prev with
          | Some p when compare_key p k = 0 -> ()
          | _ ->
            incr count;
            prev := Some k
        done;
        (!count, !prev))
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
    if l.n > 0 then Some l.keys.(0)
    else match l.next with None -> None | Some n -> first n
  in
  first l

let max_key t =
  (* Lazy deletion can leave trailing leaves empty; walk all leaves. *)
  fold_leaves (fun acc l -> if l.n > 0 then Some l.keys.(l.n - 1) else acc) None t.root

let check_invariants t =
  let ( let* ) = Result.bind in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  (* 1. leaf layout: the entry count fits the capacity and the order, and
     the slots past it are empty; entries sorted within every leaf *)
  let* () =
    fold_leaves
      (fun acc l ->
        let* () = acc in
        let cap = Array.length l.keys in
        if Array.length l.tids <> cap || l.n < 0 || l.n > cap || cap > t.order
        then
          err "leaf %d: %d entries, %d keys, %d tids (order %d)" l.lpage l.n cap
            (Array.length l.tids) t.order
        else if
          not (Array.for_all (fun k -> k == no_key) (Array.sub l.keys l.n (cap - l.n)))
        then err "leaf %d: a slot past the entries holds a key" l.lpage
        else
          let rec go i =
            if i + 1 >= l.n then Ok ()
            else if compare_entry l.keys.(i) l.tids.(i) l.keys.(i + 1) l.tids.(i + 1) > 0
            then err "leaf %d not sorted at %d" l.lpage i
            else go (i + 1)
          in
          go 0)
      (Ok ()) t.root
  in
  (* 2. entries sorted across the whole leaf chain *)
  let* () =
    let all =
      fold_leaves
        (fun acc l ->
          let acc = ref acc in
          for i = 0 to l.n - 1 do acc := (l.keys.(i), l.tids.(i)) :: !acc done;
          !acc)
        [] t.root
      |> List.rev
    in
    let rec sorted = function
      | (k1, t1) :: ((k2, t2) :: _ as rest) ->
        if compare_entry k1 t1 k2 t2 > 0 then Error "entries not globally sorted"
        else sorted rest
      | [ _ ] | [] -> Ok ()
    in
    sorted all
  in
  (* 3. separators bound their subtrees; an entry may equal the upper
     separator only when it is an exact duplicate of it (duplicates of one
     (key, TID) pair can straddle their separator) *)
  let rec check_sep node lo hi =
    let in_range k tid =
      (match lo with None -> true | Some (bk, bt) -> compare_entry bk bt k tid <= 0)
      && match hi with None -> true | Some (bk, bt) -> compare_entry k tid bk bt <= 0
    in
    match node with
    | Leaf l ->
      let rec go i = i >= l.n || (in_range l.keys.(i) l.tids.(i) && go (i + 1)) in
      if go 0 then Ok () else err "leaf %d violates separator bounds" l.lpage
    | Internal n ->
      let s = Array.length n.sep_keys in
      if Array.length n.children <> s + 1 || Array.length n.sep_tids <> s then
        err "internal %d: %d children, %d sep keys, %d sep tids" n.ipage
          (Array.length n.children) s (Array.length n.sep_tids)
      else
        let sep i = Some (n.sep_keys.(i), n.sep_tids.(i)) in
        let rec go i acc =
          if i >= Array.length n.children then acc
          else
            let lo_i = if i = 0 then lo else sep (i - 1) in
            let hi_i = if i = s then hi else sep i in
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
