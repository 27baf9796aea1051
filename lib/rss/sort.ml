type direction = Asc | Desc

type key = (int * direction) list

let compare_tuples key a b =
  let rec go = function
    | [] -> 0
    | (c, dir) :: rest ->
      let d = Rel.Value.compare (Rel.Tuple.get a c) (Rel.Tuple.get b c) in
      if d <> 0 then (match dir with Asc -> d | Desc -> -d) else go rest
  in
  go key

let approx_tuple_bytes = 4

(* --- run formation ------------------------------------------------------ *)

(* Pull up to [bytes_budget] of input into a fresh tuple array (doubling
   growth, no per-tuple list cells). A tuple that would overflow a non-empty
   run is carried in [pending] and opens the next run. *)
let next_run ~bytes_budget pending next =
  let buf = ref (Array.make 256 [||]) in
  let len = ref 0 in
  let push t =
    if !len = Array.length !buf then begin
      let b = Array.make (2 * !len) [||] in
      Array.blit !buf 0 b 0 !len;
      buf := b
    end;
    Array.unsafe_set !buf !len t;
    incr len
  in
  let used = ref 0 in
  let rec fill () =
    let item =
      match !pending with
      | Some _ as t ->
        pending := None;
        t
      | None -> next ()
    in
    match item with
    | None -> ()
    | Some t ->
      let sz = Rel.Tuple.serialized_size t + approx_tuple_bytes in
      if !used + sz > bytes_budget && !len > 0 then pending := Some t
      else begin
        used := !used + sz;
        push t;
        fill ()
      end
  in
  fill ();
  if !len = 0 then None else Some (Array.sub !buf 0 !len)

(* --- tournament k-way merge ---------------------------------------------- *)

(* A sorted run: its tuples in a temp list, plus — when every tuple's first
   key column is an [Int] — the run's keys as a flat unboxed array aligned
   with the tuple order (a normalized-key cache, as production external sorts
   embed in their run records). Merging keyed runs reads keys sequentially
   from these arrays and never dereferences tuple contents; the arrays are
   derivable from the written pages, so temp-page accounting is unchanged. *)
type run = {
  tl : Temp_list.t;
  keys : int array option;
}

type merge_entry = {
  mutable head : Rel.Tuple.t;
  mutable hok : bool;  (* head's first key column is an unboxed-cacheable Int *)
  mutable hkey : int;  (* that integer, meaningful only when [hok] *)
  mutable ki : int;  (* head's index within [keys], when the run is keyed *)
  keys : int array;  (* the run's key cache; [||] when absent *)
  has_keys : bool;
  mutable alive : bool;
  run : int;  (* position among the merge inputs; breaks ties for stability *)
  next : unit -> Rel.Tuple.t option;
}

(* Merge [runs] (in input order) into one dispenser through a tournament
   loser tree over the run cursors: after each emission only the winner's
   root-to-leaf path is replayed, which is exactly [ceil(log2 k)] comparisons
   per element (a binary heap's sift-down pays two per level) and zero
   allocation. Earlier runs win ties, and since run formation and fan-in
   batching both keep input order, the merge is stable.

   Each entry caches its head's first key column as an unboxed int. A merge
   pass visits tuples in key order — uncorrelated with allocation order — so
   the tuple-array and value-block loads behind every comparison are cache
   misses; with the cache, a comparison on a distinct first key touches only
   the (hot) entry records. Keyed runs refill the cache from their key array
   (a sequential, prefetchable read — tuple contents are never touched);
   unkeyed runs load it from the head tuple on each advance. [key] must
   describe the same order as [cmp] (the [sort_stream] contract).

   [collect] is called with the emitted tuple's cached key, in output order —
   the caller uses it to build the merged run's key array. Only pass it when
   every input run is keyed (then every emission has a valid cache). *)
let merge_dispenser cmp ~key ?collect (runs : run list) :
    unit -> Rel.Tuple.t option =
  let first_col, first_neg =
    match key with (c, d) :: _ -> (c, d = Desc) | [] -> (-1, false)
  in
  (* with a one-column key, equal cached heads tie outright — no reason to
     re-derive that from the tuples *)
  let single = match key with [ _ ] -> true | _ -> false in
  let load e =
    if e.has_keys then begin
      e.hok <- true;
      e.hkey <- Array.unsafe_get e.keys e.ki
    end
    else if first_col >= 0 then
      match Rel.Tuple.get e.head first_col with
      | Rel.Value.Int x ->
        e.hok <- true;
        e.hkey <- x
      | _ -> e.hok <- false
    else e.hok <- false
  in
  let entries =
    Array.of_list
      (List.mapi
         (fun i r ->
           let next = Temp_list.cursor r.tl in
           let keys, has_keys =
             match r.keys with Some ks -> (ks, true) | None -> ([||], false)
           in
           match next () with
           | None ->
             { head = [||]; hok = false; hkey = 0; ki = 0; keys; has_keys;
               alive = false; run = i; next }
           | Some head ->
             let e =
               { head; hok = false; hkey = 0; ki = 0; keys; has_keys;
                 alive = true; run = i; next }
             in
             load e;
             e)
         runs)
  in
  let k = Array.length entries in
  (* leaves padded to a power of two; index -1 marks an absent competitor *)
  let k2 =
    let rec up n = if n >= k then n else up (2 * n) in
    up 2
  in
  let beats a b =
    (* does entry index [a] win against [b]? exhausted entries always lose *)
    if b < 0 then true
    else if a < 0 then false
    else
      let ea = Array.unsafe_get entries a and eb = Array.unsafe_get entries b in
      if not ea.alive then false
      else if not eb.alive then true
      else
        let c =
          if ea.hok && eb.hok then
            if ea.hkey <> eb.hkey then
              if (ea.hkey < eb.hkey) <> first_neg then -1 else 1
            else if single then 0
            else cmp ea.head eb.head
          else cmp ea.head eb.head
        in
        c < 0 || (c = 0 && ea.run < eb.run)
  in
  (* losers.(j) for internal nodes 1..k2-1; champion kept separately *)
  let losers = Array.make k2 (-1) in
  let winner = Array.make (2 * k2) (-1) in
  for i = 0 to k - 1 do
    winner.(k2 + i) <- i
  done;
  for j = k2 - 1 downto 1 do
    let a = winner.(2 * j) and b = winner.((2 * j) + 1) in
    if beats a b then begin
      winner.(j) <- a;
      losers.(j) <- b
    end
    else begin
      winner.(j) <- b;
      losers.(j) <- a
    end
  done;
  let champion = ref winner.(1) in
  let replay i =
    (* refilled leaf [i] competes back up its path; exactly log2 k2 compares *)
    let w = ref i in
    let j = ref ((k2 + i) / 2) in
    while !j >= 1 do
      let o = Array.unsafe_get losers !j in
      if beats o !w then begin
        Array.unsafe_set losers !j !w;
        w := o
      end;
      j := !j / 2
    done;
    champion := !w
  in
  let next () =
    let c = !champion in
    if c < 0 || not (Array.unsafe_get entries c).alive then None
    else begin
      let e = Array.unsafe_get entries c in
      let v = e.head in
      (match collect with Some f -> f e.hkey | None -> ());
      (match e.next () with
       | Some h ->
         e.head <- h;
         e.ki <- e.ki + 1;
         load e
       | None ->
         e.alive <- false;
         e.head <- [||]);
      replay c;
      Some v
    end
  in
  next

let merge_runs cmp ~key pager (runs : run list) : run =
  if List.for_all (fun (r : run) -> Option.is_some r.keys) runs then begin
    (* merged size is the sum of the inputs — collect output keys into an
       exactly-sized array so the merged run stays keyed *)
    let total =
      List.fold_left
        (fun a (r : run) ->
          a + match r.keys with Some k -> Array.length k | None -> 0)
        0 runs
    in
    let out = Array.make (max 1 total) 0 in
    let n = ref 0 in
    let collect x =
      Array.unsafe_set out !n x;
      incr n
    in
    let tl = Temp_list.of_dispenser pager (merge_dispenser cmp ~key ~collect runs) in
    { tl; keys = Some out }
  end
  else { tl = Temp_list.of_dispenser pager (merge_dispenser cmp ~key runs); keys = None }

(* --- driver -------------------------------------------------------------- *)

let resolve_params ?run_pages ?fan_in pager =
  let buffer = Pager.buffer_pages pager in
  ( Option.value run_pages ~default:(max 1 buffer),
    max 2 (Option.value fan_in ~default:(max 2 (buffer - 1))) )

(* Sort one run in place. When the first key column is Int throughout the
   run, sort (key, tuple) pairs so the comparator works on unboxed ints and
   only dereferences tuples to break exact key ties — the same cache argument
   as the merge entries' cached heads. [Array.stable_sort] keeps equal pairs
   in input order, so stability is preserved in both paths. Returns the
   sorted keys (the run's normalized-key cache) when the keyed path ran. *)
let sort_run cmp ~first arr =
  let keyed =
    match first with
    | None -> None
    | Some (col, _, _) ->
      let n = Array.length arr in
      let keyed = Array.make n (0, ([||] : Rel.Tuple.t)) in
      let rec fill i =
        if i >= n then Some keyed
        else
          let t = Array.unsafe_get arr i in
          (match Rel.Tuple.get t col with
           | Rel.Value.Int x ->
             Array.unsafe_set keyed i (x, t);
             fill (i + 1)
           | _ -> None)
      in
      fill 0
  in
  match keyed, first with
  | Some keyed, Some (_, neg, single) ->
    let pair_cmp (k1, t1) (k2, t2) =
      if k1 <> (k2 : int) then if (k1 < k2) <> neg then -1 else 1
      else if single then 0
      else cmp t1 t2
    in
    Array.stable_sort pair_cmp keyed;
    let n = Array.length arr in
    let ks = Array.make n 0 in
    for i = 0 to n - 1 do
      let k, t = Array.unsafe_get keyed i in
      Array.unsafe_set arr i t;
      Array.unsafe_set ks i k
    done;
    Some ks
  | _ ->
    Array.stable_sort cmp arr;
    None

(* Phase 1: array-backed sorted runs, one temp list each. *)
let form_runs cmp ~key pager ~run_pages next =
  let first =
    match key with
    | [ (c, d) ] -> Some (c, d = Desc, true)
    | (c, d) :: _ -> Some (c, d = Desc, false)
    | [] -> None
  in
  let pending = ref None in
  let rec go acc =
    match next_run ~bytes_budget:(run_pages * Page.size) pending next with
    | None -> List.rev acc
    | Some arr ->
      let keys = sort_run cmp ~first arr in
      Pager.note_sort_run pager;
      go ({ tl = Temp_list.of_array pager arr; keys } :: acc)
  in
  go []

(* One fan-in-wide merge level over the surviving runs (one observed pass);
   batches keep input order, so run indices keep breaking ties correctly at
   every level. *)
let merge_pass cmp ~key pager ~fan_in runs =
  Pager.note_merge_pass pager;
  let rec batch acc current n = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | r :: rest ->
      if n = fan_in then batch (List.rev current :: acc) [ r ] 1 rest
      else batch acc (r :: current) (n + 1) rest
  in
  List.map
    (fun group ->
      match group with [ r ] -> r | _ -> merge_runs cmp ~key pager group)
    (batch [] [] 0 runs)

(* Intermediate passes materialize as usual, but the last merge — once no
   more than fan-in runs survive — feeds the consumer on the fly: the final
   sorted result is never written to temp pages at all. *)
let sort_stream ?run_pages ?fan_in ?cmp pager ~key next =
  let cmp = match cmp with Some c -> c | None -> compare_tuples key in
  let run_pages, fan_in = resolve_params ?run_pages ?fan_in pager in
  let rec reduce runs =
    if List.length runs <= fan_in then runs
    else reduce (merge_pass cmp ~key pager ~fan_in runs)
  in
  match reduce (form_runs cmp ~key pager ~run_pages next) with
  | [] -> fun () -> None
  | [ r ] -> Temp_list.cursor r.tl
  | runs ->
    Pager.note_merge_pass pager;
    merge_dispenser cmp ~key runs

let passes ?run_pages ?fan_in ~buffer_pages ~tuples ~tuples_per_page () =
  let run_pages = Option.value run_pages ~default:(max 1 buffer_pages) in
  let fan_in = max 2 (Option.value fan_in ~default:(max 2 (buffer_pages - 1))) in
  if tuples = 0 then 0
  else
    let pages = ceil (float_of_int tuples /. tuples_per_page) in
    let runs = ceil (pages /. float_of_int run_pages) in
    let rec go n runs = if runs <= 1. then n else go (n + 1) (ceil (runs /. float_of_int fan_in)) in
    go 1 runs
