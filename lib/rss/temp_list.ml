type t = {
  pager : Pager.t;
  page_ids : int array;  (* one temp page per sealed page, fill order *)
  sealed : Rel.Tuple.t array array;  (* per page, fill order *)
  len : int;
}

(* Page-cut rule: a page holds a 16-byte header plus, per tuple, its
   serialized size and a 4-byte slot; a tuple that would overflow a
   non-empty page opens the next one. *)
let page_header = 16
let slot_bytes tuple = Rel.Tuple.serialized_size tuple + 4

(* Each page cut allocates a temp page id and charges its write; [seal]
   builds the list from the cuts made so far. *)
let builder pager =
  let ids = ref [] and pages = ref [] in
  let cut page =
    ids := Pager.alloc_page_id pager :: !ids;
    Pager.note_page_written pager;
    pages := page :: !pages
  in
  let seal len =
    { pager;
      page_ids = Array.of_list (List.rev !ids);
      sealed = Array.of_list (List.rev !pages);
      len }
  in
  (cut, seal)

(* Seal an already-complete tuple array without per-tuple list traffic: the
   array is sliced at page-size boundaries and the slices become the sealed
   pages directly. *)
let of_array pager arr =
  let cut, seal = builder pager in
  let n = Array.length arr in
  let start = ref 0 in
  let bytes = ref page_header in
  let cut_at stop =
    cut (Array.sub arr !start (stop - !start));
    start := stop;
    bytes := page_header
  in
  for i = 0 to n - 1 do
    let sz = slot_bytes (Array.unsafe_get arr i) in
    if !bytes + sz > Page.size && i > !start then cut_at i;
    bytes := !bytes + sz
  done;
  if n > !start then cut_at n;
  seal n

(* Seal a tuple stream without knowing its length up front: tuples land in a
   doubling page buffer that is cut to an exact page array at each page-size
   boundary. Only page-sized arrays are ever allocated (no whole-list
   materialization), so a merge can pipe straight into the output list. *)
let of_dispenser pager next =
  let cut, seal = builder pager in
  let buf = ref (Array.make 64 [||]) in
  let len = ref 0 in
  let bytes = ref page_header in
  let n = ref 0 in
  let seal_page () =
    if !len > 0 then begin
      cut (Array.sub !buf 0 !len);
      len := 0;
      bytes := page_header
    end
  in
  let push tup =
    if !len = Array.length !buf then begin
      let b = Array.make (2 * !len) [||] in
      Array.blit !buf 0 b 0 !len;
      buf := b
    end;
    Array.unsafe_set !buf !len tup;
    incr len
  in
  let rec loop () =
    match next () with
    | None -> ()
    | Some tup ->
      let sz = slot_bytes tup in
      if !bytes + sz > Page.size && !len > 0 then seal_page ();
      bytes := !bytes + sz;
      push tup;
      incr n;
      loop ()
  in
  loop ();
  seal_page ();
  seal !n

let length t = t.len
let page_count t = Array.length t.page_ids

(* Index-walking dispenser over the sealed pages: no closure per element,
   page-access accounting on each page entry, one-shot (not restartable). *)
let cursor t =
  let pages = t.sealed in
  let pi = ref 0 and ti = ref 0 in
  let rec next () =
    if !pi >= Array.length pages then None
    else begin
      let page = Array.unsafe_get pages !pi in
      if !ti >= Array.length page then begin
        incr pi;
        ti := 0;
        next ()
      end
      else begin
        if !ti = 0 then Pager.touch t.pager t.page_ids.(!pi);
        let tup = Array.unsafe_get page !ti in
        incr ti;
        Some tup
      end
    end
  in
  next
