type state =
  | Open of (unit -> (Tid.t * Rel.Tuple.t) option)
  | Finished  (* drained; further NEXTs return nothing *)
  | Closed

type t = {
  mutable state : state;
}

(* A segment scan examines all pages of the segment that contain tuples, from
   any relation, returning those belonging to the given relation. Pages are
   charged once each; SARG-rejected tuples cost no RSI call.

   [snap] selects which versions qualify: with a read view, MVCC snapshot
   visibility over (xmin, xmax); without one, default visibility (not
   delete-marked), which reproduces pre-MVCC single-session behavior. *)
let open_segment_scan segment ~rel_id ?snap ?(sargs = Sarg.always_true) () =
  let pager = Segment.pager segment in
  let pages = ref (Segment.page_ids segment) in
  let current : (int * int * Rel.Tuple.t * int * int) list ref = ref [] in
  let current_page = ref (-1) in
  let qualifies xmin xmax =
    match snap with
    | None -> xmax = 0
    | Some v -> Mvcc.view_visible v ~xmin ~xmax
  in
  let rec pull () =
    match !current with
    | (slot, rid, tuple, xmin, xmax) :: rest ->
      current := rest;
      if rid = rel_id && qualifies xmin xmax && Sarg.matches sargs tuple then begin
        Pager.note_rsi_call pager;
        Some ({ Tid.page = !current_page; slot }, tuple)
      end
      else pull ()
    | [] ->
      (match !pages with
       | [] -> None
       | pid :: rest ->
         pages := rest;
         let page = Pager.data_page pager pid in
         if Page.is_empty page then pull ()
         else begin
           Pager.touch pager pid;
           current_page := pid;
           current := Page.versions page;
           pull ()
         end)
  in
  { state = Open pull }

let open_index_scan segment ~rel_id ~index ?lo ?hi ?(dir = `Asc) ?snap
    ?(sargs = Sarg.always_true) () =
  let pager = Segment.pager segment in
  let entries =
    match dir with
    | `Asc -> Btree.range_cursor ?lo ?hi index
    | `Desc -> Btree.range_cursor_desc ?lo ?hi index
  in
  let fetch = Segment.fetcher_v segment in
  let qualifies xmin xmax =
    match snap with
    | None -> xmax = 0
    | Some v -> Mvcc.view_visible v ~xmin ~xmax
  in
  let rec pull () =
    match entries () with
    | None -> None
    | Some (_key, tid) ->
      (match fetch tid with
       | Some (rid, tuple, xmin, xmax)
         when rid = rel_id && qualifies xmin xmax && Sarg.matches sargs tuple ->
         Pager.note_rsi_call pager;
         Some (tid, tuple)
       | Some _ | None -> pull ())
  in
  { state = Open pull }

let next t =
  match t.state with
  | Closed -> invalid_arg "Scan.next: scan is closed"
  | Finished -> None
  | Open pull ->
    (match pull () with
     | Some _ as r -> r
     | None ->
       t.state <- Finished;
       None)

let close t = t.state <- Closed

let to_list t =
  let rec go acc = match next t with None -> List.rev acc | Some x -> go (x :: acc) in
  go []
