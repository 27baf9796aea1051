type t = unit -> Rel.Tuple.t option

(* [snap] selects which versions qualify: with a read view, MVCC snapshot
   visibility over (xmin, xmax); without one, default visibility (not
   delete-marked), which reproduces pre-MVCC single-session behavior. *)
let qualifies snap ~xmin ~xmax =
  match snap with None -> xmax = 0 | Some v -> Mvcc.view_visible v ~xmin ~xmax

(* A page with no slots, never written *)
let blank = Page.create ~id:(-1)

(* A segment scan examines all pages of the segment that contain tuples, from
   any relation, returning those belonging to the given relation. Pages are
   charged once each; SARG-rejected tuples cost no RSI call. Each page's
   slots are read in place, one slot per step, with the SARG compiled once
   at open. A NEXT returns the stored tuple itself: the only allocation per
   returned version is its [Some]. *)
let open_segment_scan segment ~rel_id ?snap ?(sargs = Sarg.always_true) ?tid () =
  let pager = Segment.pager segment in
  let accept = Sarg.compile sargs in
  let pages = ref (Segment.page_ids segment) in
  (* the page being walked and its next slot; the scan starts on a blank
     page, so the first step moves to the segment's first page, and returns
     to it at the end, so every NEXT after the last returns [None] *)
  let page = ref blank in
  let next_slot = ref 0 in
  let rec pull () =
    let p = !page and i = !next_slot in
    if i < Page.slots p then begin
      next_slot := i + 1;
      match Page.slot p i with
      | Page.Live { rel_id = rid; tuple; xmin; xmax; _ }
        when rid = rel_id && qualifies snap ~xmin ~xmax && accept tuple ->
        Pager.note_rsi_call pager;
        (match tid with Some c -> c := Tid.make ~page:(Page.id p) ~slot:i | None -> ());
        Some tuple
      | Page.Live _ | Page.Dead -> pull ()
    end
    else
      match !pages with
      | [] ->
        page := blank;
        None
      | pid :: rest ->
        pages := rest;
        let p = Pager.data_page pager pid in
        if not (Page.is_empty p) then begin
          Pager.touch pager pid;
          page := p;
          next_slot := 0
        end;
        pull ()
  in
  pull

let open_index_scan segment ~rel_id ~index ?lo ?hi ?(dir = `Asc) ?snap
    ?(sargs = Sarg.always_true) ?tid () =
  let pager = Segment.pager segment in
  let accept = Sarg.compile sargs in
  let entries =
    match dir with
    | `Asc -> Btree.range_cursor ?lo ?hi index
    | `Desc -> Btree.range_cursor_desc ?lo ?hi index
  in
  let fetch = Segment.fetcher segment in
  let rec pull () =
    match entries () with
    | None -> None
    | Some (_key, id) ->
      (match fetch id with
       | Page.Live { rel_id = rid; tuple; xmin; xmax; _ }
         when rid = rel_id && qualifies snap ~xmin ~xmax && accept tuple ->
         Pager.note_rsi_call pager;
         (match tid with Some c -> c := id | None -> ());
         Some tuple
       | Page.Live _ | Page.Dead -> pull ())
  in
  pull
