type fill_policy =
  | Per_relation
  | First_fit

type t = {
  pager : Pager.t;
  policy : fill_policy;
  mutable pages : int list;    (* reverse allocation order *)
  frontier : (int, int) Hashtbl.t;  (* rel_id -> page id currently being filled *)
}

let create ?(policy = Per_relation) pager =
  { pager; policy; pages = []; frontier = Hashtbl.create 8 }

let pager t = t.pager

let alloc t =
  let p = Pager.alloc_data_page t.pager in
  t.pages <- Page.id p :: t.pages;
  p

let insert_fresh t ?xmin ~rel_id tuple =
  let p = alloc t in
  Hashtbl.replace t.frontier rel_id (Page.id p);
  match Page.insert p ?xmin ~rel_id tuple with
  | Some slot -> Tid.make ~page:(Page.id p) ~slot
  | None -> assert false (* a fresh page always fits a legal tuple *)

let insert t ?xmin ~rel_id tuple =
  Failpoint.hit "segment.insert";
  match t.policy with
  | Per_relation ->
    (match Hashtbl.find_opt t.frontier rel_id with
     | Some pid ->
       let p = Pager.data_page t.pager pid in
       (match Page.insert p ?xmin ~rel_id tuple with
        | Some slot -> Tid.make ~page:pid ~slot
        | None -> insert_fresh t ?xmin ~rel_id tuple)
     | None -> insert_fresh t ?xmin ~rel_id tuple)
  | First_fit ->
    let need = Page.record_bytes tuple in
    let rec find = function
      | [] -> insert_fresh t ?xmin ~rel_id tuple
      | pid :: rest ->
        let p = Pager.data_page t.pager pid in
        if Page.free_space p >= need then
          match Page.insert p ?xmin ~rel_id tuple with
          | Some slot -> Tid.make ~page:pid ~slot
          | None -> find rest
        else find rest
    in
    find (List.rev t.pages)

let delete t tid =
  Failpoint.hit "segment.delete";
  let p = Pager.data_page t.pager (Tid.page tid) in
  Page.delete p ~slot:(Tid.slot tid)

(* MVCC delete: stamp xmax, leaving the version in place for concurrent
   snapshots; [set_xmax tid 0] un-marks it (rollback undo). *)
let set_xmax t tid xid =
  Failpoint.hit "segment.delete";
  let p = Pager.data_page t.pager (Tid.page tid) in
  Page.set_xmax p ~slot:(Tid.slot tid) xid

let set_xmin t tid xid =
  let p = Pager.data_page t.pager (Tid.page tid) in
  Page.set_xmin p ~slot:(Tid.slot tid) xid

let slot t tid = Page.slot (Pager.data_page t.pager (Tid.page tid)) (Tid.slot tid)

(* The fetchers' initial cached page: its id (-1) names no page, so the
   first fetch resolves; nothing ever writes it. *)
let no_page = Page.create ~id:(-1)

(* Repeated-fetch closure with a one-page cache: an index scan in key order
   fetches long runs of tuples from the same (clustered) page, so the
   page-table lookup is redundant for all but the first of each run. Every
   call is still charged one page access. *)
let fetcher t =
  let last = ref no_page in
  fun tid ->
    let pid = Tid.page tid in
    Pager.touch t.pager pid;
    if Page.id !last <> pid then last := Pager.data_page t.pager pid;
    Page.slot !last (Tid.slot tid)

let page_ids t = List.rev t.pages

(* One walk over every slot: NCARD counts the live (not delete-marked)
   versions of [rel_id] and TCARD the pages holding one; a page is
   non-empty, as a segment scan judges it, while any version is on it. *)
let census ?(live = ignore) t ~rel_id =
  List.fold_left
    (fun (ncard, tcard, nonempty) pid ->
      let p = Pager.data_page t.pager pid in
      let n = ref 0 in
      for i = 0 to Page.slots p - 1 do
        match Page.slot p i with
        | Page.Live { rel_id = rid; xmax = 0; tuple; _ } when rid = rel_id ->
          incr n;
          live tuple
        | Page.Live _ | Page.Dead -> ()
      done;
      ( ncard + !n,
        (if !n > 0 then tcard + 1 else tcard),
        if Page.is_empty p then nonempty else nonempty + 1 ))
    (0, 0, 0) t.pages
