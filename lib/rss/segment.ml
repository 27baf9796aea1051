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
  | Some slot -> { Tid.page = Page.id p; slot }
  | None -> assert false (* a fresh page always fits a legal tuple *)

let insert t ?xmin ~rel_id tuple =
  Failpoint.hit "segment.insert";
  match t.policy with
  | Per_relation ->
    (match Hashtbl.find_opt t.frontier rel_id with
     | Some pid ->
       let p = Pager.data_page t.pager pid in
       (match Page.insert p ?xmin ~rel_id tuple with
        | Some slot -> { Tid.page = pid; slot }
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
          | Some slot -> { Tid.page = pid; slot }
          | None -> find rest
        else find rest
    in
    find (List.rev t.pages)

let delete t (tid : Tid.t) =
  Failpoint.hit "segment.delete";
  let p = Pager.data_page t.pager tid.page in
  Page.delete p ~slot:tid.slot

(* MVCC delete: stamp xmax, leaving the version in place for concurrent
   snapshots; [set_xmax tid 0] un-marks it (rollback undo). *)
let set_xmax t (tid : Tid.t) xid =
  Failpoint.hit "segment.delete";
  let p = Pager.data_page t.pager tid.page in
  Page.set_xmax p ~slot:tid.slot xid

let set_xmin t (tid : Tid.t) xid =
  let p = Pager.data_page t.pager tid.page in
  Page.set_xmin p ~slot:tid.slot xid

let fetch_unaccounted_v t (tid : Tid.t) =
  let p = Pager.data_page t.pager tid.page in
  Page.get_v p ~slot:tid.slot

(* Repeated-fetch closure with a one-page cache: an index scan in key order
   fetches long runs of tuples from the same (clustered) page, so the
   page-table lookup is redundant for all but the first of each run. Every
   call is still charged one page access. *)
let fetcher_v t =
  let last_pid = ref (-1) in
  let last_page = ref None in
  fun (tid : Tid.t) ->
    Pager.touch t.pager tid.page;
    let p =
      if tid.page = !last_pid then
        match !last_page with Some p -> p | None -> assert false
      else begin
        let p = Pager.data_page t.pager tid.page in
        last_pid := tid.page;
        last_page := Some p;
        p
      end
    in
    Page.get_v p ~slot:tid.slot

let page_ids t = List.rev t.pages

let nonempty_page_count t =
  List.fold_left
    (fun acc pid ->
      if Page.is_empty (Pager.data_page t.pager pid) then acc else acc + 1)
    0 t.pages

let pages_holding t ~rel_id =
  List.fold_left
    (fun acc pid ->
      let p = Pager.data_page t.pager pid in
      let holds =
        List.exists (fun (_, rid, _) -> rid = rel_id) (Page.live_tuples p)
      in
      if holds then acc + 1 else acc)
    0 t.pages

let tuple_count t ~rel_id =
  List.fold_left
    (fun acc pid ->
      let p = Pager.data_page t.pager pid in
      acc
      + List.length
          (List.filter (fun (_, rid, _) -> rid = rel_id) (Page.live_tuples p)))
    0 t.pages
