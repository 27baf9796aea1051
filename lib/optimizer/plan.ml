type bound_value =
  | Bv_const of Rel.Value.t
  | Bv_param of int
  | Bv_outer of Semant.col_ref

type key_bound = {
  values : bound_value list;
  inclusive : bool;
}

type access =
  | Seg_scan
  | Idx_scan of {
      index : Catalog.index;
      lo : key_bound option;
      hi : key_bound option;
      dir : Ast.order_dir;
      matching : bool;
    }

type node =
  | Scan of {
      tab : int;
      access : access;
      sargs : Semant.spred list;
      residual : Semant.spred list;
    }
  | Nl_join of { outer : t; inner : t }
  | Merge_join of {
      outer : t;
      inner : t;
      outer_col : Semant.col_ref;
      inner_col : Semant.col_ref;
      residual : Semant.spred list;
    }
  | Sort of { input : t; key : Interesting_order.order }
  | Filter of { input : t; preds : Semant.spred list }

and t = {
  node : node;
  tables : int list;
  order : Interesting_order.order;
  cost : Cost_model.t;
  out_card : float;
}

let rec join_methods_used t =
  match t.node with
  | Scan _ -> []
  | Nl_join { outer; inner } ->
    join_methods_used outer @ join_methods_used inner @ [ "NL" ]
  | Merge_join { outer; inner; _ } ->
    join_methods_used outer @ join_methods_used inner @ [ "MERGE" ]
  | Sort { input; _ } | Filter { input; _ } -> join_methods_used input

let default_name tab = Printf.sprintf "t%d" tab

let bound_value_str ~names = function
  | Bv_const v -> Rel.Value.to_string v
  | Bv_param i -> Printf.sprintf "?%d" i
  | Bv_outer (c : Semant.col_ref) -> Printf.sprintf "%s.c%d" (names c.tab) c.col

let access_str ~names tab = function
  | Seg_scan -> Printf.sprintf "Seg(%s)" (names tab)
  | Idx_scan { index; lo; hi; dir; matching } ->
    let dsuffix = match dir with Ast.Asc -> "" | Ast.Desc -> " DESC" in
    let b = function
      | None -> "-"
      | Some { values; inclusive } ->
        Printf.sprintf "%s%s"
          (String.concat "," (List.map (bound_value_str ~names) values))
          (if inclusive then "" else "!")
    in
    if lo = None && hi = None then
      Printf.sprintf "Idx(%s:%s%s)%s" (names tab) index.Catalog.idx_name dsuffix
        (if matching then "" else "*")
    else
      Printf.sprintf "Idx(%s:%s[%s..%s]%s)" (names tab) index.Catalog.idx_name
        (b lo) (b hi) dsuffix

let rec describe ?(names = default_name) t =
  match t.node with
  | Scan { tab; access; _ } -> access_str ~names tab access
  | Nl_join { outer; inner } ->
    Printf.sprintf "NL(%s, %s)" (describe ~names outer) (describe ~names inner)
  | Merge_join { outer; inner; _ } ->
    Printf.sprintf "MERGE(%s, %s)" (describe ~names outer) (describe ~names inner)
  | Sort { input; _ } -> Printf.sprintf "Sort(%s)" (describe ~names input)
  | Filter { input; _ } -> Printf.sprintf "Filter(%s)" (describe ~names input)

let pp ?(names = default_name) ppf t =
  let rec go indent t =
    let pad = String.make indent ' ' in
    let line fmt =
      Format.kasprintf
        (fun s ->
          Format.fprintf ppf "%s%s  [cost=%a card=%.1f order=%a]@," pad s
            Cost_model.pp t.cost t.out_card Interesting_order.pp_order t.order)
        fmt
    in
    match t.node with
    | Scan { tab; access; sargs; residual } ->
      line "SCAN %s sargs=%d residual=%d" (access_str ~names tab access)
        (List.length sargs) (List.length residual)
    | Nl_join { outer; inner } ->
      line "NESTED-LOOP JOIN";
      go (indent + 2) outer;
      go (indent + 2) inner
    | Merge_join { outer; inner; outer_col; inner_col; _ } ->
      line "MERGE JOIN on t%d.c%d = t%d.c%d" outer_col.Semant.tab
        outer_col.Semant.col inner_col.Semant.tab inner_col.Semant.col;
      go (indent + 2) outer;
      go (indent + 2) inner
    | Sort { input; key } ->
      line "SORT by %s" (Format.asprintf "%a" Interesting_order.pp_order key);
      go (indent + 2) input
    | Filter { input; preds } ->
      line "FILTER (%d predicates)" (List.length preds);
      go (indent + 2) input
  in
  Format.fprintf ppf "@[<v>";
  go 0 t;
  Format.fprintf ppf "@]"
