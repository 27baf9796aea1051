type stats = {
  plans_considered : int;
  solutions_stored : int;
  subsets_examined : int;
  dp_table : (int list * Plan.t list) list;
}

(* All subset bookkeeping is over int bitmasks: bit [t] set means FROM
   position [t] is part of the composite. Factor applicability, connectivity
   and candidate selection are single [land]s against masks precomputed once
   per search. *)
type search = {
  ctx : Ctx.t;
  block : Semant.block;
  factors : Normalize.factor list;  (* Access_path and truncate_interesting API *)
  farr : Normalize.factor array;    (* same factors, indexed for mask lookup *)
  fmask : int array;                (* fmask.(i) = farr.(i).tables as a bitmask *)
  adj : int array;                  (* adj.(t) = tables some factor joins to t *)
  env : Interesting_order.env;
  orders : Interesting_order.interner;
  mutable bound : float;            (* branch-and-bound total-cost upper bound *)
  mutable considered : int;
  solutions : (int, Plan.t list) Hashtbl.t;  (* mask -> retained plans *)
}

let mask_of_tables tabs = List.fold_left (fun m t -> m lor (1 lsl t)) 0 tabs

let mask_tables mask =
  let rec go i acc =
    if 1 lsl i > mask then List.rev acc
    else go (i + 1) (if mask land (1 lsl i) <> 0 then i :: acc else acc)
  in
  go 0 []

(* Composite rows get wider as relations join; tuples-per-page of the
   composite follows 1/tpp = sum(1/tpp_i). *)
let tuples_per_page_of s tabs =
  let inv =
    List.fold_left
      (fun acc tab ->
        let rel = Ctx.table_rel s.block tab in
        acc +. (1. /. Ctx.tuples_per_page s.ctx rel))
      0. tabs
  in
  if inv <= 0. then 50. else Float.max 1. (1. /. inv)

(* --- solution retention ---------------------------------------------- *)

(* "To minimize the number of different interesting orders (and hence of
   solutions in the tree) equivalence classes are computed and only the best
   solution for each is saved" — plus the cheapest solution overall (the
   'unordered' champion). Champion lookup keys on the interned order id, so
   the hash path compares ints, not column-ref lists. *)
let prune s plans =
  let w = s.ctx.Ctx.w in
  let key (p : Plan.t) =
    if s.ctx.Ctx.use_interesting_orders then
      Interesting_order.intern s.orders
        (Interesting_order.truncate_interesting s.env s.block s.factors p.order)
    else 0
  in
  let best : (int, Plan.t) Hashtbl.t = Hashtbl.create 8 in
  let seen = ref [] in
  List.iter
    (fun (p : Plan.t) ->
      let k = key p in
      match Hashtbl.find_opt best k with
      | Some (q : Plan.t) when Cost_model.compare_total ~w q.cost p.cost <= 0 -> ()
      | Some _ -> Hashtbl.replace best k p
      | None ->
        seen := k :: !seen;
        Hashtbl.add best k p)
    plans;
  (* first-seen class order keeps the output deterministic *)
  List.rev_map (fun k -> Hashtbl.find best k) !seen

let cheapest s plans =
  let w = s.ctx.Ctx.w in
  match plans with
  | [] -> None
  | p :: rest ->
    Some
      (List.fold_left
         (fun (a : Plan.t) (b : Plan.t) ->
           if Cost_model.compare_total ~w a.cost b.cost <= 0 then a else b)
         p rest)

(* --- branch and bound -------------------------------------------------- *)

(* COST is additive and non-negative along plan extensions, so a partial plan
   whose total already exceeds a known complete-plan total can never prefix
   the winner. Candidates over the bound are dropped before they are counted;
   the comparison is non-strict so equal-cost ties survive and the chosen
   plan is byte-identical with pruning on or off. *)
let within s (p : Plan.t) = Cost_model.total ~w:s.ctx.Ctx.w p.cost <= s.bound

(* --- factor bookkeeping ----------------------------------------------- *)

(* Factors applied when relation [j] joins composite [mask]: they reference j
   plus only available tables, and at least one outer table (purely local
   factors were applied at j's scan). All three conditions are mask tests. *)
let cross_factors s ~j ~mask =
  let jbit = 1 lsl j in
  let avail = mask lor jbit in
  let rec go i acc =
    if i < 0 then acc
    else
      let fm = s.fmask.(i) in
      let f = s.farr.(i) in
      let acc =
        if
          (not f.Normalize.has_subquery)
          && fm land jbit <> 0
          && fm land mask <> 0
          && fm land lnot avail = 0
        then f :: acc
        else acc
      in
      go (i - 1) acc
  in
  go (Array.length s.farr - 1) []

(* --- join construction ------------------------------------------------ *)

let note s (p : Plan.t) =
  s.considered <- s.considered + 1;
  p

let nl_join ~outer ~inner =
  let cost =
    Cost_model.nested_loop_join ~outer:outer.Plan.cost ~outer_card:outer.Plan.out_card
      ~inner_per_open:inner.Plan.cost
  in
  { Plan.node = Plan.Nl_join { outer; inner };
    tables = outer.Plan.tables @ inner.Plan.tables;
    order = outer.Plan.order;  (* the outer major order survives *)
    cost;
    out_card = outer.Plan.out_card *. inner.Plan.out_card }

let sort_plan s (input : Plan.t) key =
  let tpp = tuples_per_page_of s input.tables in
  let sc = Cost_model.sort_cost s.ctx ~tuples:input.out_card ~tuples_per_page:tpp in
  { Plan.node = Plan.Sort { input; key };
    tables = input.tables;
    order = key;
    cost = Cost_model.add input.cost sc;
    out_card = input.out_card }

let merge_join s ~outer ~inner ~outer_col ~inner_col ~merge_factor ~others =
  let cross_sel =
    List.fold_left
      (fun acc (f : Normalize.factor) -> acc *. Selectivity.factor s.ctx s.block f.pred)
      (Selectivity.factor s.ctx s.block merge_factor.Normalize.pred)
      others
  in
  let out_card = outer.Plan.out_card *. inner.Plan.out_card *. cross_sel in
  let matches =
    (* inner tuples surfaced during the merge, before residual filtering *)
    outer.Plan.out_card *. inner.Plan.out_card
    *. Selectivity.factor s.ctx s.block merge_factor.Normalize.pred
  in
  let cost =
    match inner.Plan.node with
    | Plan.Sort _ ->
      let tpp = tuples_per_page_of s inner.Plan.tables in
      let temppages =
        Cost_model.temp_pages ~tuples:inner.Plan.out_card ~tuples_per_page:tpp
      in
      Cost_model.merge_join_sorted_inner s.ctx ~outer:outer.Plan.cost
        ~inner_build:inner.Plan.cost ~temppages ~matches
    | Plan.Scan _ | Plan.Nl_join _ | Plan.Merge_join _ | Plan.Filter _ ->
      Cost_model.merge_join_ordered_inner ~outer:outer.Plan.cost
        ~inner_whole:inner.Plan.cost ~matches
  in
  { Plan.node =
      Plan.Merge_join
        { outer;
          inner;
          outer_col;
          inner_col;
          residual = List.map (fun (f : Normalize.factor) -> f.pred) others };
    tables = outer.Plan.tables @ inner.Plan.tables;
    order = outer.Plan.order;
    cost;
    out_card }

(* Extensions of [mask]'s solutions by joining in relation [j]. [mask_tabs]
   is [mask_tables mask], computed once by the driver and shared. Candidates
   whose total cost exceeds the branch-and-bound upper bound are dropped
   un-counted: dominated composites are never retained. *)
let extend s ~mask ~mask_tabs ~j =
  let outer_plans =
    List.filter (within s)
      (Option.value (Hashtbl.find_opt s.solutions mask) ~default:[])
  in
  if outer_plans = [] then []
  else begin
    (* Nested loops: every retained outer × every inner access path that can
       exploit the join predicates dynamically. *)
    let inner_paths =
      Access_path.paths s.ctx s.block ~factors:s.factors ~tab:j ~outer:mask_tabs
    in
    List.iter (fun p -> ignore (note s p)) inner_paths;
    let nl =
      List.concat_map
        (fun outer ->
          List.filter_map
            (fun inner ->
              let p = nl_join ~outer ~inner in
              if within s p then Some (note s p) else None)
            inner_paths)
        outer_plans
    in
    (* Merging scans: one per applicable equi-join factor. *)
    let cross = cross_factors s ~j ~mask in
    (* local-only inner paths: the merge scans the inner on its own. The set
       depends only on [j], not on the factor, so enumerate it once and share
       it across every equi-join factor of this extension. *)
    let local_inner =
      lazy
        (let ps =
           Access_path.paths s.ctx s.block ~factors:s.factors ~tab:j ~outer:[]
         in
         List.iter (fun p -> ignore (note s p)) ps;
         ps)
    in
    let merge =
      List.concat_map
        (fun (f : Normalize.factor) ->
          match f.equi_join with
          | Some (a, b)
            when (a.Semant.tab = j && mask land (1 lsl b.Semant.tab) <> 0)
                 || (b.Semant.tab = j && mask land (1 lsl a.Semant.tab) <> 0) ->
            let inner_col, outer_col = if a.Semant.tab = j then (a, b) else (b, a) in
            let others = List.filter (fun g -> g != f) cross in
            let inner_order = [ (inner_col, Ast.Asc) ] in
            let local_inner = Lazy.force local_inner in
            let ordered_inners =
              List.filter
                (fun (p : Plan.t) ->
                  Interesting_order.satisfies s.env ~produced:p.order
                    ~required:inner_order)
                local_inner
            in
            let sorted_inner =
              Option.map
                (fun best -> note s (sort_plan s best inner_order))
                (cheapest s local_inner)
            in
            let inners = ordered_inners @ Option.to_list sorted_inner in
            let outer_order = [ (outer_col, Ast.Asc) ] in
            let ordered_outers =
              List.filter
                (fun (p : Plan.t) ->
                  Interesting_order.satisfies s.env ~produced:p.order
                    ~required:outer_order)
                outer_plans
            in
            let sorted_outer =
              Option.map
                (fun best -> note s (sort_plan s best outer_order))
                (cheapest s outer_plans)
            in
            let outers = ordered_outers @ Option.to_list sorted_outer in
            List.concat_map
              (fun outer ->
                List.filter_map
                  (fun inner ->
                    let p =
                      merge_join s ~outer ~inner ~outer_col ~inner_col
                        ~merge_factor:f ~others
                    in
                    if within s p then Some (note s p) else None)
                  inners)
              outers
          | Some _ | None -> [])
        cross
    in
    nl @ merge
  end

(* --- driver ------------------------------------------------------------ *)

(* Relations joinable onto [mask]: connected ones first when the
   Cartesian-deferral heuristic is on, falling back to every remaining
   relation when nothing connects. Connectivity is one mask test against the
   precomputed adjacency. *)
let joinable_of s ~n ~mask =
  let rec remaining j acc =
    if j < 0 then acc
    else
      remaining (j - 1)
        (if mask land (1 lsl j) = 0 then j :: acc else acc)
  in
  let candidates = remaining (n - 1) [] in
  if not s.ctx.Ctx.use_heuristic then candidates
  else begin
    let conn = List.filter (fun j -> s.adj.(j) land mask <> 0) candidates in
    (* defer Cartesian products as late as possible *)
    if conn <> [] then conn else candidates
  end

let order_ok s ~required (p : Plan.t) =
  match s.block.Semant.group_by with
  | [] -> Interesting_order.satisfies s.env ~produced:p.order ~required
  | cols -> Interesting_order.satisfies_grouping s.env ~produced:p.order ~cols

(* Seed the branch-and-bound upper bound with a complete greedy left-deep
   plan: start at the cheapest single-relation path, repeatedly take the
   cheapest nested-loop extension over the same candidate set the DP would
   explore (so the bound is always achievable by the DP), and account for the
   final sort when the greedy plan misses the required order. *)
let greedy_seed s ~n ~required =
  let w = s.ctx.Ctx.w in
  let start =
    let rec go tab best =
      if tab >= n then best
      else
        let p = Option.get (cheapest s (Hashtbl.find s.solutions (1 lsl tab))) in
        let best =
          match best with
          | Some (q : Plan.t)
            when Cost_model.compare_total ~w q.cost p.Plan.cost <= 0 ->
            Some q
          | _ -> Some p
        in
        go (tab + 1) best
    in
    Option.get (go 0 None)
  in
  let plan = ref start in
  let mask = ref (mask_of_tables start.Plan.tables) in
  for _size = 2 to n do
    let m = !mask in
    let mask_tabs = mask_tables m in
    let best_ext =
      List.fold_left
        (fun acc j ->
          let inner_paths =
            Access_path.paths s.ctx s.block ~factors:s.factors ~tab:j
              ~outer:mask_tabs
          in
          List.fold_left
            (fun acc inner ->
              let p = note s (nl_join ~outer:!plan ~inner) in
              match acc with
              | Some ((q : Plan.t), _)
                when Cost_model.compare_total ~w q.cost p.Plan.cost <= 0 ->
                acc
              | _ -> Some (p, j))
            acc inner_paths)
        None
        (joinable_of s ~n ~mask:m)
    in
    match best_ext with
    | Some (p, j) ->
      plan := p;
      mask := m lor (1 lsl j)
    | None -> ()
  done;
  let complete = !plan in
  let final =
    if required = [] || order_ok s ~required complete then complete
    else note s (sort_plan s complete required)
  in
  s.bound <- Cost_model.total ~w final.Plan.cost

let plan_block ctx block ?required ~factors ~env () =
  let farr = Array.of_list factors in
  let fmask = Array.map (fun (f : Normalize.factor) -> mask_of_tables f.tables) farr in
  let n = List.length block.Semant.tables in
  let adj = Array.make (max n 1) 0 in
  Array.iteri
    (fun i (f : Normalize.factor) ->
      List.iter
        (fun t -> adj.(t) <- adj.(t) lor (fmask.(i) land lnot (1 lsl t)))
        f.tables)
    farr;
  let s =
    { ctx; block; factors; farr; fmask; adj; env;
      orders = Interesting_order.interner ();
      bound = Float.infinity;
      considered = 0;
      solutions = Hashtbl.create 64 }
  in
  let required =
    Option.value required ~default:(Interesting_order.required_order block)
  in
  let subsets = ref 0 in
  (* size-1 subsets: access paths with local predicates only *)
  for tab = 0 to n - 1 do
    incr subsets;
    let paths = Access_path.paths ctx block ~factors ~tab ~outer:[] in
    List.iter (fun p -> ignore (note s p)) paths;
    Hashtbl.replace s.solutions (1 lsl tab) (prune s paths)
  done;
  if ctx.Ctx.use_bnb && n >= 2 then greedy_seed s ~n ~required;
  (* grow subsets level by level: each level's worklist holds only the masks
     produced at the previous level *)
  let masks_of_size = Array.make (n + 1) [] in
  for tab = 0 to n - 1 do
    masks_of_size.(1) <- (1 lsl tab) :: masks_of_size.(1)
  done;
  for size = 2 to n do
    let acc : (int, Plan.t list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun mask ->
        let mask_tabs = mask_tables mask in
        List.iter
          (fun j ->
            let exts = extend s ~mask ~mask_tabs ~j in
            let key = mask lor (1 lsl j) in
            let prev = Option.value (Hashtbl.find_opt acc key) ~default:[] in
            Hashtbl.replace acc key (exts @ prev))
          (joinable_of s ~n ~mask))
      masks_of_size.(size - 1);
    Hashtbl.iter
      (fun mask plans ->
        incr subsets;
        Hashtbl.replace s.solutions mask (prune s plans);
        masks_of_size.(size) <- mask :: masks_of_size.(size))
      acc
  done;
  let full = (1 lsl n) - 1 in
  let finals = Option.value (Hashtbl.find_opt s.solutions full) ~default:[] in
  (if finals = [] then
     invalid_arg "Join_enum.plan_block: no complete solution (empty FROM?)");
  let best =
    if required = [] then Option.get (cheapest s finals)
    else begin
      (* grouping accepts any permutation of the grouping columns (equal
         keys end up adjacent either way); ORDER BY is positional *)
      let ordered = List.filter (order_ok s ~required) finals in
      let sorted_alt = note s (sort_plan s (Option.get (cheapest s finals)) required) in
      Option.get (cheapest s (sorted_alt :: ordered))
    end
  in
  let stored = Hashtbl.fold (fun _ ps acc -> acc + List.length ps) s.solutions 0 in
  let dp_table =
    Hashtbl.fold (fun mask ps acc -> (mask_tables mask, ps) :: acc) s.solutions []
    |> List.sort (fun (a, _) (b, _) ->
           match Int.compare (List.length a) (List.length b) with
           | 0 -> compare a b
           | d -> d)
  in
  ( best,
    { plans_considered = s.considered;
      solutions_stored = stored;
      subsets_examined = !subsets;
      dp_table } )
