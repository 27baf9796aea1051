(* Streaming aggregation and projection over a block's composite tuples.

   The select list is compiled once per cursor into a [shape]: every
   aggregate subexpression gets a slot in a constant-size accumulator array
   (running count / fold value — no per-group tuple or value lists), and the
   select expressions become closures from (accumulators, representative
   tuple) to output values. Input tuples are then folded one at a time as
   the cursor produces them; a group's state is O(1) regardless of its
   cardinality. Aggregate arguments and representative-tuple parts are
   closed into position-resolved closures ({!Eval.compile_expr}) at
   cursor-open time. *)

(* --- O(1) aggregate accumulators ---------------------------------------- *)

(* One accumulator per aggregate occurrence: [seen] counts non-null argument
   values, [v] carries the running left fold (first value, then
   Value.add/min/max with each next one), in input order.

   While every value folded so far has been an [Int], the running value lives
   unboxed in [ik] ([int_mode = true]) so integer SUM/MIN/MAX allocate
   nothing per tuple; the first non-int argument flushes [ik] into [v] and
   the fold continues through [Rel.Value.add]/[compare]. *)
type acc = {
  mutable seen : int;
  mutable v : Rel.Value.t;
  mutable ik : int;
  mutable int_mode : bool;
}

let flush (a : acc) =
  if a.int_mode then begin
    a.v <- Rel.Value.Int a.ik;
    a.int_mode <- false
  end

(* Specialize the per-tuple step for one aggregate occurrence: the [agg_fn]
   dispatch happens once at compile time, and int arguments fold through
   [ik] without boxing. Count never touches the fold value at all. *)
let compile_step (f : Ast.agg_fn) (arg : Rel.Tuple.t -> Rel.Value.t) :
    acc -> Rel.Tuple.t -> unit =
  match f with
  | Ast.Count ->
    fun a t ->
      (match arg t with Rel.Value.Null -> () | _ -> a.seen <- a.seen + 1)
  | Ast.Sum | Ast.Avg ->
    fun a t ->
      (match arg t with
       | Rel.Value.Null -> ()
       | Rel.Value.Int x ->
         if a.seen = 0 then begin
           a.ik <- x;
           a.int_mode <- true
         end
         else if a.int_mode then a.ik <- a.ik + x
         else a.v <- Rel.Value.add a.v (Rel.Value.Int x);
         a.seen <- a.seen + 1
       | x ->
         if a.seen = 0 then a.v <- x
         else begin
           flush a;
           a.v <- Rel.Value.add a.v x
         end;
         a.seen <- a.seen + 1)
  | Ast.Min ->
    fun a t ->
      (match arg t with
       | Rel.Value.Null -> ()
       | Rel.Value.Int x ->
         if a.seen = 0 then begin
           a.ik <- x;
           a.int_mode <- true
         end
         else if a.int_mode then (if x < a.ik then a.ik <- x)
         else if Rel.Value.compare (Rel.Value.Int x) a.v < 0 then
           a.v <- Rel.Value.Int x;
         a.seen <- a.seen + 1
       | x ->
         if a.seen = 0 then a.v <- x
         else begin
           flush a;
           if Rel.Value.compare x a.v < 0 then a.v <- x
         end;
         a.seen <- a.seen + 1)
  | Ast.Max ->
    fun a t ->
      (match arg t with
       | Rel.Value.Null -> ()
       | Rel.Value.Int x ->
         if a.seen = 0 then begin
           a.ik <- x;
           a.int_mode <- true
         end
         else if a.int_mode then (if x > a.ik then a.ik <- x)
         else if Rel.Value.compare (Rel.Value.Int x) a.v > 0 then
           a.v <- Rel.Value.Int x;
         a.seen <- a.seen + 1
       | x ->
         if a.seen = 0 then a.v <- x
         else begin
           flush a;
           if Rel.Value.compare x a.v > 0 then a.v <- x
         end;
         a.seen <- a.seen + 1)

let acc_final (f : Ast.agg_fn) (a : acc) =
  flush a;
  match f with
  | Ast.Count -> Rel.Value.Int a.seen
  | (Ast.Sum | Ast.Avg | Ast.Min | Ast.Max) when a.seen = 0 -> Rel.Value.Null
  | Ast.Sum | Ast.Min | Ast.Max -> a.v
  | Ast.Avg ->
    (match Rel.Value.to_float a.v with
     | Some s -> Rel.Value.Float (s /. float_of_int a.seen)
     | None -> Rel.Value.Null)

(* --- compiled select-list shape ------------------------------------------ *)

type shape = {
  steps : (acc -> Rel.Tuple.t -> unit) array;
      (* per aggregate occurrence: specialized fold step closed over the
         compiled argument — no agg_fn dispatch per tuple *)
  fns : Ast.agg_fn array;
      (* the aggregate function of each slot, for merging partial
         accumulators (parallel aggregation) *)
  outputs : (acc array -> Rel.Tuple.t option -> Rel.Value.t) list;
      (* one per select expression, applied to (accumulators, representative) *)
}

(* Close the select list over the layout once. *)
let compile_shape env layout (block : Semant.block) : shape =
  let aggs = ref [] in
  let agg_fns = ref [] in
  let n_aggs = ref 0 in
  let per_tuple = Eval.compile_expr env layout in
  let rec out (e : Semant.sexpr) : acc array -> Rel.Tuple.t option -> Rel.Value.t =
    match e with
    | Semant.E_agg (f, inner) ->
      let slot = !n_aggs in
      incr n_aggs;
      aggs := compile_step f (per_tuple inner) :: !aggs;
      agg_fns := f :: !agg_fns;
      fun accs _rep -> acc_final f accs.(slot)
    | Semant.E_binop (op, a, b) ->
      let fa = out a and fb = out b in
      let f = Eval.arith_fn op in
      fun accs rep -> f (fa accs rep) (fb accs rep)
    | Semant.E_col _ | Semant.E_outer _ | Semant.E_const _ | Semant.E_param _ ->
      let fe = per_tuple e in
      fun _accs rep ->
        (match rep with Some tuple -> fe tuple | None -> Rel.Value.Null)
  in
  let outputs = List.map (fun (e, _) -> out e) block.Semant.select in
  { steps = Array.of_list (List.rev !aggs);
    fns = Array.of_list (List.rev !agg_fns);
    outputs }

let fresh_accs shape =
  Array.init (Array.length shape.steps) (fun _ ->
      { seen = 0; v = Rel.Value.Null; ik = 0; int_mode = false })

let step_accs shape accs tuple =
  for i = 0 to Array.length shape.steps - 1 do
    (Array.unsafe_get shape.steps i) (Array.unsafe_get accs i) tuple
  done

let finish shape accs rep =
  Array.of_list (List.map (fun f -> f accs rep) shape.outputs)

(* --- streaming entry points ---------------------------------------------- *)

let project_stream env layout (block : Semant.block) next =
  let fs = List.map (fun (e, _) -> Eval.compile_expr env layout e) block.Semant.select in
  let rec go acc =
    match next () with
    | None -> List.rev acc
    | Some tuple -> go (Array.of_list (List.map (fun f -> f tuple) fs) :: acc)
  in
  go []

let scalar_stream env layout (block : Semant.block) next =
  let shape = compile_shape env layout block in
  let accs = fresh_accs shape in
  let rep = ref None in
  let rec go () =
    match next () with
    | None -> ()
    | Some tuple ->
      (match !rep with None -> rep := Some tuple | Some _ -> ());
      step_accs shape accs tuple;
      go ()
  in
  go ();
  finish shape accs !rep

let group_stream env layout (block : Semant.block) next =
  let shape = compile_shape env layout block in
  let key_pos = List.map (Layout.pos layout) block.Semant.group_by in
  (* boundary test runs once per input tuple; the common single int grouping
     column compares unboxed instead of walking the position list. *)
  let same_group =
    match key_pos with
    | [ p ] ->
      fun a b ->
        (match Rel.Tuple.get a p, Rel.Tuple.get b p with
         | Rel.Value.Int x, Rel.Value.Int y -> x = y
         | va, vb -> Rel.Value.compare va vb = 0)
    | ps -> fun a b -> Rel.Tuple.compare_on ps a b = 0
  in
  (* input arrives ordered on the grouping columns; a key change closes the
     current group. The representative tuple doubles as the group key. *)
  let rows = ref [] in
  let accs = ref (fresh_accs shape) in
  let rep = ref None in
  let close () =
    match !rep with
    | None -> ()
    | Some _ as r ->
      rows := finish shape !accs r :: !rows;
      accs := fresh_accs shape;
      rep := None
  in
  let rec go () =
    match next () with
    | None -> close ()
    | Some tuple ->
      (match !rep with
       | Some r when not (same_group r tuple) -> close ()
       | _ -> ());
      (match !rep with None -> rep := Some tuple | Some _ -> ());
      step_accs shape !accs tuple;
      go ()
  in
  go ();
  List.rev !rows

(* --- partial aggregation (parallel execution) ----------------------------- *)

(* Merge accumulator [b] into [a], where [a] holds the fold over an earlier
   (partition-order) slice of the input and [b] a later one. Count adds;
   Sum/Avg add the running values (exact for the all-int fast path — int
   addition is associative; float sums can differ from the serial fold order
   and that is documented in DESIGN.md); Min/Max keep [a] on ties, matching
   the serial left-fold which also keeps the earlier value. *)
let merge_acc (f : Ast.agg_fn) (a : acc) (b : acc) =
  match f with
  | Ast.Count -> a.seen <- a.seen + b.seen
  | Ast.Sum | Ast.Avg ->
    if b.seen = 0 then ()
    else if a.seen = 0 then begin
      a.v <- b.v;
      a.ik <- b.ik;
      a.int_mode <- b.int_mode;
      a.seen <- b.seen
    end
    else begin
      (if a.int_mode && b.int_mode then a.ik <- a.ik + b.ik
       else begin
         flush a;
         flush b;
         a.v <- Rel.Value.add a.v b.v
       end);
      a.seen <- a.seen + b.seen
    end
  | Ast.Min ->
    if b.seen = 0 then ()
    else if a.seen = 0 then begin
      a.v <- b.v;
      a.ik <- b.ik;
      a.int_mode <- b.int_mode;
      a.seen <- b.seen
    end
    else begin
      (if a.int_mode && b.int_mode then begin
         if b.ik < a.ik then a.ik <- b.ik
       end
       else begin
         flush a;
         flush b;
         if Rel.Value.compare b.v a.v < 0 then a.v <- b.v
       end);
      a.seen <- a.seen + b.seen
    end
  | Ast.Max ->
    if b.seen = 0 then ()
    else if a.seen = 0 then begin
      a.v <- b.v;
      a.ik <- b.ik;
      a.int_mode <- b.int_mode;
      a.seen <- b.seen
    end
    else begin
      (if a.int_mode && b.int_mode then begin
         if b.ik > a.ik then a.ik <- b.ik
       end
       else begin
         flush a;
         flush b;
         if Rel.Value.compare b.v a.v > 0 then a.v <- b.v
       end);
      a.seen <- a.seen + b.seen
    end

let merge_accs fns (a : acc array) (b : acc array) =
  Array.iteri (fun i f -> merge_acc f a.(i) b.(i)) fns

type partial = {
  p_shape : shape;
  p_scalar : (acc array * Rel.Tuple.t option) option;
      (* scalar block: the accumulators and first tuple of this slice *)
  p_groups : (Rel.Tuple.t * acc array) list;
      (* grouped block: (representative = first tuple of the group in this
         slice, accumulators), in first-seen order *)
}

let fold_partial env layout (block : Semant.block) next =
  let shape = compile_shape env layout block in
  if block.Semant.group_by = [] then begin
    let accs = fresh_accs shape in
    let rep = ref None in
    let rec go () =
      match next () with
      | None -> ()
      | Some tuple ->
        (match !rep with None -> rep := Some tuple | Some _ -> ());
        step_accs shape accs tuple;
        go ()
    in
    go ();
    { p_shape = shape; p_scalar = Some (accs, !rep); p_groups = [] }
  end
  else begin
    (* The slice arrives in scan order, not group order, so groups build in a
       hash table; first-seen order is recorded because the first occurrence
       in the earliest slice is the serial representative. *)
    let key_pos =
      Array.of_list (List.map (Layout.pos layout) block.Semant.group_by)
    in
    let key_of tuple = Array.map (Rel.Tuple.get tuple) key_pos in
    let tbl : (Rel.Value.t array, Rel.Tuple.t * acc array) Hashtbl.t =
      Hashtbl.create 64
    in
    let order = ref [] in
    let rec go () =
      match next () with
      | None -> ()
      | Some tuple ->
        let k = key_of tuple in
        let accs =
          match Hashtbl.find_opt tbl k with
          | Some (_, accs) -> accs
          | None ->
            let accs = fresh_accs shape in
            Hashtbl.add tbl k (tuple, accs);
            order := k :: !order;
            accs
        in
        step_accs shape accs tuple;
        go ()
    in
    go ();
    let groups = List.rev_map (fun k -> Hashtbl.find tbl k) !order in
    { p_shape = shape; p_scalar = None; p_groups = groups }
  end

let merge_partials layout (block : Semant.block) (partials : partial list) =
  match partials with
  | [] -> []
  | first :: _ ->
    let shape = first.p_shape in
    let fns = shape.fns in
    if block.Semant.group_by = [] then begin
      let accs = fresh_accs shape in
      let rep = ref None in
      List.iter
        (fun p ->
          match p.p_scalar with
          | None -> invalid_arg "Exec_agg.merge_partials: scalar/group mix"
          | Some (pa, prep) ->
            merge_accs fns accs pa;
            (match !rep, prep with
             | None, (Some _ as r) -> rep := r
             | _ -> ()))
        partials;
      [ finish shape accs !rep ]
    end
    else begin
      let key_pos =
        Array.of_list (List.map (Layout.pos layout) block.Semant.group_by)
      in
      let tbl : (Rel.Value.t array, Rel.Tuple.t * acc array) Hashtbl.t =
        Hashtbl.create 64
      in
      let order = ref [] in
      List.iter
        (fun p ->
          List.iter
            (fun (rep, accs) ->
              let k = Array.map (Rel.Tuple.get rep) key_pos in
              match Hashtbl.find_opt tbl k with
              | Some (_, a) -> merge_accs fns a accs
              | None ->
                Hashtbl.add tbl k (rep, accs);
                order := k :: !order)
            p.p_groups)
        partials;
      let merged = List.rev_map (fun k -> Hashtbl.find tbl k) !order in
      (* Serial output order is ascending on the grouping columns (group
         plans always sort Asc); among compare-equal keys, first-seen order =
         partition order = serial input order, so a stable sort restores the
         serial sequence and picks the serial representative. *)
      let cmp_rep (r1, _) (r2, _) =
        let rec go i =
          if i >= Array.length key_pos then 0
          else
            let p = key_pos.(i) in
            let d = Rel.Value.compare (Rel.Tuple.get r1 p) (Rel.Tuple.get r2 p) in
            if d <> 0 then d else go (i + 1)
        in
        go 0
      in
      let sorted = List.stable_sort cmp_rep merged in
      (* Hash-key equality can be finer than [Value.compare] equality
         (e.g. NaN never equals itself structurally): re-merge
         compare-equal neighbours, keeping the left (earlier) group. *)
      let rec squash = function
        | (r1, a1) :: ((r2, a2) :: rest) when cmp_rep (r1, a1) (r2, a2) = 0 ->
          merge_accs fns a1 a2;
          squash ((r1, a1) :: rest)
        | g :: rest -> g :: squash rest
        | [] -> []
      in
      List.map (fun (rep, accs) -> finish shape accs (Some rep)) (squash sorted)
    end
