(* Streaming aggregation and projection over a block's composite tuples.

   The select list is compiled once per execution into a [shape]: every
   aggregate subexpression gets a slot in a constant-size accumulator array
   (running count / fold value — no per-group tuple or value lists), and the
   select expressions become closures from (accumulators, representative
   tuple) to output values. Input tuples are then folded one at a time as
   the cursor produces them; a group's state is O(1) regardless of its
   cardinality. Aggregate arguments and representative-tuple parts are
   closed into position-resolved closures ({!Eval.compile_expr}) then. *)

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
  outputs : (acc array -> Rel.Tuple.t option -> Rel.Value.t) list;
      (* one per select expression, applied to (accumulators, representative) *)
}

(* Close the select list over the layout once. *)
let compile_shape env layout (block : Semant.block) : shape =
  let aggs = ref [] in
  let n_aggs = ref 0 in
  let per_tuple = Eval.compile_expr env layout in
  let rec out (e : Semant.sexpr) : acc array -> Rel.Tuple.t option -> Rel.Value.t =
    match e with
    | Semant.E_agg (f, inner) ->
      let slot = !n_aggs in
      incr n_aggs;
      aggs := compile_step f (per_tuple inner) :: !aggs;
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

(* --- streaming folds -------------------------------------------------------- *)

(* Each fold compiles when applied to (env, layout, block); the result runs
   over one cursor per application. *)
let project_stream env layout (block : Semant.block) =
  let fs = List.map (fun (e, _) -> Eval.compile_expr env layout e) block.Semant.select in
  fun next ->
    let rec go acc =
      match next () with
      | None -> List.rev acc
      | Some tuple -> go (Array.of_list (List.map (fun f -> f tuple) fs) :: acc)
    in
    go []

let scalar_stream env layout (block : Semant.block) =
  let shape = compile_shape env layout block in
  fun next ->
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

let group_stream env layout (block : Semant.block) =
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
  fun next ->
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

let compile env layout (block : Semant.block) =
  if block.Semant.scalar_agg then begin
    let fold = scalar_stream env layout block in
    fun next -> [ fold next ]
  end
  else if block.Semant.group_by = [] then project_stream env layout block
  else begin
    let group = group_stream env layout block in
    match block.Semant.order_by with
    | [] -> group
    | obs ->
      (* order the aggregated rows by the select positions of the ORDER BY
         columns *)
      let pos_of (c : Semant.col_ref) =
        let rec find i = function
          | [] ->
            invalid_arg
              "Executor: ORDER BY column of a grouped query must appear in its \
               select list"
          | (Semant.E_col c', _) :: _
            when c'.Semant.tab = c.Semant.tab && c'.Semant.col = c.Semant.col ->
            i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 block.Semant.select
      in
      let cmp = Eval.compile_cmp_pos (List.map (fun (c, d) -> (pos_of c, d)) obs) in
      fun next -> List.stable_sort cmp (group next)
  end
