type op = Eq | Ne | Lt | Le | Gt | Ge

type simple = {
  col : int;
  op : op;
  value : Rel.Value.t;
}

type t = simple list list

let always_true : t = [ [] ]

let eval_op op a b =
  if Rel.Value.is_null a || Rel.Value.is_null b then false
  else
    let d = Rel.Value.compare a b in
    match op with
    | Eq -> d = 0
    | Ne -> d <> 0
    | Lt -> d < 0
    | Le -> d <= 0
    | Gt -> d > 0
    | Ge -> d >= 0

(* One test per simple predicate. An [Int] value gets one closure per
   operator whose int-against-int case is a machine compare; any other
   column value goes through [eval_op], which is what every case means. *)
let compile_simple { col; op; value } : Rel.Tuple.t -> bool =
  match value with
  | Rel.Value.Null -> fun _ -> false
  | Rel.Value.Int k ->
    (match op with
     | Eq -> fun t -> (match Rel.Tuple.get t col with Int x -> x = k | v -> eval_op Eq v value)
     | Ne -> fun t -> (match Rel.Tuple.get t col with Int x -> x <> k | v -> eval_op Ne v value)
     | Lt -> fun t -> (match Rel.Tuple.get t col with Int x -> x < k | v -> eval_op Lt v value)
     | Le -> fun t -> (match Rel.Tuple.get t col with Int x -> x <= k | v -> eval_op Le v value)
     | Gt -> fun t -> (match Rel.Tuple.get t col with Int x -> x > k | v -> eval_op Gt v value)
     | Ge -> fun t -> (match Rel.Tuple.get t col with Int x -> x >= k | v -> eval_op Ge v value))
  | Rel.Value.Float _ | Rel.Value.Str _ -> fun t -> eval_op op (Rel.Tuple.get t col) value

let rec for_all_from (fs : (Rel.Tuple.t -> bool) array) t i =
  i = Array.length fs || (fs.(i) t && for_all_from fs t (i + 1))

let rec exists_from (fs : (Rel.Tuple.t -> bool) array) t i =
  i < Array.length fs && (fs.(i) t || exists_from fs t (i + 1))

let compile_conj = function
  | [] -> fun _ -> true
  | [ s ] -> compile_simple s
  | [ s1; s2 ] ->
    let f = compile_simple s1 and g = compile_simple s2 in
    fun t -> f t && g t
  | c ->
    let fs = Array.of_list (List.map compile_simple c) in
    fun t -> for_all_from fs t 0

let compile (sarg : t) =
  match sarg with
  | [] -> fun _ -> false
  | [ c ] -> compile_conj c
  | cs ->
    let fs = Array.of_list (List.map compile_conj cs) in
    fun t -> exists_from fs t 0

let conjoin a b =
  List.concat_map (fun ca -> List.map (fun cb -> ca @ cb) b) a

let op_to_string = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let pp ppf t =
  let pp_simple ppf s =
    Format.fprintf ppf "#%d %s %a" s.col (op_to_string s.op) Rel.Value.pp s.value
  in
  let pp_conj ppf c =
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " AND ")
         pp_simple)
      c
  in
  match t with
  | [ [] ] -> Format.pp_print_string ppf "TRUE"
  | [] -> Format.pp_print_string ppf "FALSE"
  | _ ->
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " OR ")
      pp_conj ppf t
