(* Cardinality feedback: runtime corrections to selectivity estimates.

   When a query's actual output cardinality grossly misses the optimizer's
   estimate (q-error above the engine's threshold), the executor records the
   observed selectivity of the block's restriction against the relation's
   catalog entry. The record is keyed by a canonical rendering of the
   factor set it corrects, so the next optimization of any statement with
   the same restriction — cached or not — sees the measured value instead
   of the misestimated product. Recording bumps the relation's
   [feedback_gen], which cached plans depend on like [stats_version]: the
   plans costed under the stale estimate are retired and nothing else.

   Only single-table blocks whose factors are all *local* — referencing
   exactly that table, with no subqueries and no outer references — are
   recorded: for those the observed output cardinality is unambiguously
   NCARD * (product of factor selectivities), so actual/NCARD is the
   corrected product. Joins and correlated predicates fold several unknowns
   into one count and are left to the estimator. *)

open Semant

let rec expr_has_outer = function
  | E_outer _ -> true
  | E_col _ | E_const _ | E_param _ -> false
  | E_binop (_, a, b) -> expr_has_outer a || expr_has_outer b
  | E_agg (_, e) -> expr_has_outer e

let rec pred_has_outer = function
  | P_cmp (a, _, b) -> expr_has_outer a || expr_has_outer b
  | P_between (a, b, c) ->
    expr_has_outer a || expr_has_outer b || expr_has_outer c
  | P_in_list (e, _) -> expr_has_outer e
  | P_in_sub _ | P_cmp_sub _ -> true (* conservatively non-local *)
  | P_and (a, b) | P_or (a, b) -> pred_has_outer a || pred_has_outer b
  | P_not a -> pred_has_outer a

let local_factors factors ~tab =
  List.filter
    (fun (f : Normalize.factor) ->
      f.tables = [ tab ] && (not f.has_subquery) && not (pred_has_outer f.pred))
    factors

(* --- canonical rendering ---------------------------------------------- *)

(* The same restriction must produce the same key whether it arrives with
   inline literals (direct optimization) or as extracted parameters (the
   plan-cache path), so parameter slots render as their bound value when
   one is known. Table positions are stripped — the key lives on the
   relation, and a single-table block's factors reference only it. *)

(* literals in the SQL writer's form, which keeps every float digit that
   tells two values apart *)
let value_str v =
  let b = Buffer.create 16 in
  Ast.add_value b v;
  Buffer.contents b

let expr_str ~params e =
  let buf = Buffer.create 32 in
  let rec go e =
    match e with
    | E_col c -> Buffer.add_string buf (Printf.sprintf "c%d" c.col)
    | E_outer _ -> Buffer.add_string buf "<outer>" (* excluded by filter *)
    | E_const v -> Ast.add_value buf v
    | E_param i ->
      if i >= 0 && i < Array.length params then Ast.add_value buf params.(i)
      else Buffer.add_string buf (Printf.sprintf "?%d" i)
    | E_binop (op, a, b) ->
      let s =
        match op with
        | Ast.Add -> "+" | Ast.Sub -> "-" | Ast.Mul -> "*" | Ast.Div -> "/"
      in
      Buffer.add_char buf '(';
      go a; Buffer.add_string buf s; go b;
      Buffer.add_char buf ')'
    | E_agg (fn, a) ->
      let name =
        match fn with
        | Ast.Avg -> "avg" | Ast.Min -> "min" | Ast.Max -> "max"
        | Ast.Sum -> "sum" | Ast.Count -> "count"
      in
      Buffer.add_string buf name;
      Buffer.add_char buf '(';
      go a;
      Buffer.add_char buf ')'
  in
  go e;
  Buffer.contents buf

let cmp_str (c : Ast.comparison) =
  match c with
  | Ast.Eq -> "=" | Ast.Ne -> "<>"
  | Ast.Lt -> "<" | Ast.Le -> "<=" | Ast.Gt -> ">" | Ast.Ge -> ">="

let rec pred_str ~params p =
  match p with
  | P_cmp (a, op, b) ->
    Printf.sprintf "%s%s%s" (expr_str ~params a) (cmp_str op)
      (expr_str ~params b)
  | P_between (e, lo, hi) ->
    Printf.sprintf "%s between %s and %s" (expr_str ~params e)
      (expr_str ~params lo) (expr_str ~params hi)
  | P_in_list (e, vs) ->
    Printf.sprintf "%s in(%s)" (expr_str ~params e)
      (String.concat "," (List.map value_str (List.sort_uniq Rel.Value.compare vs)))
  | P_in_sub _ | P_cmp_sub _ -> "<sub>" (* excluded by filter *)
  | P_and (a, b) ->
    Printf.sprintf "(%s and %s)" (pred_str ~params a) (pred_str ~params b)
  | P_or (a, b) ->
    Printf.sprintf "(%s or %s)" (pred_str ~params a) (pred_str ~params b)
  | P_not a -> Printf.sprintf "not(%s)" (pred_str ~params a)

let key ~params factors =
  match factors with
  | [] -> None
  | fs ->
    (* order-insensitive: WHERE a=1 AND b=2 keys like WHERE b=2 AND a=1 *)
    Some
      (String.concat "&"
         (List.sort String.compare
            (List.map
               (fun (f : Normalize.factor) -> pred_str ~params f.pred)
               fs)))

(* --- catalog-side record/lookup --------------------------------------- *)

(* Feedback tables are touched from read-only statements running under the
   engine's *shared* latch (lookup during optimization, record at cursor
   close), so concurrent readers may race on a relation's hashtable; one
   engine-wide mutex covers both sides — the critical sections are a find
   or a replace, far below statement cost. *)
let guard = Mutex.create ()

let guarded f =
  Mutex.lock guard;
  Fun.protect ~finally:(fun () -> Mutex.unlock guard) f

let lookup (ctx : Ctx.t) (rel : Catalog.relation) ~key =
  if ctx.Ctx.use_feedback then
    guarded (fun () -> Hashtbl.find_opt rel.Catalog.feedback key)
  else None

(* A correction is only worth a plan-cache retirement when it is new or has
   drifted materially (>10% relative) from what is already recorded —
   otherwise re-recording the same observation would retire plans forever. *)
let materially_different old_sel new_sel =
  let denom = Float.max (Float.abs old_sel) 1e-9 in
  Float.abs (new_sel -. old_sel) /. denom > 0.1

(* At most this many corrections per relation between UPDATE STATISTICS:
   each new key retires every plan cached on the relation, so keys past the
   cap are dropped rather than re-optimizing on every new literal. *)
let max_keys = 32

let record (rel : Catalog.relation) ~key sel =
  guarded (fun () ->
      let changed =
        match Hashtbl.find_opt rel.Catalog.feedback key with
        | None -> Hashtbl.length rel.Catalog.feedback < max_keys
        | Some old_sel -> materially_different old_sel sel
      in
      if changed then begin
        Hashtbl.replace rel.Catalog.feedback key sel;
        rel.Catalog.feedback_gen <- rel.Catalog.feedback_gen + 1
      end;
      changed)
