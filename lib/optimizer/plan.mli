(** Execution plans — the structural form of an optimizer solution.

    A solution is an ordered list of the relations to be joined, the join
    method for each join, and a plan for how each relation is accessed,
    including any sorts of the inner relation or the composite (the paper's
    Access Specification Language, rendered as an ADT). Plans are left-deep:
    the outer operand of every join is the composite built so far, the inner
    a single relation, exactly as the search in section 5 constructs them. *)

type bound_value =
  | Bv_const of Rel.Value.t
  | Bv_param of int
      (** a [?] placeholder: constant for the whole execution, bound when the
          prepared plan runs *)
  | Bv_outer of Semant.col_ref
      (** value taken from the current tuple of an already-joined (outer)
          relation — how a join predicate becomes an index lookup key inside
          a nested-loop join *)

type key_bound = {
  values : bound_value list;  (** prefix of the index key *)
  inclusive : bool;
}

type access =
  | Seg_scan
  | Idx_scan of {
      index : Catalog.index;
      lo : key_bound option;
      hi : key_bound option;
      dir : Ast.order_dir;
          (** scan direction: [Desc] walks the leaf chain backwards, serving
              descending interesting orders without a sort *)
      matching : bool;  (** the index matched at least one boolean factor *)
    }

type node =
  | Scan of {
      tab : int;                       (** FROM position *)
      access : access;
      sargs : Semant.spred list;       (** factors applied inside the RSS *)
      residual : Semant.spred list;    (** applied on returned tuples; may
                                           reference outer tables when the
                                           scan is a join inner *)
    }
  | Nl_join of { outer : t; inner : t }
  | Merge_join of {
      outer : t;
      inner : t;                       (** produces join-column order *)
      outer_col : Semant.col_ref;
      inner_col : Semant.col_ref;
      residual : Semant.spred list;    (** further join predicates *)
    }
  | Sort of { input : t; key : Interesting_order.order }
      (** materialize into a temporary list sorted on [key] *)
  | Filter of { input : t; preds : Semant.spred list }
      (** residual predicates evaluated above the joins — in particular the
          boolean factors containing subqueries *)

and t = {
  node : node;
  tables : int list;        (** FROM positions, in composite layout order *)
  order : Interesting_order.order;  (** produced tuple order; [] unordered *)
  cost : Cost_model.t;
  out_card : float;
      (** estimated tuples produced; for a join inner this is per opening *)
}

val join_methods_used : t -> string list
(** ["NL"; "MERGE"] etc., outermost last; for tests and explain output. *)

val pp : ?names:(int -> string) -> Format.formatter -> t -> unit
(** Tree rendering; [names] maps FROM positions to display names. *)

val describe : ?names:(int -> string) -> t -> string
(** One-line summary, e.g.
    ["MERGE(NL(Idx(EMP.JOB), Idx(JOB.JOB)), Sort(Seg(DEPT)))"]. *)
