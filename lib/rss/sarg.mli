(** Search arguments (SARGs).

    A sargable predicate has the form "column comparison-operator value"; a
    SARG is a boolean expression of such predicates in disjunctive normal
    form, applied to tuples *inside* the RSS before they are returned across
    the RSI. Filtering here avoids the per-tuple RSI-call overhead for tuples
    that can be rejected cheaply — which is why RSICARD (expected RSI calls)
    counts only tuples passing the sargable factors. *)

type op = Eq | Ne | Lt | Le | Gt | Ge

type simple = {
  col : int;          (** column position within the stored tuple *)
  op : op;
  value : Rel.Value.t;
}

type t = simple list list
(** Disjunction of conjunctions; [[]] (one empty conjunct) accepts all, and
    [] (no disjuncts) rejects all. *)

val always_true : t

val eval_op : op -> Rel.Value.t -> Rel.Value.t -> bool
(** SQL comparison semantics: any comparison against NULL is false. *)

val compile : t -> Rel.Tuple.t -> bool
(** [compile sarg] is the SARG's test on a stored tuple, built once (a scan
    compiles its SARG at open): true when some conjunct's every simple
    predicate holds under {!eval_op}. *)

val conjoin : t -> t -> t
(** DNF conjunction (cross product of disjuncts). *)

val pp : Format.formatter -> t -> unit
