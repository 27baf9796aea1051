(** Cardinality feedback: runtime corrections to selectivity estimates.

    On a gross misestimate (q-error above the engine's threshold) the
    executor records the observed selectivity of a single-table block's
    restriction on the relation's catalog entry, keyed by a canonical
    rendering of the factor set. The optimizer consults the record in place
    of the estimated factor product; recording bumps the relation's
    [feedback_gen] so the plan cache retires exactly the plans costed under
    the stale estimate. Corrections are cleared by UPDATE STATISTICS. *)

val local_factors :
  Normalize.factor list -> tab:int -> Normalize.factor list
(** Factors referencing exactly FROM position [tab], with no subqueries and
    no outer references — the ones whose observed joint selectivity is
    unambiguous from a block's output count. *)

val key : params:Rel.Value.t array -> Normalize.factor list -> string option
(** Canonical, factor-order-insensitive key for the set, with parameter
    slots rendered as their bound values so the plan-cache path and the
    direct path agree. [None] for an empty set (no restriction to
    correct). *)

val lookup : Ctx.t -> Catalog.relation -> key:string -> float option
(** The recorded observed selectivity, when feedback is enabled. *)

val record : Catalog.relation -> key:string -> float -> bool
(** Store an observed selectivity; [true] (with a [feedback_gen] bump) when
    it is new or differs materially from what was recorded, [false] when the
    existing record already matches — re-observing a settled correction must
    not retire plans forever. A relation holds at most 32 corrections
    ([max_keys] in [feedback.ml]; no SET option) until UPDATE STATISTICS
    clears them: a new key past the cap is not recorded and retires nothing
    ([false]). *)
