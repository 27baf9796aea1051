(** Selectivity factors — TABLE 1 of the paper, now histogram-aware.

    F is the expected fraction of tuples satisfying a predicate; query
    cardinality QCARD is the product of FROM-list cardinalities times the
    product of the boolean factors' selectivities; RSICARD multiplies only
    the sargable factors' selectivities.

    When UPDATE STATISTICS has collected per-column equi-depth histograms
    (and they are not disabled — SET HISTOGRAMS OFF), equality, range,
    BETWEEN, IN-list and column=column factors are estimated from measured
    value distributions, with NULL fractions discounted; parameter slots
    from the plan-cache canonicalization resolve to their extracted
    literals. With histograms off or absent, every case falls back to
    TABLE 1's constants, byte-identical to the paper's behaviour. *)

val factor : Ctx.t -> Semant.block -> Semant.spred -> float
(** Selectivity of one boolean factor. Always in [0, 1]. *)

val factors_product : Ctx.t -> Semant.block -> Normalize.factor list -> float
(** Product of the factors' selectivities, with runtime cardinality-feedback
    corrections applied: a recorded observed selectivity for a table's local
    factor set replaces the estimated product of exactly those factors. *)

val block_qcard : Ctx.t -> Semant.block -> float
(** Estimated result cardinality of a whole block: cardinalities times
    selectivities, then 1 for a scalar aggregate and a distinct-groups
    estimate under GROUP BY. Used both for top blocks and for the
    "expected cardinality of the subquery result" in TABLE 1's
    [columnA IN subquery] rule. *)
