(** Optimizer statistics, as kept in the System R catalogs.

    For each relation T: NCARD(T), TCARD(T) and P(T); for each index I:
    ICARD(I), NINDX(I) plus the low/high key values used by the
    linear-interpolation selectivity estimate for range predicates.
    Statistics are initialized at load/index-creation time and refreshed by
    UPDATE STATISTICS, never per-INSERT (that would serialize catalog access).
    A missing statistic means "assume the relation is small" (TABLE 1's
    arbitrary defaults). *)

type relation = {
  ncard : int;   (** cardinality of the relation *)
  tcard : int;   (** pages of its segment holding tuples of the relation *)
  p : float;     (** TCARD / non-empty pages of the segment *)
}

type index = {
  icard : int;        (** distinct keys in the index *)
  nindx : int;        (** pages in the index *)
  low_key : Rel.Value.t option;   (** minimum first-column key value *)
  high_key : Rel.Value.t option;  (** maximum first-column key value *)
  cluster_ratio : float;
  (** measured fraction of consecutive index entries landing on the same data
      page — 1.0 for a freshly loaded clustered index; diagnostic only *)
}

type column = {
  hist : Histogram.t;
  (** equi-depth histogram, distinct count and NULL fraction, for every
      column — indexed or not. Collected by the same UPDATE STATISTICS pass
      as the relation/index statistics and versioned by the relation's
      [stats_version], so the plan cache invalidates cached plans exactly
      when the estimates they were costed under change. *)
}

val pp_relation : Format.formatter -> relation -> unit
val pp_index : Format.formatter -> index -> unit
