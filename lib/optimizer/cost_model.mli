(** The cost model: COST = PAGE FETCHES + W * (RSI CALLS).

    Costs are kept as their two components so W can be applied at comparison
    time; TABLE 2's single-relation formulas and section 5's join/sort
    formulas are implemented here. *)

type t = {
  pages : float;  (** predicted page fetches (I/O) *)
  rsi : float;    (** predicted RSI calls (CPU proxy) *)
}

val zero : t
val add : t -> t -> t
val scale : float -> t -> t
val total : w:float -> t -> float
val compare_total : w:float -> t -> t -> int

(** The six situations of TABLE 2. [f] is F(preds): the product of the
    selectivity factors of the boolean factors matching the index. *)
type situation =
  | Unique_index_eq
      (** unique index matching an equal predicate: 1 + 1 + W *)
  | Clustered_matching of float
      (** F(preds) * (NINDX + TCARD) + W * RSICARD *)
  | Nonclustered_matching of float
      (** F(preds) * (NINDX + NCARD) + W * RSICARD, or the TCARD form when
          the retrieved pages fit in the buffer *)
  | Clustered_nonmatching
      (** (NINDX + TCARD) + W * RSICARD *)
  | Nonclustered_nonmatching
      (** (NINDX + NCARD) + W * RSICARD, or the TCARD form when it fits *)
  | Segment_scan_cost
      (** TCARD / P + W * RSICARD *)

val distinct_pages : tuples:float -> pages:float -> float
(** Cardenas' approximation of Yao's formula: expected distinct pages
    containing [tuples] uniform draws over [pages] pages. Used by the
    [refined_pages] extension for non-clustered matching scans. *)

val single_relation :
  Ctx.t ->
  rel:Ctx.rel_stats ->
  idx:Ctx.idx_stats option ->
  situation:situation ->
  rsicard:float ->
  t
(** Predicted cost of one access path. [idx] must be provided for the index
    situations. *)

val sort_cost :
  Ctx.t -> tuples:float -> tuples_per_page:float -> t
(** C-sort minus the input retrieval (charged by the feeding path): run
    writes plus a read+write of every page per merge pass, via
    {!Rss.Sort.passes}. *)

val temp_pages : tuples:float -> tuples_per_page:float -> float
(** TEMPPAGES for a materialized list. *)

val nested_loop_join : outer:t -> outer_card:float -> inner_per_open:t -> t
(** C-outer(path1) + N * C-inner(path2). *)

val merge_join_sorted_inner :
  Ctx.t -> outer:t -> inner_build:t -> temppages:float -> matches:float -> t
(** Merge against a sorted temporary list: the outer cost, the cost of
    building the sorted list, one fetch of each temp page during the merge
    (TEMPPAGES/N per opening, N openings), and W per matching tuple. *)

val merge_join_ordered_inner : outer:t -> inner_whole:t -> matches:float -> t
(** Merge where the inner path already produces join-column order: the inner
    is walked once in total; synchronization avoids rescans, and matches
    beyond the first visit of a tuple cost only the RSI call. *)

val pp : Format.formatter -> t -> unit
