(** Interesting tuple orders and their equivalence classes.

    A tuple order is interesting if it is one specified by the query block's
    GROUP BY or ORDER BY clauses; every equi-join column also defines an
    interesting order. Columns linked by equi-join predicates (E.DNO = D.DNO
    and D.DNO = F.DNO) belong to one order equivalence class, so only the
    best solution per class need be saved. *)

type order = (Semant.col_ref * Ast.order_dir) list

type env

val build : Semant.block -> Normalize.factor list -> env
(** Union columns over the block's equi-join factors. *)

val canon : env -> Semant.col_ref -> Semant.col_ref
(** Class representative. *)

val equivalent : env -> order -> order -> bool

val satisfies : env -> produced:order -> required:order -> bool
(** Does a [produced] order begin with (a class-equivalent of) every column
    of [required], in sequence and direction? *)

val satisfies_grouping : env -> produced:order -> cols:Semant.col_ref list -> bool
(** Grouping needs equal group keys adjacent, which any permutation of the
    grouping columns (in either direction) provides: does [produced] begin
    with some permutation of [cols]? *)

val required_order : Semant.block -> order
(** The order the plan must deliver: the GROUP BY columns ascending when
    grouping (the executor aggregates group-ordered streams; a further
    ORDER BY is applied to the aggregated rows), else the ORDER BY. *)

val interesting_columns : env -> Semant.block -> Normalize.factor list -> Semant.col_ref list
(** Canonical representatives of every column that defines an interesting
    order: join columns plus ORDER BY / GROUP BY columns. *)

val truncate_interesting : env -> Semant.block -> Normalize.factor list -> order -> order
(** Canonicalize and cut an order at the first column that is not
    interesting; two plans whose truncations agree are interchangeable for
    all later decisions, so solution tables key on this. *)

type interner
(** Hash-consing table mapping distinct (already canonicalized/truncated)
    orders to dense int keys, so solution pruning hashes ints rather than
    column-ref lists. *)

val interner : unit -> interner

val intern : interner -> order -> int
(** Stable id for [order]; equal orders always yield the same id. *)

val pp_order : Format.formatter -> order -> unit
