(** Version vectors (paper §3).

    A version vector over [n] replication sites records, in component
    [j], how many updates originated at site [j] are reflected in the
    vector's owner. The same structure serves both roles in the paper:

    - {b IVV} — item version vector, one per data item replica, whose
      component [j] counts site [j]'s updates {e to that item};
    - {b DBVV} — database version vector, one per database replica,
      whose component [j] counts site [j]'s updates {e to any item}
      (paper §4.1).

    Comparison induces the usual partial order (Theorem 3 corollaries):
    equal, dominated, dominating, or concurrent ("inconsistent version
    vectors", corollary 4). *)

type t
(** A mutable version vector of fixed dimension. *)

type comparison =
  | Equal  (** Component-wise identical: the replicas are identical. *)
  | Dominates  (** Strictly newer: left has seen everything right has, and more. *)
  | Dominated  (** Strictly older: the mirror case. *)
  | Concurrent
      (** Inconsistent: each side reflects updates the other misses
          (paper corollary 4). *)

val create : n:int -> t
(** [create ~n] is the all-zero vector of dimension [n] (initial state,
    paper §3 rule 1). *)

val of_array : int array -> t
(** [of_array a] copies [a] into a fresh vector. Components must be
    non-negative. *)

val init : int -> (int -> int) -> t
(** [init n f] is the vector [<f 0, ..., f (n-1)>], with [f] called in
    index order: a decoder builds a vector straight from its bytes,
    without the intermediate array {!of_array} copies. Components must
    be non-negative. *)

val to_array : t -> int array
(** [to_array t] is a fresh array snapshot of [t]. *)

val copy : t -> t
(** [copy t] is an independent copy. *)

val dimension : t -> int
(** [dimension t] is the number of components. *)

val get : t -> int -> int
(** [get t j] is component [j]. *)

val set : t -> int -> int -> unit
(** [set t j v] writes component [j]. [v] must be non-negative. *)

val incr : t -> int -> unit
(** [incr t j] adds one to component [j] — the "own entry" bump a site
    performs on local update (paper §3 rule 2, §4.1 rule 2). *)

val merge_into : t -> from:t -> unit
(** [merge_into t ~from] sets [t] to the component-wise maximum of [t]
    and [from] (paper §3 rule 3). Dimensions must agree. *)

val add_diff_into : t -> newer:t -> older:t -> unit
(** [add_diff_into t ~newer ~older] adds [newer(l) - older(l)] to each
    component [l] of [t]. This is DBVV maintenance rule 3 (paper §4.1):
    when a data item is copied, the database vector grows by the extra
    updates the incoming item copy has seen. Requires [newer] to
    dominate or equal [older] component-wise. *)

val compare_vv : t -> t -> comparison
(** [compare_vv a b] classifies the pair in one pass over components. *)

val equal : t -> t -> bool
(** [equal a b] is component-wise equality. *)

val dominates_or_equal : t -> t -> bool
(** [dominates_or_equal a b] is [compare_vv a b = Equal || = Dominates];
    the test used by [SendPropagation] to answer "you-are-current". *)

val strictly_dominates : t -> t -> bool
(** [strictly_dominates a b] is [compare_vv a b = Dominates]. *)

val concurrent : t -> t -> bool
(** [concurrent a b] is [compare_vv a b = Concurrent]. *)

val sum : t -> int
(** [sum t] is the total number of updates reflected, across origins. *)

val extend : t -> t
(** [extend t] is a fresh [(dimension t + 1)]-dimensional copy of [t]
    with a zero appended — the vector surgery performed when a new site
    joins the replica set. Appending a zero preserves every existing
    comparison: the new origin has, by definition, issued no updates
    anyone has seen. *)

val remove_component : t -> at:int -> t
(** [remove_component t ~at] is a fresh [(dimension t - 1)]-dimensional
    copy of [t] with component [at] dropped — the surgery performed when
    a retired origin's slot is garbage-collected. Only safe when every
    vector in the system carries the identical value in component [at]
    (the retirement fence's guarantee); then the uniform drop preserves
    all comparisons. Raises [Invalid_argument] on out-of-range [at] or
    when the result would be zero-dimensional. *)

val conflicting_components : t -> t -> (int * int) option
(** [conflicting_components a b] is [Some (k, l)] with [a.(k) < b.(k)]
    and [a.(l) > b.(l)] when the vectors conflict — pinpointing the
    sites holding inconsistent replicas (paper §5.1 footnote) — and
    [None] otherwise. *)

val pp : Format.formatter -> t -> unit
(** [pp fmt t] prints e.g. [<2,0,5>]. *)

val to_string : t -> string
(** [to_string t] is [Format.asprintf "%a" pp t]. *)
