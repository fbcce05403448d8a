(** The per-node collection of data item replicas.

    A database replica is "a collection of data items" (paper §2) kept
    whole on each server. The store provides O(1) access by item name;
    items are created on first reference with a zero IVV, which models
    the paper's fixed universe of data items where a never-updated item
    is indistinguishable from an absent one. *)

type t

val create : ?capacity:int -> n:int -> unit -> t
(** [create ~n ()] is an empty store whose items carry IVVs of dimension
    [n] (the replication factor), sized for [capacity] items (default
    64) so that a load of known size never rehashes. *)

val dimension : t -> int
(** [dimension t] is the IVV dimension [n] passed at creation. *)

val find_opt : t -> string -> Item.t option
(** [find_opt t name] is the item replica named [name], if present. *)

val find_or_create : t -> string -> Item.t
(** [find_or_create t name] returns the existing item or creates a
    fresh zero-IVV one. *)

val mem : t -> string -> bool

val size : t -> int
(** [size t] is the number of materialized items. *)

val iter : (Item.t -> unit) -> t -> unit
(** [iter f t] visits every item in ascending name order, so anything
    derived from a store traversal (snapshots, shipped tails, copied
    lists) is deterministic by construction. *)

val fold : ('acc -> Item.t -> 'acc) -> 'acc -> t -> 'acc
(** Folds in ascending name order; see {!iter}. *)

val names : t -> string list
(** [names t] is the materialized item names, in ascending order. *)

val total_value_bytes : t -> int
(** [total_value_bytes t] is the sum of value sizes, for the cost
    model. *)
