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

val add : t -> Item.t -> unit
(** [add t item] inserts an item built elsewhere — a restore builds
    each item with its decoded IVV rather than a zero one to overwrite.
    [Invalid_argument] if an item of that name is already present. *)

val sharer : t -> string -> string
(** [sharer t] is a function from a name to the store's own copy of it
    (its item's [name] string), or to the name itself when absent: a
    restore points each log record at it, so a record holds no second
    copy. The function keeps a cursor into the sorted-name cache: a
    name at or after the previous one is found by stepping the cursor
    forward, and one it has passed costs a table lookup. A checkpoint
    whose log records follow name order, as a preload's or a bulk
    pull's do, so never probes the table. *)

val mem : t -> string -> bool

val size : t -> int
(** [size t] is the number of materialized items. *)

val iter : (Item.t -> unit) -> t -> unit
(** [iter f t] visits every item in ascending name order, so anything
    derived from a store traversal (snapshots, shipped tails, copied
    lists) is deterministic by construction. The order is cached and
    kept incrementally: inserts in ascending name order cost nothing
    more, and a traversal after [k] other inserts sorts those [k] and
    merges them in, O(N + k log k). Items inserted by [f] are not
    visited. *)

val fold : ('acc -> Item.t -> 'acc) -> 'acc -> t -> 'acc
(** Folds in ascending name order; see {!iter}. *)

val names : t -> string list
(** [names t] is the materialized item names, in ascending order. *)

val total_value_bytes : t -> int
(** [total_value_bytes t] is the sum of value sizes, for the cost
    model. *)
