(** Intrusive doubly-linked lists with O(1) append, unlink and
    move-to-back.

    This is the substrate for the paper's Figure 1: log components keep
    their records in a doubly-linked list so that, when a fresher record
    for the same data item arrives, the stale record's node moves to the
    tail in constant time through the per-item pointer array [P(x)].

    The list is a ring through a sentinel node, so a node is three
    pointer fields plus its header (four words) and no operation
    allocates an option box. Nodes are first-class: callers keep the
    ['a node] returned by {!append} and may later {!remove} or
    {!move_to_back} it directly, without any search. *)

type 'a node
(** A cell of a list, carrying one value. *)

type 'a t
(** A mutable doubly-linked list. *)

val create : 'a -> 'a t
(** [create placeholder] is a fresh empty list. The sentinel carries
    [placeholder], which only {!last_value} of an empty list returns. *)

val length : 'a t -> int
(** [length t] is the number of attached nodes, maintained in O(1). *)

val append : 'a t -> 'a -> 'a node
(** [append t v] links a new node carrying [v] at the tail of [t] and
    returns it. O(1). *)

val remove : 'a t -> 'a node -> unit
(** [remove t n] unlinks [n] from [t] in O(1). Removing a node that is
    no longer attached is a no-op. It is a programming error to remove
    a node from a list it never belonged to. *)

val move_to_back : 'a t -> 'a node -> unit
(** [move_to_back t n] relinks [n], which must be attached to [t], at
    the tail of [t]. O(1); no allocation. *)

val value : 'a node -> 'a
(** [value n] is the payload of [n]. *)

val set_value : 'a node -> 'a -> unit
(** [set_value n v] replaces the payload of [n]. *)

val last_value : 'a t -> 'a
(** [last_value t] is the tail's payload, or the placeholder given to
    {!create} when [t] is empty. O(1). *)

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** [fold_left f init t] folds over values head to tail. *)

val to_list : 'a t -> 'a list
(** [to_list t] is the values of [t], head to tail. *)

val take_while_rev : ('a -> bool) -> 'a t -> 'a list
(** [take_while_rev p t] walks from the tail towards the head while [p]
    holds and returns the matching suffix of [t] {e in list order}
    (head-of-suffix first). Runs in time linear in the suffix length:
    this is how log tails are extracted in time proportional to the
    number of records selected, not the log size. The list shares the
    values; it allocates one cons cell per value and nothing else. *)
