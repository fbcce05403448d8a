(** One log component [L_i[j]]: updates originated at node [j], as known
    to node [i] (paper §4.2, Figure 1).

    Records are kept in origin order in an intrusive, sentinel-based
    doubly-linked list ({!Edb_util.Dll}). The key invariant — {e at most
    one record per data item} — is maintained by {!add}: the per-item
    pointer map (the paper's [P(x)] array, realized as an open-addressing
    table of the list nodes, keyed by their records' items) is probed
    once, and adding [(x, m)] for an
    item that already has a node stores the new record in that node and
    moves it to the tail in O(1); only a first record for [x] links a new
    node. Consequently the component never holds more than one record
    per item, bounding the whole log vector at [n · N] records (§4.2).

    A retained record costs its 3-word record, a 4-word list node and
    two to four table slots: under 11 words (DESIGN.md §2a).

    {!tail_after} extracts the records the recipient of a propagation is
    missing, walking backwards from the tail, in time linear in the
    number of records selected — not in the log length — and shares the
    records rather than copying them. This is what makes
    [SendPropagation] O(m) (§6). *)

type t

val create : unit -> t
(** [create ()] is an empty component with the smallest pointer map. *)

val reserve : t -> int -> unit
(** [reserve t capacity] sizes the pointer map for [capacity] records,
    so adding up to that many never grows it. A restore calls it with
    the record count that precedes a component's records. *)

val add : t -> item:string -> seq:int -> unit
(** [add t ~item ~seq] is the paper's [AddLogRecord]: append [(item,
    seq)] and drop any older record for [item]. O(1), one pointer-map
    probe; re-adding an item allocates only its new record. Sequence numbers
    must be added in strictly increasing order; violating this is a
    protocol bug and raises [Invalid_argument]. *)

val tail_after : t -> seq:int -> Log_record.t list
(** [tail_after t ~seq] is the records with sequence number strictly
    greater than [seq], oldest first. Time linear in the result
    length. *)

val latest_seq : t -> int
(** [latest_seq t] is the sequence number of the newest record, or [0]
    when empty. *)

val find_record : t -> string -> Log_record.t option
(** [find_record t item] is the (unique) retained record for [item], if
    any. O(1). *)

val length : t -> int
(** [length t] is the number of retained records — hence also the number
    of distinct items with a retained record. *)

val iter : (Log_record.t -> unit) -> t -> unit
(** [iter f t] visits the retained records oldest first, in place. *)

val to_list : t -> Log_record.t list
(** [to_list t] is all retained records, oldest first. *)

val check_invariants : t -> (unit, string) result
(** [check_invariants t] verifies: strictly increasing sequence order;
    at most one record per item; pointer map consistent with the list.
    For tests. *)
