(** The auxiliary log [AUX_i] (paper §4.4).

    Stores the updates a node applied to out-of-bound data items, with
    everything needed to {e re-do} them later on the regular copy:
    the item name, the IVV the auxiliary copy had {e before} the update,
    and the operation itself. Unlike regular log records these can be
    large — but they never travel between nodes.

    Supports the two operations §4.4 requires in O(1):
    [Earliest(x)] and removal of the earliest record of an item. *)

type record = {
  item : string;
  ivv : Edb_vv.Version_vector.t;
      (** The auxiliary copy's IVV at the time the update was applied,
          excluding this update. Intra-node propagation replays the
          operation only when the regular copy reaches exactly this
          IVV. *)
  op : Edb_store.Operation.t;
}

type t

val create : unit -> t

val append : t -> record -> unit
(** [append t r] adds [r] at the tail. O(1). *)

val earliest : t -> string -> record option
(** [earliest t item] is the paper's [Earliest(x)]: the oldest retained
    record for [item], if any. O(1). *)

val remove_earliest : t -> string -> unit
(** [remove_earliest t item] drops the record {!earliest} would return.
    Raises [Invalid_argument] if there is none. O(1). *)

val has_records_for : t -> string -> bool

val length : t -> int
(** [length t] is the total number of retained records. *)

val iter : (record -> unit) -> t -> unit
(** [iter f t] visits every retained record oldest first, in place. *)

val to_list : t -> record list
(** [to_list t] is every retained record, oldest first. For tests and
    inspection. *)

val records_for : t -> string -> record list
(** [records_for t item] is every retained record for [item], oldest
    first. Read-only inspection hook for the invariant checker
    ([lib/check]): the per-item IVVs must be strictly increasing in the
    dominance order (§4.4). *)

val storage_bytes : t -> int
(** [storage_bytes t] is the cost-model size of the log: per record, the
    operation payload plus one IVV. This is the storage overhead the
    paper accepts in exchange for out-of-bound freshness (§1). *)
