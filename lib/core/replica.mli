(** One shard's worth of replica state.

    A node is an array of these (see {!Node}): each shard is a
    self-contained copy of the paper's per-node state — store, DBVV,
    per-origin log vector, auxiliary structures, and (in op-log mode)
    bounded per-item histories. All protocol logic lives in
    {!Protocol}, which operates on one replica at a time; sequence
    numbers in [logs] are components of this shard's [dbvv], so the
    per-origin prefix property (paper §5.3) holds shard-locally.

    The record is deliberately transparent: the persistence layer,
    invariant checker and oracle read it directly. *)

type t = {
  store : Edb_store.Store.t;
  dbvv : Edb_vv.Version_vector.t;
  logs : Edb_log.Log_vector.t;
  aux_items : (string, Edb_store.Item.t) Hashtbl.t;
  aux_log : Edb_log.Aux_log.t;
  histories : (string, Edb_store.Item_history.t) Hashtbl.t;
      (** Per-item bounded op history; populated only in op-log mode. *)
}

val create : ?items:int -> n:int -> unit -> t
(** [create ~n ()] is an empty shard replica of dimension [n]. [items]
    presizes the store for a load of known size, such as a restore
    (which sizes each log component with {!Edb_log.Log_component.reserve}
    as its record count arrives). *)

val aux_count : t -> int
(** Number of live auxiliary copies in this shard. *)
