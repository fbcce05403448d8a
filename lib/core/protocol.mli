(** The paper's Figure 2/3/4 logic as pure-ish functions over one shard
    replica.

    {!Node} owns an array of {!Replica.t} and a summary DBVV; this
    module holds the protocol itself, parameterized by a {!ctx} that
    carries the per-node ambient state (identity, mode, policy,
    counters, the summary vector to mirror DBVV growth into, and sinks
    for conflicts and revision bumps). Splitting the logic out keeps
    [Node] a thin routing shell and lets sharded acceptance run each
    shard against its own scratch context (see [Node.pull ~domains]). *)

module Vv := Edb_vv.Version_vector

type resolution_policy =
  | Report_only
      (** Detect and report conflicts; leave both copies diverged
          (the paper's §7 default). *)
  | Resolve of (local:Message.shipped_item -> remote:Message.shipped_item -> string)
      (** Deterministic application-level resolver: given both copies,
          produce the merged value, recorded as a fresh local update. *)

type propagation_mode =
  | Whole_item  (** Ship full item values (the paper's presentation). *)
  | Op_log of { depth : int }
      (** Ship exact operation deltas when a bounded per-item history
          (most recent [depth] ops) can prove them complete; fall back
          to whole values otherwise. *)

type accept_result = {
  copied : string list;  (** Names adopted, in shipment order. *)
  conflicts : int;
  resolved : int;
}

type ctx = {
  node_id : int;
  n : int;
  mode : propagation_mode;
  policy : resolution_policy;
  counters : Edb_metrics.Counters.t;
  summary : Vv.t;
      (** The node's summary DBVV; every DBVV mutation is mirrored here
          unless it is physically the replica's own vector (the
          unsharded case), which the implementation detects with [==]. *)
  declare_conflict :
    item:string -> local_vv:Vv.t -> remote_vv:Vv.t -> origin:Conflict.origin -> unit;
  touch : unit -> unit;  (** Revision bump (cache epoch). *)
}

val history_of : ctx -> Replica.t -> string -> Edb_store.Item_history.t option

val record_regular_update : ctx -> Replica.t -> Edb_store.Item.t -> op:Edb_store.Operation.t -> unit

val update : ctx -> Replica.t -> string -> Edb_store.Operation.t -> unit
(** Apply a user update (paper §5.3): to the auxiliary copy with an
    aux-log record if one exists, else to the regular copy. *)

val build_delta :
  ctx ->
  Replica.t ->
  recipient_vv:Vv.t ->
  Edb_log.Log_record.t list array * Message.shipped_item list
(** The Fig. 2 body for one shard: per-origin log tails past
    [recipient_vv] (the recipient's DBVV for this shard) and the set S
    of referenced items. The dominance test and per-session counters
    are the caller's job. *)

val handle_request : ctx -> Replica.t -> Message.propagation_request -> Message.propagation_reply
(** The unsharded SendPropagation (Fig. 2), verbatim pre-refactor:
    dominance test against [recipient_dbvv], then {!build_delta}. *)

val intra_node_propagation : ctx -> Replica.t -> string list -> unit
(** Fig. 4: for each named item, replay deferred aux-log updates onto
    the regular copy while the IVVs allow, then discard the auxiliary
    copy once the regular copy has caught up. *)

val accept_delta :
  ctx ->
  Replica.t ->
  source:int ->
  tails:Edb_log.Log_record.t list array ->
  items:Message.shipped_item list ->
  accept_result
(** The Fig. 3 body for one shard's delta, including the trailing
    {!intra_node_propagation} over the copied items. The caller hits
    the ["accept.begin"] failpoint once per session. *)

val delta_is_noop :
  Replica.t -> tails:Edb_log.Log_record.t list array -> items:Message.shipped_item list -> bool
(** Read-only: [true] when {!accept_delta} on this shard's delta would
    change nothing but counters — every shipped item's IVV is [Equal]
    to the local regular copy's (a missing local copy does not count as
    equal) and every tail record's seq is at most its log component's
    [latest_seq]. A second source answering the same request with what
    the first already delivered is the common case. *)

val serve_out_of_bound : Replica.t -> Message.oob_request -> Message.oob_reply

val accept_out_of_bound :
  ctx ->
  Replica.t ->
  source:int ->
  Message.oob_reply ->
  [ `Adopted | `Already_current | `Conflict ]
