(** A replication node running the paper's protocol (§4–§5).

    Per-node state (paper §4) now lives in one or more shard replicas
    ({!Replica.t}): each shard is a self-contained store + DBVV + log
    vector + auxiliary structures unit, and items are mapped to shards
    by the deterministic hash {!Shard_map.shard_of}. The node itself is
    a thin shell that routes operations to the owning shard, maintains
    the {e summary DBVV} (component-wise sum of the shard DBVVs — the
    O(n) you-are-current answer regardless of the shard count), and
    runs propagation sessions per shard, skipping shards the recipient
    already dominates (counter [shards_skipped]). With [shards = 1]
    (the default) every wire byte, WAL byte and counter is identical to
    the pre-sharding node. See DESIGN.md §7.

    The protocol procedures map one-to-one onto the paper's figures
    (the bodies live in {!Protocol}):

    - {!update} — §5.3;
    - {!handle_propagation_request} — [SendPropagation], Figure 2,
      including the [IsSelected] O(m) set-union trick of §6;
    - {!accept_propagation} — [AcceptPropagation], Figure 3, followed by
      [IntraNodePropagation], Figure 4;
    - {!serve_out_of_bound} / {!accept_out_of_bound} — §5.2.

    All computational work is charged to the node's
    {!Edb_metrics.Counters.t}; message counts and bytes are charged by
    the session helpers {!pull} and {!fetch_out_of_bound} (or by the
    simulator when it delivers messages itself). *)

type t

type resolution_policy = Protocol.resolution_policy =
  | Report_only
      (** The paper's behaviour: declare the conflict, skip the item,
          drop its records from the received tails (Fig. 3). *)
  | Resolve of (local:Message.shipped_item -> remote:Message.shipped_item -> string)
      (** Extension (see DESIGN.md §5): on a propagation conflict, adopt
          the merged version vector, set the value returned by the
          resolver, and record the resolution as a fresh local update so
          it propagates and dominates both ancestors. Resolvers receive
          [Whole] payloads; a conflicting [Delta] item (op-log mode) is
          always report-only, since the remote value cannot be
          reconstructed from operations against a diverged base. *)

type propagation_mode = Protocol.propagation_mode =
  | Whole_item
      (** Ship full item values — the paper's presentation choice
          ("We chose whole data copying as the presentation context",
          §2). *)
  | Op_log of { depth : int }
      (** Ship update records instead (the paper's alternative
          transport, §2; what Oracle Symmetric Replication does). Each
          replica retains the last [depth] operations per item, tagged
          with origin and per-shard sequence number. An item is shipped
          as a [Delta] when the source can prove, from the recipient's
          per-shard DBVV and its retained history, that the shipped
          operations are exactly the missing suffix; otherwise it falls
          back to a [Whole] copy (counted in
          [Counters.whole_fallbacks]). All nodes of a cluster must use
          the same mode. *)

type accept_result = Protocol.accept_result = {
  copied : string list;
      (** Items adopted from the source, in arrival order (ascending
          shard order for sharded sessions). *)
  conflicts : int;  (** Conflicts declared while accepting. *)
  resolved : int;  (** Conflicts auto-resolved (only with [Resolve _]). *)
}

type pull_result =
  | Already_current  (** The source answered "you-are-current". *)
  | Pulled of accept_result

type oob_result = [ `Adopted | `Already_current | `Conflict ]

val create :
  ?policy:resolution_policy ->
  ?conflict_handler:(Conflict.t -> unit) ->
  ?mode:propagation_mode ->
  ?shards:int ->
  id:int ->
  n:int ->
  unit ->
  t
(** [create ~id ~n ()] is a fresh node [id] in a replica set of size
    [n], with empty database. [id] must lie in [\[0, n)]. [shards]
    (default 1) partitions the database into that many independent
    shard replicas; all nodes of a cluster must use the same shard
    count (sessions between nodes with different shard counts are
    rejected). *)

(** {1 Accessors} *)

val id : t -> int

val dimension : t -> int

val mode : t -> propagation_mode

val shards : t -> int
(** The shard count fixed at creation. *)

val replica : t -> int -> Replica.t
(** [replica t s] is shard [s]'s state. Read-only by convention (like
    {!store}); used by the persistence layer and the invariant
    checker. *)

val shard_of_item : t -> string -> int
(** The shard that owns [item] — [Shard_map.shard_of] at this node's
    shard count. *)

val dbvv : t -> Edb_vv.Version_vector.t
(** [dbvv t] is a snapshot copy of the node's summary database version
    vector (the single DBVV when unsharded). *)

val dbvv_view : t -> Edb_vv.Version_vector.t
(** The live summary database version vector itself, not a copy.
    Read-only by convention (like {!store}); mutating it bypasses the
    protocol. Use on hot paths — steady-state convergence checks and
    cached-skip decisions — where the per-call copy of {!dbvv} is
    measurable. *)

val shard_dbvv_view : t -> int -> Edb_vv.Version_vector.t
(** The live per-shard DBVV of the given shard (read-only by
    convention). *)

val shard_dbvvs : t -> Edb_vv.Version_vector.t array
(** Snapshot copies of every shard DBVV, indexed by shard. *)

val revision : t -> int
(** A monotone counter bumped on every state mutation (user updates,
    adoptions, conflict declarations, auxiliary transitions). The sum
    over a cluster's nodes is that cluster's {e epoch}: if two reads of
    the epoch agree, no node state changed in between. Volatile — not
    part of {!State.t}; see {!Peer_cache}. *)

val peer_cache : t -> Peer_cache.t
(** This node's cached knowledge about its peers. Maintained by
    {!Cluster.pull} when the cluster enables caching; volatile (a
    restored node starts with an empty cache). *)

val wire_version : t -> int
(** The highest wire-codec version this node's framed transports may
    speak ({!Peer_cache.own_wire_version}); the frame layer's maximum
    unless pinned by {!set_wire_version}. *)

val set_wire_version : t -> int -> unit
(** Pin this node's spoken wire-codec version (e.g. keep a node on v1
    in a mixed-version fleet). [Invalid_argument] below 1. *)

val counters : t -> Edb_metrics.Counters.t
(** The node's live cost counters (mutable; reset between experiments). *)

val store : t -> Edb_store.Store.t
(** The regular item store of an {e unsharded} node. Exposed read-only
    by convention — mutating it directly bypasses version accounting.
    Raises [Invalid_argument] when [shards > 1]; use {!replica} or the
    item iterators below instead. *)

val log_vector : t -> Edb_log.Log_vector.t
(** The log vector of an unsharded node; [Invalid_argument] when
    [shards > 1]. *)

val aux_log : t -> Edb_log.Aux_log.t
(** The auxiliary log of an unsharded node; [Invalid_argument] when
    [shards > 1]. *)

val iter_items : (Edb_store.Item.t -> unit) -> t -> unit
(** Visit every regular item across all shards, in ascending shard
    order and ascending name order within a shard. *)

val fold_items : ('acc -> Edb_store.Item.t -> 'acc) -> 'acc -> t -> 'acc
(** Fold over every regular item, same order as {!iter_items}. *)

val find_item : t -> string -> Edb_store.Item.t option
(** The regular item replica, looked up in its owning shard. *)

val read : t -> string -> string option
(** [read t item] is the user-visible value: the auxiliary copy when one
    exists (user operations use auxiliary data, §5.2–5.3), else the
    regular copy. [None] if the item was never materialized. *)

val read_regular : t -> string -> string option
(** The regular copy's value only, ignoring auxiliary data. *)

val item_vv : t -> string -> Edb_vv.Version_vector.t option
(** The regular copy's IVV (a snapshot copy). *)

val has_aux : t -> string -> bool
(** Whether an auxiliary copy of the item currently exists. *)

val aux_count : t -> int
(** Number of auxiliary copies currently held across all shards — O(P);
    lets convergence checks skip the per-item {!has_aux} scan. *)

val aux_vv : t -> string -> Edb_vv.Version_vector.t option
(** The auxiliary copy's IVV, when one exists (a snapshot copy). *)

val conflicts : t -> Conflict.t list
(** All conflicts declared at this node, most recent first. *)

(** {1 User operations (§5.3)} *)

val update : t -> string -> Edb_store.Operation.t -> unit
(** [update t item op] performs a user update: on the auxiliary copy —
    appending an auxiliary log record carrying the pre-update IVV and
    the operation — if one exists, otherwise on the regular copy,
    bumping the IVV and the owning shard's DBVV (and summary DBVV)
    own-components and appending the shard's regular log record
    [(item, V_ii)]. *)

val set_update_hook : t -> (Message.push_update -> unit) option -> unit
(** Install (or clear) the local-update hook: fired after every user
    update applied to a {e regular} copy, with the update in push-stream
    shape (item, assigned sequence number, post-update IVV snapshot,
    value). The realtime push channel ([Edb_push.Channel]) uses it to
    enqueue the update for best-effort streaming. Deliberately
    best-effort: auxiliary-path updates, conflict resolutions and
    auxiliary replays do not fire it — anti-entropy carries those. *)

(** {1 Realtime push (best-effort hot path; DESIGN.md §10)} *)

val apply_push : t -> source:int -> Message.push_update -> [ `Applied | `Stale ]
(** Apply a pushed update iff it is {e causally fresh}: exactly the
    next update this node expects from [source] (its sequence number is
    the owning shard's DBVV component for [source] plus one, and its
    IVV is the local regular IVV plus one [source]-tick). A fresh push
    is adopted through the ordinary Figure 3 acceptance path as a
    one-record delta, so every invariant argument of anti-entropy
    applies unchanged; anything else is counted [push_stale] and
    dropped without touching any state (stale pushes never materialize
    items). Raises [Invalid_argument] if [source] is out of range or
    this node itself. *)

(** {1 Update propagation (§5.1)} *)

val propagation_request : t -> Message.propagation_request
(** The request the recipient sends to start a session: its summary
    DBVV plus, when sharded, its per-shard DBVVs. The request
    {e borrows} the live vectors (no copy — this is the per-pull
    allocation on the steady-state path): consume it synchronously,
    i.e. hand it to {!handle_propagation_request} or serialize it
    before the requesting node applies any further update. *)

val propagation_request_owned : t -> Message.propagation_request
(** Like {!propagation_request} but with snapshot copies of every
    vector, safe to retain — what a transported (simulator) request
    must carry. *)

val handle_propagation_request :
  ?domains:int -> t -> Message.propagation_request -> Message.propagation_reply
(** [SendPropagation] (Fig. 2), executed at the source. O(1) when the
    recipient is current (one summary-vector comparison regardless of
    the shard count), O(m) otherwise (§6). Sharded sessions compare
    per-shard DBVVs and skip converged shards individually (counter
    [shards_skipped]); with [domains > 1] the per-shard deltas are
    built in parallel (identical result and counters — the per-shard
    scratch counters merge commutatively). Raises [Invalid_argument]
    when the request's shard count differs from this node's. *)

val accept_propagation :
  ?domains:int -> t -> source:int -> Message.propagation_reply -> accept_result
(** [AcceptPropagation] (Fig. 3) followed by [IntraNodePropagation]
    (Fig. 4), executed at the recipient — per shard for sharded
    replies, in ascending shard order. Records referring to conflicting
    items are dropped from the tails before they are appended to the
    local logs; stale records (sequence number not above the local
    component's newest — possible only after an earlier,
    already-reported conflict) are skipped. With [domains > 1] shards
    are accepted in parallel against scratch sinks merged in shard
    order, which is deterministic; conflict {e handlers} then run after
    the parallel section rather than interleaved, so a handler that
    mutates the node requires [domains = 1] (the default). *)

val reply_is_noop : t -> Message.propagation_reply -> bool
(** Read-only: [true] when {!accept_propagation} of this reply would
    change nothing but counters — {!Protocol.delta_is_noop} on every
    shard it carries ([You_are_current] trivially). A reply the accept
    would reject with [Invalid_argument] is never a no-op. *)

val intra_node_propagation : t -> string list -> unit
(** [IntraNodePropagation] (Fig. 4) over the given items, each routed
    to its owning shard. Called automatically by {!accept_propagation}
    on the items it copied; exposed for direct testing. *)

(** {1 Out-of-bound copying (§5.2)} *)

val serve_out_of_bound : t -> Message.oob_request -> Message.oob_reply
(** The source's answer: its auxiliary copy if one exists (never older
    than the regular copy), else the regular copy. *)

val accept_out_of_bound : t -> source:int -> Message.oob_reply -> oob_result
(** Adopt the reply as the new auxiliary copy if it strictly dominates
    the local freshest copy; ignore it if equal or older; declare a
    conflict otherwise. Regular structures are never touched. *)

(** {1 Whole sessions between in-process nodes} *)

val pull : ?domains:int -> recipient:t -> source:t -> unit -> pull_result
(** One propagation session: recipient sends its DBVV(s), source runs
    [SendPropagation], recipient runs [AcceptPropagation]. Message
    counts and bytes are charged to each sender's counters. [domains]
    bounds the per-shard parallelism of both halves (default 1 =
    sequential). Raises [Invalid_argument] if the two nodes' shard
    counts differ. *)

val sync_pair : ?domains:int -> t -> t -> unit
(** [sync_pair a b] pulls in both directions ([a] from [b], then [b]
    from [a]), the usual full anti-entropy exchange. *)

val fetch_out_of_bound : recipient:t -> source:t -> string -> oob_result
(** One out-of-bound session for the given item. *)

(** {1 Durable state: one traversal, one builder}

    A node's entire durable state, shard by shard: items with IVVs, the
    per-shard DBVV, the per-shard log vector (in origin order),
    auxiliary copies and the auxiliary log (in arrival order). Volatile
    state (counters, conflict reports, scratch flags, the peer cache,
    op-log histories) is not part of it.

    {!visit_shard} is the one walk over it and {!Restore} the one way
    to rebuild a node from it. The snapshot codec ([edb_persist])
    encodes straight from the walk and decodes straight into the
    builder; {!export_state} and {!import_state} are thin wrappers over
    the same two, into and out of plain values. *)

type visitor = {
  items : int -> unit;  (** The shard's regular item count, before its items. *)
  item : Edb_store.Item.t -> unit;  (** Each regular item, ascending name order. *)
  dbvv : Edb_vv.Version_vector.t -> unit;  (** The shard's DBVV. *)
  log : origin:int -> int -> unit;
      (** Before each log component, origins in order: its record count. *)
  record : origin:int -> Edb_log.Log_record.t -> unit;
      (** The component's records, oldest first. *)
  aux_items : int -> unit;  (** The auxiliary copy count. *)
  aux_item : Edb_store.Item.t -> unit;  (** Each auxiliary copy, ascending name order. *)
  aux_log : int -> unit;  (** The auxiliary log's record count. *)
  aux_record : Edb_log.Aux_log.record -> unit;  (** Its records, oldest first. *)
}
(** Callbacks for {!visit_shard}, called in the order of the fields:
    every sequence's count comes before its elements, as a
    count-prefixed encoding writes them. The items and records are the
    node's own, shared rather than copied: a visitor must not mutate
    them. *)

val visit_shard : t -> int -> visitor -> unit
(** [visit_shard t s v] walks shard [s]'s durable state in place. The
    order is deterministic: it depends only on the state, never on
    insertion history or hashing. *)

(** Rebuild a node from its durable state, in {!visit_shard}'s order.
    Tables are sized from the counts as they arrive, items are built
    with their final IVVs, and each log record shares its item's name
    string with the store. Raises [Invalid_argument] when the state is
    structurally inconsistent (bad dimensions, duplicate items,
    non-monotonic log sequences). *)
module Restore : sig
  type node := t

  type t

  val create : n:int -> t
  (** A builder of a node of dimension [n], with no shard yet. *)

  val shard : t -> items:int -> unit
  (** Begins the next shard, sized for [items] regular items. The calls
      below fill the shard begun last. *)

  val item :
    t -> name:string -> value:string -> ivv:Edb_vv.Version_vector.t -> unit

  val dbvv : t -> Edb_vv.Version_vector.t -> unit

  val log : t -> origin:int -> records:int -> unit
  (** Selects component [origin], sized for [records] records, for the
      {!record} calls that follow. *)

  val record : t -> item:string -> seq:int -> unit

  val aux_item :
    t -> name:string -> value:string -> ivv:Edb_vv.Version_vector.t -> unit

  val aux_record :
    t -> item:string -> ivv:Edb_vv.Version_vector.t -> op:Edb_store.Operation.t -> unit

  val finish :
    ?policy:resolution_policy ->
    ?conflict_handler:(Conflict.t -> unit) ->
    ?mode:propagation_mode ->
    t ->
    id:int ->
    node
  (** The node, with its summary DBVV derived from the shards'. The
      reconstructed node satisfies {!check_invariants} whenever the one
      visited did. Per-item op histories are volatile: a node restored
      in [Op_log] mode starts with empty histories and safely falls
      back to whole-item shipping until new updates refill them. *)
end

(** The same state as plain values. Exports are deterministic by
    construction (item lists in ascending name order), so two exports
    compare equal exactly when the durable states agree. *)
module State : sig
  type item = { name : string; value : string; ivv : int array }

  type aux_record = { item : string; ivv : int array; op : Edb_store.Operation.t }

  type shard = {
    items : item list;  (** Ascending name order. *)
    dbvv : int array;
    logs : (string * int) list array;  (** Per origin, [(item, seq)] oldest first. *)
    aux_items : item list;  (** Ascending name order. *)
    aux_log : aux_record list;  (** Oldest first. *)
  }

  type t = { id : int; n : int; shards : shard array }
end

val export_state : t -> State.t
(** [export_state t] is a deep copy of [t]'s durable state, through
    {!visit_shard}. *)

val import_state :
  ?policy:resolution_policy ->
  ?conflict_handler:(Conflict.t -> unit) ->
  ?mode:propagation_mode ->
  State.t ->
  t
(** [import_state state] reconstructs a node with
    [Array.length state.shards] shards, through {!Restore}. Raises
    [Invalid_argument] as {!Restore} does. *)

(** {1 Membership reshape}

    The two surgeries a membership change applies to a node's vector
    state. Both rebuild the node through {!export_state} / pure array
    surgery / {!import_state}, carry the cost counters and conflict
    reports over, and come back with a cold peer cache (stale proven
    DBVVs of the old dimension cannot survive). The caller — the
    membership layer — is responsible for applying the same surgery to
    every member so dimensions agree again before the next session. *)

val extend_dimension : t -> t
(** [extend_dimension t] is [t] rebuilt over [dimension t + 1] origins:
    every DBVV, item IVV, aux IVV and the log vector gain a zero-valued
    final component for the newly joined site. The node's own id is
    unchanged. Appending a zero preserves every existing comparison. *)

val retire_component : t -> slot:int -> t
(** [retire_component t ~slot] is [t] rebuilt over [dimension t - 1]
    origins: component [slot] is dropped from every DBVV, item IVV, aux
    IVV, and the retired origin's log-vector slot (its update records)
    is discarded. Ids above [slot] shift down by one so the id space
    stays dense; [t]'s own id is renamed accordingly. Only safe once a
    completed retirement fence proves every live replica holds the
    identical value in component [slot] (then the uniform drop
    preserves all comparisons — see DESIGN.md §11). Charges
    [vector_components_gced] with the number of components physically
    removed. Raises [Invalid_argument] if [slot] is out of range or is
    [t]'s own slot. *)

(** {1 Introspection} *)

val check_invariants : ?log_bound:bool -> t -> (unit, string) result
(** Verifies the node-local structural invariants, shard by shard:
    - shard DBVV [V_i\[l\] = Σ_x v_i(x)\[l\]] for every origin [l] — each
      shard's DBVV counts exactly the updates reflected by its regular
      items (§4.1);
    - every log component is ordered and deduplicated with a consistent
      pointer map (§4.2);
    - when the node has seen no conflicts, component [k]'s newest record
      has sequence number at most the shard's [V_i\[k\]];
    - no item carries a stray [IsSelected] flag outside a propagation
      computation (§6);
    - the summary DBVV equals the component-wise sum of the shard
      DBVVs.

    The [seq <= V_i\[k\]] bound is a consequence of the per-origin
    prefix property, which a report-only conflict breaks {e globally}:
    once {e any} node skips a conflicting item's records, other — still
    conflict-free — nodes can legitimately adopt later records of that
    origin without ever reflecting the skipped update. Callers with
    system-wide knowledge (the cluster, the [lib/check] monitors) pass
    [~log_bound:false] once any node of the system has declared a
    conflict; the default [true] applies the bound, still skipping it
    when this node itself has conflicts. *)
