(** An in-process cluster of protocol nodes.

    Convenience layer used by tests, examples and the deterministic
    experiment tables: all nodes live in one address space and exchange
    messages synchronously. The discrete-event simulator in [edb_sim]
    layers virtual time, latency, loss and crashes on top of the same
    {!Node} API. *)

type t

val create :
  ?seed:int ->
  ?policy:Node.resolution_policy ->
  ?mode:Node.propagation_mode ->
  ?cache:bool ->
  ?shards:int ->
  n:int ->
  unit ->
  t
(** [create ~n ()] is a cluster of [n] fresh nodes. [seed] (default 42)
    drives peer selection in the random rounds; [mode] selects
    whole-item or op-log propagation for every node; [shards] (default
    1) is the shard count every node is created with (all nodes of a
    cluster must agree — see {!Node.create}).

    [cache] (default false) enables the peer-knowledge cache
    ({!Peer_cache}): {!pull} skips a session outright — zero messages,
    result {!Node.Already_current}, counted in
    [Counters.sessions_skipped_cached] — whenever a previous session
    proved it would be a no-op and the cluster {!epoch} shows nothing
    changed since. Skips are {e exact}: a cache-enabled cluster passes
    through bitwise the same states as a cache-disabled one on the same
    schedule (property-tested against the [lib/check] oracle). *)

val n : t -> int

val node : t -> int -> Node.t
(** [node t i] is node [i]. *)

val nodes : t -> Node.t array

val shards : t -> int
(** The common shard count of the cluster's nodes. *)

val epoch : t -> int
(** The cluster epoch: a strictly monotone value (bias + Σ node
    revisions) that changes whenever {e any} node's state changes —
    including across {!replace_node} rollbacks, which advance the bias
    past every value the old node contributed. Equal epochs at two
    reads prove the interval was mutation-free; this gates cached
    session skips (see {!Peer_cache}). *)

val replace_node : t -> int -> Node.t -> unit
(** [replace_node t i node] installs [node] as member [i] — used by the
    persistence layer to swap in a node recovered from a checkpoint.
    The node's id and dimension must match. Advances the {!epoch} past
    anything the old member contributed and forgets every other node's
    cached knowledge about peer [i] (the checkpoint may be a rollback,
    which breaks the DBVV-monotonicity assumption cached lower bounds
    rest on). *)

val update : t -> node:int -> item:string -> Edb_store.Operation.t -> unit
(** [update t ~node ~item op] performs a user update at that node. *)

val read : t -> node:int -> item:string -> string option

val pull : ?domains:int -> t -> recipient:int -> source:int -> Node.pull_result
(** One propagation session between two cluster nodes. With [~cache]
    enabled the session may be skipped entirely (result
    [Already_current], zero messages) when cached peer knowledge proves
    it would be a no-op; a session that does run updates both nodes'
    peer caches (summary and, for sharded nodes, per-shard lower
    bounds). [domains] bounds per-shard parallelism inside the session
    (see {!Node.pull}). *)

val fetch_out_of_bound : t -> recipient:int -> source:int -> string -> Node.oob_result

val random_pull_round : ?domains:int -> t -> unit
(** Every node pulls from one uniformly random other node — one round of
    randomized anti-entropy. A no-op on a singleton cluster (there is
    nobody to pull from). *)

val ring_pull_round : ?domains:int -> t -> unit
(** Node [i] pulls from node [(i + n - 1) mod n] — a deterministic
    schedule in which every node eventually propagates transitively from
    every other (paper Theorem 5 hypothesis). *)

val converged : t -> bool
(** Whether all regular replicas are identical (equal summary and
    per-shard DBVVs, equal item values and IVVs) and no auxiliary
    copies remain pending. *)

val sync_until_converged : ?max_rounds:int -> ?domains:int -> t -> int
(** Runs {!random_pull_round} until {!converged}; returns the number of
    rounds used. Raises [Failure] after [max_rounds] (default 10_000).
    [domains] bounds per-shard parallelism inside each session. *)

val total_counters : t -> Edb_metrics.Counters.t
(** The field-wise sum of all nodes' counters. *)

val reset_counters : t -> unit

val check_invariants : t -> (unit, string) result
(** Every node's {!Node.check_invariants}. *)
