(** Multiple databases over one set of servers (paper §2).

    "When the system maintains multiple databases, a separate instance
    of the protocol runs for each database." A server group hosts any
    number of named databases on the same [n] servers; each database is
    an independent protocol instance (its own DBVVs, log vectors and
    auxiliary structures), so anti-entropy for one database never
    touches another — a hot database can sync every minute while an
    archive syncs nightly.

    The group also wires in the persistence layer: one server's state
    across {e all} its databases can be checkpointed into a directory
    (one snapshot file per database plus a manifest) and swapped back
    in after a crash. *)

type t

val create : ?seed:int -> n:int -> unit -> t
(** [create ~n ()] is a group of [n] servers hosting no databases. *)

val n : t -> int

val create_database :
  ?policy:Edb_core.Node.resolution_policy ->
  ?mode:Edb_core.Node.propagation_mode ->
  ?shards:int ->
  t ->
  string ->
  (unit, string) result
(** [create_database t name] starts a new protocol instance ([shards]
    per-node shard count, default 1). Fails if the name is taken. *)

val drop_database : t -> string -> (unit, string) result

val databases : t -> string list
(** Sorted database names. *)

val cluster : t -> string -> (Edb_core.Cluster.t, string) result
(** The protocol instance behind a database, for direct access. *)

val update :
  t -> db:string -> node:int -> item:string -> Edb_store.Operation.t ->
  (unit, string) result

val read : t -> db:string -> node:int -> item:string -> (string option, string) result

val pull :
  t -> db:string -> recipient:int -> source:int ->
  (Edb_core.Node.pull_result, string) result
(** One propagation session within one database. *)

val anti_entropy_round : t -> db:string -> (unit, string) result
(** One random-peer round for that database only. *)

val sync_database : t -> db:string -> (int, string) result
(** Random rounds until the database converges; returns the rounds
    used. *)

val sync_all : ?domains:int -> t -> (string * int) list
(** {!sync_database} for every database. [domains] (default 1) fans the
    databases out over that many OCaml domains; domains left over after
    one per database are given to each cluster for intra-pair per-shard
    parallelism (see {!Edb_core.Node.pull}). Databases are
    share-nothing protocol instances with independent, deterministically
    seeded PRNGs, so the result — rounds per database {e and} every
    replica's final state — is bitwise-identical to the sequential run
    regardless of [domains]. A database that exceeds its round budget
    reports [-1]. *)

val anti_entropy_all : ?domains:int -> t -> unit
(** One {!Edb_core.Cluster.random_pull_round} on every database, with
    the same optional domain fan-out and the same determinism guarantee
    as {!sync_all}. *)

val converged : t -> bool
(** Whether every database has converged. *)

val total_counters : t -> Edb_metrics.Counters.t
(** Summed over all databases and servers. *)

(** {1 Server checkpointing} *)

val save_server : t -> dir:string -> node:int -> (unit, string) result
(** [save_server t ~dir ~node] checkpoints server [node]'s replica of
    every database into [dir]: a manifest plus one snapshot file per
    database. The directory is created if missing. *)

val restore_server : t -> dir:string -> node:int -> (unit, string) result
(** [restore_server t ~dir ~node] replaces server [node]'s replica of
    every database listed in the manifest with the checkpointed state.
    Databases in the manifest must still exist in the group. The
    restored replicas rejoin the epidemic exactly like a server that
    was disconnected since the checkpoint. *)
