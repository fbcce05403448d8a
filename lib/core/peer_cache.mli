(** Cached knowledge about what each peer already holds.

    The paper makes a no-op anti-entropy session O(1): the recipient
    ships its DBVV and the source answers "you are current" after one
    vector comparison (Fig. 2). This cache makes the steady state
    cheaper still — {e zero} messages — by remembering what a past
    session proved about a peer and skipping sessions whose outcome is
    already known.

    Each node keeps, per peer:

    - [proven]: the highest DBVV the node has proven that peer to hold
      (learned from the peer's requests and completed sessions, merged
      monotonically). Because a live peer's DBVV only grows — the DBVV
      monotonicity invariant verified in [lib/check] — this is a sound
      lower bound on the peer's knowledge for as long as the peer has
      not been rolled back; crash recovery from a checkpoint must
      therefore call {!forget_peer} / {!reset} (see DESIGN.md).

    - [current] + [epoch]: an exactness gate used for skipping. A
      session [recipient <- source] may be skipped iff a previous
      session proved [recipient]'s DBVV dominates [source]'s {e and}
      no node state anywhere has changed since — tracked by the
      cluster-wide epoch ({!Cluster}'s sum of node revisions). Under
      that gate a skipped session is {e provably identical} to running
      it: Fig. 2 would answer "you are current" from the same two
      unchanged DBVVs and touch nothing.

    The cache is volatile: it is not part of {!Node.State.t}, a
    restored node starts empty, and {!Cluster.replace_node} forgets
    every other node's entry about the replaced peer. *)

type t

(** Per-peer wire-codec state for the framed transports
    ([Edb_persist.Frame], DESIGN.md §8): the negotiated codec version
    and the request-DBVV delta baselines. Stored inside the cache entry
    so {!forget_peer} / {!reset} wipe it together with the proven lower
    bounds — after any rollback the next session falls back to codec
    version 1 and absolute vectors, mirroring the §5a safety story. *)
module Wire_state : sig
  type baseline = { id : int; vv : Edb_vv.Version_vector.t }

  type t = {
    mutable peer_version : int;
        (** Highest codec version the peer has advertised in a frame
            this node decoded; 1 until proven higher. *)
    mutable next_id : int;  (** Requester side: next request id. *)
    mutable last_sent : baseline option;
        (** Requester side: the newest request sent — the only
            acknowledgement candidate. *)
    mutable acked : baseline option;
        (** Requester side: the newest request whose reply came back,
            hence a DBVV the peer provably decoded and still stores —
            the delta baseline for the next request. *)
    mutable committed : baseline option;
        (** Source side: a recipient baseline proven stable by a later
            request that referenced it. *)
    mutable candidate : baseline option;
        (** Source side: the newest decoded request; promoted to
            [committed] when a later request references it. *)
  }
end

val create : ?shards:int -> n:int -> unit -> t
(** [create ~n] is an empty cache over peers [0 .. n-1]. [shards]
    (default 1) is the owner's shard count; it sizes the per-shard
    proven vectors. *)

val dimension : t -> int

val shards : t -> int

val note_proven : t -> peer:int -> Edb_vv.Version_vector.t -> unit
(** [note_proven t ~peer vv] records proof that [peer] holds at least
    [vv], merging component-wise into the existing lower bound. *)

val proven : t -> peer:int -> Edb_vv.Version_vector.t option
(** The current lower bound on [peer]'s DBVV — the summary DBVV when
    the peer is sharded — (a snapshot copy), if any session ever
    proved one. *)

val note_proven_shard : t -> peer:int -> shard:int -> Edb_vv.Version_vector.t -> unit
(** [note_proven_shard t ~peer ~shard vv] records proof that [peer]'s
    per-shard DBVV for [shard] is at least [vv], merged component-wise
    like {!note_proven}. *)

val proven_shard : t -> peer:int -> shard:int -> Edb_vv.Version_vector.t option
(** The per-shard lower bound for [shard] (a snapshot copy; all-zero
    until a session proves something about that shard). *)

val mark_current : t -> peer:int -> epoch:int -> unit
(** Record that, as of cluster [epoch], a session with [peer] would be
    answered "you are current". *)

val is_current : t -> peer:int -> epoch:int -> bool
(** Whether {!mark_current} was recorded at exactly this [epoch]. Any
    intervening state change anywhere bumps the epoch and refutes
    this. *)

val wire_state : t -> peer:int -> Wire_state.t
(** The live wire-codec state for [peer], created on first use. Mutable
    on purpose: the framing layer ([Edb_persist.Frame]) owns the
    update discipline. *)

val own_wire_version : t -> int
(** The highest wire-codec version this node's transports may speak
    (the frame layer's maximum unless {!set_own_wire_version} pinned it
    down). *)

val set_own_wire_version : t -> int -> unit
(** Pin the node's spoken codec version — e.g. force a node to remain
    a v1 speaker in a mixed-version fleet or a cross-version test.
    [Invalid_argument] below 1. *)

val forget_peer : t -> peer:int -> unit
(** Drop everything known about [peer] — required when [peer] may have
    been rolled back (crash recovery from a checkpoint), which breaks
    the monotonicity assumption behind [proven]. *)

val reset : t -> unit

val is_empty : t -> bool
