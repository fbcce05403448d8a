(** One protocol node as a long-running process: a
    {!Edb_persist.Durable_node} (WAL + checkpoints) served over a
    {!Socket_transport} select loop — the `edb_cli serve` engine.

    The daemon is both protocol sides at once, and nothing in its loop
    blocks. Passively it answers requests (reply or nak); a push frame
    drops like a stray reply, since pull anti-entropy alone delivers
    every update (paper Theorem 5). Actively each anti-entropy
    tick starts a round: up to [max_sessions] distinct random peers
    with no session in flight, pulled one after another. The first is
    asked at once, each later one when the session before it ends
    (reply, nak, failed attempt or abandon), so its request carries
    the DBVV the previous reply advanced and no update crosses the
    wire twice in a round. A new round replaces the queue of the one
    before, and a peer still in session is skipped, so a mute or
    trickling peer delays the others by at most one tick. A fresh boot
    staggers its first tick to [ae_period * (1 + id/n)], so an
    N-process boot does not dial in lockstep; a daemon reopened over
    existing state (a non-zero recovered DBVV) runs its first round,
    the catch-up round, in {!create}, so the first peer's reply ships
    the whole backlog. That reply can take many ticks, so no regular
    round starts until the catch-up round has ended: a mute peer
    there delays the others by up to its reply timeout.
    Every in-flight session is just another fd in the select set,
    driving its own {!Transport.Initiator} — the machine the
    simulation engine drives too — fed [Unix.gettimeofday]: its reply
    deadline (counted from the last byte received), retries and
    abandonment are timers in the loop. A session that ends with a
    decoded reply or a nak parks its connection in a per-peer idle
    cache, and the next session to that peer sends on it: no dial, no
    handshake. Cached connections stay in the select set, and any
    readable event while idle (EOF, error, stray bytes) closes them,
    as do a timeout, a send or flush error and a corrupt reply; only
    real dials are charged to [connections_opened]. Every connection
    is non-blocking with a per-connection output buffer (writable-fd
    interest, partial-write resumption), so a slow peer never stops
    this node from serving; and the WAL group-commits once per loop
    turn — no buffered reply is released to the wire before the batch
    holding its commit record is synced. The sync is a flush to the
    kernel, not an [fsync]: an acknowledged write survives a crash of
    this process, not of the OS.

    Control clients (the {!Harness}, `edb_cli cluster`) speak
    {!Control} records over the same listening socket. *)

module Config : sig
  type t = {
    id : int;
    n : int;
    dir : string;  (** Durable state directory (created if missing). *)
    listen : Socket_transport.addr;
    peers : (int * Socket_transport.addr) list;
    ae_period : float;  (** Seconds between anti-entropy rounds. *)
    retry : Transport.retry_policy;
    seed : int;  (** Peer choice and backoff jitter PRNG seed. *)
    max_runtime : float option;
        (** Self-terminate after this many seconds — the timeout
            guard for scripted runs. *)
    max_sessions : int;
        (** Peers each anti-entropy round pulls, one after another
            (clamped to [n - 1]; at least 1). *)
  }

  val make :
    ?ae_period:float ->
    ?retry:Transport.retry_policy ->
    ?seed:int ->
    ?max_runtime:float ->
    ?max_sessions:int ->
    id:int ->
    n:int ->
    dir:string ->
    listen:Socket_transport.addr ->
    peers:(int * Socket_transport.addr) list ->
    unit ->
    t
  (** Defaults: 50 ms anti-entropy, the default retry policy tightened
      to a 0.5 s per-attempt timeout, no runtime bound, 4 peers per
      round. Checkpoints need no setting (see {!create}). *)
end

(** The client-facing control protocol: one {!Edb_persist.Codec}
    envelope per record, behind the ['C'] stream tag. *)
module Control : sig
  type request =
    | Ping
    | Update of { item : string; op : Edb_store.Operation.t }
    | Read of { item : string }
    | Export
        (** Answered with a {!Edb_persist.Snapshot} blob. A blob over
            {!Edb_persist.Frame.max_stream_record} (64 MiB) cannot be
            sent as one record and is answered with [Failed] instead,
            as is any reply the connection refuses. *)
    | Counters_req
    | Checkpoint
    | Quit  (** Acknowledged, then the daemon shuts down cleanly. *)

  type reply =
    | Ack
    | Value of string option
    | State of string
    | Stats of (string * int) list
    | Failed of string

  val encode_request : request -> string

  val decode_request : string -> request
  (** Raises {!Edb_persist.Codec.Reader.Corrupt}. *)

  val encode_reply : reply -> string

  val decode_reply : string -> reply
  (** Raises {!Edb_persist.Codec.Reader.Corrupt}. *)
end

type t

val create : Config.t -> (t, string) result
(** Open (or recover) the durable node and bind the listening socket.
    Recovery replays the WAL over the latest checkpoint, so a daemon
    restarted after [kill -9] resumes exactly where the journal ends;
    when it recovered a non-zero DBVV, its first round (the catch-up
    round) starts here, and the first regular round one [ae_period]
    after it ends.

    A reopened daemon folds its journal into a checkpoint
    ({!Edb_persist.Durable_node.checkpoint}, crash-atomic) once, after
    it has caught up: at the first regular anti-entropy tick that
    finds no session in flight, so after its catch-up round has ended,
    and only when the journal holds a record. The journal then holds the backlog just
    pulled, so the next restart replays only what was journaled after
    it. The checkpoint blocks the loop while it runs, but after the
    node serves the backlog, not between exec and its first reply.

    The backstop: when the recovered journal's bytes exceed the
    checkpoint's (no checkpoint counts as 0 bytes), the daemon also
    checkpoints before it binds. That happens only when the previous
    incarnation died before its own post-catch-up compaction (a crash
    loop) or on a first open over a long journal, and it keeps a
    restart's replay under one checkpoint's worth of journal even
    then: its cost follows the state, not the history.

    The running rule: a daemon that never restarts applies the same
    test at every anti-entropy tick, with a 1 MiB floor so that a small
    state is not checkpointed at nearly every tick. Once its journal
    has more bytes than both the checkpoint and the floor, the tick
    checkpoints, so the journal stays under max(checkpoint, 1 MiB) plus
    one tick's appends, and each checkpoint writes at most one snapshot
    byte per journal byte appended since the last one. The byte counts
    are kept in memory ({!Edb_persist.Durable_node.disk_bytes}), so the
    test costs no system call. None of these rules needs a setting. *)

val node : t -> Edb_core.Node.t

val listen_addr : t -> Socket_transport.addr option

val refused_replies : t -> int
(** Requests this daemon answered with a nak because their reply could
    not be sent (larger than {!Edb_persist.Frame.max_stream_record}, or
    the connection's output buffer full). *)

val step : t -> unit
(** One select-loop iteration: fire due timers (anti-entropy session,
    session deadline or backoff, post-catch-up or size-rule
    checkpoint), then wait briefly for readiness and service every
    readable connection. *)

val shutdown : t -> unit

val serve : Config.t -> (unit, string) result
(** [create], then {!step} until a [Quit] arrives (or [max_runtime]
    passes), then {!shutdown} — ignoring [SIGPIPE] for the process, as
    any socket writer must. *)
