(** One protocol node as a long-running process: a
    {!Edb_persist.Durable_node} (WAL + checkpoints) served over a
    {!Socket_transport} select loop — the `edb_cli serve` engine.

    The daemon is both protocol sides at once, and nothing in its loop
    blocks. Passively it answers requests (reply or nak) and applies
    pushes, journaling before applying. Actively each anti-entropy
    tick tops a table of per-peer initiator sessions up to
    [max_sessions] distinct random peers. A fresh boot staggers its
    first tick to [ae_period * (1 + id/n)], so an N-process boot does
    not dial in lockstep. A daemon reopened over existing state (a
    non-zero recovered DBVV) instead runs its first round in
    {!create}, to one random peer only; when that session ends (reply,
    nak, failed attempt or abandon) the next round runs at once and
    tops up to capacity. The other peers are thus asked with the DBVV
    the first reply advanced, and the backlog crosses the wire once.
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
    this process, not of the OS. An optional push channel flushes on
    its own cadence over persistent per-peer streams,
    fire-and-forget.

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
    push : Edb_push.Channel.config option;
    seed : int;  (** Peer choice and backoff jitter PRNG seed. *)
    checkpoint_every : int;
        (** Checkpoint when the journal reaches this many records;
            [0] disables auto-checkpointing. *)
    max_runtime : float option;
        (** Self-terminate after this many seconds — the timeout
            guard for scripted runs. *)
    max_sessions : int;
        (** Concurrent initiator sessions the anti-entropy timer keeps
            in flight (clamped to [n - 1] live peers; at least 1). *)
  }

  val make :
    ?ae_period:float ->
    ?retry:Transport.retry_policy ->
    ?push:Edb_push.Channel.config ->
    ?seed:int ->
    ?checkpoint_every:int ->
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
      to a 0.5 s per-attempt timeout, no push, no auto-checkpoint, no
      runtime bound, 4 concurrent sessions. *)
end

(** The client-facing control protocol: one {!Edb_persist.Codec}
    envelope per record, behind the ['C'] stream tag. *)
module Control : sig
  type request =
    | Ping
    | Update of { item : string; op : Edb_store.Operation.t }
    | Read of { item : string }
    | Export  (** Answered with a {!Edb_persist.Snapshot} blob. *)
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
    when it recovered a non-zero DBVV, its sole-source first session
    is opened here. *)

val node : t -> Edb_core.Node.t

val listen_addr : t -> Socket_transport.addr option

val refused_replies : t -> int
(** Requests this daemon answered with a nak because their reply could
    not be sent (larger than {!Edb_persist.Frame.max_stream_record}, or
    the connection's output buffer full). *)

val step : t -> unit
(** One select-loop iteration: fire due timers (anti-entropy session,
    session deadline or backoff, push flush, auto-checkpoint), then
    wait briefly for readiness and service every readable
    connection. *)

val shutdown : t -> unit

val serve : Config.t -> (unit, string) result
(** [create], then {!step} until a [Quit] arrives (or [max_runtime]
    passes), then {!shutdown} — ignoring [SIGPIPE] for the process, as
    any socket writer must. *)
