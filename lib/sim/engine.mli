(** The discrete-event simulation engine.

    Drives any replication protocol (through
    {!Edb_baselines.Driver.t}) over virtual time: user updates arrive,
    anti-entropy sessions fire on schedules, nodes crash and recover,
    the network delays, drops, duplicates or reorders sessions.

    {b Determinism guarantees.} A run is a pure function of the engine
    seed, the network configuration, and the sequence of [schedule]
    calls: all randomness comes from one seeded splitmix64 generator
    (never the OCaml stdlib [Random]), events with equal timestamps
    execute in the order they were scheduled (the event queue breaks
    ties FIFO), and the engine itself never consults wall-clock time.
    Re-running the same schedule with the same seed reproduces every
    delivery, loss, duplication and peer choice exactly — which is what
    lets the fault-schedule explorer ([lib/check]) shrink failing
    schedules and replay them from a printed seed.

    {b Transports.} Under the default {!Session_grain} transport a
    session scheduled at time [T] between alive, connected endpoints
    executes atomically at [T + delay]; if either endpoint is down at
    execution time, or the network loses the attempt, nothing happens —
    there is no retransmission, matching the paper's model where
    anti-entropy simply runs again later.

    Under {!Message_grain} (requires a driver with
    {!Edb_baselines.Driver.t.granular} support) a session is three
    observable points — request built at the recipient, reply built at
    the source, reply accepted back at the recipient — joined by two
    wire messages, each separately subject to loss, delay, duplication,
    reordering and partitions, with endpoint crashes able to land
    {e between} them. A per-attempt timeout drives bounded exponential
    backoff with jitter (seeded from the engine PRNG); after
    [max_retries] re-sends the session is abandoned to a later
    anti-entropy round. These rules are the
    {!Edb_transport.Transport.Initiator} machine, the one the socket
    daemon drives too. Timeouts, retries and abandonments are charged
    to the initiating node's {!Edb_metrics.Counters}. *)

type t

type peer_policy =
  | Random_peer  (** Each node pulls from one uniformly random peer. *)
  | Ring  (** Node [i] pulls from node [i-1 mod n]. *)

type retry_policy = Edb_transport.Transport.retry_policy = {
  timeout : float;  (** Per-attempt reply deadline. *)
  backoff_base : float;  (** Delay before the first re-send. *)
  backoff_factor : float;  (** Multiplier per further attempt. *)
  backoff_max : float;  (** Backoff cap. *)
  jitter : float;
      (** Each backoff is stretched by a uniform factor in
          [\[1, 1+jitter)], drawn from the engine PRNG. *)
  max_retries : int;  (** Re-sends before the session is abandoned. *)
}
(** Re-exported from the transport seam
    ({!Edb_transport.Transport.retry_policy}, the canonical home): the
    socket daemon runs the very same policy and backoff arithmetic over
    real connections. *)

val default_retry_policy : retry_policy
(** timeout 4.0, backoff 0.5 doubling to a cap of 8.0, jitter 0.5,
    3 retries — tuned to the default network's base latency of 1.0
    (round trip 2.0, so a timeout means a message was really lost,
    reordered far, or an endpoint is down). *)

type transport =
  | Session_grain  (** Atomic whole-session delivery (the default). *)
  | Message_grain of retry_policy
      (** Independent request/reply messages with timeout-retry. *)

type event =
  | User_update of { node : int; item : string; op : Edb_store.Operation.t }
  | Session of { src : int; dst : int }
      (** Begin one propagation session carrying [src]'s knowledge to
          [dst]. *)
  | Session_delivery of { src : int; dst : int }
      (** Internal (session-grain): the session's network delay has
          elapsed; execute it. *)
  | Request_delivery of {
      sid : int;
      src : int;
      dst : int;
      msg : Edb_baselines.Driver.message;
    }
      (** Internal (message-grain): [dst]'s propagation request reaches
          the source. *)
  | Reply_delivery of {
      sid : int;
      src : int;
      dst : int;
      msg : Edb_baselines.Driver.message;
    }
      (** Internal (message-grain): the reply reaches the recipient. *)
  | Session_timer of { sid : int }
      (** Internal (message-grain): the session's
          {!Edb_transport.Transport.Initiator} asked to be woken now —
          an attempt's reply deadline passed, or its backoff elapsed. *)
  | Push_flush of { period : float; until : float }
      (** Drain every alive node's push queues toward ready peers
          (requires a driver with {!Edb_baselines.Driver.t.push};
          raises [Invalid_argument] otherwise) and reschedule after
          [period] while the next firing is at or before [until] — a
          bounded cadence, so quiescence-driven runs still drain. Each
          flushed frame is one unacknowledged network message, faulted
          independently; its loss/delay/duplication draws come from a
          {e separate} PRNG stream derived from the seed, so enabling
          push never perturbs the main stream's draws. *)
  | Push_delivery of { src : int; dst : int; msg : Edb_baselines.Driver.message }
      (** Internal: a push frame reaches [dst]; applied iff alive. *)
  | Crash of int
  | Recover of int
  | Anti_entropy_round of { period : float; policy : peer_policy }
      (** Fire one round for every alive node and reschedule itself
          after [period]. *)
  | Custom of (t -> unit)  (** Escape hatch for experiment-specific logic. *)

val create :
  ?seed:int ->
  ?network:Network.t ->
  ?transport:transport ->
  driver:Edb_baselines.Driver.t ->
  unit ->
  t
(** Raises [Invalid_argument] if [transport] is {!Message_grain} but
    the driver has no granular support. *)

val driver : t -> Edb_baselines.Driver.t

val now : t -> float

val alive : t -> int -> bool

val schedule : t -> at:float -> event -> unit
(** [schedule t ~at e] enqueues [e] at absolute virtual time [at]
    (which must not precede {!now}). *)

val schedule_after : t -> delay:float -> event -> unit

val run_until : t -> float -> unit
(** [run_until t deadline] processes events with time <= [deadline] and
    advances the clock to [deadline]. *)

val step : t -> bool
(** [step t] processes the single earliest event; [false] when the
    queue is empty. *)

val run_until_quiescent : ?max_events:int -> t -> bool
(** [run_until_quiescent t] processes events in deterministic order
    until the queue drains or [max_events] (default [100_000]) have
    executed; [true] iff the queue drained. Bounded by event count, not
    wall time, so tests driving finite schedules cannot hang. Note that
    a pending {!Anti_entropy_round} reschedules itself forever and will
    exhaust the budget — use {!run_until} for recurring schedules.
    Message-grain sessions always drain: retries are bounded by the
    policy's budget and every timeout clock eventually fires. *)

val run_until_converged :
  t -> check_every:float -> deadline:float -> float option
(** [run_until_converged t ~check_every ~deadline] runs the simulation,
    testing [driver.converged] every [check_every] time units; returns
    the first check time at which it held, or [None] if the deadline
    passed first. *)

val sessions_attempted : t -> int
(** Session-grain: sessions that reached execution (delivered, both
    ends up). Message-grain: sessions whose first reply was accepted. *)

val sessions_lost : t -> int
(** Session-grain: attempts dropped by the network or a dead endpoint.
    Message-grain: sessions with a dead initiator at start, plus
    sessions abandoned after the retry budget. *)

val sessions_in_flight : t -> int
(** Message-grain sessions started but neither completed nor
    abandoned. *)
