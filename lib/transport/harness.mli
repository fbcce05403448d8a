(** The multi-process cluster harness behind `edb_cli cluster`.

    Boots N `edb_cli serve` daemons (one process each, started with
    [Unix.create_process]; Unix-domain sockets or TCP), drives them over the {!Daemon.Control} protocol,
    kills ([SIGKILL], nothing flushed) and restarts daemons mid-run —
    restart recovers from the WAL — and decides convergence by
    exporting every node's snapshot and comparing stores.

    Deliberately independent of [lib/check] (whose library depends on
    this one's consumers): the invariant battery is {e injected} by
    the caller — pass [Edb_check.Invariant.check_node] to
    {!await_converged}. *)

type kind = [ `Tcp | `Unix ]

type t

val start :
  exe:string ->
  ?kind:kind ->
  ?ae_period:float ->
  ?seed:int ->
  ?max_runtime:float ->
  ?control_timeout:float ->
  ?max_sessions:int ->
  dir:string ->
  n:int ->
  unit ->
  t
(** Boot the cluster under [dir] (created if missing; one state
    subdirectory and — for [`Unix] — one socket per node), running
    [exe serve ...] per node, where [exe] is the path of the [edb_cli]
    executable.
    Daemons self-terminate after [max_runtime] (default 120 s), the
    harness's outermost hang guard. Control dials retry for
    [control_timeout] (default 5 s), covering daemon boot time.
    [max_sessions] is passed through to every daemon (the concurrent
    anti-entropy fan-out; the daemon's default is 4). *)

val running : t -> node:int -> bool
(** Whether node [node]'s daemon is alive. A daemon that exited or was
    killed behind the harness's back is reaped and reported [false]
    (and {!restart} will start it again). *)

val pid : t -> node:int -> int option
(** The process id of node [node]'s daemon, while the harness has one
    started. *)

val update :
  t -> node:int -> item:string -> Edb_store.Operation.t -> (unit, string) result

val read : t -> node:int -> item:string -> (string option, string) result

val export : t -> node:int -> (Edb_core.Node.t, string) result
(** The node's current state, as a decoded snapshot blob. *)

val counters_of : t -> node:int -> ((string * int) list, string) result
(** The node's live counters, in {!Edb_metrics.Counters.fields}
    order. *)

val journal : t -> node:int -> (int * int, string) result
(** [(records, bytes)] of the node's journal as it is on disk now:
    complete records since the last checkpoint, and the file size. *)

val checkpoint : t -> node:int -> (unit, string) result

val kill : t -> node:int -> unit
(** [SIGKILL] the daemon and reap it — no shutdown path runs; the WAL
    on disk is all {!restart} will find. No-op if not running. *)

val stop : t -> node:int -> unit
(** Graceful: send [Quit], then reap (escalating to [SIGKILL] only if
    the daemon ignores it). *)

val restart : t -> node:int -> unit
(** Start the daemon again over its existing state directory; recovery
    replays checkpoint + WAL. No-op if still running. *)

val agree : Edb_core.Node.t list -> bool
(** Store-level convergence over exported nodes — the same judgement
    [Edb_core.Cluster.converged] makes in process: no auxiliary copies,
    equal (per-shard) DBVVs, item-for-item equal stores. *)

val await_converged :
  ?deadline:float ->
  ?poll:float ->
  ?invariant:(Edb_core.Node.t -> (unit, string) result) ->
  t ->
  (float, string) result
(** Poll exports until {!agree}, returning the elapsed seconds.
    [invariant] (e.g. [Edb_check.Invariant.check_node]) runs on every
    exported node of every sample and fails the wait immediately;
    unreachable nodes keep the poll spinning until [deadline]
    (default 30 s). *)

val shutdown : t -> unit
(** {!stop} every running daemon and release client connections. *)
