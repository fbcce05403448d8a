(** The transport seam (DESIGN.md §12).

    The protocol's delivery path used to be hard-wired into the
    simulation engine; this module holds what every substrate shares
    instead, so none of it can drift between them:

    - the {!retry_policy}, its {!Flow} timeout/backoff arithmetic, and
      the {!Initiator} session machine built on them — one pure machine
      that the simulation engine's event queue and the socket daemon's
      select loop both drive;
    - the {!Record} tagging that multiplexes protocol frames and
      control messages over one byte stream;
    - the {!Charge} counter discipline, so [wire_bytes_sent] and the
      connection counters mean the same thing everywhere;
    - {!serve_frame}, the passive side of frame dispatch.

    Frames themselves ({!Edb_persist.Frame}) are transport-agnostic
    bytes; a stream transport ({!Socket_transport}) adds a length
    prefix ({!Edb_persist.Frame.to_wire}) and the {!Record} tag,
    nothing else. *)

(** {1 Retry policy} *)

type retry_policy = {
  timeout : float;  (** Per-attempt reply deadline, seconds. *)
  backoff_base : float;
  backoff_factor : float;
  backoff_max : float;
  jitter : float;
      (** Multiplicative jitter bound: the backoff is scaled by
          [1 + jitter * u] for a uniform draw [u] in [\[0, 1)]. *)
  max_retries : int;  (** Attempts beyond the first before abandoning. *)
}

val default_retry_policy : retry_policy
(** 4 s timeout, 0.5 s base doubling to an 8 s cap, 0.5 jitter, 3
    retries — the values the simulation has always used (the canonical
    definition moved here from [Edb_sim.Engine], which re-exports
    it). *)

(** The retry arithmetic: pure decisions from (policy, attempt), so
    every substrate — and every replayed explorer schedule — computes
    identical backoffs from identical draws. {!Initiator} is its only
    caller. *)
module Flow : sig
  type verdict =
    | Abandon  (** Retry budget exhausted: leave it to anti-entropy. *)
    | Retry of { attempt : int; backoff : float }
        (** Re-send as attempt [attempt] (1-based beyond the first
            send) after [backoff] seconds, {e before} jitter. *)

  val on_timeout : retry_policy -> attempt:int -> verdict
  (** Verdict when attempt [attempt] (0-based) timed out. *)

  val jittered : retry_policy -> float -> u:float -> float
  (** [jittered policy backoff ~u] applies the policy's multiplicative
      jitter using the caller's uniform draw [u] — the caller owns the
      randomness source (the engine draws from its replayable PRNG). *)
end

(** {1 The initiator session machine} *)

(** The initiator side of one anti-entropy session (paper Fig. 2/3:
    send the DBVV request, accept the reply) with the policy's
    timeout, backoff and abandon rules — no IO, no clock. A driver
    feeds it inputs stamped with its own [now], carries out the
    returned {!action}, and keeps everything transport-shaped (dials,
    encoding, {!Charge.request}, connection caching) to itself. An
    input the current {!state} cannot take (say, {!reply} after the
    session finished) raises [Invalid_argument]. *)
module Initiator : sig
  type state =
    | Sending of { attempt : int }
        (** Attempt [attempt] (0-based) is to go out now; the driver
            answers with {!sent} or {!failed}. *)
    | In_flight of { attempt : int; deadline : float }
        (** Sent; the reply is due by [deadline] ([now + timeout] at
            {!sent}). *)
    | Backoff of { attempt : int; retry_at : float }
        (** Waiting to send attempt [attempt] at [retry_at]. *)
    | Finished  (** Completed or abandoned; accepts no more input. *)

  type action =
    | Send of int  (** Send attempt [k] now. *)
    | Wake_at of float  (** Deliver {!timer} at this time. *)
    | Completed  (** A reply ended the session. *)
    | Abandoned  (** The retry budget is spent: leave it to anti-entropy. *)

  type t

  val start : retry_policy -> t * action
  (** A fresh session and its first action, [Send 0]. *)

  val state : t -> state

  val due : t -> float
  (** When the next {!timer} has work: the deadline in flight, the
      retry time in backoff, [infinity] otherwise. *)

  val sent : t -> now:float -> action
  (** The attempt went out (or, for a dead simulated initiator, would
      have): arm its deadline. [Wake_at (now + timeout)]. *)

  val progress : t -> now:float -> unit
  (** Part of the reply arrived, but no whole record yet. [In_flight]:
      re-arm the deadline to [now + timeout], so it counts from the
      last byte received; any other state: nothing. The daemon calls
      it; the simulation engine delivers whole messages and never
      does. A peer that keeps trickling bytes therefore holds its
      session open indefinitely — but only its own slot in the
      daemon's session table: the next anti-entropy round skips that
      peer and pulls the others, so they wait at most one tick
      (outside a reopened daemon's catch-up round). *)

  val reply : t -> action
  (** A reply or nak was decoded — also one from a superseded attempt
      arriving in the backoff window. [Completed]. *)

  val failed :
    t -> counters:Edb_metrics.Counters.t -> now:float -> jitter:(unit -> float) -> action
  (** The attempt failed before its deadline: refused dial, send or
      flush error, EOF, corrupt reply. Charges a timeout, then either
      a retry ([Wake_at (now + jittered backoff)], drawing
      [jitter ()] once) or an abandon ([Abandoned], drawing
      nothing). *)

  val timer :
    t -> counters:Edb_metrics.Counters.t -> now:float -> jitter:(unit -> float) -> action
  (** A timer fired. Past the deadline it is {!failed}; past the retry
      time it is [Send attempt]; before {!due} it changes nothing and
      answers [Wake_at (due t)]. *)
end

(** {1 Stream records} *)

(** One stream record is a tag byte then the payload: ['F'] an encoded
    protocol frame, ['C'] a daemon control message. The tag sits
    outside the frame bytes, which stay identical to the simulated
    transport's. *)
module Record : sig
  type t = Frame of string | Control of string

  val frame : string -> string

  val control : string -> string

  val classify : string -> (t, string) result
end

(** {1 Counter charges} *)

(** The charges every frame-shipping path applies, so both transports
    account identically (see the counter docs in
    {!Edb_metrics.Counters}). *)
module Charge : sig
  val request : Edb_core.Node.t -> string -> unit
  (** Charge sending the encoded request [frame]: one message, the
      modeled request bytes, and the frame's true length as wire
      bytes. *)

  val push : Edb_core.Node.t -> updates:Edb_core.Message.push_update list -> string -> unit
  (** Charge flushing one push frame carrying [updates]. *)

  val dial : ?retry:bool -> Edb_metrics.Counters.t -> unit
  (** Charge one transport dial ([connections_opened]); [retry] also
      charges [connection_retries]. *)
end

(** {1 Frame dispatch} *)

val frame_kind : string -> [ `Request | `Reply | `Nak | `Push ] option
(** Peek a frame's kind from its header byte; [None] for garbage. *)

val serve_frame : Edb_core.Node.t -> src:int -> string -> string option
(** The passive (server) side of frame dispatch: a request is answered
    (reply or nak) through {!Edb_persist.Frame.respond} — the returned
    frame should go back on the same connection — and anything else
    (late replies, pushes, garbage) drops silently, repaired by
    anti-entropy. A push is not applied: applying it without
    journaling it would ack state a crash loses, and pull anti-entropy
    alone delivers every update (paper Theorem 5). The simulator's
    push receive path is [Edb_core.Node.apply_push], not this. *)
