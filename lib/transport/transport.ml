module Node = Edb_core.Node
module Message = Edb_core.Message
module Counters = Edb_metrics.Counters
module Frame = Edb_persist.Frame

(* The transport seam (DESIGN.md §12). Everything a delivery substrate
   needs to carry the protocol lives here — the retry policy, its
   timeout/backoff arithmetic and the one initiator session machine
   built on it, the stream record tagging, and the counter charges both
   substrates must apply identically. The simulation engine and the
   socket daemon drive the same machine, so a behavior (say, the backoff
   curve) cannot drift between them. *)

type retry_policy = {
  timeout : float;
  backoff_base : float;
  backoff_factor : float;
  backoff_max : float;
  jitter : float;
  max_retries : int;
}

let default_retry_policy =
  {
    timeout = 4.0;
    backoff_base = 0.5;
    backoff_factor = 2.0;
    backoff_max = 8.0;
    jitter = 0.5;
    max_retries = 3;
  }

module Flow = struct
  (* The retry arithmetic under {!Initiator}. The float arithmetic
     (min-then-multiply order, [attempt - 1] exponent) is load-bearing:
     explorer schedules replay byte-identically only if every substrate
     computes the same backoff from the same draws. *)

  type verdict = Abandon | Retry of { attempt : int; backoff : float }

  let on_timeout policy ~attempt =
    if attempt >= policy.max_retries then Abandon
    else
      let attempt = attempt + 1 in
      let backoff =
        Float.min policy.backoff_max
          (policy.backoff_base
          *. (policy.backoff_factor ** float_of_int (attempt - 1)))
      in
      Retry { attempt; backoff }

  let jittered policy backoff ~u = backoff *. (1.0 +. (policy.jitter *. u))
end

module Initiator = struct
  (* The initiator side of one session — send the DBVV request, await
     the reply within the policy's timeout, back off and re-send, or
     abandon to a later anti-entropy round — as a machine with no IO
     and no clock. The driver supplies [now] with every input and
     carries out the returned action; the engine's event queue and the
     daemon's select loop are its two drivers. It is the only code that
     charges [timeouts], [retries] and [sessions_abandoned]. *)

  type state =
    | Sending of { attempt : int }
    | In_flight of { attempt : int; deadline : float }
    | Backoff of { attempt : int; retry_at : float }
    | Finished

  type action = Send of int | Wake_at of float | Completed | Abandoned

  type t = { policy : retry_policy; mutable state : state }

  let start policy = ({ policy; state = Sending { attempt = 0 } }, Send 0)

  let state m = m.state

  let due m =
    match m.state with
    | In_flight { deadline; _ } -> deadline
    | Backoff { retry_at; _ } -> retry_at
    | Sending _ | Finished -> infinity

  let sent m ~now =
    match m.state with
    | Sending { attempt } ->
      let deadline = now +. m.policy.timeout in
      m.state <- In_flight { attempt; deadline };
      Wake_at deadline
    | In_flight _ | Backoff _ | Finished -> invalid_arg "Initiator.sent: nothing to send"

  (* Part of a reply arrived: the peer is alive and sending, so the
     deadline counts from the last byte received. *)
  let progress m ~now =
    match m.state with
    | In_flight { attempt; _ } ->
      m.state <- In_flight { attempt; deadline = now +. m.policy.timeout }
    | Sending _ | Backoff _ | Finished -> ()

  (* A reply or nak ends the session, also one arriving in the backoff
     window from a superseded attempt. *)
  let reply m =
    match m.state with
    | In_flight _ | Backoff _ ->
      m.state <- Finished;
      Completed
    | Sending _ | Finished -> invalid_arg "Initiator.reply: no request outstanding"

  let failed m ~counters:(c : Counters.t) ~now ~jitter =
    match m.state with
    | Sending { attempt } | In_flight { attempt; _ } -> (
      c.Counters.timeouts <- c.Counters.timeouts + 1;
      match Flow.on_timeout m.policy ~attempt with
      | Flow.Abandon ->
        c.Counters.sessions_abandoned <- c.Counters.sessions_abandoned + 1;
        m.state <- Finished;
        Abandoned
      | Flow.Retry { attempt; backoff } ->
        c.Counters.retries <- c.Counters.retries + 1;
        let retry_at = now +. Flow.jittered m.policy backoff ~u:(jitter ()) in
        m.state <- Backoff { attempt; retry_at };
        Wake_at retry_at)
    | Backoff _ | Finished -> invalid_arg "Initiator.failed: no attempt to fail"

  let timer m ~counters ~now ~jitter =
    match m.state with
    | In_flight { deadline; _ } when now >= deadline -> failed m ~counters ~now ~jitter
    | Backoff { attempt; retry_at } when now >= retry_at ->
      m.state <- Sending { attempt };
      Send attempt
    | In_flight { deadline = due; _ } | Backoff { retry_at = due; _ } -> Wake_at due
    | Sending _ | Finished -> invalid_arg "Initiator.timer: no timer armed"
end

module Record = struct
  (* One stream record is a tag byte then the payload: ['F'] carries an
     encoded {!Frame} (request, reply, nak, push), ['C'] a control
     message private to the daemon (client commands, admin). Frames
     stay byte-identical to the simulated transport's — the tag lives
     outside them, alongside the length prefix. *)

  type t = Frame of string | Control of string

  let frame payload = "F" ^ payload

  let control payload = "C" ^ payload

  let classify record =
    if String.length record = 0 then Error "empty stream record"
    else
      let body = String.sub record 1 (String.length record - 1) in
      match record.[0] with
      | 'F' -> Ok (Frame body)
      | 'C' -> Ok (Control body)
      | c -> Error (Printf.sprintf "unknown stream record tag %C" c)
end

module Charge = struct
  (* Counter charges shared by every frame-shipping path — the
     simulation engine and the socket daemon — so [wire_bytes_sent] and
     the connection counters mean the same thing on both substrates. *)

  let request node frame =
    let c = Node.counters node in
    c.Counters.messages <- c.Counters.messages + 1;
    c.Counters.bytes_sent <-
      c.Counters.bytes_sent + Message.request_bytes (Node.propagation_request node);
    c.Counters.wire_bytes_sent <- c.Counters.wire_bytes_sent + String.length frame

  let push node ~updates frame =
    let c = Node.counters node in
    c.Counters.messages <- c.Counters.messages + 1;
    c.Counters.push_sent <- c.Counters.push_sent + List.length updates;
    c.Counters.bytes_sent <- c.Counters.bytes_sent + Message.push_bytes updates;
    c.Counters.wire_bytes_sent <- c.Counters.wire_bytes_sent + String.length frame;
    c.Counters.push_wire_bytes <- c.Counters.push_wire_bytes + String.length frame

  let dial ?(retry = false) (c : Counters.t) =
    c.Counters.connections_opened <- c.Counters.connections_opened + 1;
    if retry then c.Counters.connection_retries <- c.Counters.connection_retries + 1
end

(* Frame kind, from the header byte at payload offset 2 (see
   [Frame]: version; advertised; kind). Locally produced frames are
   well-formed, so a raw peek suffices; anything shorter than a header
   plus checksum trailer is garbage. *)
let frame_kind frame =
  if String.length frame < 7 then None
  else
    match Char.code frame.[2] with
    | 0 -> Some `Request
    | 1 -> Some `Reply
    | 2 -> Some `Nak
    | 3 -> Some `Push
    | _ -> None

let serve_frame node ~src frame =
  match frame_kind frame with
  | Some `Request ->
    (* [respond] answers an undecodable request with a nak itself. *)
    Some (Frame.respond node ~src frame)
  | Some (`Reply | `Nak | `Push) | None ->
    (* Replies and naks outside a session context — late duplicates of a
       completed session — pushes, which no durable node applies, and
       garbage all drop silently; anti-entropy repairs whatever they
       would have carried. *)
    None
