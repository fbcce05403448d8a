module Node = Edb_core.Node
module Message = Edb_core.Message
module Counters = Edb_metrics.Counters
module Operation = Edb_store.Operation
module Prng = Edb_util.Prng
module Frame = Edb_persist.Frame
module Codec = Edb_persist.Codec
module Wire = Edb_persist.Wire
module Snapshot = Edb_persist.Snapshot
module Vv = Edb_vv.Version_vector
module Durable_node = Edb_persist.Durable_node
module Channel = Edb_push.Channel
module T = Socket_transport
module Initiator = Transport.Initiator
module Fault = Edb_fault.Fault

(* One protocol node as a process: a {!Durable_node} (WAL + checkpoint)
   served over a {!Socket_transport} select loop. The daemon is both
   sides of the protocol at once — it answers inbound requests and
   pushes, and runs its own anti-entropy timer as the initiator — and
   nothing in the loop may block: up to [max_sessions] initiator
   sessions are in flight at once (a table of per-peer
   {!Transport.Initiator} machines, each just another fd in the select
   set with its reply deadline and backoff handled as timers), a
   session that completes parks its connection in a per-peer idle
   cache for the next session to that peer (dialing only when the
   cache is empty), every connection is
   non-blocking with a per-connection output buffer (writable-fd
   interest, partial-write resumption), and the WAL group-commits once
   per loop turn — no record buffered for a peer is released to the
   wire before the batch holding its commit record is durable. The
   timeout/retry machine is the shared {!Transport.Initiator}, fed
   [Unix.gettimeofday]; the counter charges are the shared
   {!Transport.Charge}. *)

module Config = struct
  type t = {
    id : int;
    n : int;
    dir : string;
    listen : T.addr;
    peers : (int * T.addr) list;
    ae_period : float;
    retry : Transport.retry_policy;
    push : Channel.config option;
    seed : int;
    checkpoint_every : int;
    max_runtime : float option;
    max_sessions : int;
  }

  let make ?(ae_period = 0.05) ?(retry = { Transport.default_retry_policy with timeout = 0.5 })
      ?push ?(seed = 1) ?(checkpoint_every = 0) ?max_runtime ?(max_sessions = 4) ~id ~n
      ~dir ~listen ~peers () =
    {
      id;
      n;
      dir;
      listen;
      peers;
      ae_period;
      retry;
      push;
      seed;
      checkpoint_every;
      max_runtime;
      max_sessions = max 1 max_sessions;
    }
end

(* The client-facing control protocol, one {!Codec} envelope per
   record behind the ['C'] tag: how the harness (and `edb_cli cluster`)
   drives updates, reads state, and shuts a daemon down. *)
module Control = struct
  type request =
    | Ping
    | Update of { item : string; op : Operation.t }
    | Read of { item : string }
    | Export
    | Counters_req
    | Checkpoint
    | Quit

  type reply =
    | Ack
    | Value of string option
    | State of string
    | Stats of (string * int) list
    | Failed of string

  let encode_request r =
    Codec.Writer.with_scratch (fun w ->
        (match r with
        | Ping -> Codec.Writer.byte w 0
        | Update { item; op } ->
          Codec.Writer.byte w 1;
          Codec.Writer.string w item;
          Wire.encode_operation w op
        | Read { item } ->
          Codec.Writer.byte w 2;
          Codec.Writer.string w item
        | Export -> Codec.Writer.byte w 3
        | Counters_req -> Codec.Writer.byte w 4
        | Checkpoint -> Codec.Writer.byte w 5
        | Quit -> Codec.Writer.byte w 6);
        Codec.Writer.contents w)

  let decode_request data =
    let r = Codec.Reader.create data in
    let req =
      match Codec.Reader.byte r with
      | 0 -> Ping
      | 1 ->
        let item = Codec.Reader.string r in
        let op = Wire.decode_operation r in
        Update { item; op }
      | 2 -> Read { item = Codec.Reader.string r }
      | 3 -> Export
      | 4 -> Counters_req
      | 5 -> Checkpoint
      | 6 -> Quit
      | tag -> raise (Codec.Reader.Corrupt (Printf.sprintf "unknown control request %d" tag))
    in
    Codec.Reader.expect_end r;
    req

  let encode_reply r =
    Codec.Writer.with_scratch (fun w ->
        (match r with
        | Ack -> Codec.Writer.byte w 0
        | Value v ->
          Codec.Writer.byte w 1;
          Codec.Writer.bool w (v <> None);
          Codec.Writer.string w (Option.value v ~default:"")
        | State s ->
          Codec.Writer.byte w 2;
          Codec.Writer.string w s
        | Stats fields ->
          Codec.Writer.byte w 3;
          Codec.Writer.list w
            (fun w (name, v) ->
              Codec.Writer.string w name;
              Codec.Writer.int w v)
            fields
        | Failed msg ->
          Codec.Writer.byte w 4;
          Codec.Writer.string w msg);
        Codec.Writer.contents w)

  let decode_reply data =
    let r = Codec.Reader.create data in
    let reply =
      match Codec.Reader.byte r with
      | 0 -> Ack
      | 1 ->
        let present = Codec.Reader.bool r in
        let v = Codec.Reader.string r in
        Value (if present then Some v else None)
      | 2 -> State (Codec.Reader.string r)
      | 3 ->
        Stats
          (Codec.Reader.list r (fun r ->
               let name = Codec.Reader.string r in
               let v = Codec.Reader.int r in
               (name, v)))
      | 4 -> Failed (Codec.Reader.string r)
      | tag -> raise (Codec.Reader.Corrupt (Printf.sprintf "unknown control reply %d" tag))
    in
    Codec.Reader.expect_end r;
    reply
end

(* An initiator-side session, one per peer, at most [max_sessions] at a
   time: the shared machine, plus the connection its in-flight attempt
   awaits the reply on. Invariant: [sconn] is [Some] only while the
   machine is [In_flight]. *)
type session = { s_peer : int; machine : Initiator.t; mutable sconn : T.conn option }

type t = {
  config : Config.t;
  durable : Durable_node.t;
  transport : T.t;
  channel : Channel.t option;
  prng : Prng.t;
  started : float;
  (* Accepted connections: peers' sessions and push streams, control
     clients. Non-blocking; a freshly accepted one is anonymous
     ([T.peer conn = -1]) until its handshake arrives via read. *)
  mutable conns : T.conn list;
  (* In-flight initiator sessions, keyed by peer — the single
     [mutable session : session option] this table replaced is the
     [max_sessions = 1] special case. *)
  sessions : (int, session) Hashtbl.t;
  (* Set while the first round of a daemon reopened over existing
     state is pulling from a single peer (see [create]): rounds top up
     to one session until that session ends. *)
  mutable sole_source : bool;
  (* Persistent non-blocking push connections, one per peer dialed on
     first flush: a slow push peer accumulates buffered frames (up to
     the transport's cap) instead of stalling the loop. *)
  push_conns : (int, T.conn) Hashtbl.t;
  (* Idle session connections, at most one per peer. Invariant: a
     connection is here only while no request on it is outstanding and
     nothing is buffered on it in either direction — it enters when its
     session ends with a decoded reply or a nak, leaves when the next
     session to that peer sends on it, and is closed instead on any
     readable event while idle (EOF, error or stray bytes). *)
  idle : (int, T.conn) Hashtbl.t;
  mutable next_ae : float;
  mutable next_push : float;
  mutable quit : bool;
  (* Requests answered with a nak because their reply could not be
     sent. Daemon-local: not a {!Counters} field. *)
  mutable refused_replies : int;
}

let node t = Durable_node.node t.durable

let counters t = Node.counters (node t)

let close_session_conn s =
  match s.sconn with
  | Some conn ->
    T.close_conn conn;
    s.sconn <- None
  | None -> ()

let drop_idle_conn t peer conn =
  T.close_conn conn;
  Hashtbl.remove t.idle peer

(* The session ended with a decoded reply or a nak: its one request is
   answered, so the connection goes back to the idle cache for the next
   session to this peer — unless more bytes already follow the reply,
   which no well-behaved peer sends and which the next session would
   otherwise take for its own reply. *)
let session_done t s =
  (match s.sconn with
  | Some conn when T.pending_input conn = 0 ->
    s.sconn <- None;
    Hashtbl.replace t.idle s.s_peer conn
  | _ -> close_session_conn s);
  Hashtbl.remove t.sessions s.s_peer

let jitter t () = Prng.float t.prng 1.0

(* Carry out the machine's action. Whatever it decided, an attempt that
   is no longer in flight gives up its connection first — except on
   completion, where [session_done] parks it. The sole-source session
   ends with a reply, a nak, a failed attempt or an abandon; the next
   round is then due at once, and tops up to capacity. *)
let rec apply t s action =
  (match (action, Initiator.state s.machine) with
  | Initiator.Completed, _ | _, Initiator.In_flight _ -> ()
  | _ -> close_session_conn s);
  (match Initiator.state s.machine with
  | (Initiator.Backoff _ | Initiator.Finished) when t.sole_source ->
    t.sole_source <- false;
    t.next_ae <- neg_infinity
  | _ -> ());
  match action with
  | Initiator.Send attempt -> attempt_session t s attempt
  | Initiator.Wake_at _ -> ()
  | Initiator.Completed -> session_done t s
  | Initiator.Abandoned -> Hashtbl.remove t.sessions s.s_peer

(* A failed attempt — refused dial, send error, peer closed mid-session,
   corrupt reply — all funnel here, mirroring the simulated transport's
   single timeout failure mode; a passed reply deadline reaches the same
   machine transition through its timer. *)
and session_attempt_failed t s =
  apply t s
    (Initiator.failed s.machine ~counters:(counters t) ~now:(Unix.gettimeofday ())
       ~jitter:(jitter t))

and send_request t s conn =
  let nd = node t in
  (* Re-encode per attempt: fresh request id, current vectors. The
     request only enters the connection's output buffer here; the
     loop's flush phase drives it out. *)
  let frame = Frame.encode_request nd ~dst:s.s_peer in
  Transport.Charge.request nd frame;
  match T.send conn (Transport.Record.frame frame) with
  | Error _ ->
    T.close_conn conn;
    session_attempt_failed t s
  | Ok () ->
    s.sconn <- Some conn;
    apply t s (Initiator.sent s.machine ~now:(Unix.gettimeofday ()))

(* One attempt: on the peer's idle connection when there is one, else
   on a fresh non-blocking dial (the handshake is queued ahead of the
   request, and a connect still in progress just reports [`Blocked]
   until the kernel finishes it). Only real dials are charged. *)
and attempt_session t s attempt =
  match Hashtbl.find_opt t.idle s.s_peer with
  | Some conn ->
    Hashtbl.remove t.idle s.s_peer;
    send_request t s conn
  | None -> (
    Transport.Charge.dial ~retry:(attempt > 0) (counters t);
    match T.dial t.transport ~peer:s.s_peer with
    | Error _ -> session_attempt_failed t s
    | Ok conn -> send_request t s conn)

let start_session t ~peer =
  if not (Hashtbl.mem t.sessions peer) then begin
    let machine, first = Initiator.start t.config.Config.retry in
    let s = { s_peer = peer; machine; sconn = None } in
    Hashtbl.replace t.sessions peer s;
    apply t s first
  end

(* Whether [s] is still the peer's session, waiting on a reply. *)
let awaiting_reply t s =
  match Hashtbl.find_opt t.sessions s.s_peer with
  | Some s' -> s' == s && s.sconn <> None
  | None -> false

let session_reply t s frame =
  match Frame.decode_reply (node t) ~src:s.s_peer frame with
  | Frame.Nak _ | Frame.Reply (Message.You_are_current, _) ->
    apply t s (Initiator.reply s.machine)
  | Frame.Reply (reply, _) ->
    Durable_node.accept_reply t.durable ~source:s.s_peer reply;
    apply t s (Initiator.reply s.machine)
  | exception Codec.Reader.Corrupt _ -> session_attempt_failed t s

let session_capacity t = min t.config.Config.max_sessions (t.config.Config.n - 1)

(* Each anti-entropy tick tops the session table up to capacity with
   uniformly chosen distinct peers that are not already in-session —
   with [max_sessions = 1] this is exactly the old one-random-peer
   tick, and a sole-source round is capped the same way. *)
let top_up_sessions t =
  let cap = if t.sole_source then 1 else session_capacity t in
  let active = Hashtbl.length t.sessions in
  if cap > active then begin
    let free = ref [] in
    for p = t.config.Config.n - 1 downto 0 do
      if p <> t.config.Config.id && not (Hashtbl.mem t.sessions p) then free := p :: !free
    done;
    let free = Array.of_list !free in
    let avail = Array.length free in
    let need = min (cap - active) avail in
    for k = 0 to need - 1 do
      let j = k + Prng.int t.prng (avail - k) in
      let picked = free.(j) in
      free.(j) <- free.(k);
      free.(k) <- picked;
      start_session t ~peer:picked
    done
  end

let drop_push_conn t dst conn =
  T.close_conn conn;
  Hashtbl.remove t.push_conns dst

let push_conn t dst =
  match Hashtbl.find_opt t.push_conns dst with
  | Some conn -> Some conn
  | None -> (
    Transport.Charge.dial (counters t);
    match T.dial t.transport ~peer:dst with
    | Error _ -> None
    | Ok conn ->
      Hashtbl.replace t.push_conns dst conn;
      Some conn)

let flush_push t =
  match t.channel with
  | None -> ()
  | Some channel ->
    let nd = node t in
    List.iter
      (fun (dst, updates) ->
        let frame = Frame.encode_push nd ~dst updates in
        Transport.Charge.push nd ~updates frame;
        (* Best effort end to end: a refused dial, a dead stream or an
           overflowing buffer is a lost push frame, repaired by
           anti-entropy. *)
        match push_conn t dst with
        | None -> ()
        | Some conn -> (
          match T.send conn (Transport.Record.frame frame) with
          | Ok () -> ()
          | Error _ -> drop_push_conn t dst conn))
      (Channel.flush channel ~ready:(fun peer -> Frame.push_ready nd ~dst:peer))

let handle_control t conn payload =
  let reply =
    match Control.decode_request payload with
    | exception Codec.Reader.Corrupt msg -> Control.Failed ("bad control request: " ^ msg)
    | Control.Ping -> Control.Ack
    | Control.Update { item; op } ->
      Durable_node.update t.durable item op;
      Control.Ack
    | Control.Read { item } -> Control.Value (Node.read (node t) item)
    | Control.Export -> Control.State (Snapshot.encode (node t))
    | Control.Counters_req ->
      let c = counters t in
      Control.Stats (List.map (fun (name, get) -> (name, get c)) Counters.fields)
    | Control.Checkpoint ->
      Durable_node.checkpoint t.durable;
      Control.Ack
    | Control.Quit ->
      t.quit <- true;
      Control.Ack
  in
  let (_ : (unit, string) result) =
    T.send conn (Transport.Record.control (Control.encode_reply reply))
  in
  ()

(* Only requests get a reply. One that cannot be sent — over
   [Frame.max_stream_record], or past the connection's output cap — must
   not take the daemon down: the request gets a nak instead, which ends
   the requester's session at once rather than at its reply deadline,
   and is counted. The ["daemon.reply.refused"] failpoint forces this
   branch without building a 64 MiB reply. *)
let send_reply t conn ~peer ~request reply =
  let sent =
    if Fault.active "daemon.reply.refused" then Error "refused by failpoint"
    else T.send conn (Transport.Record.frame reply)
  in
  match sent with
  | Ok () -> ()
  | Error _ ->
    t.refused_replies <- t.refused_replies + 1;
    let nak =
      Frame.encode_nak (node t) ~dst:peer ~req_id:(Frame.request_id_of_frame request)
    in
    let (_ : (unit, string) result) = T.send conn (Transport.Record.frame nak) in
    ()

let refused_replies t = t.refused_replies

let handle_server_record t conn record =
  match Transport.Record.classify record with
  | Error _ -> ()
  | Ok (Transport.Record.Control payload) -> handle_control t conn payload
  | Ok (Transport.Record.Frame frame) ->
    let peer = T.peer conn in
    (* The peer cache is indexed by the fixed dimension; frames from
       outside it (control clients, confused peers) are dropped. *)
    if peer >= 0 && peer < t.config.Config.n && peer <> t.config.Config.id then (
      match
        Transport.serve_frame
          ~apply_push:(fun ~source u ->
            let (_ : [ `Applied | `Stale ]) = Durable_node.apply_push t.durable ~source u in
            ())
          (node t) ~src:peer frame
      with
      | None -> ()
      | Some reply -> send_reply t conn ~peer ~request:frame reply)

(* Drain every complete record buffered on [conn]; [`Closed] when the
   connection should be dropped. *)
let drain_conn t conn ~on_record =
  let rec loop () =
    match T.next_record conn with
    | Some record ->
      on_record t conn record;
      loop ()
    | None -> `Open
    | exception Codec.Reader.Corrupt _ -> `Closed
  in
  loop ()

let service_conn t conn ~on_record =
  match T.read_into conn with
  | `Eof | `Error _ ->
    (* Flush what already arrived, then drop the connection. *)
    let (_ : [ `Open | `Closed ]) = drain_conn t conn ~on_record in
    `Closed
  | `Data -> drain_conn t conn ~on_record

let create config =
  let { Config.id; n; dir; listen; peers; push; seed; _ } = config in
  match Durable_node.open_or_create ~dir ~id ~n () with
  | Error _ as e -> e
  | Ok (durable, _replay) -> (
    match T.create ~listen ~id ~peers () with
    | Error _ as e ->
      Durable_node.close durable;
      e
    | Ok transport ->
      let now = Unix.gettimeofday () in
      let channel = Option.map (fun c -> Channel.create ~config:c (Durable_node.node durable)) push in
      (* Group commit: handlers journal with the batch open, one WAL
         flush per loop turn releases it (see [finalize_turn]). *)
      Durable_node.set_group_commit durable true;
      (* A daemon reopened over existing state has probably missed
         updates, and one source's reply ships all of them (paper
         Theorem 5: one DBVV covers the whole backlog). So its first
         round runs now, to one uniformly drawn peer; the rest are
         asked once that session ends (see [apply]), with the DBVV the
         reply has already advanced, and answer you-are-current or
         with a short tail instead of the backlog again. A fresh boot
         has nothing to catch up on and keeps a stagger, so an
         N-process boot doesn't dial in lockstep. *)
      let reopened = Vv.sum (Node.dbvv_view (Durable_node.node durable)) > 0 in
      let t =
        {
          config;
          durable;
          transport;
          channel;
          prng = Prng.create ~seed:(seed + id);
          started = now;
          conns = [];
          sessions = Hashtbl.create 8;
          sole_source = reopened;
          push_conns = Hashtbl.create 8;
          idle = Hashtbl.create 8;
          (* The first regular round: staggered on a fresh boot, one
             period after the sole-source round on a reopen. *)
          next_ae =
            (let stagger = if reopened then 0.0 else float_of_int id /. float_of_int n in
             now +. (config.Config.ae_period *. (1.0 +. stagger)));
          next_push =
            (match push with Some c -> now +. c.Channel.flush_period | None -> infinity);
          quit = false;
          refused_replies = 0;
        }
      in
      if reopened then top_up_sessions t;
      Ok t)

let listen_addr t = T.listen_addr t.transport

let all_sessions t = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []

(* The turn's closing barrier, in this order: one WAL flush commits
   every record the turn's handlers journaled (group commit), and only
   then is any buffered output released to the wire — so no reply, ack
   or push ever reaches a peer before the batch holding its commit
   record is durable. A write error on flush is the connection's
   failure point: sessions funnel it through the retry machinery,
   server and push connections are dropped. *)
let finalize_turn t =
  Durable_node.sync t.durable;
  t.conns <-
    List.filter
      (fun conn ->
        (not (T.want_write conn))
        ||
        match T.flush_output conn with
        | `Drained | `Blocked -> true
        | `Error _ ->
          T.close_conn conn;
          false)
      t.conns;
  List.iter
    (fun s ->
      match s.sconn with
      | Some conn when T.want_write conn -> (
        match T.flush_output conn with
        | `Drained | `Blocked -> ()
        | `Error _ -> session_attempt_failed t s)
      | _ -> ())
    (all_sessions t);
  let dead_push =
    Hashtbl.fold
      (fun dst conn acc ->
        if not (T.want_write conn) then acc
        else
          match T.flush_output conn with
          | `Drained | `Blocked -> acc
          | `Error _ -> (dst, conn) :: acc)
      t.push_conns []
  in
  List.iter (fun (dst, conn) -> drop_push_conn t dst conn) dead_push

let step t =
  let now = Unix.gettimeofday () in
  (* Timers first: they may start or fail sessions, changing the fd
     set select should watch. *)
  List.iter
    (fun s ->
      if Hashtbl.mem t.sessions s.s_peer then
        apply t s
          (Initiator.timer s.machine ~counters:(counters t) ~now ~jitter:(jitter t)))
    (all_sessions t);
  if now >= t.next_ae then begin
    t.next_ae <- now +. t.config.Config.ae_period;
    if t.config.Config.n > 1 then top_up_sessions t
  end;
  if now >= t.next_push then begin
    (match t.channel with
    | Some c -> t.next_push <- now +. (Channel.config c).Channel.flush_period
    | None -> t.next_push <- infinity);
    flush_push t
  end;
  if t.config.Config.checkpoint_every > 0
     && Durable_node.journal_records t.durable >= t.config.Config.checkpoint_every
  then Durable_node.checkpoint t.durable;
  (match t.config.Config.max_runtime with
  | Some limit when now -. t.started >= limit -> t.quit <- true
  | _ -> ());
  if t.quit then finalize_turn t
  else begin
    let next_timer =
      Hashtbl.fold
        (fun _ s acc -> min acc (Initiator.due s.machine))
        t.sessions
        (min t.next_ae t.next_push)
    in
    let wait = Float.max 0.0 (Float.min 0.25 (next_timer -. now)) in
    let session_conns =
      Hashtbl.fold
        (fun _ s acc -> match s.sconn with Some c -> (s, c) :: acc | None -> acc)
        t.sessions []
    in
    let push_streams = Hashtbl.fold (fun dst c acc -> (dst, c) :: acc) t.push_conns [] in
    let idle_conns = Hashtbl.fold (fun peer c acc -> (peer, c) :: acc) t.idle [] in
    let listen_fds = match T.listen_fd t.transport with Some fd -> [ fd ] | None -> [] in
    (* Idle connections stay in the read set: a peer killed while its
       connection sits in the cache shows up as EOF at the next turn. *)
    let read_fds =
      listen_fds @ List.map T.fd t.conns
      @ List.map (fun (_, c) -> T.fd c) session_conns
      @ List.map (fun (_, c) -> T.fd c) push_streams
      @ List.map (fun (_, c) -> T.fd c) idle_conns
    in
    (* Writable interest only where output is actually pending — a
       connection with a drained buffer costs select nothing. *)
    let write_interest conns = List.filter_map (fun c -> if T.want_write c then Some (T.fd c) else None) conns in
    let write_fds =
      write_interest t.conns
      @ write_interest (List.map snd session_conns)
      @ write_interest (List.map snd push_streams)
    in
    let readable, _, _ =
      try Unix.select read_fds write_fds [] wait
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    let is_readable fd = List.memq fd readable in
    (* An idle connection has nothing legitimate to read: whatever made
       it readable — EOF, an error, stray bytes — retires it. *)
    List.iter
      (fun (peer, conn) ->
        if is_readable (T.fd conn) then drop_idle_conn t peer conn)
      idle_conns;
    (match T.listen_fd t.transport with
    | Some lfd when is_readable lfd ->
      let rec accept_loop () =
        match T.accept_nonblocking t.transport with
        | Ok (Some conn) ->
          t.conns <- conn :: t.conns;
          accept_loop ()
        | Ok None | Error _ -> ()
      in
      accept_loop ()
    | _ -> ());
    t.conns <-
      List.filter
        (fun conn ->
          if not (is_readable (T.fd conn)) then true
          else
            match service_conn t conn ~on_record:handle_server_record with
            | `Open -> true
            | `Closed ->
              T.close_conn conn;
              false)
        t.conns;
    List.iter
      (fun (s, conn) ->
        if is_readable (T.fd conn) then begin
          let on_record t _conn record =
            match Transport.Record.classify record with
            | Ok (Transport.Record.Frame frame) -> (
              (* [session_reply] may close the connection; further
                 buffered records on it are duplicates and drop with
                 it. *)
              if awaiting_reply t s then session_reply t s frame)
            | Ok (Transport.Record.Control _) | Error _ -> ()
          in
          match service_conn t conn ~on_record with
          | `Open ->
            (* Bytes came, but no whole reply yet: the deadline counts
               from the last byte received. *)
            if awaiting_reply t s then Initiator.progress s.machine ~now:(Unix.gettimeofday ())
          | `Closed -> if awaiting_reply t s then session_attempt_failed t s
        end)
      session_conns;
    (* Push streams are write-only; a readable one is the peer closing
       (or resetting) it. *)
    List.iter
      (fun (dst, conn) ->
        if is_readable (T.fd conn) then
          match T.read_into conn with
          | `Eof | `Error _ -> drop_push_conn t dst conn
          | `Data -> ())
      push_streams;
    finalize_turn t
  end

let shutdown t =
  (* Give pending output — typically the ack to the Quit that got us
     here — a brief, bounded chance to drain. *)
  let deadline = Unix.gettimeofday () +. 0.2 in
  let rec drain () =
    let pending = List.filter T.want_write t.conns in
    if pending <> [] && Unix.gettimeofday () < deadline then begin
      (try ignore (Unix.select [] (List.map T.fd pending) [] 0.05)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      List.iter
        (fun conn -> ignore (T.flush_output conn : [ `Drained | `Blocked | `Error of string ]))
        pending;
      drain ()
    end
  in
  drain ();
  List.iter (fun s -> close_session_conn s) (all_sessions t);
  Hashtbl.reset t.sessions;
  Hashtbl.iter (fun _ conn -> T.close_conn conn) t.idle;
  Hashtbl.reset t.idle;
  List.iter T.close_conn t.conns;
  t.conns <- [];
  Hashtbl.iter (fun _ conn -> T.close_conn conn) t.push_conns;
  Hashtbl.reset t.push_conns;
  (match t.channel with Some c -> Channel.detach c | None -> ());
  T.close t.transport;
  Durable_node.close t.durable

let serve config =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match create config with
  | Error _ as e -> e
  | Ok t ->
    let finally () = shutdown t in
    Fun.protect ~finally (fun () ->
        while not t.quit do
          step t
        done);
    Ok ()
