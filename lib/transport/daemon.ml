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
module T = Socket_transport
module Initiator = Transport.Initiator
module Fault = Edb_fault.Fault

(* One protocol node as a process: a {!Durable_node} (WAL + checkpoint)
   served over a {!Socket_transport} select loop. The daemon is both
   sides of the protocol at once — it answers inbound requests and
   runs its own anti-entropy timer as the initiator — and
   nothing in the loop may block: each anti-entropy round pulls from up
   to [max_sessions] peers one after another (a table of per-peer
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
    seed : int;
    max_runtime : float option;
    max_sessions : int;
  }

  let make ?(ae_period = 0.05) ?(retry = { Transport.default_retry_policy with timeout = 0.5 })
      ?(seed = 1) ?max_runtime ?(max_sessions = 4) ~id ~n
      ~dir ~listen ~peers () =
    {
      id;
      n;
      dir;
      listen;
      peers;
      ae_period;
      retry;
      seed;
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

(* An initiator-side session, one per peer: the shared machine, plus
   the connection its in-flight attempt awaits the reply on.
   Invariant: [sconn] is [Some] only while the machine is
   [In_flight]. *)
type session = { s_peer : int; machine : Initiator.t; mutable sconn : T.conn option }

type t = {
  config : Config.t;
  durable : Durable_node.t;
  transport : T.t;
  prng : Prng.t;
  started : float;
  (* Accepted connections: peers' sessions and control clients. Non-blocking; a freshly accepted one is anonymous
     ([T.peer conn = -1]) until its handshake arrives via read. *)
  mutable conns : T.conn list;
  (* Initiator sessions in flight or in backoff, keyed by peer: the
     current round's link and any earlier round's that has not ended. *)
  sessions : (int, session) Hashtbl.t;
  (* The current round (see [start_round]): the session whose end
     starts the next peer's, and the peers still to pull after it.
     Invariant: no queued peer has a session, and [queued] is
     non-empty only while [link] is in flight. *)
  mutable link : session option;
  mutable queued : int list;
  (* Set on a reopen until its one compaction (see [compact_at_tick]). *)
  mutable compact_pending : bool;
  (* Idle session connections, at most one per peer. Invariant: a
     connection is here only while no request on it is outstanding and
     nothing is buffered on it in either direction — it enters when its
     session ends with a decoded reply or a nak, leaves when the next
     session to that peer sends on it, and is closed instead on any
     readable event while idle (EOF, error or stray bytes). *)
  idle : (int, T.conn) Hashtbl.t;
  mutable next_ae : float;
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
   completion, where [session_done] parks it. When the round's link
   ends — a reply, a nak, a failed attempt or an abandon — the round's
   next peer is asked at once. *)
let rec apply t s action =
  (match (action, Initiator.state s.machine) with
  | Initiator.Completed, _ | _, Initiator.In_flight _ -> ()
  | _ -> close_session_conn s);
  (match action with
  | Initiator.Send attempt -> attempt_session t s attempt
  | Initiator.Wake_at _ -> ()
  | Initiator.Completed -> session_done t s
  | Initiator.Abandoned -> Hashtbl.remove t.sessions s.s_peer);
  match (t.link, Initiator.state s.machine) with
  | Some link, (Initiator.Backoff _ | Initiator.Finished) when link == s -> next_link t
  | _ -> ()

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

(* Start the round's next queued peer, which becomes its link. A
   reopen's catch-up round (see [create]) ends here, and schedules the
   first regular one. *)
and next_link t =
  match t.queued with
  | [] ->
    t.link <- None;
    if t.next_ae = infinity then t.next_ae <- Unix.gettimeofday () +. t.config.Config.ae_period
  | peer :: rest ->
    t.queued <- rest;
    let machine, first = Initiator.start t.config.Config.retry in
    let s = { s_peer = peer; machine; sconn = None } in
    Hashtbl.replace t.sessions peer s;
    t.link <- Some s;
    apply t s first

(* Whether [s] is still the peer's session, waiting on a reply. *)
let awaiting_reply t s =
  match Hashtbl.find_opt t.sessions s.s_peer with
  | Some s' -> s' == s && s.sconn <> None
  | None -> false

let session_reply t s frame =
  match Frame.decode_reply_with_body (node t) ~src:s.s_peer frame with
  | (Frame.Nak _ | Frame.Reply (Message.You_are_current, _)), _ ->
    apply t s (Initiator.reply s.machine)
  | Frame.Reply (reply, _), body ->
    let wire = Option.map (fun (off, len) -> (frame, off, len)) body in
    Durable_node.accept_reply ?wire t.durable ~source:s.s_peer reply;
    apply t s (Initiator.reply s.machine)
  | exception Codec.Reader.Corrupt _ -> session_attempt_failed t s

let session_capacity t = min t.config.Config.max_sessions (t.config.Config.n - 1)

(* An anti-entropy round: up to [session_capacity] uniformly chosen
   distinct peers with no session, pulled one after another: each is
   asked when the session before it ends, with the DBVV that reply
   advanced, so it ships only what that reply did not. A new round
   replaces the previous one's queue, so a mute or trickling peer holds
   the others back for at most one tick (except in a reopen's catch-up
   round, see [create]). *)
let start_round t =
  let free = ref [] in
  for p = t.config.Config.n - 1 downto 0 do
    if p <> t.config.Config.id && not (Hashtbl.mem t.sessions p) then free := p :: !free
  done;
  let free = Array.of_list !free in
  let avail = Array.length free in
  let need = min (session_capacity t) avail in
  for k = 0 to need - 1 do
    let j = k + Prng.int t.prng (avail - k) in
    let picked = free.(j) in
    free.(j) <- free.(k);
    free.(k) <- picked
  done;
  t.queued <- Array.to_list (Array.sub free 0 need);
  next_link t

(* A control reply that cannot be sent — an [Export] snapshot over
   [Frame.max_stream_record], or one past the connection's output cap —
   is answered with [Failed] and the reason, so the client learns it at
   once instead of at its control timeout. The
   ["daemon.control.refused"] failpoint forces this branch. *)
let handle_control t conn payload =
  let send reply = T.send conn (Transport.Record.control (Control.encode_reply reply)) in
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
  let sent =
    if Fault.active "daemon.control.refused" then Error "refused by failpoint"
    else send reply
  in
  match sent with
  | Ok () -> ()
  | Error reason ->
    let (_ : (unit, string) result) = send (Control.Failed ("reply not sent: " ^ reason)) in
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
      match Transport.serve_frame (node t) ~src:peer frame with
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

(* Whether the journal has outgrown its checkpoint: more bytes than the
   snapshot (no snapshot counts as 0) and than [floor]. Folding it then
   writes at most one snapshot byte per journal byte appended since the
   last checkpoint, and leaves a restart less than one checkpoint's
   worth of journal to replay: disk and replay follow the state, not the
   history. Byte counts are in memory, so asking costs no system call. *)
let journal_outgrown ?(floor = 0) durable =
  let journal, snapshot = Durable_node.disk_bytes durable in
  journal > max floor snapshot

(* A running daemon's floor for [journal_outgrown]: below it a small
   state would be checkpointed at nearly every tick. *)
let running_floor = 1 lsl 20

let create config =
  let { Config.id; n; dir; listen; peers; seed; _ } = config in
  match Durable_node.open_or_create ~dir ~id ~n () with
  | Error _ as e -> e
  | Ok (durable, _replay) -> (
    (* The backstop to [compact_at_tick]: a journal longer than its
       checkpoint, left by an incarnation that died before compacting,
       is folded into a fresh one before the socket is bound, with no
       floor. *)
    if journal_outgrown durable then Durable_node.checkpoint durable;
    match T.create ~listen ~id ~peers () with
    | Error _ as e ->
      Durable_node.close durable;
      e
    | Ok transport ->
      let now = Unix.gettimeofday () in
      (* Group commit: handlers journal with the batch open, one WAL
         flush per loop turn releases it (see [finalize_turn]). *)
      Durable_node.set_group_commit durable true;
      (* A daemon reopened over existing state has probably missed
         updates, so its first round, the catch-up round, runs now:
         the first peer's reply ships the whole backlog (paper
         Theorem 5) and the later peers only what it lacked. No
         regular round starts until it ends (see [next_link]): one
         would ask the later peers with the stale DBVV while the
         backlog reply, many ticks long, is built and applied. A fresh
         boot keeps a stagger, so an N-process boot doesn't dial in
         lockstep. *)
      let reopened = Vv.sum (Node.dbvv_view (Durable_node.node durable)) > 0 in
      let t =
        {
          config;
          durable;
          transport;
          prng = Prng.create ~seed:(seed + id);
          started = now;
          conns = [];
          sessions = Hashtbl.create 8;
          link = None;
          queued = [];
          compact_pending = reopened;
          idle = Hashtbl.create 8;
          (* The first regular round: staggered on a fresh boot, one
             period after the catch-up round ends on a reopen. *)
          next_ae =
            (if reopened then infinity
             else now +. (config.Config.ae_period *. (1.0 +. (float_of_int id /. float_of_int n))));
          quit = false;
          refused_replies = 0;
        }
      in
      if reopened then start_round t;
      Ok t)

let listen_addr t = T.listen_addr t.transport

let all_sessions t = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []

(* The turn's closing barrier, in this order: one WAL flush commits
   every record the turn's handlers journaled (group commit), and only
   then is any buffered output released to the wire — so no reply or
   ack ever reaches a peer before the batch holding its commit record
   is durable. A write error on flush is the connection's failure
   point: sessions funnel it through the retry machinery, server
   connections are dropped. *)
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
    (all_sessions t)

(* A reopen's catch-up round leaves the journal holding the backlog
   just pulled, which the node already serves, so the first regular
   tick that finds no session in flight — the catch-up round over —
   folds it into a checkpoint: the next restart replays only what came
   after. Waiting for a tick keeps the checkpoint, which blocks the
   loop, off the catch-up itself. Every tick also folds a journal that
   has outgrown its checkpoint and [running_floor], so a daemon that
   never restarts keeps its journal under max(snapshot, floor) plus one
   tick's appends. *)
let compact_at_tick t =
  if t.compact_pending && Hashtbl.length t.sessions = 0 then begin
    t.compact_pending <- false;
    if Durable_node.journal_records t.durable > 0 then Durable_node.checkpoint t.durable
  end;
  if journal_outgrown ~floor:running_floor t.durable then Durable_node.checkpoint t.durable

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
    compact_at_tick t;
    if t.config.Config.n > 1 then start_round t
  end;
  (match t.config.Config.max_runtime with
  | Some limit when now -. t.started >= limit -> t.quit <- true
  | _ -> ());
  if t.quit then finalize_turn t
  else begin
    let next_timer =
      Hashtbl.fold
        (fun _ s acc -> min acc (Initiator.due s.machine))
        t.sessions t.next_ae
    in
    let wait = Float.max 0.0 (Float.min 0.25 (next_timer -. now)) in
    let session_conns =
      Hashtbl.fold
        (fun _ s acc -> match s.sconn with Some c -> (s, c) :: acc | None -> acc)
        t.sessions []
    in
    let idle_conns = Hashtbl.fold (fun peer c acc -> (peer, c) :: acc) t.idle [] in
    let listen_fds = match T.listen_fd t.transport with Some fd -> [ fd ] | None -> [] in
    (* Idle connections stay in the read set: a peer killed while its
       connection sits in the cache shows up as EOF at the next turn. *)
    let read_fds =
      listen_fds @ List.map T.fd t.conns
      @ List.map (fun (_, c) -> T.fd c) session_conns
      @ List.map (fun (_, c) -> T.fd c) idle_conns
    in
    (* Writable interest only where output is actually pending — a
       connection with a drained buffer costs select nothing. *)
    let write_interest conns = List.filter_map (fun c -> if T.want_write c then Some (T.fd c) else None) conns in
    let write_fds =
      write_interest t.conns
      @ write_interest (List.map snd session_conns)
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
