(* The transport seam (DESIGN.md §12): the shared retry/backoff
   arithmetic, counter charges and frame dispatch; the initiator session
   machine the simulation engine and the socket daemon both drive, here
   driven on a fake clock over an in-test network against the
   in-process framed pull, and its timeline checked step by step; the
   socket transport's accept/read path and output path and the daemon's
   session-connection cache, in process; and the real thing —
   multi-process daemons over Unix-domain and TCP sockets, including
   kill -9 crash recovery from the WAL. *)

module Node = Edb_core.Node
module Message = Edb_core.Message
module Operation = Edb_store.Operation
module Counters = Edb_metrics.Counters
module Frame = Edb_persist.Frame
module Transport = Edb_transport.Transport
module Socket_transport = Edb_transport.Socket_transport
module Harness = Edb_transport.Harness
module Daemon = Edb_transport.Daemon
module Invariant = Edb_check.Invariant
module Initiator = Transport.Initiator

let set v = Operation.Set v

let check_node node = Invariant.check_node node

(* ---------- the shared retry arithmetic ---------- *)

(* The backoff ladder of the default policy, pinned: the engine's
   event queue and the daemon's select loop drive one machine built on
   these exact floats from these exact inputs. *)
let test_flow_arithmetic () =
  let p = Transport.default_retry_policy in
  (match Transport.Flow.on_timeout p ~attempt:0 with
  | Transport.Flow.Retry { attempt = 1; backoff } ->
    Alcotest.(check (float 0.0)) "first backoff" 0.5 backoff
  | _ -> Alcotest.fail "attempt 0 should retry");
  (match Transport.Flow.on_timeout p ~attempt:1 with
  | Transport.Flow.Retry { attempt = 2; backoff } ->
    Alcotest.(check (float 0.0)) "second backoff" 1.0 backoff
  | _ -> Alcotest.fail "attempt 1 should retry");
  (match Transport.Flow.on_timeout p ~attempt:2 with
  | Transport.Flow.Retry { attempt = 3; backoff } ->
    Alcotest.(check (float 0.0)) "third backoff" 2.0 backoff
  | _ -> Alcotest.fail "attempt 2 should retry");
  (match Transport.Flow.on_timeout p ~attempt:3 with
  | Transport.Flow.Abandon -> ()
  | _ -> Alcotest.fail "attempt 3 exhausts the budget");
  (* The cap engages exactly where the uncapped ladder would pass it. *)
  (match Transport.Flow.on_timeout { p with max_retries = 10 } ~attempt:6 with
  | Transport.Flow.Retry { backoff; _ } ->
    Alcotest.(check (float 0.0)) "capped backoff" p.Transport.backoff_max backoff
  | _ -> Alcotest.fail "attempt 6 should retry under a larger budget");
  (* Jitter stretches multiplicatively by the caller's uniform draw. *)
  Alcotest.(check (float 0.0)) "u = 0 leaves the backoff" 2.0
    (Transport.Flow.jittered p 2.0 ~u:0.0);
  Alcotest.(check (float 0.0)) "u = 1 stretches by 1 + jitter" 3.0
    (Transport.Flow.jittered p 2.0 ~u:1.0)

(* ---------- record tagging and frame dispatch ---------- *)

let test_record_tagging () =
  (match Transport.Record.classify (Transport.Record.frame "abc") with
  | Ok (Transport.Record.Frame "abc") -> ()
  | _ -> Alcotest.fail "frame record");
  (match Transport.Record.classify (Transport.Record.control "xyz") with
  | Ok (Transport.Record.Control "xyz") -> ()
  | _ -> Alcotest.fail "control record");
  (match Transport.Record.classify "Qgarbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag must not classify");
  match Transport.Record.classify "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty record must not classify"

let negotiated_pair () =
  let a = Node.create ~id:0 ~n:2 () in
  let b = Node.create ~id:1 ~n:2 () in
  Node.update a "x" (set "v1");
  Frame.sync_pair b a;
  Frame.sync_pair a b;
  (a, b)

let test_frame_kind () =
  let a, b = negotiated_pair () in
  let request = Frame.encode_request b ~dst:0 in
  let reply = Frame.respond a ~src:1 request in
  let nak = Frame.encode_nak a ~dst:1 ~req_id:3 in
  Node.update a "x" (set "v2");
  let push =
    Frame.encode_push a ~dst:1
      [
        {
          Message.item = "x";
          seq = 2;
          ivv = Edb_vv.Version_vector.of_array [| 2; 0 |];
          value = "v2";
        };
      ]
  in
  Alcotest.(check bool) "request" true (Transport.frame_kind request = Some `Request);
  Alcotest.(check bool) "reply" true (Transport.frame_kind reply = Some `Reply);
  Alcotest.(check bool) "nak" true (Transport.frame_kind nak = Some `Nak);
  Alcotest.(check bool) "push" true (Transport.frame_kind push = Some `Push);
  Alcotest.(check bool) "short garbage" true (Transport.frame_kind "ab" = None)

(* The passive side: requests are answered, pushes applied, everything
   else — late replies, naks, garbage — dropped silently. *)
let test_serve_frame () =
  let a, b = negotiated_pair () in
  let request = Frame.encode_request b ~dst:0 in
  (match Transport.serve_frame a ~src:1 request with
  | Some reply -> (
    match Frame.decode_reply b ~src:0 reply with
    | Frame.Reply _ -> ()
    | Frame.Nak _ -> Alcotest.fail "request over live state must not nak")
  | None -> Alcotest.fail "request must be answered");
  let reply = Frame.respond a ~src:1 (Frame.encode_request b ~dst:0) in
  Alcotest.(check bool) "a stray reply drops" true
    (Transport.serve_frame a ~src:1 reply = None);
  Alcotest.(check bool) "garbage drops" true
    (Transport.serve_frame a ~src:1 "\x02\x02\x01not a frame" = None);
  (* A push reaches the injected application hook. *)
  Node.update a "x" (set "v2");
  let push =
    Frame.encode_push a ~dst:1
      [
        {
          Message.item = "x";
          seq = 2;
          ivv = Edb_vv.Version_vector.of_array [| 2; 0 |];
          value = "v2";
        };
      ]
  in
  let seen = ref [] in
  Alcotest.(check bool) "push produces no reply" true
    (Transport.serve_frame
       ~apply_push:(fun ~source u -> seen := (source, u.Message.item) :: !seen)
       b ~src:0 push
    = None);
  Alcotest.(check bool) "push applied through the hook" true (!seen = [ (0, "x") ])

(* ---------- the initiator machine on a fake clock ---------- *)

let fresh_pair () =
  let source = Node.create ~id:0 ~n:2 () in
  let recipient = Node.create ~id:1 ~n:2 () in
  Node.update source "alpha" (set "a1");
  Node.update source "beta" (set (String.make 48 'b'));
  Node.update source "alpha" (set "a2");
  (source, recipient)

(* One session of [recipient] pulling from [source], driven through the
   machine over an in-test network: a request is answered on the spot
   by [Transport.serve_frame], and [drop] is drawn once per request and
   once per produced reply, so either half can be lost. A down peer
   refuses every dial. The clock jumps to each wake-up; jitter draws
   are 0. Returns the terminal action and the last decoded reply. *)
let fake_pull ?(drop = fun () -> false) ?(peer_up = true) ~source recipient =
  let c = Node.counters recipient in
  let src = Node.id source and dst = Node.id recipient in
  let now = ref 0.0 and synced = ref None in
  let jitter () = 0.0 in
  let machine, first = Initiator.start Transport.default_retry_policy in
  let rec drive = function
    | Initiator.Send attempt ->
      Transport.Charge.dial ~retry:(attempt > 0) c;
      if not peer_up then drive (Initiator.failed machine ~counters:c ~now:!now ~jitter)
      else begin
        (* Re-encoded on every attempt, as both real drivers do. *)
        let request = Frame.encode_request recipient ~dst:src in
        Transport.Charge.request recipient request;
        let answer = if drop () then None else Transport.serve_frame source ~src:dst request in
        let wake = Initiator.sent machine ~now:!now in
        match answer with
        | Some reply when not (drop ()) ->
          (synced :=
             match Frame.decode_reply recipient ~src reply with
             | Frame.Nak _ -> Some `Nak
             | Frame.Reply (Message.You_are_current, _) -> Some `Current
             | Frame.Reply (r, _) ->
               let (_ : Node.accept_result) = Node.accept_propagation recipient ~source:src r in
               Some `Propagated);
          drive (Initiator.reply machine)
        | _ -> drive wake
      end
    | Initiator.Wake_at at ->
      now := at;
      drive (Initiator.timer machine ~counters:c ~now:at ~jitter)
    | (Initiator.Completed | Initiator.Abandoned) as last -> (last, !synced)
  in
  drive first

(* One session through the machine, record-free but frame-exact, must
   leave both nodes exactly where the in-process framed pull leaves a
   control pair, and charge the same message and wire-byte counters;
   only the connection counters differ (the in-process pull opens
   none). *)
let test_sim_session_matches_frame_pull () =
  let source, recipient = fresh_pair () in
  (match fake_pull ~source recipient with
  | Initiator.Completed, Some `Propagated -> ()
  | _ -> Alcotest.fail "first pull must propagate");
  let control_source, control_recipient = fresh_pair () in
  let (_ : Node.pull_result) =
    Frame.pull ~recipient:control_recipient ~source:control_source ()
  in
  Alcotest.(check bool) "recipient state identical" true
    (Node.export_state recipient = Node.export_state control_recipient);
  Alcotest.(check bool) "source state identical" true
    (Node.export_state source = Node.export_state control_source);
  let c = Node.counters recipient and cc = Node.counters control_recipient in
  Alcotest.(check int) "wire bytes charged identically" cc.Counters.wire_bytes_sent
    c.Counters.wire_bytes_sent;
  Alcotest.(check int) "messages charged identically" cc.Counters.messages
    c.Counters.messages;
  Alcotest.(check int) "bytes charged identically" cc.Counters.bytes_sent
    c.Counters.bytes_sent;
  let sc = Node.counters source and scc = Node.counters control_source in
  Alcotest.(check int) "source wire bytes identical" scc.Counters.wire_bytes_sent
    sc.Counters.wire_bytes_sent;
  Alcotest.(check int) "one connection opened" 1 c.Counters.connections_opened;
  Alcotest.(check int) "no connection retries" 0 c.Counters.connection_retries;
  Alcotest.(check int) "in-process pull opens none" 0 cc.Counters.connections_opened;
  (* A second session is answered you-are-current. *)
  match fake_pull ~source recipient with
  | Initiator.Completed, Some `Current -> ()
  | _ -> Alcotest.fail "second pull must be current"

(* Total record loss: the full backoff ladder runs, every attempt
   charges a dial and a timeout, and the session is abandoned with the
   connection counters telling the story. *)
let test_sim_total_loss_abandons () =
  let source, recipient = fresh_pair () in
  (match fake_pull ~drop:(fun () -> true) ~source recipient with
  | Initiator.Abandoned, None -> ()
  | _ -> Alcotest.fail "total loss cannot sync");
  let p = Transport.default_retry_policy in
  let attempts = p.Transport.max_retries + 1 in
  let c = Node.counters recipient in
  Alcotest.(check int) "a timeout per attempt" attempts c.Counters.timeouts;
  Alcotest.(check int) "a retry per re-send" p.Transport.max_retries
    c.Counters.retries;
  Alcotest.(check int) "abandoned once" 1 c.Counters.sessions_abandoned;
  Alcotest.(check int) "a dial per attempt" attempts c.Counters.connections_opened;
  Alcotest.(check int) "re-dials are connection retries" p.Transport.max_retries
    c.Counters.connection_retries;
  Alcotest.(check bool) "recipient saw nothing" true
    (Node.read recipient "alpha" = None)

(* Losing only the first record: one retry completes the session, and
   the re-dial shows up in [connection_retries]. *)
let test_sim_first_loss_recovers () =
  let source, recipient = fresh_pair () in
  let records = ref 0 in
  (* Losing exactly the first draw loses the first request. *)
  let drop () =
    incr records;
    !records = 1
  in
  (match fake_pull ~drop ~source recipient with
  | Initiator.Completed, Some `Propagated -> ()
  | _ -> Alcotest.fail "retry must complete the session");
  let c = Node.counters recipient in
  Alcotest.(check int) "one timeout" 1 c.Counters.timeouts;
  Alcotest.(check int) "one retry" 1 c.Counters.retries;
  Alcotest.(check int) "nothing abandoned" 0 c.Counters.sessions_abandoned;
  Alcotest.(check int) "two dials" 2 c.Counters.connections_opened;
  Alcotest.(check int) "one was a re-dial" 1 c.Counters.connection_retries;
  Alcotest.(check bool) "data arrived" true (Node.read recipient "alpha" = Some "a2")

(* A crashed peer: the dial itself fails, charged like any other
   attempt. *)
let test_sim_dead_peer_abandons () =
  let source, recipient = fresh_pair () in
  (match fake_pull ~peer_up:false ~source recipient with
  | Initiator.Abandoned, None -> ()
  | _ -> Alcotest.fail "a dead peer cannot sync");
  let p = Transport.default_retry_policy in
  let c = Node.counters recipient in
  Alcotest.(check int) "a dial per attempt" (p.Transport.max_retries + 1)
    c.Counters.connections_opened

(* The machine's timeline, step by step, for a policy and a sequence of
   jitter draws: each attempt fails by its deadline ([`Timeout]), early
   ([`Fails_after dt]), or by the deadline its last trickled byte set
   ([`Trickle arrivals], bytes [dt] after the send). Every deadline
   must be exactly [now + timeout], re-armed by each byte to
   [arrival + timeout], every retry time exactly
   [now + Flow.jittered], a timer one ulp early must change nothing,
   progress outside [In_flight] must change nothing, and the abandon
   must draw no jitter. *)
let timeline_cases =
  let p = Transport.default_retry_policy in
  [
    ("default policy, all timeouts", p, [ 0.25; 0.5; 0.75 ], [ `Timeout; `Timeout; `Timeout; `Timeout ]);
    ( "daemon timeout, early failures",
      { p with Transport.timeout = 0.5 },
      [ 0.1; 0.9; 0.3 ],
      [ `Fails_after 0.01; `Timeout; `Fails_after 0.3; `Timeout ] );
    ( "capped backoff, no jitter",
      { p with Transport.max_retries = 5; jitter = 0.0; backoff_max = 1.0 },
      [ 0.7; 0.7; 0.7; 0.7; 0.7 ],
      [ `Timeout; `Timeout; `Timeout; `Timeout; `Timeout; `Fails_after 0.0 ] );
    ("no retry budget", { p with Transport.max_retries = 0 }, [], [ `Timeout ]);
    ( "daemon timeout, trickled replies",
      { p with Transport.timeout = 0.5 },
      [ 0.2; 0.6; 0.4 ],
      [ `Trickle [ 0.3; 0.6; 0.9; 1.35 ]; `Fails_after 0.1; `Trickle [ 0.0; 0.49 ]; `Timeout ] );
  ]

let exact what want got = Alcotest.(check (float 0.0)) what want got

let test_initiator_timeline () =
  List.iter
    (fun (name, policy, us, fates) ->
      let c = Counters.create () in
      let draws = ref us in
      let jitter () =
        match !draws with
        | u :: rest ->
          draws := rest;
          u
        | [] -> Alcotest.failf "%s: jitter drawn past the table" name
      in
      let m, first = Initiator.start policy in
      Initiator.progress m ~now:3.7;
      Alcotest.(check bool) (name ^ ": progress before the send changes nothing") true
        (Initiator.due m = infinity);
      let last = List.length fates - 1 in
      let rec run k now action = function
        | [] -> action
        | fate :: fates -> (
          (match action with
          | Initiator.Send a -> Alcotest.(check int) (name ^ ": attempt number") k a
          | _ -> Alcotest.failf "%s: attempt %d was not sent" name k);
          let deadline = now +. policy.Transport.timeout in
          (match Initiator.sent m ~now with
          | Initiator.Wake_at d -> exact (name ^ ": deadline = now + timeout") deadline d
          | _ -> Alcotest.failf "%s: sent must arm the deadline" name);
          let deadline =
            match fate with
            | `Trickle arrivals ->
              List.fold_left
                (fun deadline dt ->
                  let at = now +. dt in
                  if at >= deadline then Alcotest.failf "%s: byte at +%g arrives too late" name dt;
                  Initiator.progress m ~now:at;
                  exact (name ^ ": a byte re-arms the deadline") (at +. policy.Transport.timeout)
                    (Initiator.due m);
                  at +. policy.Transport.timeout)
                deadline arrivals
            | `Timeout | `Fails_after _ -> deadline
          in
          let before = c.Counters.timeouts in
          (match Initiator.timer m ~counters:c ~now:(Float.pred deadline) ~jitter with
          | Initiator.Wake_at d -> exact (name ^ ": early timer keeps the deadline") deadline d
          | _ -> Alcotest.failf "%s: an early timer must do nothing" name);
          Alcotest.(check int) (name ^ ": early timer charges nothing") before c.Counters.timeouts;
          let now, verdict =
            match fate with
            | `Timeout | `Trickle _ ->
              (deadline, Initiator.timer m ~counters:c ~now:deadline ~jitter)
            | `Fails_after dt ->
              let now = now +. dt in
              (now, Initiator.failed m ~counters:c ~now ~jitter)
          in
          match Transport.Flow.on_timeout policy ~attempt:k with
          | Transport.Flow.Abandon ->
            Alcotest.(check int) (name ^ ": abandons after the last attempt") last k;
            verdict
          | Transport.Flow.Retry { backoff; _ } ->
            let u = List.nth us k in
            let retry_at = now +. Transport.Flow.jittered policy backoff ~u in
            (match verdict with
            | Initiator.Wake_at r -> exact (name ^ ": retry at now + jittered backoff") retry_at r
            | _ -> Alcotest.failf "%s: attempt %d must back off" name k);
            Initiator.progress m ~now:(Float.pred retry_at);
            exact (name ^ ": progress in backoff keeps the retry time") retry_at (Initiator.due m);
            (match Initiator.timer m ~counters:c ~now:(Float.pred retry_at) ~jitter with
            | Initiator.Wake_at r -> exact (name ^ ": early timer keeps the retry time") retry_at r
            | _ -> Alcotest.failf "%s: an early timer must not re-send" name);
            run (k + 1) retry_at (Initiator.timer m ~counters:c ~now:retry_at ~jitter) fates)
      in
      (match run 0 3.7 first fates with
      | Initiator.Abandoned -> ()
      | _ -> Alcotest.failf "%s: must end abandoned" name);
      Alcotest.(check int) (name ^ ": every jitter draw used, none on abandon") 0
        (List.length !draws);
      Alcotest.(check int) (name ^ ": timeouts") (last + 1) c.Counters.timeouts;
      Alcotest.(check int) (name ^ ": retries") last c.Counters.retries;
      Alcotest.(check int) (name ^ ": abandoned") 1 c.Counters.sessions_abandoned;
      Initiator.progress m ~now:1e9;
      Alcotest.(check bool) (name ^ ": nothing left to wake for") true
        (Initiator.due m = infinity))
    timeline_cases;
  (* A reply landing in the backoff window — a superseded attempt's —
     completes the session; no further timer has work. *)
  let c = Counters.create () in
  let m, _ = Initiator.start Transport.default_retry_policy in
  let deadline =
    match Initiator.sent m ~now:1.0 with
    | Initiator.Wake_at d -> d
    | _ -> Alcotest.fail "sent must arm the deadline"
  in
  (match Initiator.timer m ~counters:c ~now:deadline ~jitter:(fun () -> 0.5) with
  | Initiator.Wake_at _ -> ()
  | _ -> Alcotest.fail "the first timeout must back off");
  (match Initiator.state m with
  | Initiator.Backoff { attempt = 1; _ } -> ()
  | _ -> Alcotest.fail "expected backoff before attempt 1");
  (match Initiator.reply m with
  | Initiator.Completed -> ()
  | _ -> Alcotest.fail "a reply in backoff must complete");
  Alcotest.(check bool) "finished" true (Initiator.state m = Initiator.Finished);
  Alcotest.(check int) "one timeout" 1 c.Counters.timeouts;
  Alcotest.(check int) "one retry" 1 c.Counters.retries;
  Alcotest.(check int) "no abandon" 0 c.Counters.sessions_abandoned;
  match Initiator.timer m ~counters:c ~now:1e9 ~jitter:(fun () -> 0.5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a finished session takes no timer"

(* ---------- the socket transport, in one process ---------- *)

let require = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The suite's scratch directory, removed when the test run exits. *)
let temp_dir =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "edb-seam-%d" (Unix.getpid ()))
     in
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     at_exit (fun () -> try rm_rf dir with Unix.Unix_error _ | Sys_error _ -> ());
     dir)

let cluster_dir name =
  let dir = Filename.concat (Lazy.force temp_dir) name in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

(* The next whole record on a non-blocking connection, the way the
   daemon's loop reads: select, [read_into], [next_record]. *)
let await_record conn =
  let stop = Unix.gettimeofday () +. 5.0 in
  let rec loop () =
    match Socket_transport.next_record conn with
    | Some record -> record
    | None -> (
      let wait = stop -. Unix.gettimeofday () in
      if wait <= 0.0 then Alcotest.fail "no record within 5 s";
      match Unix.select [ Socket_transport.fd conn ] [] [] wait with
      | [], _, _ -> loop ()
      | _ -> (
        match Socket_transport.read_into conn with
        | `Data -> loop ()
        | `Eof -> Alcotest.fail "peer closed the connection"
        | `Error e -> Alcotest.fail ("read: " ^ e))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
  in
  loop ()

(* Write out everything buffered on a non-blocking connection. *)
let flush_all conn =
  let rec loop () =
    match Socket_transport.flush_output conn with
    | `Drained -> ()
    | `Blocked ->
      let (_ : _ * _ * _) = Unix.select [] [ Socket_transport.fd conn ] [] 1.0 in
      loop ()
    | `Error e -> Alcotest.fail ("flush: " ^ e)
  in
  loop ()

(* One full session over a real Unix-domain socket, the passive side on
   the daemon's own path (non-blocking accept, handshake and records
   through [read_into]): record framing across the stream, frame
   dispatch, reply — and the states land exactly where the framed pull
   lands them. *)
let test_socket_unix_session () =
  let source, recipient = fresh_pair () in
  let path = Filename.concat (Lazy.force temp_dir) "seam.sock" in
  let listen = Socket_transport.Unix_path path in
  let server = require (Socket_transport.create ~listen ~id:0 ~peers:[] ()) in
  let client = require (Socket_transport.create ~id:1 ~peers:[ (0, listen) ] ()) in
  Fun.protect
    ~finally:(fun () ->
      Socket_transport.close server;
      Socket_transport.close client)
    (fun () ->
      let conn = require (Socket_transport.connect client ~peer:0) in
      let request = Frame.encode_request recipient ~dst:0 in
      require (Socket_transport.send conn (Transport.Record.frame request));
      let lfd = Option.get (Socket_transport.listen_fd server) in
      let server_conn =
        match Unix.select [ lfd ] [] [] 5.0 with
        | [], _, _ -> Alcotest.fail "no inbound connection within 5 s"
        | _ -> (
          match Socket_transport.accept_nonblocking server with
          | Ok (Some c) -> c
          | Ok None -> Alcotest.fail "listener readable but nothing to accept"
          | Error e -> Alcotest.fail ("accept: " ^ e))
      in
      Alcotest.(check bool) "identity unknown before the handshake" false
        (Socket_transport.handshake_done server_conn);
      let record = await_record server_conn in
      (* The handshake identified the dialing node. *)
      Alcotest.(check int) "handshake peer id" 1 (Socket_transport.peer server_conn);
      (match Transport.Record.classify record with
      | Ok (Transport.Record.Frame frame) -> (
        Alcotest.(check string) "frame bytes survive the stream" request frame;
        match Transport.serve_frame source ~src:1 frame with
        | Some reply ->
          require (Socket_transport.send server_conn (Transport.Record.frame reply));
          flush_all server_conn
        | None -> Alcotest.fail "request must be answered")
      | _ -> Alcotest.fail "expected a frame record");
      (match Socket_transport.recv ~timeout:5.0 conn with
      | Error e -> Alcotest.fail ("client recv: " ^ e)
      | Ok record -> (
        match Transport.Record.classify record with
        | Ok (Transport.Record.Frame frame) -> (
          match Frame.decode_reply recipient ~src:0 frame with
          | Frame.Reply (reply, _) ->
            let (_ : Node.accept_result) =
              Node.accept_propagation recipient ~source:0 reply
            in
            ()
          | Frame.Nak _ -> Alcotest.fail "live state must not nak")
        | _ -> Alcotest.fail "expected a frame record"));
      Socket_transport.close_conn conn;
      Socket_transport.close_conn server_conn;
      Alcotest.(check bool) "replicated over the socket" true
        (Node.read recipient "alpha" = Some "a2"
        && Node.read recipient "beta" <> None);
      match check_node recipient with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("invariants: " ^ e))

(* The output path under heavy partial writes: records of random sizes
   queued between flushes on a connection whose send buffer holds a
   fraction of one record, so nearly every flush stops mid-record and
   the next resumes there. The far side must reassemble every record
   byte-identical, in order — and a peer that stops reading must hit
   the 8 MiB backlog cap. *)
let test_socket_output_partial_writes () =
  let dir = cluster_dir "outbuf" in
  let listen = Socket_transport.Unix_path (Filename.concat dir "out.sock") in
  let server = require (Socket_transport.create ~listen ~id:0 ~peers:[] ()) in
  let client = require (Socket_transport.create ~id:1 ~peers:[ (0, listen) ] ()) in
  Fun.protect
    ~finally:(fun () ->
      Socket_transport.close server;
      Socket_transport.close client)
    (fun () ->
      let tx = require (Socket_transport.dial client ~peer:0) in
      Unix.setsockopt_int (Socket_transport.fd tx) Unix.SO_SNDBUF 4096;
      let rec accept tries =
        match Socket_transport.accept_nonblocking server with
        | Ok (Some conn) -> conn
        | Ok None when tries > 0 ->
          Unix.sleepf 0.001;
          accept (tries - 1)
        | Ok None -> Alcotest.fail "dialed connection never arrived"
        | Error e -> Alcotest.fail ("accept: " ^ e)
      in
      let rx = accept 5000 in
      Unix.setsockopt_int (Socket_transport.fd rx) Unix.SO_RCVBUF 4096;
      let prng = Edb_util.Prng.create ~seed:17 in
      let total = 300 in
      let sent = Queue.create () in
      let queued = ref 0 and received = ref 0 and blocked = ref 0 in
      let deadline = Unix.gettimeofday () +. 30.0 in
      while !received < total do
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "stalled after %d of %d records" !received total;
        for _ = 0 to Edb_util.Prng.int prng 3 do
          if !queued < total then begin
            let len = Edb_util.Prng.int prng 20_000 in
            let record = String.init len (fun _ -> Char.chr (Edb_util.Prng.int prng 256)) in
            require (Socket_transport.send tx record);
            Queue.push record sent;
            incr queued
          end
        done;
        (match Socket_transport.flush_output tx with
        | `Drained -> ()
        | `Blocked -> incr blocked
        | `Error e -> Alcotest.fail ("flush: " ^ e));
        match Socket_transport.read_into rx with
        | `Eof | `Error _ -> Alcotest.fail "receiver lost the stream"
        | `Data ->
          let rec drain () =
            match Socket_transport.next_record rx with
            | Some record ->
              if not (String.equal record (Queue.pop sent)) then
                Alcotest.failf "record %d differs after reassembly" !received;
              incr received;
              drain ()
            | None -> ()
          in
          drain ()
      done;
      Alcotest.(check int) "handshake identified the sender" 1 (Socket_transport.peer rx);
      Alcotest.(check bool)
        (Printf.sprintf "flushes stopped mid-stream (%d times)" !blocked)
        true (!blocked >= 50);
      Alcotest.(check int) "nothing left buffered" 0 (Socket_transport.pending_output tx);
      (* A peer that stops reading: sends buffer up to the 8 MiB cap,
         then fail instead of growing the buffer. *)
      let mib = String.make (1 lsl 20) 'x' in
      let rec fill accepted =
        match Socket_transport.send tx mib with
        | Ok () -> if accepted > 16 then accepted else fill (accepted + 1)
        | Error _ -> accepted
      in
      Alcotest.(check int) "the 8 MiB backlog cap refuses the ninth MiB" 8 (fill 0);
      Socket_transport.close_conn tx;
      Socket_transport.close_conn rx)

(* A record over the stream limit is refused with [Error] on both
   surfaces, and nothing of it is sent or buffered. *)
let test_socket_send_oversized () =
  let dir = cluster_dir "oversized" in
  let listen = Socket_transport.Unix_path (Filename.concat dir "big.sock") in
  let server = require (Socket_transport.create ~listen ~id:0 ~peers:[] ()) in
  let client = require (Socket_transport.create ~id:1 ~peers:[ (0, listen) ] ()) in
  Fun.protect
    ~finally:(fun () ->
      Socket_transport.close server;
      Socket_transport.close client)
    (fun () ->
      let record = String.make (Frame.max_stream_record + 1) 'x' in
      let buffered = require (Socket_transport.dial client ~peer:0) in
      let before = Socket_transport.pending_output buffered in
      (match Socket_transport.send buffered record with
      | Ok () -> Alcotest.fail "a non-blocking send took an oversized record"
      | Error _ -> ());
      Alcotest.(check int) "nothing buffered" before
        (Socket_transport.pending_output buffered);
      let blocking = require (Socket_transport.connect client ~peer:0) in
      (match Socket_transport.send blocking record with
      | Ok () -> Alcotest.fail "a blocking send took an oversized record"
      | Error _ -> ());
      Socket_transport.close_conn buffered;
      Socket_transport.close_conn blocking)

(* ---------- the daemon's session connections, in one process ---------- *)

let daemon_sock dir id =
  Socket_transport.Unix_path (Filename.concat dir (Printf.sprintf "d%d.sock" id))

let create_daemon ?(ae_period = 0.002) ?retry ?checkpoint_every ~dir ~id ~n peers =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  require
    (Daemon.create
       (Daemon.Config.make ~ae_period ?retry ?checkpoint_every ~id ~n
          ~dir:(Filename.concat dir (Printf.sprintf "node%d" id))
          ~listen:(daemon_sock dir id) ~peers ()))

(* Sessions are charged on the source side. *)
let sessions_served d =
  let c = Node.counters (Daemon.node d) in
  c.Counters.propagation_sessions + c.Counters.noop_sessions

(* Step daemons round-robin, one select turn each, until [until]
   holds. *)
let step_until ?(deadline = 20.0) daemons what until =
  let stop = Unix.gettimeofday () +. deadline in
  while not (until ()) do
    if Unix.gettimeofday () > stop then Alcotest.failf "timed out waiting for %s" what;
    List.iter Daemon.step daemons
  done

(* Two converged, write-free daemons in this process, stepped
   alternately: every session is you-are-current. *)
let with_quiet_pair name f =
  let dir = cluster_dir name in
  let a = create_daemon ~dir ~id:0 ~n:2 [ (1, daemon_sock dir 1) ] in
  let b = create_daemon ~dir ~id:1 ~n:2 [ (0, daemon_sock dir 0) ] in
  Fun.protect
    ~finally:(fun () ->
      Daemon.shutdown a;
      Daemon.shutdown b)
    (fun () -> f a b)

(* A quiet pair keeps one session connection per direction: after the
   first dial every session reuses the cached connection. *)
let test_daemon_quiet_pair_reuses_connections () =
  with_quiet_pair "quiet" (fun a b ->
      step_until [ a; b ] "100 sessions each way" (fun () ->
          sessions_served a >= 100 && sessions_served b >= 100);
      List.iter
        (fun d ->
          let c = Node.counters (Daemon.node d) in
          let id = Node.id (Daemon.node d) in
          Alcotest.(check bool)
            (Printf.sprintf "node %d dialed %d times for %d sessions" id
               c.Counters.connections_opened (sessions_served d))
            true
            (c.Counters.connections_opened <= 2);
          Alcotest.(check int) (Printf.sprintf "node %d: no timeouts" id) 0 c.Counters.timeouts)
        [ a; b ])

(* The mechanism behind the cheap you-are-current session: a quiet
   session allocates nothing on the major heap (no per-dial 64 KiB read
   chunk, no per-connection reader buffer), so it paces no major GC
   work over the replica's heap. *)
let test_daemon_quiet_session_major_heap () =
  with_quiet_pair "quietgc" (fun a b ->
      let total () = sessions_served a + sessions_served b in
      (* Warm-up: connections dialed, buffers sized, wire v2 negotiated. *)
      step_until [ a; b ] "warm-up sessions" (fun () -> total () >= 20);
      let s0 = total () in
      let w0 = (Gc.quick_stat ()).Gc.major_words in
      step_until [ a; b ] "200 quiet sessions" (fun () -> total () - s0 >= 200);
      let words = (Gc.quick_stat ()).Gc.major_words -. w0 in
      let per_session = words /. float_of_int (total () - s0) in
      Alcotest.(check bool)
        (Printf.sprintf "%.0f major-heap words per quiet session (want < 1000)" per_session)
        true (per_session < 1000.0))

(* A peer that accepts and never replies. The attempt times out, its
   connection is closed (never cached, never reused), and the next
   attempt is a fresh dial charged as a connection retry. *)
let test_daemon_mute_peer_redials () =
  let dir = cluster_dir "mute" in
  let listener =
    require (Socket_transport.create ~listen:(daemon_sock dir 1) ~id:1 ~peers:[] ())
  in
  let retry =
    { Transport.default_retry_policy with Transport.timeout = 0.2; backoff_base = 0.02; jitter = 0.0 }
  in
  let d = create_daemon ~ae_period:0.01 ~retry ~dir ~id:0 ~n:2 [ (1, daemon_sock dir 1) ] in
  Fun.protect
    ~finally:(fun () ->
      Daemon.shutdown d;
      Socket_transport.close listener)
    (fun () ->
      let c = Node.counters (Daemon.node d) in
      (* Accepted connections: (conn, requests read, closed by the daemon). *)
      let accepted = ref [] in
      let poll () =
        (match Socket_transport.accept_nonblocking listener with
        | Ok (Some conn) -> accepted := !accepted @ [ (conn, ref 0, ref false) ]
        | Ok None | Error _ -> ());
        List.iter
          (fun (conn, requests, eof) ->
            if not !eof then
              match Socket_transport.read_into conn with
              | `Eof | `Error _ -> eof := true
              | `Data ->
                let rec drain () =
                  match Socket_transport.next_record conn with
                  | Some _ ->
                    incr requests;
                    drain ()
                  | None -> ()
                in
                drain ())
          !accepted
      in
      let pump what until =
        let stop = Unix.gettimeofday () +. 10.0 in
        while not (until ()) do
          if Unix.gettimeofday () > stop then Alcotest.failf "timed out waiting for %s" what;
          Daemon.step d;
          poll ()
        done
      in
      let nth i = List.nth !accepted i in
      let requests_on i = match nth i with _, r, _ -> !r in
      let closed i = match nth i with _, _, e -> !e in
      pump "the first request" (fun () -> !accepted <> [] && requests_on 0 = 1);
      Alcotest.(check int) "one dial" 1 c.Counters.connections_opened;
      Alcotest.(check int) "not a retry" 0 c.Counters.connection_retries;
      pump "the reply deadline" (fun () -> c.Counters.timeouts >= 1);
      pump "the daemon to close the timed-out connection" (fun () -> closed 0);
      pump "the next attempt" (fun () -> c.Counters.connections_opened >= 2);
      Alcotest.(check int) "the next attempt dialed afresh" 2 c.Counters.connections_opened;
      Alcotest.(check int) "and was charged as a connection retry" 1
        c.Counters.connection_retries;
      pump "the retried request" (fun () -> List.length !accepted >= 2 && requests_on 1 = 1);
      Alcotest.(check int) "the timed-out connection carried one request only" 1
        (requests_on 0))

(* A peer that trickles a valid reply, a few bytes every 0.1 s over
   three times the 0.5 s reply timeout. The deadline counts from the
   last byte received, so the session completes on its first attempt
   with no timeout, and the reply is applied. *)
let test_daemon_trickling_peer_completes () =
  let dir = cluster_dir "trickle" in
  let source = Node.create ~id:1 ~n:2 () in
  Node.update source "alpha" (set "trickled");
  Node.update source "beta" (set (String.make 64 'b'));
  let listener =
    require (Socket_transport.create ~listen:(daemon_sock dir 1) ~id:1 ~peers:[] ())
  in
  let d = create_daemon ~ae_period:0.01 ~dir ~id:0 ~n:2 [ (1, daemon_sock dir 1) ] in
  let timeout = 0.5 in
  Fun.protect
    ~finally:(fun () ->
      Daemon.shutdown d;
      Socket_transport.close listener)
    (fun () ->
      let c = Node.counters (Daemon.node d) in
      let conn = ref None in
      let request = ref None in
      step_until [ d ] "the daemon's request" (fun () ->
          (match !conn with
          | None -> (
            match Socket_transport.accept_nonblocking listener with
            | Ok (Some accepted) -> conn := Some accepted
            | Ok None | Error _ -> ())
          | Some conn -> (
            match Socket_transport.read_into conn with
            | `Data -> request := Socket_transport.next_record conn
            | `Eof | `Error _ -> Alcotest.fail "the daemon closed its session connection"));
          !request <> None);
      let conn = Option.get !conn in
      let frame =
        match Transport.Record.classify (Option.get !request) with
        | Ok (Transport.Record.Frame frame) -> frame
        | _ -> Alcotest.fail "expected a request frame"
      in
      let bytes = Frame.to_wire (Transport.Record.frame (Frame.respond source ~src:0 frame)) in
      let chunks = 16 in
      let interval = 3.0 *. timeout /. float_of_int (chunks - 1) in
      let cut k = k * String.length bytes / chunks in
      let sent_at = Unix.gettimeofday () in
      for k = 0 to chunks - 1 do
        if k > 0 then begin
          let next = Unix.gettimeofday () +. interval in
          while Unix.gettimeofday () < next do
            Daemon.step d
          done
        end;
        try
          ignore
            (Unix.write_substring (Socket_transport.fd conn) bytes (cut k) (cut (k + 1) - cut k)
              : int)
        with Unix.Unix_error _ -> ()
      done;
      Alcotest.(check bool) "the reply took over 3 reply timeouts to arrive" true
        (Unix.gettimeofday () -. sent_at >= 3.0 *. timeout);
      Alcotest.(check int) "no timeout while bytes kept coming" 0 c.Counters.timeouts;
      step_until [ d ] "the trickled reply to apply" (fun () ->
          Node.read (Daemon.node d) "alpha" = Some "trickled");
      Alcotest.(check int) "completed on the first attempt" 0 c.Counters.timeouts;
      Alcotest.(check int) "one dial" 1 c.Counters.connections_opened)

(* Peer 1 accepts and never answers, so its session stays in flight
   for the whole 5 s reply timeout; peer 2 answers every request. A
   round never waits for a session of an earlier round, so peer 2 is
   asked at least once every two 10 ms ticks, whichever peer the first
   round draws first. *)
let test_daemon_silent_peer_holds_no_round () =
  let dir = cluster_dir "silent" in
  let tick = 0.01 and window = 0.5 in
  let listen peer =
    require (Socket_transport.create ~listen:(daemon_sock dir peer) ~id:peer ~peers:[] ())
  in
  let listeners = [ (1, listen 1); (2, listen 2) ] in
  let source = Node.create ~id:2 ~n:3 () in
  let retry = { Transport.default_retry_policy with Transport.timeout = 5.0 } in
  let d =
    create_daemon ~ae_period:tick ~retry ~dir ~id:0 ~n:3
      [ (1, daemon_sock dir 1); (2, daemon_sock dir 2) ]
  in
  Fun.protect
    ~finally:(fun () ->
      Daemon.shutdown d;
      List.iter (fun (_, l) -> Socket_transport.close l) listeners)
    (fun () ->
      let requests = Array.make 3 0 in
      let conns = ref [] in
      let serve (peer, conn) =
        match Socket_transport.read_into conn with
        | `Eof | `Error _ -> false
        | `Data ->
          let rec drain () =
            match Socket_transport.next_record conn with
            | None -> ()
            | Some record ->
              requests.(peer) <- requests.(peer) + 1;
              (match Transport.Record.classify record with
              | Ok (Transport.Record.Frame frame) when peer = 2 -> (
                match Transport.serve_frame source ~src:0 frame with
                | Some reply ->
                  require (Socket_transport.send conn (Transport.Record.frame reply));
                  flush_all conn
                | None -> ())
              | _ -> ());
              drain ()
          in
          drain ();
          true
      in
      let stop = Unix.gettimeofday () +. window in
      while Unix.gettimeofday () < stop do
        Daemon.step d;
        List.iter
          (fun (peer, l) ->
            match Socket_transport.accept_nonblocking l with
            | Ok (Some conn) -> conns := (peer, conn) :: !conns
            | Ok None | Error _ -> ())
          listeners;
        conns := List.filter serve !conns
      done;
      List.iter (fun (_, conn) -> Socket_transport.close_conn conn) !conns;
      Alcotest.(check int) "peer 1's one request is still unanswered" 1 requests.(1);
      let want = int_of_float (window /. (2.0 *. tick)) in
      Alcotest.(check bool)
        (Printf.sprintf "peer 2 was asked %d times in %.1f s (want >= %d)" requests.(2) window
           want)
        true
        (requests.(2) >= want))

(* One record to an in-process daemon over a client connection,
   stepping the daemon until the answer arrives. *)
let daemon_exchange d conn record =
  require (Socket_transport.send conn record);
  flush_all conn;
  let stop = Unix.gettimeofday () +. 5.0 in
  let rec loop () =
    match Socket_transport.next_record conn with
    | Some reply -> reply
    | None ->
      if Unix.gettimeofday () > stop then Alcotest.fail "no answer within 5 s";
      Daemon.step d;
      (match Unix.select [ Socket_transport.fd conn ] [] [] 0.0 with
      | [], _, _ -> ()
      | _ -> (
        match Socket_transport.read_into conn with
        | `Data -> ()
        | `Eof -> Alcotest.fail "the daemon closed the connection"
        | `Error e -> Alcotest.fail ("read: " ^ e)));
      loop ()
  in
  loop ()

let daemon_control d conn request =
  match
    Transport.Record.classify
      (daemon_exchange d conn (Transport.Record.control (Daemon.Control.encode_request request)))
  with
  | Ok (Transport.Record.Control payload) -> Daemon.Control.decode_reply payload
  | _ -> Alcotest.fail "expected a control reply"

(* A request whose reply cannot be sent (forced by the
   "daemon.reply.refused" failpoint, which stands in for a reply over
   the stream record limit) gets a nak and is counted; the daemon stays
   up, answers Ping, and replies normally once the failpoint is gone. *)
let test_daemon_refused_reply_naks () =
  let dir = cluster_dir "refused" in
  let d = create_daemon ~dir ~id:0 ~n:2 [ (1, daemon_sock dir 1) ] in
  let client =
    require (Socket_transport.create ~id:1 ~peers:[ (0, daemon_sock dir 0) ] ())
  in
  Fun.protect
    ~finally:(fun () ->
      Daemon.shutdown d;
      Socket_transport.close client)
    (fun () ->
      let conn = require (Socket_transport.dial client ~peer:0) in
      let exchange = daemon_exchange d conn in
      let control = daemon_control d conn in
      let requester = Node.create ~id:1 ~n:2 () in
      let pull () =
        match
          Transport.Record.classify
            (exchange (Transport.Record.frame (Frame.encode_request requester ~dst:0)))
        with
        | Ok (Transport.Record.Frame frame) -> Frame.decode_reply requester ~src:0 frame
        | _ -> Alcotest.fail "expected a frame"
      in
      Alcotest.(check bool) "update acked" true
        (control (Daemon.Control.Update { item = "x"; op = set "v" }) = Daemon.Control.Ack);
      Edb_fault.Fault.with_point "daemon.reply.refused" (fun () ->
          (match pull () with
          | Frame.Nak _ -> ()
          | Frame.Reply _ -> Alcotest.fail "a refused reply went out");
          Alcotest.(check int) "counted" 1 (Daemon.refused_replies d);
          Alcotest.(check bool) "still answers Ping" true
            (control Daemon.Control.Ping = Daemon.Control.Ack));
      (match pull () with
      | Frame.Reply (Message.Propagate { items = [ item ]; _ }, _) ->
        Alcotest.(check string) "the update ships" "x" item.Message.name
      | _ -> Alcotest.fail "expected a reply shipping x");
      Alcotest.(check int) "nothing more refused" 1 (Daemon.refused_replies d))

(* A control reply that cannot be sent (forced by the
   "daemon.control.refused" failpoint, which stands in for an Export
   snapshot over the stream record limit) is answered with Failed and
   its reason at once, well inside a client's control timeout; once the
   failpoint is gone the daemon answers normally again. *)
let test_daemon_refused_control_fails () =
  let dir = cluster_dir "control-refused" in
  let d = create_daemon ~dir ~id:0 ~n:1 [] in
  let client =
    require (Socket_transport.create ~id:1 ~peers:[ (0, daemon_sock dir 0) ] ())
  in
  Fun.protect
    ~finally:(fun () ->
      Daemon.shutdown d;
      Socket_transport.close client)
    (fun () ->
      let control = daemon_control d (require (Socket_transport.dial client ~peer:0)) in
      Alcotest.(check bool) "update acked" true
        (control (Daemon.Control.Update { item = "x"; op = set "v" }) = Daemon.Control.Ack);
      Edb_fault.Fault.with_point "daemon.control.refused" (fun () ->
          let asked = Unix.gettimeofday () in
          (match control Daemon.Control.Export with
          | Daemon.Control.Failed reason ->
            Alcotest.(check bool) ("the reason is given: " ^ reason) true
              (Astring.String.is_infix ~affix:"refused by failpoint" reason)
          | _ -> Alcotest.fail "an unsendable Export was not answered with Failed");
          Alcotest.(check bool) "answered at once" true (Unix.gettimeofday () -. asked < 1.0));
      Alcotest.(check bool) "Ping unaffected once the failpoint is gone" true
        (control Daemon.Control.Ping = Daemon.Control.Ack);
      match control Daemon.Control.Export with
      | Daemon.Control.State blob ->
        let restored = require (Edb_persist.Snapshot.decode blob) in
        Alcotest.(check (option string)) "the export holds the update" (Some "v")
          (Node.read restored "x")
      | _ -> Alcotest.fail "expected the exported state")

(* [checkpoint_every = K]: the turn after the K-th journaled update
   folds the journal into node.snap, so after K + 2 acked updates the
   journal holds only the last two. [0] turns the rule off: no
   snapshot, and every update stays in the journal — the seven updates
   are far under the 1 MiB floor of the size rule, which a running
   daemon applies whatever [checkpoint_every] says. Either way a reopen
   recovers every acked value. *)
let test_daemon_checkpoint_every ~checkpoint_every ~snapshot ~journal () =
  let dir = cluster_dir (Printf.sprintf "checkpoint-every-%d" checkpoint_every) in
  let node_dir = Filename.concat dir "node0" in
  let items = List.init 7 (fun i -> (Printf.sprintf "i%d" i, Printf.sprintf "v%d" i)) in
  let d = create_daemon ~checkpoint_every ~dir ~id:0 ~n:1 [] in
  let client =
    require (Socket_transport.create ~id:1 ~peers:[ (0, daemon_sock dir 0) ] ())
  in
  Fun.protect
    ~finally:(fun () ->
      Daemon.shutdown d;
      Socket_transport.close client)
    (fun () ->
      let control = daemon_control d (require (Socket_transport.dial client ~peer:0)) in
      List.iter
        (fun (item, value) ->
          Alcotest.(check bool) (item ^ " acked") true
            (control (Daemon.Control.Update { item; op = set value }) = Daemon.Control.Ack))
        items);
  Alcotest.(check bool) "node.snap written" snapshot
    (Sys.file_exists (Filename.concat node_dir "node.snap"));
  let module Durable = Edb_persist.Durable_node in
  let durable, replay = require (Durable.open_or_create ~dir:node_dir ~id:0 ~n:1 ()) in
  Fun.protect
    ~finally:(fun () -> Durable.close durable)
    (fun () ->
      Alcotest.(check int) "journal records" journal replay.Edb_persist.Wal.records;
      List.iter
        (fun (item, value) ->
          Alcotest.(check (option string)) (item ^ " recovered") (Some value)
            (Node.read (Durable.node durable) item))
        items)

(* The size rule: at a tick, a journal past both its checkpoint and
   the 1 MiB floor is folded into node.snap, with no setting. 12 000
   updates of 100-byte values over 100 keys journal about 1.8 MB while
   the state, and so the snapshot, stays near 16 KB: the floor decides,
   the rule fires once, and the journal ends under the floor plus what
   one tick appended (a 2 ms tick; 64 KiB is hundreds of updates). A
   reopen recovers the state the daemon served before it closed. *)
let test_daemon_journal_outgrows_checkpoint () =
  let floor = 1 lsl 20 in
  let dir = cluster_dir "outgrown" in
  let node_dir = Filename.concat dir "node0" in
  let d = create_daemon ~dir ~id:0 ~n:1 [] in
  let client =
    require (Socket_transport.create ~id:1 ~peers:[ (0, daemon_sock dir 0) ] ())
  in
  let before =
    Fun.protect
      ~finally:(fun () ->
        Daemon.shutdown d;
        Socket_transport.close client)
      (fun () ->
        let control = daemon_control d (require (Socket_transport.dial client ~peer:0)) in
        for i = 0 to 11_999 do
          let item = Printf.sprintf "k%d" (i mod 100) in
          if control (Daemon.Control.Update { item; op = set (Printf.sprintf "%0100d" i) })
             <> Daemon.Control.Ack
          then Alcotest.failf "update %d not acked" i
        done;
        Node.export_state (Daemon.node d))
  in
  Alcotest.(check bool) "node.snap written" true
    (Sys.file_exists (Filename.concat node_dir "node.snap"));
  let journal = (Unix.stat (Filename.concat node_dir "node.wal")).Unix.st_size in
  Alcotest.(check bool)
    (Printf.sprintf "journal %d B under the floor plus one tick" journal)
    true
    (journal < floor + (64 * 1024));
  let module Durable = Edb_persist.Durable_node in
  let durable, _ = require (Durable.open_or_create ~dir:node_dir ~id:0 ~n:1 ()) in
  Fun.protect
    ~finally:(fun () -> Durable.close durable)
    (fun () ->
      Alcotest.(check bool) "a reopen exports the pre-close state" true
        (Node.export_state (Durable.node durable) = before))

(* ---------- multi-process daemons ---------- *)

(* The daemons are `edb_cli serve` processes; dune builds edb_cli
   before running this suite. *)
let edb_cli =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name "bin/edb_cli.exe")

let start_cluster = Harness.start ~exe:edb_cli

let await h =
  match Harness.await_converged ~deadline:20.0 ~invariant:check_node h with
  | Ok (_ : float) -> ()
  | Error e -> Alcotest.fail ("convergence: " ^ e)

(* Two daemons over Unix-domain sockets: single-writer updates on each
   side replicate both ways through the anti-entropy timers, and the
   connection counters show real dials happened. *)
let test_daemon_pair_converges () =
  let h = start_cluster ~seed:21 ~dir:(cluster_dir "pair") ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      require (Harness.update h ~node:0 ~item:"a.0" (set "from zero"));
      require (Harness.update h ~node:1 ~item:"b.1" (set "from one"));
      await h;
      Alcotest.(check bool) "node 1 sees node 0's write" true
        (require (Harness.read h ~node:1 ~item:"a.0") = Some "from zero");
      Alcotest.(check bool) "node 0 sees node 1's write" true
        (require (Harness.read h ~node:0 ~item:"b.1") = Some "from one");
      let c0 = require (Harness.counters_of h ~node:0) in
      Alcotest.(check bool) "real connections were opened" true
        (List.assoc "connections_opened" c0 > 0);
      Alcotest.(check bool) "wire bytes were charged" true
        (List.assoc "wire_bytes_sent" c0 > 0))

(* kill -9 mid-run: nothing is flushed, the WAL on disk is all there
   is. The restarted daemon must recover its own pre-kill writes from
   the journal and catch up on what it missed through anti-entropy. *)
let test_daemon_crash_recovery () =
  let h = start_cluster ~seed:33 ~dir:(cluster_dir "crash") ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      require (Harness.update h ~node:0 ~item:"a.0" (set "pre-kill zero"));
      require (Harness.update h ~node:1 ~item:"b.1" (set "pre-kill one"));
      await h;
      Harness.kill h ~node:1;
      Alcotest.(check bool) "daemon 1 is gone" false (Harness.running h ~node:1);
      (* The survivor keeps writing while node 1 is down. *)
      require (Harness.update h ~node:0 ~item:"c.0" (set "while down"));
      require (Harness.update h ~node:0 ~item:"a.0" (set "overwritten"));
      Harness.restart h ~node:1;
      await h;
      (* Node 1 recovered its own write from the WAL... *)
      Alcotest.(check bool) "own write recovered" true
        (require (Harness.read h ~node:1 ~item:"b.1") = Some "pre-kill one");
      (* ...and caught up on everything it missed. *)
      Alcotest.(check bool) "missed write caught up" true
        (require (Harness.read h ~node:1 ~item:"c.0") = Some "while down");
      Alcotest.(check bool) "overwrite caught up" true
        (require (Harness.read h ~node:1 ~item:"a.0") = Some "overwritten");
      Alcotest.(check bool) "survivor unscathed" true
        (require (Harness.read h ~node:0 ~item:"b.1") = Some "pre-kill one"))

(* A daemon killed behind the harness's back reads as not running (the
   harness reaps it), and restarts over its WAL. *)
let test_harness_sees_outside_kill () =
  let h = start_cluster ~seed:35 ~dir:(cluster_dir "outside") ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      require (Harness.update h ~node:1 ~item:"b.1" (set "before the kill"));
      Alcotest.(check bool) "daemon 1 runs" true (Harness.running h ~node:1);
      let pid = Option.get (Harness.pid h ~node:1) in
      Unix.kill pid Sys.sigkill;
      let stop = Unix.gettimeofday () +. 5.0 in
      while Harness.running h ~node:1 do
        if Unix.gettimeofday () > stop then
          Alcotest.fail "a SIGKILLed daemon still reads as running after 5 s";
        Unix.sleepf 0.005
      done;
      Alcotest.(check bool) "no pid once reaped" true (Harness.pid h ~node:1 = None);
      Harness.restart h ~node:1;
      Alcotest.(check bool) "running again" true (Harness.running h ~node:1);
      Alcotest.(check bool) "the journaled write survived" true
        (require (Harness.read h ~node:1 ~item:"b.1") = Some "before the kill"))

(* kill -9 a peer while its session connection sits idle in the
   survivor's cache. The dead connection must be forgotten (it turns
   readable at EOF), the survivor must re-dial the restarted peer, and
   the pair must reconverge checker-clean with the acked pre-kill
   write intact. *)
let test_daemon_kill_idle_cached_peer () =
  let h = start_cluster ~ae_period:0.01 ~seed:66 ~dir:(cluster_dir "idlekill") ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      let opened node = List.assoc "connections_opened" (require (Harness.counters_of h ~node)) in
      require (Harness.update h ~node:1 ~item:"b.1" (set "acked before the kill"));
      require (Harness.update h ~node:0 ~item:"a.0" (set "zero"));
      await h;
      (* Quiet: both session connections now sit in the idle caches
         between ticks. *)
      Unix.sleepf 0.05;
      let dialed = opened 0 in
      Harness.kill h ~node:1;
      require (Harness.update h ~node:0 ~item:"c.0" (set "while down"));
      Harness.restart h ~node:1;
      (* A write only the restarted peer holds: convergence now needs
         the survivor to pull from it. Without it, node 1's own pull
         could converge the pair while the survivor still sits in the
         backoff of an attempt that raced the kill. *)
      require (Harness.update h ~node:1 ~item:"d.1" (set "after the restart"));
      await h;
      Alcotest.(check bool) "acked pre-kill write survived" true
        (require (Harness.read h ~node:1 ~item:"b.1") = Some "acked before the kill");
      Alcotest.(check bool) "missed write caught up" true
        (require (Harness.read h ~node:1 ~item:"c.0") = Some "while down");
      Alcotest.(check bool) "the survivor pulled from the restarted peer" true
        (require (Harness.read h ~node:0 ~item:"d.1") = Some "after the restart");
      Alcotest.(check bool) "the survivor re-dialed the restarted peer" true
        (opened 0 > dialed))

(* Poll [node] until it reads [value] at [item]; the seconds since
   [since]. *)
let await_read ?(deadline = 20.0) h ~node ~item value ~since =
  let rec poll () =
    let read = Harness.read h ~node ~item in
    let elapsed = Unix.gettimeofday () -. since in
    match read with
    | Ok (Some v) when v = value -> elapsed
    | _ when elapsed > deadline -> Alcotest.failf "node %d did not read %s" node item
    | _ ->
      Unix.sleepf 0.002;
      poll ()
  in
  poll ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data = Out_channel.with_open_bin path (fun oc -> output_string oc data)

(* Concurrent sessions carry one DBVV to several peers, so two peers
   can answer with the same records. A reopened node pulls its backlog
   from one peer first, but the steady-state sessions after it still
   race. Only the first copy of a record may reach the journal:
   replayed record by record from a copy of node 2's journal, every
   propagation-reply record must change the state. Node 2 folds its
   pre-kill journal into a checkpoint when it reopens, so the records
   replay over a copy of that checkpoint. Both files are read before
   the regular tick that folds the catch-up into a checkpoint too: the
   rounds are a second apart, and the catch-up round runs at once. *)
let test_daemon_catchup_journals_each_effect_once () =
  let module Durable = Edb_persist.Durable_node in
  let module Wal = Edb_persist.Wal in
  let dir = cluster_dir "catchup-journal" in
  let h = start_cluster ~ae_period:1.0 ~seed:77 ~dir ~n:3 () in
  let node2 = Filename.concat dir "node2" in
  let checkpoint, records =
    Fun.protect
      ~finally:(fun () -> Harness.shutdown h)
      (fun () ->
        require (Harness.update h ~node:2 ~item:"pre.2" (set "before the kill"));
        await h;
        Harness.kill h ~node:2;
        let down i = Printf.sprintf "while node 2 is down %d" i in
        for i = 0 to 19 do
          let node = i mod 2 in
          require (Harness.update h ~node ~item:(Printf.sprintf "k%d.%d" i node) (set (down i)))
        done;
        (* Let the survivors converge, so their answers to node 2 are
           the same backlog. *)
        let since = Unix.gettimeofday () in
        let (_ : float) = await_read h ~node:0 ~item:"k19.1" (down 19) ~since in
        let (_ : float) = await_read h ~node:1 ~item:"k18.0" (down 18) ~since in
        Harness.restart h ~node:2;
        let (_ : float) =
          await_read h ~node:2 ~item:"k19.1" (down 19) ~since:(Unix.gettimeofday ())
        in
        (* The catch-up round's other sessions end within milliseconds;
           the compaction is a whole period away. *)
        Unix.sleepf 0.2;
        let records = ref [] in
        let (_ : Wal.replay_result) =
          require
            (Wal.replay ~path:(Durable.journal_path ~dir:node2)
               ~f:(fun data ~off ~len -> records := String.sub data off len :: !records))
        in
        let files = (read_file (Filename.concat node2 "node.snap"), Array.of_list (List.rev !records)) in
        await h;
        files)
  in
  (* The state after the first [k] records, recovered from node 2's
     checkpoint and a journal holding just those. *)
  let state_after k =
    let replay_dir = cluster_dir (Printf.sprintf "catchup-journal-replay-%d" k) in
    write_file (Filename.concat replay_dir "node.snap") checkpoint;
    let path = Durable.journal_path ~dir:replay_dir in
    Wal.reset ~path;
    let w = Wal.open_writer ~path in
    Array.iteri (fun i r -> if i < k then Wal.append w r) records;
    Wal.close_writer w;
    let d, _ = require (Durable.open_or_create ~dir:replay_dir ~id:2 ~n:3 ()) in
    let state = Node.export_state (Durable.node d) in
    Durable.close d;
    state
  in
  let states = Array.init (Array.length records + 1) state_after in
  let replies = ref 0 in
  Array.iteri
    (fun i record ->
      let tag = Int64.to_int (String.get_int64_le record 0) in
      if tag = 1 || tag = 5 then begin
        incr replies;
        Alcotest.(check bool)
          (Printf.sprintf "reply record %d changes the state" i)
          true
          (states.(i) <> states.(i + 1))
      end)
    records;
  Alcotest.(check bool) "the catch-up was journaled" true (!replies >= 1)

(* A daemon whose journal outgrew its checkpoint (here: it has none)
   folds the journal into a fresh one before it binds, so its first
   control reply already finds a new snapshot and an empty journal, and
   the state it exports is the pre-kill one. After a few more writes
   the journal is far smaller than that checkpoint: the next kill and
   restart replays just those records and leaves the snapshot file
   alone. Each restart is checked well within one anti-entropy period,
   before the tick that folds its journal after its catch-up. *)
let test_daemon_reopen_compacts_long_journal () =
  let dir = cluster_dir "reopen-compact" in
  let h = start_cluster ~ae_period:1.0 ~seed:111 ~dir ~n:2 () in
  let node1 = Filename.concat dir "node1" in
  let snap = Filename.concat node1 "node.snap" in
  let export () = Node.export_state (require (Harness.export h ~node:1)) in
  let records () = fst (require (Harness.journal h ~node:1)) in
  let inode () = (Unix.stat snap).Unix.st_ino in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      for i = 0 to 39 do
        let node = i mod 2 in
        require
          (Harness.update h ~node ~item:(Printf.sprintf "k%d.%d" i node)
             (set (Printf.sprintf "%0100d" i)))
      done;
      await h;
      let before = export () in
      Alcotest.(check bool) "no checkpoint yet" false (Sys.file_exists snap);
      Alcotest.(check bool) "a journal to fold" true (records () > 0);
      Harness.kill h ~node:1;
      Harness.restart h ~node:1;
      let (_ : (string * int) list) = require (Harness.counters_of h ~node:1) in
      Alcotest.(check bool) "a fresh checkpoint by the first reply" true (Sys.file_exists snap);
      Alcotest.(check (pair int int)) "an empty journal by the first reply" (0, 0)
        (require (Harness.journal h ~node:1));
      Alcotest.(check bool) "the pre-kill export" true (export () = before);
      (* Two more writes, far fewer bytes than the checkpoint. *)
      require (Harness.update h ~node:1 ~item:"after.1" (set "a"));
      require (Harness.update h ~node:1 ~item:"after.1" (set "b"));
      let before = export () and snapshot = read_file snap and id = inode () in
      Harness.kill h ~node:1;
      Alcotest.(check int) "only the writes since are journaled" 2 (records ());
      Harness.restart h ~node:1;
      Alcotest.(check bool) "the second pre-kill export" true (export () = before);
      Alcotest.(check int) "a shorter journal is kept" 2 (records ());
      Alcotest.(check bool) "the snapshot file is untouched" true
        (inode () = id && read_file snap = snapshot))

(* A daemon reopened over a journal shorter than its checkpoint binds
   without checkpointing, catches up at once, and folds the catch-up
   into a fresh checkpoint at the first regular tick after its catch-up
   round: with one-second rounds, a second after the restart at the
   earliest, while the journal holds the catch-up until then. A kill -9
   before that tick loses nothing: the next reopen exports the same
   state and DBVV, and then compacts. *)
let test_daemon_reopen_compacts_after_catchup () =
  let module Wal = Edb_persist.Wal in
  let period = 1.0 in
  let dir = cluster_dir "reopen-after-catchup" in
  let h = start_cluster ~ae_period:period ~seed:112 ~dir ~n:2 () in
  let node1 = Filename.concat dir "node1" in
  let snap = Filename.concat node1 "node.snap" in
  let state () =
    let nd = require (Harness.export h ~node:1) in
    (Node.export_state nd, Edb_vv.Version_vector.to_array (Node.dbvv_view nd))
  in
  let tags () =
    let tags = ref [] in
    let (_ : Wal.replay_result) =
      require
        (Wal.replay ~path:(Filename.concat node1 "node.wal") ~f:(fun data ~off ~len:_ ->
             tags := Int64.to_int (String.get_int64_le data off) :: !tags))
    in
    List.rev !tags
  in
  let inode () = (Unix.stat snap).Unix.st_ino in
  let down = "while node 1 is down" in
  (* Node 0 writes [item] while node 1 is down; returns the restart
     time. *)
  let reopen_behind item =
    Harness.kill h ~node:1;
    require (Harness.update h ~node:0 ~item (set down));
    let restarted = Unix.gettimeofday () in
    Harness.restart h ~node:1;
    restarted
  in
  (* The snapshot is a new file before the fresh journal exists, so the
     journal is read only once the inode moved. *)
  let await_compaction ~old ~since =
    let rec poll () =
      let elapsed = Unix.gettimeofday () -. since in
      if inode () <> old && fst (require (Harness.journal h ~node:1)) = 0 then elapsed
      else if elapsed > 20.0 then Alcotest.fail "node 1 did not compact"
      else begin
        Unix.sleepf 0.01;
        poll ()
      end
    in
    let elapsed = poll () in
    Alcotest.(check bool)
      (Printf.sprintf "compacted %.2f s after the restart (want >= %.1f s)" elapsed period)
      true (elapsed >= period)
  in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      for i = 0 to 39 do
        require
          (Harness.update h ~node:1 ~item:(Printf.sprintf "k%d.1" i)
             (set (Printf.sprintf "%0100d" i)))
      done;
      require (Harness.checkpoint h ~node:1);
      require (Harness.update h ~node:1 ~item:"after.1" (set "a"));
      let snapshot = read_file snap and id = inode () in
      let restarted = reopen_behind "behind.0" in
      let (_ : (string * int) list) = require (Harness.counters_of h ~node:1) in
      Alcotest.(check bool) "the snapshot file is untouched by the first reply" true
        (inode () = id && read_file snap = snapshot);
      let (_ : float) = await_read h ~node:1 ~item:"behind.0" down ~since:restarted in
      let caught_up = state () in
      Alcotest.(check (list int)) "the journal holds the update and the catch-up" [ 0; 5 ]
        (tags ());
      await_compaction ~old:id ~since:restarted;
      Alcotest.(check bool) "the compacted node exports the caught-up state" true
        (state () = caught_up);
      let id = inode () in
      let (_ : float) =
        await_read h ~node:1 ~item:"behind.1" down ~since:(reopen_behind "behind.1")
      in
      let before = state () in
      Harness.kill h ~node:1;
      Alcotest.(check bool) "killed before its compaction" true (inode () = id);
      let restarted = Unix.gettimeofday () in
      Harness.restart h ~node:1;
      Alcotest.(check bool) "the same export and DBVV after the kill" true (state () = before);
      await_compaction ~old:id ~since:restarted;
      Alcotest.(check bool) "the same export and DBVV after the compaction" true
        (state () = before))

(* A daemon reopened over existing state pulls at once, from one peer:
   with rounds a second apart node 2 reads the whole backlog well
   within one of them, and only one survivor ships it — the other is
   asked with the DBVV that first reply advanced. With 2 ms rounds the
   reply takes many ticks to build and apply, and no regular round may
   ask the other survivor meanwhile. *)
let test_daemon_reopen_catches_up_from_one_source ~ae_period () =
  let dir = cluster_dir (Printf.sprintf "reopen-one-%g" ae_period) in
  let h = start_cluster ~ae_period ~seed:88 ~dir ~n:3 () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      require (Harness.update h ~node:2 ~item:"pre.2" (set "before the kill"));
      await h;
      Harness.kill h ~node:2;
      (* Item [i] is written on node [i mod 2]; each survivor holds the
         other's last write once they have converged. *)
      let item i = Printf.sprintf "k%d.%d" i (i mod 2) and value i = Printf.sprintf "%0100d" i in
      let last = 1999 in
      for i = 0 to last do
        require (Harness.update h ~node:(i mod 2) ~item:(item i) (set (value i)))
      done;
      let since = Unix.gettimeofday () in
      let (_ : float) = await_read h ~node:0 ~item:(item last) (value last) ~since in
      let (_ : float) = await_read h ~node:1 ~item:(item (last - 1)) (value (last - 1)) ~since in
      let wire node = List.assoc "wire_bytes_sent" (require (Harness.counters_of h ~node)) in
      let before = Array.init 2 wire in
      let restarted = Unix.gettimeofday () in
      Harness.restart h ~node:2;
      let caught_up = await_read h ~node:2 ~item:(item last) (value last) ~since:restarted in
      let growth = Array.init 2 (fun node -> wire node - before.(node)) in
      Alcotest.(check bool)
        (Printf.sprintf "node 2 caught up %.3f s after its restart (want < 0.9 s)" caught_up)
        true (caught_up < 0.9);
      let total = growth.(0) + growth.(1) and larger = max growth.(0) growth.(1) in
      Alcotest.(check bool)
        (Printf.sprintf "survivors sent %d + %d bytes (want the sum < 1.5 x the larger)"
           growth.(0) growth.(1))
        true
        (float_of_int total < 1.5 *. float_of_int larger))

(* Each round pulls its peers one after another, every request
   carrying the DBVV the previous reply advanced, so no replica is
   shipped the same update twice: over the cluster, the items sources
   ship ([items_examined]) match the items recipients adopt
   ([items_copied]). Two origins write in batches over about a second
   of 50 ms rounds; pulling a round's peers at once would ship node 2
   each origin's batch from both survivors. *)
let test_daemon_round_ships_nothing_twice () =
  let n = 3 in
  let h = start_cluster ~ae_period:0.05 ~seed:66 ~dir:(cluster_dir "chained") ~n () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      for batch = 0 to 19 do
        for node = 0 to 1 do
          for k = 0 to 4 do
            require
              (Harness.update h ~node
                 ~item:(Printf.sprintf "b%d.%d.%d" batch k node)
                 (set (string_of_int batch)))
          done
        done;
        Unix.sleepf 0.05
      done;
      await h;
      let total field =
        List.fold_left
          (fun acc node -> acc + List.assoc field (require (Harness.counters_of h ~node)))
          0 (List.init n Fun.id)
      in
      let examined = total "items_examined" and copied = total "items_copied" in
      Alcotest.(check bool) "every write was copied twice" true (copied >= 2 * 200);
      Alcotest.(check bool)
        (Printf.sprintf "sources shipped %d items for %d adopted (want <= 1.05x)" examined
           copied)
        true
        (float_of_int examined <= 1.05 *. float_of_int copied))

(* Every node reopens at once over its own non-empty directory, so a
   prompt first round can dial a peer that is not listening yet. The
   refused dial costs one backoff at most (0.75 s under the daemon's
   policy; a second failed attempt would add 1 to 1.5 s more): no
   session is abandoned, and fresh writes converge well within 2 s. *)
let test_daemon_whole_cluster_reopen () =
  let n = 3 in
  let h = start_cluster ~seed:99 ~dir:(cluster_dir "reopen-all") ~n () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      for node = 0 to n - 1 do
        require (Harness.update h ~node ~item:(Printf.sprintf "pre.%d" node) (set "before"))
      done;
      await h;
      for node = 0 to n - 1 do
        Harness.stop h ~node
      done;
      for node = 0 to n - 1 do
        Harness.restart h ~node
      done;
      for node = 0 to n - 1 do
        require (Harness.update h ~node ~item:(Printf.sprintf "post.%d" node) (set "after"))
      done;
      match Harness.await_converged ~deadline:20.0 ~invariant:check_node h with
      | Error e -> Alcotest.fail ("convergence: " ^ e)
      | Ok elapsed ->
        Alcotest.(check bool)
          (Printf.sprintf "converged %.2f s after the writes (want < 2 s)" elapsed)
          true (elapsed < 2.0);
        for node = 0 to n - 1 do
          Alcotest.(check (option string))
            (Printf.sprintf "node %d holds node 0's pre-stop write" node)
            (Some "before")
            (require (Harness.read h ~node ~item:"pre.0"));
          Alcotest.(check int)
            (Printf.sprintf "node %d abandoned no session" node)
            0
            (List.assoc "sessions_abandoned" (require (Harness.counters_of h ~node)))
        done)

(* The same harness over TCP (kernel-chosen ports). *)
let test_daemon_tcp_smoke () =
  let h = start_cluster ~kind:`Tcp ~seed:44 ~dir:(cluster_dir "tcp") ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      require (Harness.update h ~node:0 ~item:"a.0" (set "over tcp"));
      await h;
      Alcotest.(check bool) "replicated over tcp" true
        (require (Harness.read h ~node:1 ~item:"a.0") = Some "over tcp"))

(* ---------- WAL group commit: the sync is the commit point ---------- *)

(* Under group commit, appends buffer in the WAL channel and only
   {!Durable_node.sync} makes them durable. What a crash would find on
   disk at any instant is the file as the OS has it — snapshot it by
   copying, and replay the copy. The synced prefix must be exactly the
   records synced so far, never a partial batch, and recovery from that
   prefix must be a valid pre/post-session state. *)
let test_group_commit_sync_prefix () =
  let module Durable = Edb_persist.Durable_node in
  let module Wal = Edb_persist.Wal in
  let dir = cluster_dir "gcwal" in
  let crash_dir = cluster_dir "gcwal-crash" in
  let wal = Filename.concat dir "node.wal" in
  let copy_wal () =
    let ic = open_in_bin wal in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin (Filename.concat crash_dir "node.wal") in
    output_string oc data;
    close_out oc
  in
  let replay_count () =
    copy_wal ();
    match
      Wal.replay ~path:(Filename.concat crash_dir "node.wal") ~f:(fun _ ~off:_ ~len:_ -> ())
    with
    | Ok r ->
      Alcotest.(check bool) "no torn tail in a group-commit batch" false
        r.Wal.torn_tail;
      r.Wal.records
    | Error e -> Alcotest.fail ("replay: " ^ e)
  in
  let d, _ = require (Durable.open_or_create ~dir ~id:0 ~n:2 ()) in
  Durable.set_group_commit d true;
  Durable.update d "a" (set "1");
  Durable.update d "b" (set "2");
  Alcotest.(check int) "two records pending" 2 (Durable.unsynced_records d);
  Alcotest.(check int) "nothing durable before the sync" 0 (replay_count ());
  Durable.sync d;
  Alcotest.(check int) "sync drains the batch" 0 (Durable.unsynced_records d);
  Alcotest.(check int) "the whole batch is durable" 2 (replay_count ());
  (* The next batch stays invisible until its own sync: what's on disk
     is always an exact prefix at a batch boundary. *)
  Durable.update d "c" (set "3");
  Alcotest.(check int) "on disk: still the synced prefix" 2 (replay_count ());
  (* Recovery from the crash image is the exact pre-session state for
     the unsynced update, post-session for the synced ones. *)
  let r, replayed =
    require (Durable.open_or_create ~dir:crash_dir ~id:0 ~n:2 ())
  in
  Alcotest.(check int) "recovery replays the prefix" 2 replayed.Wal.records;
  Alcotest.(check bool) "synced updates recovered" true
    (Node.read (Durable.node r) "a" = Some "1"
    && Node.read (Durable.node r) "b" = Some "2");
  Alcotest.(check bool) "unsynced update rolled back whole" true
    (Node.read (Durable.node r) "c" = None);
  Durable.close r;
  (* Turning group commit off syncs the pending batch. *)
  Durable.set_group_commit d false;
  Alcotest.(check int) "disabling group commit syncs" 3 (replay_count ());
  Durable.close d

(* ---------- N-daemon soak: concurrency, control load, kill -9 ---------- *)

(* Five daemons with the concurrent event loop (max_sessions = 4,
   fast anti-entropy ticks): overlapping initiator sessions, a stream
   of control writes racing them, and a mid-batch kill -9 — with group
   commit on, the Ack discipline means any acknowledged write must
   survive the crash (no reply precedes the durability of its commit
   record), and the cluster must converge checker-clean around the
   outage. *)
let test_daemon_soak_concurrent () =
  let n = 5 in
  let h =
    start_cluster ~ae_period:0.01 ~max_sessions:4 ~seed:55
      ~dir:(cluster_dir "soak") ~n ()
  in
  Fun.protect
    ~finally:(fun () -> Harness.shutdown h)
    (fun () ->
      let write round node =
        require
          (Harness.update h ~node
             ~item:(Printf.sprintf "r%d.n%d" round node)
             (set (Printf.sprintf "round %d from %d" round node)))
      in
      (* Two full rounds of interleaved writes while anti-entropy
         sessions overlap underneath — no convergence barrier between
         writes, so sessions, pushes and control traffic race. *)
      for round = 0 to 1 do
        for node = 0 to n - 1 do
          write round node
        done
      done;
      (* Mid-batch crash: node 2 acknowledges one more write and is
         immediately SIGKILLed — nothing further is flushed. The Ack
         came after the group-commit sync, so the write must be in the
         WAL. *)
      write 2 2;
      Harness.kill h ~node:2;
      Alcotest.(check bool) "node 2 is down" false (Harness.running h ~node:2);
      (* Survivors keep the load up while node 2 is dead. *)
      for node = 0 to n - 1 do
        if node <> 2 then write 3 node
      done;
      Harness.restart h ~node:2;
      (* The recovered daemon serves immediately and keeps accepting
         writes. *)
      write 4 2;
      for node = 0 to n - 1 do
        if node <> 2 then write 4 node
      done;
      (match Harness.await_converged ~deadline:30.0 ~invariant:check_node h with
      | Ok (_ : float) -> ()
      | Error e -> Alcotest.fail ("soak convergence: " ^ e));
      (* The acknowledged pre-kill write survived kill -9 on the
         crashed node itself... *)
      Alcotest.(check bool) "acked write survived the crash" true
        (require (Harness.read h ~node:2 ~item:"r2.n2")
        = Some "round 2 from 2");
      (* ...and every write of every round is visible everywhere. *)
      for node = 0 to n - 1 do
        for round = 0 to 1 do
          for origin = 0 to n - 1 do
            let item = Printf.sprintf "r%d.n%d" round origin in
            Alcotest.(check bool)
              (Printf.sprintf "%s visible on node %d" item node)
              true
              (require (Harness.read h ~node ~item)
              = Some (Printf.sprintf "round %d from %d" round origin))
          done
        done
      done;
      let sessions_of node =
        let c = require (Harness.counters_of h ~node) in
        List.assoc "propagation_sessions" c + List.assoc "noop_sessions" c
      in
      let total = ref 0 in
      for node = 0 to n - 1 do
        total := !total + sessions_of node
      done;
      Alcotest.(check bool) "anti-entropy actually ran concurrently" true
        (!total > n))

let suite =
  [
    Alcotest.test_case "flow: backoff ladder arithmetic" `Quick
      test_flow_arithmetic;
    Alcotest.test_case "record tagging" `Quick test_record_tagging;
    Alcotest.test_case "frame kind peek" `Quick test_frame_kind;
    Alcotest.test_case "serve_frame dispatch" `Quick test_serve_frame;
    Alcotest.test_case "sim session = in-process framed pull" `Quick
      test_sim_session_matches_frame_pull;
    Alcotest.test_case "sim: total loss abandons, fully charged" `Quick
      test_sim_total_loss_abandons;
    Alcotest.test_case "sim: first loss recovers via retry" `Quick
      test_sim_first_loss_recovers;
    Alcotest.test_case "sim: dead peer abandons" `Quick
      test_sim_dead_peer_abandons;
    Alcotest.test_case "initiator: timeline, table-driven" `Quick
      test_initiator_timeline;
    Alcotest.test_case "socket: one session over a unix socket" `Quick
      test_socket_unix_session;
    Alcotest.test_case "socket: partial writes reassemble byte-identical" `Quick
      test_socket_output_partial_writes;
    Alcotest.test_case "socket: an oversized record is refused" `Quick
      test_socket_send_oversized;
    Alcotest.test_case "daemons: a reply that cannot be sent is naked" `Quick
      test_daemon_refused_reply_naks;
    Alcotest.test_case "daemons: a control reply that cannot be sent fails" `Quick
      test_daemon_refused_control_fails;
    Alcotest.test_case "daemons: checkpoint_every 5 folds the journal" `Quick
      (test_daemon_checkpoint_every ~checkpoint_every:5 ~snapshot:true ~journal:2);
    Alcotest.test_case "daemons: checkpoint_every 0 never checkpoints" `Quick
      (test_daemon_checkpoint_every ~checkpoint_every:0 ~snapshot:false ~journal:7);
    Alcotest.test_case "daemons: a journal past its checkpoint and 1 MiB is folded" `Quick
      test_daemon_journal_outgrows_checkpoint;
    Alcotest.test_case "daemons: quiet pair reuses its session connections" `Quick
      test_daemon_quiet_pair_reuses_connections;
    Alcotest.test_case "daemons: quiet sessions allocate nothing major" `Quick
      test_daemon_quiet_session_major_heap;
    Alcotest.test_case "daemons: mute peer times out and re-dials" `Quick
      test_daemon_mute_peer_redials;
    Alcotest.test_case "daemons: a silent peer holds no round back" `Quick
      test_daemon_silent_peer_holds_no_round;
    Alcotest.test_case "daemons: a trickled reply completes without a timeout" `Quick
      test_daemon_trickling_peer_completes;
    Alcotest.test_case "daemons: 2-process unix cluster converges" `Quick
      test_daemon_pair_converges;
    Alcotest.test_case "daemons: kill -9 recovery from the WAL" `Quick
      test_daemon_crash_recovery;
    Alcotest.test_case "daemons: the harness sees a kill behind its back" `Quick
      test_harness_sees_outside_kill;
    Alcotest.test_case "daemons: kill -9 of an idle cached peer" `Quick
      test_daemon_kill_idle_cached_peer;
    Alcotest.test_case "daemons: catch-up journals each session effect once" `Quick
      test_daemon_catchup_journals_each_effect_once;
    Alcotest.test_case "daemons: a reopen folds a journal longer than its checkpoint" `Quick
      test_daemon_reopen_compacts_long_journal;
    Alcotest.test_case "daemons: a reopen compacts one tick after its catch-up round" `Quick
      test_daemon_reopen_compacts_after_catchup;
    Alcotest.test_case "daemons: a reopened node catches up at once, from one source" `Quick
      (test_daemon_reopen_catches_up_from_one_source ~ae_period:1.0);
    Alcotest.test_case "daemons: a catch-up round holds 2 ms rounds back" `Quick
      (test_daemon_reopen_catches_up_from_one_source ~ae_period:0.002);
    Alcotest.test_case "daemons: a round ships nothing twice" `Quick
      test_daemon_round_ships_nothing_twice;
    Alcotest.test_case "daemons: whole-cluster reopen still converges" `Quick
      test_daemon_whole_cluster_reopen;
    Alcotest.test_case "daemons: tcp smoke" `Quick test_daemon_tcp_smoke;
    Alcotest.test_case "wal: group commit syncs an exact prefix" `Quick
      test_group_commit_sync_prefix;
    Alcotest.test_case "daemons: 5-process soak with kill -9 under load" `Quick
      test_daemon_soak_concurrent;
  ]
