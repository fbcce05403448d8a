module Prng = Edb_util.Prng
module Driver = Edb_baselines.Driver
module Counters = Edb_metrics.Counters
module Transport = Edb_transport.Transport
module Initiator = Transport.Initiator

type peer_policy = Random_peer | Ring

(* Message-granular transport: per-attempt timeout, bounded exponential
   backoff with jitter (drawn from the engine PRNG, so runs replay from
   the seed), and a retry budget after which the session is abandoned
   to a later anti-entropy round — the paper's recovery story. The
   policy and its timeout/backoff arithmetic are the transport seam's
   ({!Edb_transport.Transport}), shared with the socket daemon; this
   engine re-exports the canonical type. *)
type retry_policy = Transport.retry_policy = {
  timeout : float;
  backoff_base : float;
  backoff_factor : float;
  backoff_max : float;
  jitter : float;
  max_retries : int;
}

let default_retry_policy = Transport.default_retry_policy

type transport = Session_grain | Message_grain of retry_policy

(* One in-flight message-granular session, driving the shared
   {!Transport.Initiator} machine. Completion removes the entry from the
   table; everything arriving afterwards (late replies from superseded
   attempts, duplicates) is still applied — the protocol must be
   idempotent — but no longer drives the session machinery. *)
type session_state = {
  s_src : int;  (* data source: answers the request *)
  s_dst : int;  (* initiator/recipient: sends the request, accepts the reply *)
  machine : Initiator.t;
}

type event =
  | User_update of { node : int; item : string; op : Edb_store.Operation.t }
  | Session of { src : int; dst : int }
  | Session_delivery of { src : int; dst : int }
  | Request_delivery of { sid : int; src : int; dst : int; msg : Driver.message }
  | Reply_delivery of { sid : int; src : int; dst : int; msg : Driver.message }
  | Session_timer of { sid : int }
  | Push_flush of { period : float; until : float }
  | Push_delivery of { src : int; dst : int; msg : Driver.message }
  | Crash of int
  | Recover of int
  | Anti_entropy_round of { period : float; policy : peer_policy }
  | Custom of (t -> unit)

and t = {
  queue : event Event_queue.t;
  mutable now : float;
  prng : Prng.t;
  push_prng : Prng.t;
      (* Push traffic draws its network randomness from a separate
         stream derived from the seed, so enabling or disabling the push
         channel never perturbs the main stream — a push-off run and a
         push-on run see identical session loss/delay/duplication draws,
         which is what the push-equivalence explorer relies on. *)
  driver : Driver.t;
  network : Network.t;
  transport : transport;
  alive : bool array;
  sessions : (int, session_state) Hashtbl.t;
  mutable next_sid : int;
  mutable sessions_attempted : int;
  mutable sessions_lost : int;
}

let create ?(seed = 1) ?network ?(transport = Session_grain) ~driver () =
  let network = match network with Some n -> n | None -> Network.create () in
  (match transport with
  | Session_grain -> ()
  | Message_grain _ ->
    if driver.Driver.granular = None then
      invalid_arg "Engine.create: driver has no message-granular support");
  {
    queue = Event_queue.create ();
    now = 0.0;
    prng = Prng.create ~seed;
    push_prng = Prng.create ~seed:(seed lxor 0x70757368) (* "push" *);
    driver;
    network;
    transport;
    alive = Array.make driver.Driver.n true;
    sessions = Hashtbl.create 16;
    next_sid = 0;
    sessions_attempted = 0;
    sessions_lost = 0;
  }

let driver t = t.driver

let now t = t.now

let alive t node = t.alive.(node)

let schedule t ~at event =
  if at < t.now then invalid_arg "Engine.schedule: event in the past";
  Event_queue.push t.queue ~time:at event

let schedule_after t ~delay event = schedule t ~at:(t.now +. delay) event

let random_peer t ~self =
  let n = t.driver.Driver.n in
  let peer = Prng.int t.prng (n - 1) in
  if peer >= self then peer + 1 else peer

let granular t =
  match t.driver.Driver.granular with
  | Some g -> g
  | None -> assert false (* checked in [create] *)

(* One directed hop [from_] -> [to_] carrying [event], faulted with
   draws from [prng] — the main stream, or [push_prng] for push frames.
   The draw order is load-bearing, since replayed explorer schedules
   depend on it: a blocked pair short-circuits every draw; otherwise
   draw loss, then a delay for the delivery, then duplication, then a
   delay for the duplicate. [false] when nothing was scheduled. *)
let send t ~prng ~from_ ~to_ event =
  (not (Network.blocked t.network from_ to_))
  && (not (Network.lost t.network prng))
  && begin
       let delay = Network.delay t.network prng in
       schedule_after t ~delay event;
       if Network.duplicated t.network prng then
         schedule_after t ~delay:(Network.delay t.network prng) event;
       true
     end

(* Carry out one action of session [sid]'s machine. A send is one
   transport dial, charged like the socket transport charges connect(2):
   the first opens, re-sends after a timeout are the retry subset. A
   dead initiator sends nothing, but its deadline is still armed so the
   session eventually completes or abandons. *)
let rec drive t sid st = function
  | Initiator.Send attempt ->
    if t.alive.(st.s_dst) then begin
      Transport.Charge.dial ~retry:(attempt > 0) (t.driver.Driver.counters ~node:st.s_dst);
      let msg = (granular t).Driver.make_request ~dst:st.s_dst ~src:st.s_src in
      ignore
        (send t ~prng:t.prng ~from_:st.s_dst ~to_:st.s_src
           (Request_delivery { sid; src = st.s_src; dst = st.s_dst; msg }))
    end;
    drive t sid st (Initiator.sent st.machine ~now:t.now)
  | Initiator.Wake_at at -> schedule t ~at (Session_timer { sid })
  | Initiator.Completed ->
    t.sessions_attempted <- t.sessions_attempted + 1;
    Hashtbl.remove t.sessions sid
  | Initiator.Abandoned ->
    t.sessions_lost <- t.sessions_lost + 1;
    Hashtbl.remove t.sessions sid

let rec execute t event =
  match event with
  | User_update { node; item; op } ->
    if t.alive.(node) then t.driver.Driver.update ~node ~item ~op
  | Session { src; dst } -> (
    match t.transport with
    | Message_grain policy ->
      (* Message-granular: the initiator must be up to issue the
         request; everything after that — loss of either message,
         endpoint crashes between messages, duplicates, reordering —
         is handled per hop, backed by the timeout/retry machinery. *)
      if t.alive.(dst) then begin
        let sid = t.next_sid in
        t.next_sid <- sid + 1;
        let machine, first = Initiator.start policy in
        let st = { s_src = src; s_dst = dst; machine } in
        Hashtbl.add t.sessions sid st;
        drive t sid st first
      end
      else t.sessions_lost <- t.sessions_lost + 1
    | Session_grain ->
      (* A session only begins if the initiating endpoints are up and the
         pair is not partitioned; the network may still lose it, and may
         deliver it twice (each copy with its own delay). *)
      if
        not
          (t.alive.(src) && t.alive.(dst)
          && send t ~prng:t.prng ~from_:src ~to_:dst (Session_delivery { src; dst }))
      then t.sessions_lost <- t.sessions_lost + 1)
  | Session_delivery { src; dst } ->
    (* Endpoints may have died while the session was in flight. *)
    if t.alive.(src) && t.alive.(dst) then begin
      t.sessions_attempted <- t.sessions_attempted + 1;
      t.driver.Driver.session ~src ~dst
    end
    else t.sessions_lost <- t.sessions_lost + 1
  | Request_delivery { sid; src; dst; msg } ->
    (* The request reaches the data source, which answers it whether or
       not the session has since completed or been abandoned (a real
       responder cannot know). Duplicate requests produce duplicate
       replies; both are charged — that is the honest message cost. *)
    if t.alive.(src) then begin
      let reply = (granular t).Driver.make_reply ~src ~dst msg in
      ignore
        (send t ~prng:t.prng ~from_:src ~to_:dst (Reply_delivery { sid; src; dst; msg = reply }))
    end
  | Reply_delivery { sid; src; dst; msg } ->
    if t.alive.(dst) then begin
      (* Apply unconditionally — duplicates and replies from superseded
         or abandoned attempts included. AcceptPropagation's dominance
         checks make redelivery a no-op, and the chaos explorer
         verifies exactly that. *)
      (granular t).Driver.accept_reply ~dst ~src msg;
      match Hashtbl.find_opt t.sessions sid with
      | Some st ->
        (* First reply completes the session: stop the retry machinery. *)
        drive t sid st (Initiator.reply st.machine)
      | None -> ()
    end
  | Session_timer { sid } -> (
    match Hashtbl.find_opt t.sessions sid with
    | None -> () (* completed or abandoned; stale clock *)
    | Some st ->
      (* Only the jitter draw stays here, on the engine PRNG, so
         schedules replay from the seed. *)
      drive t sid st
        (Initiator.timer st.machine
           ~counters:(t.driver.Driver.counters ~node:st.s_dst)
           ~now:t.now
           ~jitter:(fun () -> Prng.float t.prng 1.0)))
  | Push_flush { period; until } -> (
    match t.driver.Driver.push with
    | None -> invalid_arg "Engine: Push_flush scheduled but the driver has no push stream"
    | Some stream ->
      (* Every alive node drains its queues; each resulting one-way
         frame is its own network message (lost, delayed, duplicated
         independently) with no timeout, no retry, no acknowledgement —
         a dropped push is simply repaired by anti-entropy later. *)
      for src = 0 to t.driver.Driver.n - 1 do
        if t.alive.(src) then
          List.iter
            (fun (dst, msg) ->
              (* Each flushed frame is one fire-and-forget dial — never
                 a retry; push has no acknowledgement to time out on. *)
              Transport.Charge.dial (t.driver.Driver.counters ~node:src);
              ignore
                (send t ~prng:t.push_prng ~from_:src ~to_:dst (Push_delivery { src; dst; msg })))
            (stream.Driver.flush ~src)
      done;
      if t.now +. period <= until then
        schedule_after t ~delay:period (Push_flush { period; until }))
  | Push_delivery { src; dst; msg } ->
    if t.alive.(dst) then begin
      match t.driver.Driver.push with
      | Some stream -> stream.Driver.deliver ~dst ~src msg
      | None -> assert false (* only scheduled by Push_flush *)
    end
  | Crash node -> t.alive.(node) <- false
  | Recover node -> t.alive.(node) <- true
  | Anti_entropy_round { period; policy } ->
    let n = t.driver.Driver.n in
    for dst = 0 to n - 1 do
      if t.alive.(dst) then begin
        let src =
          match policy with
          | Random_peer -> random_peer t ~self:dst
          | Ring -> (dst + n - 1) mod n
        in
        execute_session_start t ~src ~dst
      end
    done;
    schedule_after t ~delay:period (Anti_entropy_round { period; policy })
  | Custom f -> f t

and execute_session_start t ~src ~dst = execute t (Session { src; dst })

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, event) ->
    t.now <- max t.now time;
    execute t event;
    true

let run_until t deadline =
  let rec loop () =
    match Event_queue.peek_time t.queue with
    | Some time when time <= deadline ->
      let (_ : bool) = step t in
      loop ()
    | Some _ | None -> ()
  in
  loop ();
  t.now <- max t.now deadline

let run_until_quiescent ?(max_events = 100_000) t =
  let rec loop budget =
    if budget <= 0 then false else if step t then loop (budget - 1) else true
  in
  loop max_events

let run_until_converged t ~check_every ~deadline =
  let rec loop checkpoint =
    if checkpoint > deadline then None
    else begin
      run_until t checkpoint;
      if t.driver.Driver.converged () then Some checkpoint
      else loop (checkpoint +. check_every)
    end
  in
  (* Always process at least one checkpoint: convergence is only
     meaningful once the events due now have executed. *)
  loop (t.now +. check_every)

let sessions_attempted t = t.sessions_attempted

let sessions_lost t = t.sessions_lost

let sessions_in_flight t = Hashtbl.length t.sessions
