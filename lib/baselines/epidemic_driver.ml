module Cluster = Edb_core.Cluster
module Node = Edb_core.Node
module Message = Edb_core.Message
module Frame = Edb_persist.Frame
module Channel = Edb_push.Channel
module Transport = Edb_transport.Transport

(* Transported messages are real encoded frames ({!Edb_persist.Frame}):
   the engine moves opaque bytes, both endpoints run the actual
   encode/negotiate/decode path (v1 pessimistic start, v2 once
   advertised, DBVV deltas with Nak fallback), and [wire_bytes_sent]
   counts the frames' true lengths. The in-process fast path
   ([session], via {!Cluster.pull}) stays unframed and charges only the
   modeled [bytes_sent]. *)
type Driver.message += Frame_msg of string

(* The frame header is [version; advertised; kind] at payload offsets
   0-2, ahead of the 4-byte checksum trailer; kind 2 is a Nak. Locally
   produced frames are well-formed, so a raw peek suffices. *)
let is_nak = function
  | Frame_msg data -> String.length data >= 7 && Char.code data.[2] = 2
  | _ -> false

(* The push hot path, behind [Driver.push_stream]. Flushing drains a
   node's per-peer queues into real kind-3 frames — but only toward
   peers that have provably negotiated wire v2 ([Frame.push_ready]);
   queues for v1 or still-unknown peers fill and shed per the drop
   policy, exactly the no-guarantee contract. Delivery decodes the
   frame and applies each update iff causally fresh ([Node.apply_push]);
   stale, duplicate and reordered frames are no-ops, so the transport
   may fault them freely. *)
let push_stream cluster channels =
  {
    Driver.flush =
      (fun ~src ->
        let node = Cluster.node cluster src in
        let batches =
          Channel.flush channels.(src) ~ready:(fun peer ->
              Frame.push_ready node ~dst:peer)
        in
        List.map
          (fun (dst, updates) ->
            let frame = Frame.encode_push node ~dst updates in
            (* Charged through Edb_transport.Transport.Charge, next to
               the request and dial charges every transport shares. *)
            Transport.Charge.push node ~updates frame;
            (dst, Frame_msg frame))
          batches);
    deliver =
      (fun ~dst ~src msg ->
        match msg with
        | Frame_msg frame ->
          let node = Cluster.node cluster dst in
          let updates = Frame.decode_push node ~src frame in
          List.iter
            (fun u ->
              let (_ : [ `Applied | `Stale ]) = Node.apply_push node ~source:src u in
              ())
            updates
        | _ -> invalid_arg "Epidemic_driver.deliver: not a push frame");
  }

let create ?seed ?policy ?mode ?cache ?shards ?push ~n () =
  let cluster = Cluster.create ?seed ?policy ?mode ?cache ?shards ~n () in
  let push_stream =
    match push with
    | None -> None
    | Some config ->
      let channels =
        Array.init n (fun i -> Channel.create ~config (Cluster.node cluster i))
      in
      Some (push_stream cluster channels)
  in
  let granular =
    {
      Driver.make_request =
        (fun ~dst ~src ->
          (* The frame owns its bytes, so unlike the old in-memory
             transport no vector copying is needed: encoding serializes
             the live DBVV immediately, and delivery-time mutations of
             the node cannot reach the encoded request. Each retry
             re-encodes (fresh request id, current vectors). *)
          let node = Cluster.node cluster dst in
          let frame = Frame.encode_request node ~dst:src in
          Transport.Charge.request node frame;
          Frame_msg frame);
      make_reply =
        (fun ~src ~dst msg ->
          match msg with
          | Frame_msg frame ->
            (* [respond] answers an undecodable request (lost delta
               baseline after a crash or slot eviction) with a Nak and
               charges the source's counters either way. *)
            Frame_msg (Frame.respond (Cluster.node cluster src) ~src:dst frame)
          | _ -> invalid_arg "Epidemic_driver.make_reply: not a request frame");
      accept_reply =
        (fun ~dst ~src msg ->
          match msg with
          | Frame_msg frame -> (
            match Frame.decode_reply (Cluster.node cluster dst) ~src frame with
            | Frame.Nak _ ->
              (* The decode already dropped the delta baseline; the next
                 attempt or session ships an absolute vector. The nak'd
                 session itself propagates nothing — anti-entropy
                 repeats, so this costs a round, not convergence. *)
              ()
            | Frame.Reply (Message.You_are_current, _) -> ()
            | Frame.Reply
                (((Message.Propagate _ | Message.Propagate_sharded _) as reply), _)
              ->
              (* AcceptPropagation's per-item dominance checks make
                 duplicate and stale deliveries no-ops, which is what
                 lets the transport redeliver freely. *)
              let (_ : Node.accept_result) =
                Node.accept_propagation (Cluster.node cluster dst) ~source:src
                  reply
              in
              ())
          | _ -> invalid_arg "Epidemic_driver.accept_reply: not a reply frame");
    }
  in
  let driver =
    {
      Driver.name = "dbvv";
      n;
      update = (fun ~node ~item ~op -> Cluster.update cluster ~node ~item op);
      session =
        (fun ~src ~dst ->
          let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:dst ~source:src in
          ());
      read = (fun ~node ~item -> Cluster.read cluster ~node ~item);
      counters = (fun ~node -> Node.counters (Cluster.node cluster node));
      total_counters = (fun () -> Cluster.total_counters cluster);
      reset_counters = (fun () -> Cluster.reset_counters cluster);
      converged = (fun () -> Cluster.converged cluster);
      granular = Some granular;
      push = push_stream;
    }
  in
  (cluster, driver)
