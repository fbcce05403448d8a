module Vv = Edb_vv.Version_vector
module Message = Edb_core.Message
module Node = Edb_core.Node
module Peer_cache = Edb_core.Peer_cache
module Wire_state = Edb_core.Peer_cache.Wire_state
module Counters = Edb_metrics.Counters
module W = Codec.Writer
module R = Codec.Reader

let corrupt fmt = Printf.ksprintf (fun msg -> raise (R.Corrupt msg)) fmt

let max_version = 2

(* Frame layout, inside the usual Codec envelope (Adler-32 trailer):

     byte  version     codec version of the body (1 or 2)
     byte  advertised  sender's own maximum version
     byte  kind        0 = request, 1 = reply, 2 = nak
     ...               v2 only: varint request id
     ...               body ({!Wire} for v1, {!Wire_v2} for v2)

   Negotiation is pessimistic-start: a node speaks v1 to a peer until
   a decoded frame proves the peer advertises higher, so the first
   request of a session pair is always v1 but its reply can already be
   v2 (the request carried the requester's advertisement). Baselines,
   like the rest of {!Edb_core.Peer_cache}, are volatile — crash
   recovery forgets them and sessions restart at v1/absolute, which is
   the whole safety argument (DESIGN.md §8). *)

let kind_request = 0

let kind_reply = 1

let kind_nak = 2

(* One-way best-effort push frame (DESIGN.md §10). v2-only: it exists
   only after negotiation has proven both ends speak v2, so it never
   needs a v1 form and a v1 peer never sees one. *)
let kind_push = 3

type decoded_reply = Reply of Message.propagation_reply * int | Nak of int

let wire_state node ~peer = Peer_cache.wire_state (Node.peer_cache node) ~peer

let negotiated node (st : Wire_state.t) = min (Node.wire_version node) st.peer_version

let header w ~version ~own ~kind =
  W.byte w version;
  W.byte w (min own 0xFF);
  W.byte w kind

let decode_header r =
  let version = R.byte r in
  if version < 1 || version > max_version then
    corrupt "unsupported frame version %d" version;
  let advertised = R.byte r in
  if advertised < 1 then corrupt "frame advertises version %d" advertised;
  let kind = R.byte r in
  if
    kind <> kind_request && kind <> kind_reply && kind <> kind_nak
    && kind <> kind_push
  then corrupt "unknown frame kind %d" kind;
  if kind = kind_push && version < 2 then
    corrupt "push frame at codec version %d" version;
  (version, advertised, kind)

(* Dimension and shard hygiene: a frame that decodes structurally but
   does not fit this node's cluster shape must surface as [Corrupt]
   (answered by a Nak / dropped session), never as an
   [Invalid_argument] from deep inside vector merging. The v2 decoders
   check dimensions as they read; the v1 forms encode them, so they
   are checked here. *)
let validate_request ~n ~shards (req : Message.propagation_request) =
  if req.recipient < 0 || req.recipient >= n then
    corrupt "request recipient %d outside cluster of %d" req.recipient n;
  if Vv.dimension req.recipient_dbvv <> n then
    corrupt "request DBVV dimension %d, expected %d"
      (Vv.dimension req.recipient_dbvv) n;
  let sc = Array.length req.recipient_shard_dbvvs in
  if sc <> 0 && sc <> shards then
    corrupt "request carries %d shard DBVVs, expected 0 or %d" sc shards;
  Array.iter
    (fun vv ->
      if Vv.dimension vv <> n then
        corrupt "request shard DBVV dimension %d, expected %d" (Vv.dimension vv)
          n)
    req.recipient_shard_dbvvs

let validate_reply ~n ~shards (reply : Message.propagation_reply) =
  let check_tails tails =
    if Array.length tails <> n then
      corrupt "reply tail vector dimension %d, expected %d" (Array.length tails)
        n;
    Array.iter
      (fun tail ->
        List.iter
          (fun (record : Edb_log.Log_record.t) ->
            if record.seq < 1 then corrupt "reply log record sequence below 1")
          tail)
      tails
  in
  let check_items items =
    List.iter
      (fun (s : Message.shipped_item) ->
        if Vv.dimension s.ivv <> n then
          corrupt "shipped item %S IVV dimension %d, expected %d" s.name
            (Vv.dimension s.ivv) n;
        match s.payload with
        | Message.Whole _ -> ()
        | Message.Delta ops ->
          List.iter
            (fun (dop : Message.delta_op) ->
              if dop.origin < 0 || dop.origin >= n then
                corrupt "delta-op origin %d outside dimension %d" dop.origin n)
            ops)
      items
  in
  match reply with
  | Message.You_are_current -> ()
  | Message.Propagate { tails; items } ->
    check_tails tails;
    check_items items
  | Message.Propagate_sharded deltas ->
    List.iter
      (fun (d : Message.shard_delta) ->
        if d.shard < 0 || d.shard >= shards then
          corrupt "shard delta for shard %d, node has %d" d.shard shards;
        check_tails d.tails;
        check_items d.items)
      deltas

(* ------------------------------------------------------------------ *)
(* Requester side                                                      *)
(* ------------------------------------------------------------------ *)

let encode_request node ~dst =
  let st = wire_state node ~peer:dst in
  let version = negotiated node st in
  let req = Node.propagation_request node in
  W.with_scratch (fun w ->
      header w ~version ~own:(Node.wire_version node) ~kind:kind_request;
      if version >= 2 then begin
        let id = st.next_id in
        st.next_id <- id + 1;
        W.varint w id;
        let baseline =
          match st.acked with Some b -> Some (b.id, b.vv) | None -> None
        in
        Wire_v2.encode_propagation_request w ?baseline req;
        (* The baseline for future deltas must be a stable copy: the
           node's live DBVV keeps growing under it. *)
        st.last_sent <-
          Some { Wire_state.id; vv = Vv.copy req.recipient_dbvv }
      end
      else Wire.encode_propagation_request w req;
      W.contents w)

let decode_reply node ~src data =
  let r = R.create data in
  let version, advertised, kind = decode_header r in
  let st = wire_state node ~peer:src in
  st.peer_version <- advertised;
  let req_id = if version >= 2 then R.varint r else 0 in
  if req_id < 0 then corrupt "negative request id %d" req_id;
  match kind with
  | k when k = kind_nak ->
    R.expect_end r;
    (* The source could not decode our request — it lost the baseline
       (restart, slot eviction under reordering). Dropping [acked]
       makes the retry ship an absolute vector, restoring liveness. *)
    (match st.last_sent with
    | Some b when req_id = 0 || b.id = req_id -> st.acked <- None
    | _ -> ());
    Nak req_id
  | k when k = kind_reply ->
    let n = Node.dimension node in
    let reply =
      if version >= 2 then Wire_v2.decode_propagation_reply r ~n
      else Wire.decode_propagation_reply r
    in
    R.expect_end r;
    validate_reply ~n ~shards:(Node.shards node) reply;
    (* A reply echoing our newest request id proves the peer decoded
       that request and now stores its DBVV — from here on it is a
       sound delta baseline. Replies to older requests prove nothing
       about what the peer still has, so only [last_sent] can ack. *)
    (match st.last_sent with
    | Some b when req_id > 0 && b.id = req_id -> st.acked <- Some b
    | _ -> ());
    Reply (reply, req_id)
  | _ -> corrupt "expected a reply frame, got a request"

(* ------------------------------------------------------------------ *)
(* Source side                                                         *)
(* ------------------------------------------------------------------ *)

let decode_request node ~src data =
  let r = R.create data in
  let version, advertised, kind = decode_header r in
  let st = wire_state node ~peer:src in
  st.peer_version <- advertised;
  if kind <> kind_request then corrupt "expected a request frame";
  let n = Node.dimension node in
  if version >= 2 then begin
    let req_id = R.varint r in
    if req_id < 1 then corrupt "request id %d below 1" req_id;
    let resolve id =
      match (st.committed, st.candidate) with
      | Some b, _ when b.Wire_state.id = id -> Some b.vv
      | _, Some b when b.Wire_state.id = id -> Some b.vv
      | _ -> None
    in
    let req, used_baseline = Wire_v2.decode_propagation_request r ~n ~resolve in
    R.expect_end r;
    validate_request ~n ~shards:(Node.shards node) req;
    (* Two-slot retention. The newest decoded request always becomes
       [candidate]. A request that referenced [candidate] proves the
       requester saw that request's reply while building this one, so
       the older slot can never be referenced again — promote it to
       [committed] and retire the previous committed vector. Under
       reordering a still-referenced slot can be evicted; the decode
       mismatch that causes is answered by a Nak, and the requester
       falls back to absolute (liveness, not safety). *)
    (match used_baseline with
    | Some id -> (
      match st.candidate with
      | Some c when c.Wire_state.id = id -> st.committed <- Some c
      | _ -> ())
    | None -> ());
    st.candidate <- Some { Wire_state.id = req_id; vv = req.recipient_dbvv };
    (req, req_id)
  end
  else begin
    let req = Wire.decode_propagation_request r in
    R.expect_end r;
    validate_request ~n ~shards:(Node.shards node) req;
    (req, 0)
  end

let encode_reply node ~dst ~req_id reply =
  let st = wire_state node ~peer:dst in
  let version = negotiated node st in
  W.with_scratch (fun w ->
      header w ~version ~own:(Node.wire_version node) ~kind:kind_reply;
      if version >= 2 then begin
        W.varint w req_id;
        Wire_v2.encode_propagation_reply w reply
      end
      else Wire.encode_propagation_reply w reply;
      W.contents w)

let encode_nak node ~dst ~req_id =
  let st = wire_state node ~peer:dst in
  let version = negotiated node st in
  W.with_scratch (fun w ->
      header w ~version ~own:(Node.wire_version node) ~kind:kind_nak;
      if version >= 2 then W.varint w req_id;
      W.contents w)

(* Best-effort request id from a frame that failed to decode: enough
   header usually survives (the envelope checksum passed, so if the
   body is unreadable it is a semantic mismatch like a lost baseline,
   not bit rot). *)
let request_id_of_frame data =
  match
    let r = R.create data in
    let version, _advertised, kind = decode_header r in
    if version >= 2 && kind = kind_request then R.varint r else 0
  with
  | id when id > 0 -> id
  | _ -> 0
  | exception R.Corrupt _ -> 0

let respond ?(domains = 1) node ~src frame =
  let c = Node.counters node in
  let out =
    match decode_request node ~src frame with
    | req, req_id ->
      let reply = Node.handle_propagation_request ~domains node req in
      c.bytes_sent <- c.bytes_sent + Message.reply_bytes reply;
      encode_reply node ~dst:src ~req_id reply
    | exception R.Corrupt _ ->
      (* Nak: modeled as one id-sized field, like You_are_current. *)
      c.bytes_sent <- c.bytes_sent + Message.reply_bytes Message.You_are_current;
      encode_nak node ~dst:src ~req_id:(request_id_of_frame frame)
  in
  c.messages <- c.messages + 1;
  c.wire_bytes_sent <- c.wire_bytes_sent + String.length out;
  out

(* ------------------------------------------------------------------ *)
(* Push frames (one-way, best-effort)                                  *)
(* ------------------------------------------------------------------ *)

(* The stream only flows to peers proven to speak v2: our own version
   allows it and a decoded frame from [dst] advertised >= 2. Until
   then the channel's queue for that peer fills and sheds — latency
   lost, never correctness. *)
let push_ready node ~dst =
  Node.wire_version node >= 2 && (wire_state node ~peer:dst).peer_version >= 2

let encode_push node ~dst updates =
  let st = wire_state node ~peer:dst in
  if negotiated node st < 2 then
    invalid_arg "Frame.encode_push: peer has not negotiated wire v2";
  W.with_scratch (fun w ->
      header w ~version:2 ~own:(Node.wire_version node) ~kind:kind_push;
      (* The request-id slot every v2 frame carries; pushes are one-way
         and unacknowledged, so it is always zero. *)
      W.varint w 0;
      Wire_v2.encode_push w updates;
      W.contents w)

let decode_push node ~src data =
  let r = R.create data in
  let version, advertised, kind = decode_header r in
  let st = wire_state node ~peer:src in
  st.peer_version <- advertised;
  if kind <> kind_push then corrupt "expected a push frame, got kind %d" kind;
  if version < 2 then corrupt "push frame at codec version %d" version;
  let req_id = R.varint r in
  if req_id <> 0 then corrupt "push frame carries request id %d" req_id;
  let n = Node.dimension node in
  let updates = Wire_v2.decode_push r ~n in
  R.expect_end r;
  updates

(* ------------------------------------------------------------------ *)
(* Framing over byte streams                                           *)
(* ------------------------------------------------------------------ *)

(* A frame is self-checking (Adler-32 trailer) but not self-delimiting,
   so a byte stream needs a length prefix: 4-byte little-endian record
   length, then the record bytes. The reader accumulates arbitrary
   chunks — a TCP segment can end mid-prefix, mid-header or mid-checksum
   — and yields complete records; validation of the record itself stays
   with the frame decoders. *)

let max_stream_record = 1 lsl 26 (* 64 MiB: no legitimate frame comes close *)

let wire_length record =
  let len = String.length record in
  if len > max_stream_record then invalid_arg "Frame.to_wire: record too large";
  4 + len

let blit_wire record buf off =
  let len = String.length record in
  Bytes.set_int32_le buf off (Int32.of_int len);
  Bytes.blit_string record 0 buf (off + 4) len

let to_wire record =
  let buf = Bytes.create (wire_length record) in
  blit_wire record buf 0;
  Bytes.unsafe_to_string buf

module Reader = struct
  (* Unconsumed bytes are [buf.[pos, len)]: [next] only advances [pos],
     and the consumed prefix is reclaimed once per [feed], so a chunk
     carrying k records costs O(bytes), not O(k * bytes). *)
  type t = { mutable buf : Bytes.t; mutable pos : int; mutable len : int }

  (* Empty until the first feed sizes it: a connection that never
     receives a record never allocates a buffer. *)
  let create () = { buf = Bytes.empty; pos = 0; len = 0 }

  let pending t = t.len - t.pos

  let feed t ?(off = 0) ?len data =
    let len = match len with Some l -> l | None -> String.length data - off in
    if off < 0 || len < 0 || off + len > String.length data then
      invalid_arg "Frame.Reader.feed: bad slice";
    let live = pending t in
    let needed = live + len in
    if needed > Bytes.length t.buf then begin
      let bigger = Bytes.create (max needed (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf t.pos bigger 0 live;
      t.buf <- bigger
    end
    else if t.pos > 0 then Bytes.blit t.buf t.pos t.buf 0 live;
    t.pos <- 0;
    Bytes.blit_string data off t.buf live len;
    t.len <- needed

  let next t =
    if pending t < 4 then None
    else begin
      let claimed = Int32.to_int (Bytes.get_int32_le t.buf t.pos) land 0xFFFFFFFF in
      if claimed > max_stream_record then
        raise
          (R.Corrupt
             (Printf.sprintf "stream record claims %d bytes (max %d)" claimed
                max_stream_record));
      if pending t - 4 < claimed then None
      else begin
        let record = Bytes.sub_string t.buf (t.pos + 4) claimed in
        t.pos <- t.pos + 4 + claimed;
        if t.pos = t.len then begin
          t.pos <- 0;
          t.len <- 0
        end;
        Some record
      end
    end
end

(* ------------------------------------------------------------------ *)
(* In-process framed sessions                                          *)
(* ------------------------------------------------------------------ *)

let pull ?(domains = 1) ~recipient ~source () =
  if Node.shards recipient <> Node.shards source then
    invalid_arg "Frame.pull: recipient and source shard counts differ";
  let rc = Node.counters recipient in
  let round () =
    let frame = encode_request recipient ~dst:(Node.id source) in
    rc.messages <- rc.messages + 1;
    rc.bytes_sent <-
      rc.bytes_sent + Message.request_bytes (Node.propagation_request recipient);
    rc.wire_bytes_sent <- rc.wire_bytes_sent + String.length frame;
    let reply_frame = respond ~domains source ~src:(Node.id recipient) frame in
    decode_reply recipient ~src:(Node.id source) reply_frame
  in
  let apply = function
    | Reply (Message.You_are_current, _) -> Node.Already_current
    | Reply (((Message.Propagate _ | Message.Propagate_sharded _) as reply), _)
      ->
      Node.Pulled
        (Node.accept_propagation ~domains recipient ~source:(Node.id source)
           reply)
    | Nak _ ->
      (* Unreachable after an absolute retry: an absolute request
         cannot reference a lost baseline, and in-process delivery
         cannot corrupt bytes. *)
      corrupt "Frame.pull: absolute request rejected"
  in
  match round () with
  | Nak _ ->
    (* The source lost our baseline; the Nak already cleared [acked],
       so this retry ships an absolute vector. *)
    apply (round ())
  | r -> apply r

let sync_pair ?(domains = 1) a b =
  let (_ : Node.pull_result) = pull ~domains ~recipient:a ~source:b () in
  let (_ : Node.pull_result) = pull ~domains ~recipient:b ~source:a () in
  ()

(* ------------------------------------------------------------------ *)
(* Pretty-printing (edb_cli wire)                                      *)
(* ------------------------------------------------------------------ *)

let pp_vv_array buf a =
  Buffer.add_char buf '<';
  Array.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v))
    a;
  Buffer.add_char buf '>'

let describe ?n data =
  let buf = Buffer.create 256 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let r = R.create data in
  let version, advertised, kind = decode_header r in
  out "frame: version %d, advertises %d, %s\n" version advertised
    (match kind with 0 -> "request" | 1 -> "reply" | 3 -> "push" | _ -> "nak");
  let req_id = if version >= 2 then R.varint r else 0 in
  if version >= 2 then out "request id: %d\n" req_id;
  let dim =
    match n with
    | Some n -> n
    | None ->
      (* v1 bodies encode their dimensions; v2 bodies need one. *)
      if version >= 2 then
        corrupt "a v2 frame needs the cluster dimension (pass -n)"
      else 0
  in
  let describe_reply (reply : Message.propagation_reply) =
    let tails_total tails =
      Array.fold_left (fun acc tail -> acc + List.length tail) 0 tails
    in
    let shipped items =
      List.iter
        (fun (s : Message.shipped_item) ->
          out "    item %S: %s, ivv " s.name
            (match s.payload with
            | Message.Whole v -> Printf.sprintf "whole value (%d bytes)" (String.length v)
            | Message.Delta ops -> Printf.sprintf "%d delta ops" (List.length ops));
          pp_vv_array buf (Vv.to_array s.ivv);
          out "\n")
        items
    in
    match reply with
    | Message.You_are_current -> out "you-are-current\n"
    | Message.Propagate { tails; items } ->
      out "propagate: %d log records, %d items\n" (tails_total tails)
        (List.length items);
      shipped items
    | Message.Propagate_sharded deltas ->
      out "propagate (sharded): %d shard deltas\n" (List.length deltas);
      List.iter
        (fun (d : Message.shard_delta) ->
          out "  shard %d: %d log records, %d items\n" d.shard
            (tails_total d.tails) (List.length d.items);
          shipped d.items)
        deltas
  in
  (match kind with
  | 0 ->
    if version >= 2 then begin
      let recipient = R.varint r in
      out "recipient: %d\n" recipient;
      (match R.byte r with
      | 0 ->
        let vv = Wire_v2.decode_vv r ~n:dim in
        out "dbvv (absolute): ";
        pp_vv_array buf (Vv.to_array vv);
        out "\n"
      | 1 ->
        (* A delta cannot be resolved without the source's slots;
           print it symbolically. *)
        let id = R.varint r in
        let sum = R.varint r in
        out "dbvv (delta against baseline %d, checksum %#x):\n" id sum;
        let count = R.varint r in
        out "  %d changed components:" count;
        for _ = 1 to count do
          let j = R.varint r in
          let d = R.varint r in
          out " +%d@%d" d j
        done;
        out "\n"
      | tag -> corrupt "unknown request-DBVV tag %d" tag);
      let shard_count = R.varint r in
      out "shard dbvvs: %d\n" shard_count;
      for s = 0 to shard_count - 1 do
        let vv = Wire_v2.decode_vv r ~n:dim in
        out "  shard %d: " s;
        pp_vv_array buf (Vv.to_array vv);
        out "\n"
      done
    end
    else begin
      let req = Wire.decode_propagation_request r in
      out "recipient: %d\ndbvv: " req.recipient;
      pp_vv_array buf (Vv.to_array req.recipient_dbvv);
      out "\nshard dbvvs: %d\n" (Array.length req.recipient_shard_dbvvs);
      Array.iteri
        (fun s vv ->
          out "  shard %d: " s;
          pp_vv_array buf (Vv.to_array vv);
          out "\n")
        req.recipient_shard_dbvvs
    end
  | 1 ->
    describe_reply
      (if version >= 2 then Wire_v2.decode_propagation_reply r ~n:dim
       else Wire.decode_propagation_reply r)
  | 3 ->
    let updates = Wire_v2.decode_push r ~n:dim in
    out "push: %d updates\n" (List.length updates);
    List.iter
      (fun (u : Message.push_update) ->
        out "  item %S: seq %d, value %d bytes, ivv " u.item u.seq
          (String.length u.value);
        pp_vv_array buf (Vv.to_array u.ivv);
        out "\n")
      updates
  | _ -> ());
  R.expect_end r;
  Buffer.contents buf
