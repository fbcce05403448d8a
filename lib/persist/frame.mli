(** Message framing and wire-codec version negotiation (DESIGN.md §8).

    A frame is one session message inside the {!Codec} envelope:
    a three-byte header — body version, sender's advertised maximum
    version, kind (request / reply / nak) — then a v2 request id
    (v2 frames only) and the body in {!Wire} (v1) or {!Wire_v2} (v2)
    form.

    Negotiation starts pessimistic: every node speaks v1 to a peer
    until a frame decoded from that peer advertises higher (recorded in
    {!Edb_core.Peer_cache.Wire_state}). The first request between two
    fresh nodes is therefore v1, but its reply can already be v2. A
    pinned-v1 node ({!Edb_core.Node.set_wire_version}) interoperates
    transparently; the durable formats (WAL, snapshots) always use v1
    and never see frames.

    The v2 request may carry its DBVV as a delta against a {e baseline}
    — the vector of an earlier request the peer has provably decoded
    (its reply echoed that request's id) and still retains (two
    retention slots per peer; see {!decode_request}). A source that
    cannot resolve a baseline answers with a {e Nak}, which makes the
    requester drop its baseline and retry absolute — lost state costs
    one round trip, never correctness. All baseline state lives in the
    volatile peer cache, so crash recovery resets to v1/absolute.

    Decoders raise {!Codec.Reader.Corrupt} (and nothing else) on any
    malformed, truncated, or unresolvable frame. *)

val max_version : int
(** The newest wire-codec version this build speaks (2). Equals
    [Edb_core.Peer_cache]'s default advertised version (asserted in the
    test suite). *)

type decoded_reply =
  | Reply of Edb_core.Message.propagation_reply * int
      (** The reply and the echoed request id (0 from v1 frames). *)
  | Nak of int
      (** The source could not decode the request (echoing its id when
          known); the requester's baseline has been dropped, retry
          absolute. *)

val encode_request : Edb_core.Node.t -> dst:int -> string
(** Build and encode this node's propagation request for peer [dst] at
    the negotiated version, assigning a request id and recording the
    sent vector as [last_sent] (v2 only). *)

val decode_request :
  Edb_core.Node.t -> src:int -> string -> Edb_core.Message.propagation_request * int
(** Decode a request frame received from [src], returning the request
    and its id (0 for v1). Records [src]'s advertised version, resolves
    delta baselines against the per-peer retention slots and updates
    them. Raises {!Codec.Reader.Corrupt} on any mismatch — answer with
    {!encode_nak}. *)

val encode_reply :
  Edb_core.Node.t -> dst:int -> req_id:int -> Edb_core.Message.propagation_reply -> string

val encode_nak : Edb_core.Node.t -> dst:int -> req_id:int -> string

val request_id_of_frame : string -> int
(** The request id a request frame carries, read from its header alone
    (0 for v1 frames and for frames too damaged to tell) — what a nak
    for a request that cannot be answered echoes. *)

val decode_reply : Edb_core.Node.t -> src:int -> string -> decoded_reply
(** Decode a reply or nak frame from [src]. Records [src]'s advertised
    version; a reply echoing the newest outstanding request id promotes
    that request's vector to the delta baseline, a nak drops it. *)

val decode_reply_with_body :
  Edb_core.Node.t -> src:int -> string -> decoded_reply * (int * int) option
(** {!decode_reply}, plus where a v2 reply's {!Wire_v2} body lies in
    the frame, as [(off, len)]: the bytes {!Wire_v2.encode_propagation_reply}
    wrote, which a journal can keep as they are. [None] for a nak or a
    v1 reply. *)

val push_ready : Edb_core.Node.t -> dst:int -> bool
(** Whether the best-effort push stream may flow to [dst]: this node
    speaks v2 and a decoded frame from [dst] has advertised v2. Until
    negotiation proves that, push queues for [dst] fill and shed per
    their policy — v1 peers simply never receive push frames. *)

val encode_push :
  Edb_core.Node.t -> dst:int -> Edb_core.Message.push_update list -> string
(** Encode a one-way push frame (kind 3, always codec v2) carrying the
    given batch. [Invalid_argument] when the peer has not negotiated
    v2 — gate with {!push_ready}. *)

val decode_push :
  Edb_core.Node.t -> src:int -> string -> Edb_core.Message.push_update list
(** Decode a push frame from [src], recording its advertised version.
    Raises {!Codec.Reader.Corrupt} on anything malformed; the receiver
    just drops such frames (anti-entropy repairs). *)

(** {1 Framing over byte streams}

    Frames are self-checking but not self-delimiting, so transports
    that speak a byte stream (the socket transport, DESIGN.md §12)
    carry each record behind a 4-byte little-endian length prefix.
    {!Reader} is the incremental reassembly side: it accepts chunks cut
    at {e any} byte boundary — mid-prefix, mid-header, mid-checksum —
    and yields complete records in order. *)

val max_stream_record : int
(** Upper bound on a stream record's length (64 MiB); a prefix claiming
    more is rejected as corrupt rather than allocated. *)

val to_wire : string -> string
(** [to_wire record] is the record behind its length prefix, ready to
    write to a stream. [Invalid_argument] beyond
    {!max_stream_record}. *)

val wire_length : string -> int
(** The length of [to_wire record], without building it.
    [Invalid_argument] beyond {!max_stream_record}. *)

val blit_wire : string -> Bytes.t -> int -> unit
(** [blit_wire record buf off] writes [to_wire record] into [buf] at
    [off] — the prefix and the record, one copy — for writers that
    buffer output themselves. Reserve {!wire_length} bytes first. *)

module Reader : sig
  type t

  val create : unit -> t
  (** An empty reader; its buffer is allocated by the first {!feed}. *)

  val feed : t -> ?off:int -> ?len:int -> string -> unit
  (** Append a chunk (or the [off]/[len] slice of one) to the
      reassembly buffer. *)

  val next : t -> string option
  (** The next complete record, if one has fully arrived; [None] means
      feed more bytes. Raises {!Codec.Reader.Corrupt} when the stream
      is unrecoverable (a length prefix claiming more than
      {!max_stream_record}). *)

  val pending : t -> int
  (** Buffered bytes not yet returned as records. *)
end

val respond : ?domains:int -> Edb_core.Node.t -> src:int -> string -> string
(** [respond node ~src frame] is the source side of one session
    message: decode the request, run the paper's [SendPropagation],
    and encode the reply — or a nak when the request does not decode.
    Charges [node]'s counters: one message, modeled [bytes_sent], and
    actual {!Edb_metrics.Counters.t.wire_bytes_sent}. *)

val pull :
  ?domains:int ->
  recipient:Edb_core.Node.t ->
  source:Edb_core.Node.t ->
  unit ->
  Edb_core.Node.pull_result
(** {!Edb_core.Node.pull} over real frames: encode the request, decode
    it at the source, encode the reply, decode and apply it — charging
    both modeled bytes (identical to the unframed pull) and actual
    wire bytes on both ends. A nak (lost baseline) is retried once
    with an absolute vector. *)

val sync_pair : ?domains:int -> Edb_core.Node.t -> Edb_core.Node.t -> unit
(** {!pull} in both directions. *)

val describe : ?n:int -> string -> string
(** Human-readable dump of a frame (either version) for [edb_cli wire].
    v2 bodies are dimension-implicit, so [n] is required for them;
    delta-encoded DBVVs are printed symbolically (the baseline lives
    only in the source's slots). Raises {!Codec.Reader.Corrupt} on
    malformed frames. *)
