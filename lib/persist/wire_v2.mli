(** Wire format v2 — the compact codec (DESIGN.md §8).

    Where {!Wire} (v1) spends a fixed 8 bytes per integer and re-ships
    every item name in full, v2 uses LEB128 varints, a per-message
    name-interning dictionary, sparse [(origin, count)] version
    vectors, and — for the request DBVV — an optional delta against a
    baseline the peer provably still holds. Framing, version
    negotiation and baseline bookkeeping live in {!Frame}; this module
    is the pure byte layout.

    Unlike v1, the v2 forms are dimension-implicit: decoders take the
    cluster dimension [~n] from the session context instead of reading
    it off the wire, and validate every origin against it. All decoders
    raise {!Codec.Reader.Corrupt} (and nothing else) on malformed
    input. *)

val encode_vv : Codec.Writer.t -> Edb_vv.Version_vector.t -> unit
(** Sparse form: [varint count] then strictly-ascending
    [(varint origin, varint value)] pairs, zero components omitted. *)

val decode_vv : Codec.Reader.t -> n:int -> Edb_vv.Version_vector.t

val encode_operation : Codec.Writer.t -> Edb_store.Operation.t -> unit

val decode_operation : Codec.Reader.t -> Edb_store.Operation.t

val encode_propagation_reply :
  Codec.Writer.t -> Edb_core.Message.propagation_reply -> unit

val decode_propagation_reply :
  Codec.Reader.t -> n:int -> Edb_core.Message.propagation_reply

val encode_propagation_request :
  Codec.Writer.t ->
  ?baseline:int * Edb_vv.Version_vector.t ->
  Edb_core.Message.propagation_request ->
  unit
(** [baseline] is [(id, vv)] of a request the peer has acknowledged;
    when given and dominated by the current DBVV, the request ships the
    delta form (the sparse encoding of [vv - baseline]) tagged with
    [id] and a 30-bit checksum of the baseline; otherwise the absolute
    sparse form. *)

val decode_propagation_request :
  Codec.Reader.t ->
  n:int ->
  resolve:(int -> Edb_vv.Version_vector.t option) ->
  Edb_core.Message.propagation_request * int option
(** [resolve id] must return the baseline vector stored under [id]
    (the source's committed/candidate slots, see {!Frame}); [None] or
    a checksum mismatch raises {!Codec.Reader.Corrupt} — the framed
    transports answer that with a Nak and the requester falls back to
    an absolute vector. Returns the request and the baseline id it was
    decoded against, if any. *)

val encode_push : Codec.Writer.t -> Edb_core.Message.push_update list -> unit
(** A push batch: [varint count], then per update the interned item
    name, [varint seq], sparse IVV and the whole value. Reuses the
    per-message dictionary and sparse-vv forms of the session codec;
    there is no v1 form — push frames exist only at v2. *)

val decode_push : Codec.Reader.t -> n:int -> Edb_core.Message.push_update list
