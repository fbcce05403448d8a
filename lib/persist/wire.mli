(** Shared binary codecs for protocol values.

    Used by {!Snapshot} (node state) and {!Wal} (journaled mutations).
    Every decoder raises {!Codec.Reader.Corrupt} on malformed input. *)

val encode_operation : Codec.Writer.t -> Edb_store.Operation.t -> unit

val decode_operation : Codec.Reader.t -> Edb_store.Operation.t

val encode_vv : Codec.Writer.t -> Edb_vv.Version_vector.t -> unit

val encode_log_record : Codec.Writer.t -> Edb_log.Log_record.t -> unit

val encode_shipped_item : Codec.Writer.t -> Edb_core.Message.shipped_item -> unit

val decode_shipped_item : Codec.Reader.t -> Edb_core.Message.shipped_item

val encode_propagation_reply :
  Codec.Writer.t -> Edb_core.Message.propagation_reply -> unit

val decode_propagation_reply : Codec.Reader.t -> Edb_core.Message.propagation_reply

val encode_propagation_request :
  Codec.Writer.t -> Edb_core.Message.propagation_request -> unit
(** The fixed-width v1 request form used by the framed transports
    ({!Frame}); requests are never journaled, so unlike the reply
    codecs this one carries no WAL-compatibility constraint. *)

val decode_propagation_request :
  Codec.Reader.t -> Edb_core.Message.propagation_request
