(** Durable node checkpoints.

    Serializes a protocol node's entire durable state — items and IVVs,
    DBVV, log vector, auxiliary copies and auxiliary log — to a single
    checksummed binary blob, and restores it. Restoring yields a node
    whose behaviour is indistinguishable from the original: a crashed
    server that recovers from its last checkpoint simply looks, to the
    epidemic, like a server that has been disconnected since then, and
    ordinary anti-entropy brings it back up to date (this is exactly
    the failure model the paper's §8.2 relies on).

    {!save} is atomic: the snapshot is written to a temporary file in
    the same directory and renamed over the target, so a crash during
    checkpointing never destroys the previous checkpoint. *)

val encode : Edb_core.Node.t -> string
(** [encode node] is the binary snapshot blob. *)

val decode :
  ?policy:Edb_core.Node.resolution_policy ->
  ?conflict_handler:(Edb_core.Conflict.t -> unit) ->
  ?mode:Edb_core.Node.propagation_mode ->
  string ->
  (Edb_core.Node.t, string) result
(** [decode blob] reconstructs the node, or explains why the blob is
    unusable (checksum mismatch, truncation, version skew, structural
    inconsistency). *)

val save : Edb_core.Node.t -> path:string -> unit
(** [save node ~path] writes {!encode}'s output atomically: {!write} to
    [path ^ ".tmp"], then a rename over [path]. *)

val write : Edb_core.Node.t -> path:string -> unit
(** [write node ~path] writes {!encode}'s output to [path] in place,
    for a caller that renames it into place itself
    ({!Durable_node.checkpoint}). *)

val load :
  ?policy:Edb_core.Node.resolution_policy ->
  ?conflict_handler:(Edb_core.Conflict.t -> unit) ->
  ?mode:Edb_core.Node.propagation_mode ->
  path:string ->
  unit ->
  (Edb_core.Node.t, string) result
(** [load ~path ()] reads and {!decode}s a snapshot file. *)
