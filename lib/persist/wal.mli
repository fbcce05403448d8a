(** A write-ahead (redo) log of opaque records.

    Framing per record: 8-byte length, payload, 4-byte Adler-32 of the
    payload ({!Codec.adler32}, the same kernel as the codec trailer;
    replay checksums each frame where it lies in the file buffer).
    {!replay} applies complete, checksummed records in order.
    It distinguishes two kinds of damage: a final frame {e cut short by
    end-of-file} is the torn tail of a crashed append — expected, the
    tail is discarded and reported so callers can log the data-loss
    window — whereas a {e fully present} frame that fails its checksum
    (or carries a nonsense length) is corruption of data that was once
    durably written, and replay refuses with [Error] rather than
    silently un-acknowledging updates other replicas may already have
    observed.

    {!Durable_node} journals protocol mutations here between
    checkpoints; on recovery the snapshot is loaded and the journal
    re-executed, reconstructing the exact pre-crash state (including
    sequence numbers other replicas may already have observed —
    re-assigning those to different updates would corrupt the
    epidemic, which is why recovery must replay rather than restart). *)

type writer

val open_writer : path:string -> writer
(** [open_writer ~path] opens (creating if needed) the log for
    appending. *)

val append : ?flush:bool -> writer -> string -> unit
(** [append w record] frames, writes and flushes one record. With
    [~flush:false] the frame is written to the channel buffer but not
    flushed — the caller owes a later {!sync} (group commit); a crash
    before the sync loses the unsynced suffix as if those appends never
    happened. Carries the ["wal.append.partial"] failpoint
    ({!Edb_fault.Fault}): when it fires, the header and half the
    payload are flushed and the append "crashes" by raising, leaving a
    torn tail on disk. *)

val append_blob : ?flush:bool -> writer -> string -> unit
(** {!append} for a codec blob ({!Codec.Writer.contents}): the frame's
    checksum is derived from the blob's own trailer
    ({!Codec.adler32_combine}) instead of a pass over its bytes. The
    frame is the one {!append} writes when the trailer is right;
    [Invalid_argument] below 4 bytes. *)

val frame_bytes : string -> int
(** [frame_bytes record] is the bytes {!append} (or {!append_blob})
    adds to the file for [record]: its length header, the record and
    its checksum. *)

val sync : writer -> unit
(** [sync w] flushes every record appended so far to the OS — the
    commit point for a group-commit batch built with
    [append ~flush:false]. Idempotent; a no-op when nothing is
    pending. *)

val close_writer : writer -> unit

type replay_result = {
  records : int;  (** Complete records applied. *)
  torn_tail : bool;
      (** Whether a final frame truncated by end-of-file was
          discarded. *)
  intact : int;
      (** Bytes of the intact prefix: where a torn tail starts, else
          the file's length. *)
}

val replay :
  path:string -> f:(string -> off:int -> len:int -> unit) -> (replay_result, string) result
(** [replay ~path ~f] applies [f] to every intact record in order. [f
    data ~off ~len] gets the record where it lies: the [len] bytes at
    [off] of the journal's file image [data], the same string for every
    record, so nothing is copied per record (decode with
    [Codec.Reader.create ~off ~len data]). A missing file is an empty
    log ([Ok {records = 0; _}]); a torn tail is
    [Ok {torn_tail = true; _}]; a damaged complete frame anywhere is
    [Error] (and [f] has already been applied to the records before
    it). *)

val replay_blobs :
  path:string -> f:(Codec.Reader.t -> unit) -> (replay_result, string) result
(** {!replay} for a journal of codec blobs: [f] gets each record as a
    {!Codec.Reader.t} over it in place. One checksum pass per record
    serves both its frame and its codec trailer, with the verdicts of
    two. Raises {!Codec.Reader.Corrupt}, after the records before it
    were applied, for an intact frame whose trailer does not match. *)

val reset : path:string -> unit
(** [reset ~path] truncates the log to empty (after a checkpoint). *)
