(** A protocol node with crash-consistent durability.

    Combines {!Snapshot} checkpoints with a {!Wal} redo journal: every
    state-mutating protocol step — user updates and accepted
    propagation replies — is journaled {e before} being applied, and
    {!checkpoint} folds the journal into a fresh snapshot.
    {!open_or_create} recovers by loading the latest checkpoint and
    re-executing the journal, reconstructing the exact pre-crash state.

    Exactness matters for more than durability: a node's update
    sequence numbers are globally meaningful (other replicas may
    already hold log records naming them), so recovery must reproduce
    the same updates under the same numbers — which deterministic
    replay guarantees — rather than restart numbering from the
    checkpoint.

    Each journal record is one session effect, tagged:
    - 0: a user update, in the {!Wire} v1 codec (as are snapshots);
    - 5: a propagation reply, as its {!Wire_v2} body (decoded at replay
      against the node's dimension);
    - 1: a propagation reply in the fixed-width {!Wire} v1 form. Older
      builds wrote it; it is replayed, never written, so their journals
      still open.

    {b Compatibility break.} Older builds also defined tag 2 (an
    adopted out-of-bound reply), tag 3 (a received push) and tag 4 (a
    membership reshape). No daemon ever wrote them: [edb_cli serve] has
    no out-of-bound or membership path and never had a flag that
    turned push on. A journal holding one now fails {!open_or_create}
    with [Error "corrupt journal record: unknown journal tag N"], and
    the journal file is left as it was.

    {b The no-op rule.} A propagation reply that would change nothing
    ({!Edb_core.Node.reply_is_noop}: every shipped item's IVV equals the
    local regular copy's and every tail record is already in its log
    component) is neither journaled nor applied. The daemon chains a
    round's sessions, so each request carries the DBVV the previous
    reply advanced; but a session from an earlier round may still wait
    on a slow peer beside the new round's first one, both asked with a
    DBVV that lacked the same updates. The reply accepted second can
    then ship only what the first one delivered, and without the rule
    the journal would hold it twice. Eliding it is safe because replay
    reaches every record in exactly the state its accept saw: a no-op
    then is a no-op at replay.

    Mutations must go through this wrapper's entry points; driving the
    wrapped {!node} directly bypasses the journal. *)

type t

val open_or_create :
  ?shards:int ->
  dir:string ->
  id:int ->
  n:int ->
  unit ->
  (t * Wal.replay_result, string) result
(** [open_or_create ~dir ~id ~n ()] loads the checkpoint in [dir] (or
    starts fresh) and replays the journal. The directory is created if
    missing. Fails if the checkpoint is unreadable or does not match
    [id]/[n]/[shards] (default 1). The replay result reports recovered
    records and whether a torn tail was discarded; a discarded tail is
    also cut from the journal file, so records appended after it are
    replayed next time. An [Error] never changes the journal file. *)

val journal_path : dir:string -> string
(** The journal file {!open_or_create} keeps under [dir]. *)

val node : t -> Edb_core.Node.t
(** The live node. Read through it freely; mutate only through the
    wrapper. *)

val update : t -> string -> Edb_store.Operation.t -> unit
(** Journal, then apply, a user update (§5.3). *)

val pull_from : t -> source:Edb_core.Node.t -> Edb_core.Node.pull_result
(** One propagation session pulling from [source]: the source's reply
    is journaled (tag 5), then accepted — unless it is a no-op, which
    is neither and reports [Pulled] with nothing copied. *)

val accept_reply :
  ?wire:string * int * int -> t -> source:int -> Edb_core.Message.propagation_reply -> unit
(** Journal, then accept, a propagation reply that arrived from a
    remote transport already decoded (the socket daemon's session
    path) — the same commit discipline and no-op rule as {!pull_from},
    which covers the in-process case. [You_are_current] is always a
    no-op. [~wire:(data, off, len)] is where the reply's {!Wire_v2}
    body lies in the frame it came in
    ({!Frame.decode_reply_with_body}): the record then holds those
    bytes as they are instead of a re-encoding, which is the same
    bytes for a frame this build encoded. *)

val set_group_commit : t -> bool -> unit
(** Switch group commit on or off (default off). While on, journal
    appends buffer in the WAL channel and the caller owes a {!sync}
    before acting on the journaled state externally — the sync, not the
    append, becomes the commit point, and a crash before it recovers to
    the state before every unsynced record (each record is one complete
    session effect, appended in completion order, so the synced prefix
    is always a valid pre/post-session history). Turning group commit
    off syncs any pending batch first. *)

val sync : t -> unit
(** Release the current group-commit batch with one WAL flush. The
    daemon calls this once per event-loop turn, after every handler has
    journaled and before any reply buffered in that turn is written to
    a socket — so no reply ever precedes the durability of its commit
    record. A no-op when nothing is pending. *)

val unsynced_records : t -> int
(** Journal records appended since the last {!sync} (0 unless group
    commit is on). *)

val checkpoint : t -> unit
(** Fold the journal into a fresh snapshot and start an empty journal
    (syncing any pending group-commit batch first). Crash-atomic by
    renames alone, in four steps, each followed by a failpoint
    ({!Edb_fault.Fault}):
    + write [node.snap.tmp] (["checkpoint.snapshot.written"]);
    + rename [node.wal] to [node.wal.old] (["checkpoint.journal.retired"]);
    + rename the tmp file over [node.snap] (["checkpoint.snapshot.renamed"]);
    + unlink [node.wal.old] and open a fresh journal
      (["checkpoint.journal.dropped"]).
    {!open_or_create} finishes an interrupted checkpoint from the files
    it finds: [node.wal.old] beside the tmp file rolls forward (the tmp
    file was complete before step 2), [node.wal.old] alone is dropped
    (the snapshot holds it), and a lone tmp file is removed. A process
    crash at any step therefore recovers the pre-checkpoint state, and
    no journal is ever replayed over a snapshot that holds it. An OS
    crash is not covered: nothing is [fsync]ed, the directory
    included. *)

val disk_bytes : t -> int * int
(** [(journal, checkpoint)]: the bytes of the journal and of the
    snapshot ([0] for no snapshot), counted in memory as they change, so
    no file is opened. The journal's count starts at the intact prefix
    {!open_or_create} replayed and grows by each appended frame,
    unsynced group-commit records included (they reach the file at the
    next {!sync}); the snapshot's is the blob the last {!checkpoint}
    wrote, or the file's size at open. *)

val journal_records : t -> int
(** Records in the journal since the last checkpoint: those replayed at
    open plus those appended since. Elided no-op replies do not
    count. *)

val close : t -> unit
