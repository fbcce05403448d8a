module Node = Edb_core.Node
module Message = Edb_core.Message
module Fault = Edb_fault.Fault

type membership_op = Extend of { name : int } | Retire of { slot : int; name : int }

type t = {
  (* Mutable: membership reshapes (dimension extension on join, component
     retirement) replace the node wholesale — every vector is rebuilt. *)
  mutable node : Node.t;
  dir : string;
  mutable wal : Wal.writer;
  mutable journal_records : int;
  (* Membership ops applied since the last checkpoint, oldest first:
     the replayed ones plus any appended by this process. Recovery hands
     them to the membership layer so it can rebuild its view (epoch,
     roster) and re-judge any standing retirement fence from the
     recovered DBVVs — acknowledgements are deliberately not persisted,
     exactly as AcceptPropagation re-judges freshness on replay. *)
  mutable membership : membership_op list;
  (* Group commit (opt-in, daemon event loop): with [group_commit] set,
     [journal] appends without flushing and [sync] releases the whole
     batch with one flush. [unsynced] counts records owed to the next
     sync. Default off: every other caller keeps the append-is-flushed
     commit point. *)
  mutable group_commit : bool;
  mutable unsynced : int;
}

let snapshot_path dir = Filename.concat dir "node.snap"

let journal_path ~dir = Filename.concat dir "node.wal"

(* Journal entries: one {!Codec} blob per session effect, opening with
   its tag (listed in the .mli). Tag 1 is replayed, never written. *)

let encode_update item op =
  Codec.Writer.with_scratch (fun w ->
      Codec.Writer.int w 0;
      Codec.Writer.string w item;
      Wire.encode_operation w op;
      Codec.Writer.contents w)

let encode_reply ?wire ~source reply =
  Codec.Writer.with_scratch (fun w ->
      Codec.Writer.int w 5;
      Codec.Writer.int w source;
      (match wire with
      | Some (data, off, len) -> Codec.Writer.blit w data ~off ~len
      | None -> Wire_v2.encode_propagation_reply w reply);
      Codec.Writer.contents w)

let encode_oob ~source reply =
  Codec.Writer.with_scratch (fun w ->
      Codec.Writer.int w 2;
      Codec.Writer.int w source;
      Wire.encode_oob_reply w reply;
      Codec.Writer.contents w)

let encode_push ~source (u : Message.push_update) =
  Codec.Writer.with_scratch (fun w ->
      Codec.Writer.int w 3;
      Codec.Writer.int w source;
      Codec.Writer.string w u.item;
      Codec.Writer.int w u.seq;
      Wire.encode_vv w u.ivv;
      Codec.Writer.string w u.value;
      Codec.Writer.contents w)

let encode_membership op =
  Codec.Writer.with_scratch (fun w ->
      Codec.Writer.int w 4;
      (match op with
      | Extend { name } ->
        Codec.Writer.int w 0;
        Codec.Writer.int w name
      | Retire { slot; name } ->
        Codec.Writer.int w 1;
        Codec.Writer.int w slot;
        Codec.Writer.int w name);
      Codec.Writer.contents w)

let apply_journal_record node_ref membership r =
  let node = !node_ref in
  (match Codec.Reader.int r with
  | 0 ->
    let item = Codec.Reader.string r in
    let op = Wire.decode_operation r in
    Node.update node item op
  | (1 | 5) as tag ->
    let source = Codec.Reader.int r in
    let reply =
      if tag = 1 then Wire.decode_propagation_reply r
      else Wire_v2.decode_propagation_reply r ~n:(Node.dimension node)
    in
    let (_ : Node.accept_result) = Node.accept_propagation node ~source reply in
    ()
  | 2 ->
    let source = Codec.Reader.int r in
    let reply = Wire.decode_oob_reply r in
    let (_ : Node.oob_result) = Node.accept_out_of_bound node ~source reply in
    ()
  | 3 ->
    let source = Codec.Reader.int r in
    let item = Codec.Reader.string r in
    let seq = Codec.Reader.int r in
    let ivv = Wire.decode_vv r in
    let value = Codec.Reader.string r in
    let (_ : [ `Applied | `Stale ]) =
      Node.apply_push node ~source { Message.item; seq; ivv; value }
    in
    ()
  | 4 ->
    (* Membership reshape: mechanical vector surgery, replayed exactly
       like any other committed record. The journal append was the
       commit point, so recovery lands on the post-reshape geometry and
       every later journaled reply decodes against the right dimension. *)
    (match Codec.Reader.int r with
    | 0 ->
      let name = Codec.Reader.int r in
      node_ref := Node.extend_dimension node;
      membership := Extend { name } :: !membership
    | 1 ->
      let slot = Codec.Reader.int r in
      let name = Codec.Reader.int r in
      node_ref := Node.retire_component node ~slot;
      membership := Retire { slot; name } :: !membership
    | op -> raise (Codec.Reader.Corrupt (Printf.sprintf "unknown membership op %d" op)))
  | tag -> raise (Codec.Reader.Corrupt (Printf.sprintf "unknown journal tag %d" tag)));
  Codec.Reader.expect_end r

let tmp_snapshot_path dir = snapshot_path dir ^ ".tmp"

let retired_journal_path dir = journal_path ~dir ^ ".old"

(* {!checkpoint} moves through four states by renames; this completes
   whichever one a crash left:
   - [node.wal.old] and [node.snap.tmp]: crashed before the snapshot
     rename. The tmp file was complete before the journal was retired,
     so roll forward: rename it into place and drop the old journal.
   - [node.wal.old] alone: the snapshot already holds that journal.
   - [node.snap.tmp] alone: crashed while writing it; the old snapshot
     and journal are intact. *)
let finish_checkpoint dir =
  let tmp = tmp_snapshot_path dir and retired = retired_journal_path dir in
  if Sys.file_exists retired then begin
    if Sys.file_exists tmp then Sys.rename tmp (snapshot_path dir);
    Sys.remove retired
  end
  else if Sys.file_exists tmp then Sys.remove tmp

let open_or_create ?policy ?mode ?(shards = 1) ~dir ~id ~n () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  finish_checkpoint dir;
  let from_checkpoint =
    if Sys.file_exists (snapshot_path dir) then
      Snapshot.load ?policy ?mode ~path:(snapshot_path dir) ()
    else Ok (Node.create ?policy ?mode ~shards ~id ~n ())
  in
  match from_checkpoint with
  | Error _ as e -> e
  | Ok node ->
    if Node.id node <> id || Node.dimension node <> n then
      Error
        (Printf.sprintf "checkpoint is for node %d/%d, requested %d/%d" (Node.id node)
           (Node.dimension node) id n)
    else if Node.shards node <> shards then
      Error
        (Printf.sprintf "checkpoint has %d shards, requested %d" (Node.shards node)
           shards)
    else (
      let node_ref = ref node in
      let membership = ref [] in
      match
        Wal.replay_blobs ~path:(journal_path ~dir)
          ~f:(apply_journal_record node_ref membership)
      with
      | Error _ as e -> e
      | exception Codec.Reader.Corrupt msg -> Error ("corrupt journal record: " ^ msg)
      | Ok replay_result ->
        (* A torn tail's bytes must go before anything is appended
           after them: the next replay would read the torn frame's
           length header over the newer records. *)
        if replay_result.torn_tail then
          Unix.truncate (journal_path ~dir) replay_result.intact;
        let wal = Wal.open_writer ~path:(journal_path ~dir) in
        Ok
          ( {
              node = !node_ref;
              dir;
              wal;
              journal_records = replay_result.records;
              membership = List.rev !membership;
              group_commit = false;
              unsynced = 0;
            },
            replay_result ))

let node t = t.node

let journal t record =
  Wal.append_blob ~flush:(not t.group_commit) t.wal record;
  if t.group_commit then t.unsynced <- t.unsynced + 1;
  t.journal_records <- t.journal_records + 1

(* Sync releases the current group-commit batch; under group commit the
   sync — not the append — is the commit point, and a crash between
   them recovers to the state before every unsynced record, exactly as
   if those sessions never ran (each journal record is one complete
   session effect, appended in completion order, so the synced prefix
   is always a valid history). *)
let sync t =
  if t.unsynced > 0 then begin
    Wal.sync t.wal;
    t.unsynced <- 0
  end

let unsynced_records t = t.unsynced

let set_group_commit t enabled =
  if (not enabled) && t.group_commit then sync t;
  t.group_commit <- enabled

let update t item op =
  journal t (encode_update item op);
  Node.update t.node item op

(* A reply that changes nothing is neither journaled nor applied: replay
   reaches every record in exactly the state its accept saw, so a no-op
   then is a no-op at replay and its record could only cost bytes.
   Anything else is journaled before it is applied: the WAL append is
   the commit point. A crash before it (durable.journal.before, or a
   torn append via wal.append.partial) loses nothing — recovery sees the
   pre-session state and a later anti-entropy round re-pulls. A crash
   after it (durable.apply.before, or any accept.* point inside
   accept_propagation) re-applies the journaled reply on recovery,
   yielding exactly the post-session state. Never torn. *)
let commit_reply ?wire t ~source reply =
  if Node.reply_is_noop t.node reply then { Node.copied = []; conflicts = 0; resolved = 0 }
  else begin
    Fault.hit "durable.journal.before";
    journal t (encode_reply ?wire ~source reply);
    Fault.hit "durable.apply.before";
    Node.accept_propagation t.node ~source reply
  end

let pull_from t ~source =
  let request = Node.propagation_request t.node in
  match Node.handle_propagation_request source request with
  | Message.You_are_current -> Node.Already_current
  | (Message.Propagate _ | Message.Propagate_sharded _) as reply ->
    Node.Pulled (commit_reply t ~source:(Node.id source) reply)

let accept_reply ?wire t ~source reply =
  let (_ : Node.accept_result) = commit_reply ?wire t ~source reply in
  ()

let apply_push t ~source update =
  (* Same journal-before-apply discipline as pull_from. The push itself
     is volatile, but once applied it becomes part of this node's state
     and later journaled AE replies assume it — so the application must
     be redoable from the WAL or recovery would replay those replies
     against a state missing the pushed update (breaking the per-origin
     prefix property). Journaling a stale push is harmless: replay
     re-judges freshness and drops it again. *)
  Fault.hit "durable.journal.before";
  journal t (encode_push ~source update);
  Fault.hit "durable.apply.before";
  Node.apply_push t.node ~source update

let fetch_out_of_bound_from t ~source item =
  let reply = Node.serve_out_of_bound source { Message.item } in
  journal t (encode_oob ~source:(Node.id source) reply);
  Node.accept_out_of_bound t.node ~source:(Node.id source) reply

let extend_dimension t ~name =
  (* Journal-before-apply, same commit discipline as pull_from: a crash
     before the append loses the reshape entirely (the membership layer
     re-issues it), a crash after it replays the reshape on recovery. *)
  Fault.hit "durable.journal.before";
  journal t (encode_membership (Extend { name }));
  Fault.hit "durable.apply.before";
  t.node <- Node.extend_dimension t.node;
  t.membership <- t.membership @ [ Extend { name } ]

let retire_component t ~slot ~name =
  Fault.hit "durable.journal.before";
  journal t (encode_membership (Retire { slot; name }));
  Fault.hit "durable.apply.before";
  t.node <- Node.retire_component t.node ~slot;
  t.membership <- t.membership @ [ Retire { slot; name } ]

let membership_log t = t.membership

(* Renames only, so a crash at any step leaves files [finish_checkpoint]
   completes: never the new snapshot beside the journal it holds, whose
   replay would apply those records twice. *)
let checkpoint t =
  sync t;
  let journal = journal_path ~dir:t.dir in
  Snapshot.write t.node ~path:(tmp_snapshot_path t.dir);
  Fault.hit "checkpoint.snapshot.written";
  Wal.close_writer t.wal;
  Sys.rename journal (retired_journal_path t.dir);
  Fault.hit "checkpoint.journal.retired";
  Sys.rename (tmp_snapshot_path t.dir) (snapshot_path t.dir);
  Fault.hit "checkpoint.snapshot.renamed";
  Sys.remove (retired_journal_path t.dir);
  t.wal <- Wal.open_writer ~path:journal;
  t.journal_records <- 0;
  t.membership <- [];
  Fault.hit "checkpoint.journal.dropped"

let file_bytes path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.length |> Int64.to_int
  else 0

let disk_bytes t = (file_bytes (journal_path ~dir:t.dir), file_bytes (snapshot_path t.dir))

let journal_records t = t.journal_records

let close t = Wal.close_writer t.wal
