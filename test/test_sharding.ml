(* Sharded replicas (DESIGN.md §7): the shards=1 configuration must be
   byte-for-byte the pre-sharding protocol (pinned wire and snapshot
   fixtures), sharded sessions must skip converged shards individually,
   the sharded reply must survive the wire codec, a sharded cluster
   must converge to the same database as a flat one, and the durable
   layer must reject shard-count skew. *)

module Node = Edb_core.Node
module Cluster = Edb_core.Cluster
module Message = Edb_core.Message
module Shard_map = Edb_core.Shard_map
module Operation = Edb_store.Operation
module Counters = Edb_metrics.Counters
module Codec = Edb_persist.Codec
module Wire = Edb_persist.Wire
module Snapshot = Edb_persist.Snapshot
module Durable = Edb_persist.Durable_node

let set v = Operation.Set v

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let encode_reply reply =
  Codec.Writer.with_scratch (fun w ->
      Wire.encode_propagation_reply w reply;
      Codec.Writer.contents w)

(* ---------- shards=1 is bitwise the pre-sharding protocol ---------- *)

(* The request of an unsharded node carries no per-shard vectors (so its
   bytes are exactly id + DBVV, as before sharding), and the reply is
   the legacy [Propagate] constructor whose encoding is pinned below. *)
let test_flat_request_shape () =
  let a = Node.create ~id:0 ~n:2 () in
  let req = Node.propagation_request a in
  Alcotest.(check int) "no shard vectors" 0 (Array.length req.recipient_shard_dbvvs);
  Alcotest.(check int) "request bytes: id + vv" (8 + 16) (Message.request_bytes req)

(* Pinned fixture: two fresh n=2 nodes, two updates at the source, one
   session. Any byte-level drift in what a shards=1 deployment puts on
   the wire — framing, field order, the reply constructor — fails
   here. *)
let pinned_flat_reply =
  "01000000000000000200000000000000020000000000000001000000000000007801000000000000000100000000000000790200000000000000000000000000000002000000000000000100000000000000780000000000000000020000000000000076310200000000000000010000000000000000000000000000000100000000000000790000000000000000020000000000000076320200000000000000010000000000000000000000000000004a03f70c"

let test_flat_wire_fixture () =
  let a = Node.create ~id:0 ~n:2 () in
  let b = Node.create ~id:1 ~n:2 () in
  Node.update a "x" (set "v1");
  Node.update a "y" (set "v2");
  let reply = Node.handle_propagation_request a (Node.propagation_request b) in
  (match reply with
  | Message.Propagate _ -> ()
  | Message.Propagate_sharded _ | Message.You_are_current ->
    Alcotest.fail "shards=1 must produce a legacy Propagate reply");
  Alcotest.(check string) "pinned reply bytes" pinned_flat_reply (hex (encode_reply reply))

(* Pinned fixture for the flat snapshot: version 2, no shard framing —
   the exact blob a pre-sharding build would have written. *)
let pinned_flat_snapshot =
  "0800000000000000454442534e41503102000000000000007f03d7e200000000d200000000000000000000000000000002000000000000000200000000000000010000000000000061010000000000000031020000000000000001000000000000000000000000000000010000000000000062010000000000000032020000000000000001000000000000000000000000000000020000000000000002000000000000000000000000000000020000000000000002000000000000000100000000000000610100000000000000010000000000000062020000000000000000000000000000000000000000000000000000000000000005029bd8c408889b" [@ocamlformat "disable"]

let test_flat_snapshot_fixture () =
  let n = Node.create ~id:0 ~n:2 () in
  Node.update n "a" (set "1");
  Node.update n "b" (set "2");
  Alcotest.(check string) "pinned snapshot" pinned_flat_snapshot (hex (Snapshot.encode n))

(* Pinned fixture for the sharded snapshot (v3): four shards at n = 3,
   with items in two shards, log records from two origins, an auxiliary
   copy fetched out of bound and a splice deferred on it in the
   auxiliary log. Written by the encoder that built every list first;
   the direct encoder must reproduce it byte for byte. *)
let pinned_sharded_snapshot =
  "0800000000000000454442534e41503103000000000000009e0a364e00000000f10200000000000001000000000000000300000000000000040000000000000000000000000000000300000000000000000000000000000000000000000000000000000000000000030000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003000000000000000000000000000000000000000000000000000000000000000300000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000300000000000000010000000000000061010000000000000031030000000000000000000000000000000100000000000000000000000000000001000000000000006201000000000000003203000000000000000000000000000000010000000000000000000000000000000300000000000000686f7400000000000000000300000000000000000000000000000000000000000000000000000000000000030000000000000000000000000000000200000000000000000000000000000003000000000000000000000000000000020000000000000001000000000000006101000000000000000100000000000000620200000000000000000000000000000001000000000000000300000000000000686f7402000000000000006878030000000000000001000000000000000100000000000000000000000000000001000000000000000300000000000000686f740300000000000000010000000000000000000000000000000000000000000000010000000000000001000000000000000100000000000000780100000000000000010000000000000070010000000000000071030000000000000001000000000000000000000000000000000000000000000003000000000000000100000000000000000000000000000000000000000000000300000000000000010000000000000001000000000000007001000000000000000000000000000000000000000000000000000000000000000000000000000000d308cb25f60ec26e" [@ocamlformat "disable"]

let sharded_fixture_node () =
  let node = Node.create ~id:1 ~n:3 ~shards:4 () in
  let peer = Node.create ~id:0 ~n:3 ~shards:4 () in
  Node.update node "a" (set "1");
  Node.update node "b" (set "2");
  Node.update peer "p" (set "q");
  let (_ : Node.pull_result) = Node.pull ~recipient:node ~source:peer () in
  Node.update peer "hot" (set "h1");
  let (_ : Node.oob_result) = Node.fetch_out_of_bound ~recipient:node ~source:peer "hot" in
  Node.update node "hot" (Operation.Splice { offset = 1; data = "x" });
  node

let test_sharded_snapshot_fixture () =
  let node = sharded_fixture_node () in
  Alcotest.(check int) "one aux copy" 1 (Node.aux_count node);
  Alcotest.(check string) "pinned snapshot" pinned_sharded_snapshot
    (hex (Snapshot.encode node))

(* ---------- per-shard skipping ---------- *)

(* Converge an 8-shard pair, then dirty items confined to a couple of
   shards: the next session must ship deltas for exactly the dirty
   shards and charge [shards_skipped] for every other one. Converged
   shards thus contribute zero bytes — the whole point of per-shard
   DBVVs. *)
let test_per_shard_skipping () =
  let shards = 8 in
  let a = Node.create ~id:0 ~n:2 ~shards () in
  let b = Node.create ~id:1 ~n:2 ~shards () in
  for i = 0 to 63 do
    Node.update a (Printf.sprintf "item-%02d" i) (set "base")
  done;
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  Counters.reset (Node.counters a);
  (* Dirty only items living in shards 0 and 1. *)
  let dirty = Hashtbl.create 4 in
  let budget = ref 6 in
  for i = 0 to 63 do
    let name = Printf.sprintf "item-%02d" i in
    let s = Node.shard_of_item a name in
    if s < 2 && !budget > 0 then begin
      decr budget;
      Node.update a name (set "fresh");
      Hashtbl.replace dirty s ()
    end
  done;
  let dirty_shards = Hashtbl.length dirty in
  Alcotest.(check bool) "workload touched 2 shards" true (dirty_shards = 2);
  (match Node.handle_propagation_request a (Node.propagation_request b) with
  | Message.Propagate_sharded deltas ->
    Alcotest.(check (list int))
      "deltas for exactly the dirty shards, ascending"
      [ 0; 1 ]
      (List.map (fun (d : Message.shard_delta) -> d.shard) deltas);
    List.iter
      (fun (d : Message.shard_delta) ->
        Alcotest.(check bool)
          (Printf.sprintf "shard %d ships something" d.shard)
          true
          (d.items <> []))
      deltas
  | Message.Propagate _ -> Alcotest.fail "sharded node must reply Propagate_sharded"
  | Message.You_are_current -> Alcotest.fail "expected propagation");
  Alcotest.(check int) "converged shards skipped" (shards - dirty_shards)
    (Node.counters a).Counters.shards_skipped

(* Full convergence answers through the summary vector alone: the reply
   is You_are_current and no per-shard work (or skip counting) happens. *)
let test_summary_you_are_current () =
  let a = Node.create ~id:0 ~n:2 ~shards:4 () in
  let b = Node.create ~id:1 ~n:2 ~shards:4 () in
  for i = 0 to 15 do
    Node.update a (Printf.sprintf "it%02d" i) (set "v")
  done;
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  Counters.reset (Node.counters a);
  (match Node.handle_propagation_request a (Node.propagation_request b) with
  | Message.You_are_current -> ()
  | Message.Propagate _ | Message.Propagate_sharded _ ->
    Alcotest.fail "converged pair must answer You_are_current");
  Alcotest.(check int) "summary short-circuits the shard loop" 0
    (Node.counters a).Counters.shards_skipped

(* ---------- sharded reply wire round-trip ---------- *)

let test_sharded_reply_roundtrip () =
  let a = Node.create ~id:0 ~n:3 ~shards:4 () in
  let b = Node.create ~id:1 ~n:3 ~shards:4 () in
  for i = 0 to 23 do
    Node.update a (Printf.sprintf "item-%03d" i) (set (Printf.sprintf "v%d" i))
  done;
  match Node.handle_propagation_request a (Node.propagation_request b) with
  | Message.Propagate _ | Message.You_are_current -> Alcotest.fail "expected sharded reply"
  | Message.Propagate_sharded _ as reply ->
    let decoded =
      Wire.decode_propagation_reply (Codec.Reader.create (encode_reply reply))
    in
    Alcotest.(check bool) "round-trips structurally" true (decoded = reply)

(* ---------- sharded vs flat equivalence ---------- *)

(* The same single-writer workload on a flat and a 4-shard cluster must
   yield identical reads everywhere after anti-entropy: sharding is a
   state layout, not a semantics change. *)
let test_sharded_matches_flat () =
  let items = 12 and nodes = 3 in
  let name rank = Printf.sprintf "item-%03d" rank in
  let run shards =
    let cluster = Cluster.create ~seed:17 ~shards ~n:nodes () in
    for step = 0 to 39 do
      let rank = step * 7 mod items in
      Cluster.update cluster ~node:(rank mod nodes) ~item:(name rank)
        (set (Printf.sprintf "s%d-%d" step rank));
      if step mod 5 = 4 then
        ignore (Cluster.pull cluster ~recipient:(step mod nodes) ~source:((step + 1) mod nodes))
    done;
    Alcotest.(check bool)
      (Printf.sprintf "shards=%d converges" shards)
      true
      (Cluster.sync_until_converged cluster > 0);
    List.init nodes (fun node ->
        List.init items (fun rank -> Node.read (Cluster.node cluster node) (name rank)))
  in
  Alcotest.(check bool) "flat and sharded reads agree" true (run 1 = run 4)

(* ---------- sharded snapshot (v3) ---------- *)

let test_sharded_snapshot_roundtrip () =
  let original = Node.create ~id:1 ~n:3 ~shards:5 () in
  let peer = Node.create ~id:0 ~n:3 ~shards:5 () in
  for i = 0 to 30 do
    Node.update original (Printf.sprintf "k%02d" i) (set (Printf.sprintf "v%d" i))
  done;
  Node.update peer "hot" (set "h1");
  let (_ : Node.oob_result) =
    Node.fetch_out_of_bound ~recipient:original ~source:peer "hot"
  in
  Node.update original "hot" (set "h2");
  match Snapshot.decode (Snapshot.encode original) with
  | Error msg -> Alcotest.fail msg
  | Ok restored ->
    Alcotest.(check int) "shard count restored" 5 (Node.shards restored);
    Alcotest.(check bool) "state equal" true
      (Node.export_state restored = Node.export_state original);
    (match Node.check_invariants restored with
    | Ok () -> ()
    | Error msg -> Alcotest.fail msg)

(* A flat snapshot must decode into a 1-shard node (the v2 path — every
   checkpoint written before sharding landed looks like this). *)
let unhex h =
  String.init (String.length h / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

let test_flat_snapshot_decodes () =
  match Snapshot.decode (unhex pinned_flat_snapshot) with
  | Error msg -> Alcotest.fail msg
  | Ok node ->
    Alcotest.(check int) "one shard" 1 (Node.shards node);
    Alcotest.(check (option string)) "value survives" (Some "1") (Node.read node "a")

(* The pinned v3 bytes load into the node that wrote them and re-encode
   to themselves. *)
let test_sharded_snapshot_decodes () =
  match Snapshot.decode (unhex pinned_sharded_snapshot) with
  | Error msg -> Alcotest.fail msg
  | Ok node ->
    Alcotest.(check int) "four shards" 4 (Node.shards node);
    Alcotest.(check bool) "state equal" true
      (Node.export_state node = Node.export_state (sharded_fixture_node ()));
    Alcotest.(check string) "re-encodes to the pinned bytes" pinned_sharded_snapshot
      (hex (Snapshot.encode node))

(* ---------- durable shard-count skew ---------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "edb-shard" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let test_durable_rejects_shard_skew () =
  with_temp_dir (fun dir ->
      (match Durable.open_or_create ~shards:2 ~dir ~id:0 ~n:2 () with
      | Error msg -> Alcotest.fail msg
      | Ok (d, _) ->
        Durable.update d "x" (set "v");
        Durable.checkpoint d;
        Durable.close d);
      match Durable.open_or_create ~shards:3 ~dir ~id:0 ~n:2 () with
      | Ok (d, _) ->
        Durable.close d;
        Alcotest.fail "reopening with a different shard count must fail"
      | Error msg ->
        Alcotest.(check bool) "error names the skew" true
          (Astring.String.is_infix ~affix:"shards" msg))

(* Sessions between nodes of different shard counts are a configuration
   error, not a protocol state: refuse loudly. *)
let test_mixed_shard_counts_rejected () =
  let a = Node.create ~id:0 ~n:2 ~shards:2 () in
  let b = Node.create ~id:1 ~n:2 ~shards:4 () in
  Node.update a "x" (set "v");
  match Node.pull ~recipient:b ~source:a () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mixed shard counts must be rejected"

let suite =
  [
    Alcotest.test_case "flat request shape" `Quick test_flat_request_shape;
    Alcotest.test_case "flat wire fixture (pinned)" `Quick test_flat_wire_fixture;
    Alcotest.test_case "flat snapshot fixture (pinned)" `Quick test_flat_snapshot_fixture;
    Alcotest.test_case "per-shard skipping" `Quick test_per_shard_skipping;
    Alcotest.test_case "summary short-circuit" `Quick test_summary_you_are_current;
    Alcotest.test_case "sharded reply wire round-trip" `Quick test_sharded_reply_roundtrip;
    Alcotest.test_case "sharded matches flat" `Quick test_sharded_matches_flat;
    Alcotest.test_case "sharded snapshot round-trip" `Quick test_sharded_snapshot_roundtrip;
    Alcotest.test_case "flat (v2) snapshot decodes" `Quick test_flat_snapshot_decodes;
    Alcotest.test_case "sharded snapshot fixture (pinned)" `Quick
      test_sharded_snapshot_fixture;
    Alcotest.test_case "sharded (v3) snapshot decodes" `Quick
      test_sharded_snapshot_decodes;
    Alcotest.test_case "durable rejects shard skew" `Quick test_durable_rejects_shard_skew;
    Alcotest.test_case "mixed shard counts rejected" `Quick test_mixed_shard_counts_rejected;
  ]
