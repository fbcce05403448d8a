(* Wire codec v2 and the framing/negotiation layer (DESIGN.md §8):
   pinned v2 byte fixtures, v1/v2 round-trips over real messages at
   shard counts 1 and 4, the cross-version matrix (a pinned-v1 node
   negotiates everything down to exactly v1 bytes), baseline loss
   recovery via nak, and decoder fuzzing — nothing but
   [Codec.Reader.Corrupt] may escape a wire decoder. *)

module Node = Edb_core.Node
module Cluster = Edb_core.Cluster
module Message = Edb_core.Message
module Peer_cache = Edb_core.Peer_cache
module Operation = Edb_store.Operation
module Counters = Edb_metrics.Counters
module Codec = Edb_persist.Codec
module Wire = Edb_persist.Wire
module Wire_v2 = Edb_persist.Wire_v2
module Frame = Edb_persist.Frame
module Vv = Edb_vv.Version_vector

let set v = Operation.Set v

let hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let encode f = Codec.Writer.with_scratch (fun w -> f w; Codec.Writer.contents w)

let expect_corrupt what f =
  match f () with
  | exception Codec.Reader.Corrupt _ -> ()
  | _ -> Alcotest.fail ("expected Corrupt: " ^ what)

(* ---------- version constants ---------- *)

let test_default_version () =
  Alcotest.(check int) "Frame.max_version" 2 Frame.max_version;
  (* The peer cache's default advertised version is the frame layer's
     maximum — the pessimistic-start negotiation relies on it. *)
  Alcotest.(check int) "fresh node advertises max_version" Frame.max_version
    (Node.wire_version (Node.create ~id:0 ~n:2 ()));
  let n = Node.create ~id:0 ~n:2 () in
  Node.set_wire_version n 1;
  Alcotest.(check int) "pinned" 1 (Node.wire_version n)

(* ---------- pinned v2 fixtures ---------- *)

(* The same scenario as the pinned v1 fixture in [Test_sharding]: two
   fresh n=2 nodes, two updates at the source, one session. Any
   byte-level drift in the v2 reply layout — varint widths, dictionary
   numbering, sparse-vv order, field order — fails here. *)
let pinned_v2_reply =
  "010100020001780100017902020100027631010001020002763201000157029520"

let v2_reply_scenario () =
  let a = Node.create ~id:0 ~n:2 () in
  let b = Node.create ~id:1 ~n:2 () in
  Node.update a "x" (set "v1");
  Node.update a "y" (set "v2");
  Node.handle_propagation_request a (Node.propagation_request b)

let test_v2_reply_fixture () =
  let reply = v2_reply_scenario () in
  let blob = encode (fun w -> Wire_v2.encode_propagation_reply w reply) in
  Alcotest.(check string) "pinned v2 reply bytes" pinned_v2_reply (hex blob);
  let decoded = Wire_v2.decode_propagation_reply (Codec.Reader.create blob) ~n:2 in
  Alcotest.(check bool) "round-trips" true (decoded = reply)

(* Absolute and delta request forms over a hand-built vector, so the
   widths of every field are visible in the fixture. *)
let pinned_v2_request_absolute = "030005000502ac0204110501072a000a01ec07"
let pinned_v2_request_delta = "030109fac0bef5020102a902002b04e21f"

let test_v2_request_fixtures () =
  let req =
    {
      Message.recipient = 3;
      recipient_dbvv = Vv.of_array [| 5; 0; 300; 0; 17; 1; 0; 42 |];
      recipient_shard_dbvvs = [||];
    }
  in
  let absolute = encode (fun w -> Wire_v2.encode_propagation_request w req) in
  Alcotest.(check string) "pinned absolute request" pinned_v2_request_absolute
    (hex absolute);
  let baseline = Vv.of_array [| 5; 0; 3; 0; 17; 1; 0; 42 |] in
  let delta =
    encode (fun w ->
        Wire_v2.encode_propagation_request w ~baseline:(9, baseline) req)
  in
  Alcotest.(check string) "pinned delta request" pinned_v2_request_delta (hex delta);
  Alcotest.(check bool) "delta form is smaller" true
    (String.length delta < String.length absolute);
  (* The delta decodes only against the right baseline. *)
  let resolve id = if id = 9 then Some baseline else None in
  let decoded, used =
    Wire_v2.decode_propagation_request (Codec.Reader.create delta) ~n:8 ~resolve
  in
  Alcotest.(check (option int)) "baseline id used" (Some 9) used;
  Alcotest.(check bool) "vv reconstructed" true
    (Vv.equal decoded.Message.recipient_dbvv req.Message.recipient_dbvv);
  expect_corrupt "unknown baseline" (fun () ->
      Wire_v2.decode_propagation_request (Codec.Reader.create delta) ~n:8
        ~resolve:(fun _ -> None));
  expect_corrupt "baseline checksum mismatch" (fun () ->
      Wire_v2.decode_propagation_request (Codec.Reader.create delta) ~n:8
        ~resolve:(fun _ -> Some (Vv.of_array [| 5; 1; 3; 0; 17; 1; 0; 42 |])))

(* ---------- round-trips over real protocol messages ---------- *)

(* A random script of updates, splices and pulls on a 3-node cluster
   at shard counts 1 and 4. *)
let scripted_cluster =
  QCheck2.Gen.(
    let action = triple (int_bound 3) (int_bound 5) (int_bound 2) in
    pair (oneofl [ 1; 4 ]) (list_size (int_range 0 25) action))

let run_script (shards, script) =
  let n = 3 in
  let cluster = Cluster.create ~seed:17 ~shards ~n () in
  List.iter
    (fun (kind, rank, node) ->
      let item = Printf.sprintf "i%d" rank in
      match kind with
      | 0 | 1 -> Cluster.update cluster ~node ~item (set (Printf.sprintf "v%d-%d" rank node))
      | 2 -> Cluster.update cluster ~node ~item (Operation.Splice { offset = rank; data = "ZZ" })
      | _ -> ignore (Cluster.pull cluster ~recipient:node ~source:((node + 1) mod n)))
    script;
  cluster

(* Drive a random script, then check that every request and reply of
   every node pair survives both codecs structurally intact. *)
let prop_wire_roundtrip =
  QCheck2.Test.make
    ~name:"v1 and v2 codecs round-trip live messages (shards 1 and 4)"
    ~count:60 scripted_cluster
    (fun input ->
      let n = 3 in
      let cluster = run_script input in
      let ok = ref true in
      for r = 0 to n - 1 do
        for s = 0 to n - 1 do
          if r <> s then begin
            let recipient = Cluster.node cluster r in
            let source = Cluster.node cluster s in
            let req = Node.propagation_request_owned recipient in
            let reply = Node.handle_propagation_request source req in
            (* v1 *)
            let req1 =
              Wire.decode_propagation_request
                (Codec.Reader.create
                   (encode (fun w -> Wire.encode_propagation_request w req)))
            in
            let reply1 =
              Wire.decode_propagation_reply
                (Codec.Reader.create
                   (encode (fun w -> Wire.encode_propagation_reply w reply)))
            in
            (* v2 (absolute: no baseline) *)
            let req2, used =
              Wire_v2.decode_propagation_request
                (Codec.Reader.create
                   (encode (fun w -> Wire_v2.encode_propagation_request w req)))
                ~n
                ~resolve:(fun _ -> None)
            in
            let reply2 =
              Wire_v2.decode_propagation_reply
                (Codec.Reader.create
                   (encode (fun w -> Wire_v2.encode_propagation_reply w reply)))
                ~n
            in
            ok :=
              !ok && req1 = req && reply1 = reply && req2 = req && used = None
              && reply2 = reply
          end
        done
      done;
      !ok)

(* A daemon journals a v2 reply's body as the frame carried it, in
   place of re-encoding the decoded reply: the two must be the same
   bytes, or the WAL would depend on which path wrote it. Every reply
   of every node pair, framed at v2, decodes to a body slice equal to
   the encoder's body for the decoded reply. *)
let prop_reply_body_reencodes =
  QCheck2.Test.make ~name:"a v2 reply body is the re-encoding of its decode" ~count:60
    scripted_cluster (fun input ->
      let n = 3 in
      let cluster = run_script input in
      let body reply =
        let blob = encode (fun w -> Wire_v2.encode_propagation_reply w reply) in
        String.sub blob 0 (String.length blob - 4)
      in
      let ok = ref true in
      for r = 0 to n - 1 do
        for s = 0 to n - 1 do
          if r <> s then begin
            let recipient = Cluster.node cluster r and source = Cluster.node cluster s in
            (* The request carries the requester's advertisement, so the
               source answers at v2. *)
            let req, req_id =
              Frame.decode_request source ~src:r (Frame.encode_request recipient ~dst:s)
            in
            let frame =
              Frame.encode_reply source ~dst:r ~req_id (Node.handle_propagation_request source req)
            in
            match Frame.decode_reply_with_body recipient ~src:s frame with
            | Frame.Reply (reply, _), Some (off, len) ->
              ok := !ok && String.sub frame off len = body reply
            | _ -> ok := false
          end
        done
      done;
      !ok)

(* ---------- cross-version matrix ---------- *)

(* Converge the same diverged pair under every (requester, source)
   version combination. Everything must converge to the same state; any
   pair involving a pinned-v1 node must negotiate down to byte-for-byte
   v1 traffic; the all-v2 pair must be strictly cheaper on the wire;
   and the modeled [bytes_sent] must not depend on the codec at all. *)
let matrix_pair ~pin_a ~pin_b =
  let a = Node.create ~id:0 ~n:2 () in
  let b = Node.create ~id:1 ~n:2 () in
  if pin_a then Node.set_wire_version a 1;
  if pin_b then Node.set_wire_version b 1;
  Node.update a "x" (set "ax");
  Node.update a "y" (set (String.make 64 'y'));
  Node.update b "z" (set "bz");
  (* Three exchanges: divergence, then the converged idle round where
     v2's sparse/delta requests and tiny replies pay off. *)
  Frame.sync_pair a b;
  Frame.sync_pair a b;
  Frame.sync_pair a b;
  (a, b)

let test_cross_version_matrix () =
  let summarize (a, b) =
    Alcotest.(check bool) "converged" true (Vv.equal (Node.dbvv a) (Node.dbvv b));
    Alcotest.(check (option string)) "x" (Some "ax") (Node.read b "x");
    Alcotest.(check (option string)) "z" (Some "bz") (Node.read a "z");
    let ca = Node.counters a and cb = Node.counters b in
    ( ca.Counters.wire_bytes_sent + cb.Counters.wire_bytes_sent,
      ca.Counters.bytes_sent + cb.Counters.bytes_sent )
  in
  let v1v1 = summarize (matrix_pair ~pin_a:true ~pin_b:true) in
  let v1v2 = summarize (matrix_pair ~pin_a:true ~pin_b:false) in
  let v2v1 = summarize (matrix_pair ~pin_a:false ~pin_b:true) in
  let v2v2 = summarize (matrix_pair ~pin_a:false ~pin_b:false) in
  (* A pinned-v1 participant forces exactly v1 bytes in both roles. *)
  Alcotest.(check int) "v1<-v2 wire bytes = pure v1" (fst v1v1) (fst v1v2);
  Alcotest.(check int) "v2<-v1 wire bytes = pure v1" (fst v1v1) (fst v2v1);
  Alcotest.(check bool) "all-v2 strictly cheaper" true (fst v2v2 < fst v1v1);
  (* The size model is codec-independent. *)
  Alcotest.(check int) "modeled bytes: v1v2" (snd v1v1) (snd v1v2);
  Alcotest.(check int) "modeled bytes: v2v1" (snd v1v1) (snd v2v1);
  Alcotest.(check int) "modeled bytes: v2v2" (snd v1v1) (snd v2v2)

(* ---------- baseline loss recovers via nak ---------- *)

let test_nak_recovery () =
  let a = Node.create ~id:0 ~n:2 () in
  let b = Node.create ~id:1 ~n:2 () in
  Node.update a "x" (set "v1");
  (* Establish v2 and an acked baseline. *)
  Frame.sync_pair a b;
  Frame.sync_pair a b;
  (* The source crashes and recovers: its volatile retention slots are
     gone, so b's next delta request cannot be resolved. *)
  Peer_cache.reset (Node.peer_cache a);
  Node.update a "x" (set "v2");
  (match Frame.pull ~recipient:b ~source:a () with
  | Node.Pulled _ -> ()
  | Node.Already_current -> Alcotest.fail "b is behind, must pull");
  Alcotest.(check (option string)) "recovered and caught up" (Some "v2")
    (Node.read b "x")

(* ---------- fuzzing: only Corrupt escapes ---------- *)

(* Valid blobs for every message type, built deterministically; the
   fuzzer bit-flips them (or replaces them with garbage) and feeds every
   decoder. Succeeding is fine (the flip may land in a value); any
   exception other than [Corrupt] fails the property. *)
let fuzz_blobs =
  lazy
    (let reply = v2_reply_scenario () in
     let req =
       {
         Message.recipient = 1;
         recipient_dbvv = Vv.of_array [| 2; 1 |];
         recipient_shard_dbvvs = [||];
       }
     in
     let baseline = Vv.of_array [| 1; 1 |] in
     let a = Node.create ~id:0 ~n:2 () in
     let b = Node.create ~id:1 ~n:2 () in
     Node.update a "x" (set "v1");
     let frame_req = Frame.encode_request b ~dst:0 in
     let frame_reply = Frame.respond a ~src:1 frame_req in
     let frame_nak = Frame.encode_nak a ~dst:1 ~req_id:1 in
     let frame_push =
       Frame.encode_push a ~dst:1
         [
           {
             Message.item = "x";
             seq = 1;
             ivv = Vv.of_array [| 1; 0 |];
             value = "v1";
           };
         ]
     in
     [
       ("v1 request", encode (fun w -> Wire.encode_propagation_request w req));
       ("v1 reply", encode (fun w -> Wire.encode_propagation_reply w reply));
       ("v2 request", encode (fun w -> Wire_v2.encode_propagation_request w req));
       ( "v2 delta request",
         encode (fun w ->
             Wire_v2.encode_propagation_request w ~baseline:(1, baseline) req) );
       ("v2 reply", encode (fun w -> Wire_v2.encode_propagation_reply w reply));
       ("frame request", frame_req);
       ("frame reply", frame_reply);
       ("frame nak", frame_nak);
       ("frame push", frame_push);
     ])

(* Run every decoder that could plausibly be handed this blob; each must
   return or raise [Corrupt]. *)
let feed_all_decoders blob =
  let attempts : (unit -> unit) list =
    [
      (fun () ->
        ignore
          (Wire.decode_propagation_request (Codec.Reader.create blob)));
      (fun () ->
        ignore (Wire.decode_propagation_reply (Codec.Reader.create blob)));
      (fun () ->
        ignore
          (Wire_v2.decode_propagation_request (Codec.Reader.create blob) ~n:2
             ~resolve:(fun _ -> Some (Vv.of_array [| 1; 1 |]))));
      (fun () ->
        ignore (Wire_v2.decode_propagation_reply (Codec.Reader.create blob) ~n:2));
      (fun () ->
        let node = Node.create ~id:0 ~n:2 () in
        ignore (Frame.decode_request node ~src:1 blob));
      (fun () ->
        let node = Node.create ~id:1 ~n:2 () in
        ignore (Frame.decode_reply node ~src:0 blob));
      (fun () ->
        let node = Node.create ~id:1 ~n:2 () in
        ignore (Frame.decode_push node ~src:0 blob));
      (fun () -> ignore (Wire_v2.decode_push (Codec.Reader.create blob) ~n:2));
      (fun () -> ignore (Frame.describe ~n:2 blob));
    ]
  in
  List.for_all
    (fun attempt ->
      match attempt () with
      | () -> true
      | exception Codec.Reader.Corrupt _ -> true
      | exception _ -> false)
    attempts

let prop_fuzz_bit_flips =
  QCheck2.Gen.(
    let gen = triple (int_bound 12) (int_bound 10_000) (int_range 1 255) in
    QCheck2.Test.make
      ~name:"bit-flipped frames: every decoder returns or raises Corrupt"
      ~count:400 gen
      (fun (which, position, mask) ->
        let blobs = Lazy.force fuzz_blobs in
        let _, blob = List.nth blobs (which mod List.length blobs) in
        let mutated = Bytes.of_string blob in
        let position = position mod Bytes.length mutated in
        Bytes.set mutated position
          (Char.chr (Char.code (Bytes.get mutated position) lxor mask));
        feed_all_decoders (Bytes.to_string mutated)))

let prop_fuzz_garbage =
  QCheck2.Test.make
    ~name:"random garbage: every decoder returns or raises Corrupt" ~count:300
    QCheck2.Gen.(string_size (int_range 0 120))
    feed_all_decoders

(* Every fuzz blob decodes cleanly before mutation (guards against the
   fuzzers vacuously passing on already-broken fixtures). *)
let test_fuzz_blobs_valid () =
  List.iter
    (fun (name, blob) ->
      match Codec.Reader.create blob with
      | (_ : Codec.Reader.t) -> ()
      | exception Codec.Reader.Corrupt msg ->
        Alcotest.fail (Printf.sprintf "fixture %s invalid: %s" name msg))
    (Lazy.force fuzz_blobs)

(* ---------- stream framing: the incremental reader ---------- *)

(* One fixture frame of every kind, produced by the real encoders over
   a negotiated pair — request, reply, nak and push all ride the same
   stream framing in the socket transport. *)
let stream_fixture_frames () =
  let a = Node.create ~id:0 ~n:2 () in
  let b = Node.create ~id:1 ~n:2 () in
  Node.update a "x" (set "first");
  Node.update a "y" (set (String.make 40 'p'));
  (* Negotiate v2 both ways so the push frame is encodable. *)
  Frame.sync_pair b a;
  Frame.sync_pair a b;
  let request = Frame.encode_request b ~dst:0 in
  let reply = Frame.respond a ~src:1 request in
  let nak = Frame.encode_nak a ~dst:1 ~req_id:7 in
  Node.update a "x" (set "pushed");
  let push =
    Frame.encode_push a ~dst:1
      [ { Message.item = "x"; seq = 3; ivv = Vv.of_array [| 3; 0 |]; value = "pushed" } ]
  in
  [ ("request", request); ("reply", reply); ("nak", nak); ("push", push) ]

(* Feeding a wire stream cut at every possible boundary — including
   mid-length-prefix, mid-header and mid-checksum — must reassemble
   exactly the original records, in order, with nothing left pending. *)
let test_reader_all_split_points () =
  let frames = stream_fixture_frames () in
  let stream = String.concat "" (List.map (fun (_, f) -> Frame.to_wire f) frames) in
  let expected = List.map snd frames in
  let drain reader acc =
    let rec go acc =
      match Frame.Reader.next reader with
      | Some record -> go (record :: acc)
      | None -> acc
    in
    go acc
  in
  for cut = 0 to String.length stream do
    let reader = Frame.Reader.create () in
    Frame.Reader.feed reader ~off:0 ~len:cut stream;
    let acc = drain reader [] in
    Frame.Reader.feed reader ~off:cut ~len:(String.length stream - cut) stream;
    let acc = drain reader acc in
    if List.rev acc <> expected then
      Alcotest.fail (Printf.sprintf "split at byte %d reassembled wrongly" cut);
    Alcotest.(check int)
      (Printf.sprintf "nothing pending after split at %d" cut)
      0
      (Frame.Reader.pending reader)
  done

(* The pathological stream: one byte per feed. *)
let test_reader_byte_at_a_time () =
  let frames = stream_fixture_frames () in
  let stream = String.concat "" (List.map (fun (_, f) -> Frame.to_wire f) frames) in
  let reader = Frame.Reader.create () in
  let acc = ref [] in
  String.iteri
    (fun i _ ->
      Frame.Reader.feed reader ~off:i ~len:1 stream;
      let rec go () =
        match Frame.Reader.next reader with
        | Some record ->
          acc := record :: !acc;
          go ()
        | None -> ()
      in
      go ())
    stream;
  Alcotest.(check bool) "all records, in order" true
    (List.rev !acc = List.map snd frames);
  Alcotest.(check int) "drained" 0 (Frame.Reader.pending reader)

(* Random chunking over a long stream (sizes drawn from the generator):
   the reader must be insensitive to chunk geometry. *)
let prop_reader_random_chunks =
  QCheck2.Test.make ~name:"Frame.Reader: random chunk sizes reassemble" ~count:60
    QCheck2.Gen.(list_size (int_range 1 80) (int_range 1 17))
    (fun sizes ->
      let frames = stream_fixture_frames () in
      let stream =
        String.concat "" (List.map (fun (_, f) -> Frame.to_wire f) frames)
      in
      (* Repeat the fixture stream so the chunk list spans several
         records regardless of the drawn sizes. *)
      let stream = stream ^ stream ^ stream in
      let expected =
        List.concat (List.init 3 (fun _ -> List.map snd frames))
      in
      let reader = Frame.Reader.create () in
      let acc = ref [] in
      let pos = ref 0 in
      let feed len =
        let len = min len (String.length stream - !pos) in
        if len > 0 then begin
          Frame.Reader.feed reader ~off:!pos ~len stream;
          pos := !pos + len;
          let rec go () =
            match Frame.Reader.next reader with
            | Some r ->
              acc := r :: !acc;
              go ()
            | None -> ()
          in
          go ()
        end
      in
      List.iter feed sizes;
      feed (String.length stream - !pos);
      List.rev !acc = expected && Frame.Reader.pending reader = 0)

(* A length prefix claiming more than [max_stream_record] must raise
   Corrupt as soon as the prefix is complete — before any allocation —
   even when the prefix itself arrives byte by byte. *)
let test_reader_oversized_claim () =
  let prefix = Bytes.create 4 in
  Bytes.set_int32_le prefix 0 (Int32.of_int (Frame.max_stream_record + 1));
  let prefix = Bytes.to_string prefix in
  let reader = Frame.Reader.create () in
  Frame.Reader.feed reader ~off:0 ~len:3 prefix;
  Alcotest.(check bool) "incomplete prefix: no record" true
    (Frame.Reader.next reader = None);
  Frame.Reader.feed reader ~off:3 ~len:1 prefix;
  expect_corrupt "oversized stream record" (fun () -> Frame.Reader.next reader);
  (* At the limit itself the claim is accepted and waits for bytes. *)
  let ok = Bytes.create 4 in
  Bytes.set_int32_le ok 0 (Int32.of_int Frame.max_stream_record);
  let reader = Frame.Reader.create () in
  Frame.Reader.feed reader (Bytes.to_string ok);
  Alcotest.(check bool) "limit-sized claim pends" true
    (Frame.Reader.next reader = None)

(* to_wire round-trips a record unchanged (prefix + payload, nothing
   else), so the socket transport ships byte-identical frames. *)
let test_to_wire_roundtrip () =
  List.iter
    (fun (name, frame) ->
      let wire = Frame.to_wire frame in
      Alcotest.(check int)
        (name ^ ": prefix adds 4 bytes")
        (String.length frame + 4) (String.length wire);
      Alcotest.(check string)
        (name ^ ": payload unchanged")
        frame
        (String.sub wire 4 (String.length frame)))
    (stream_fixture_frames ())

let suite =
  [
    Alcotest.test_case "default version constants" `Quick test_default_version;
    Alcotest.test_case "v2 reply fixture (pinned)" `Quick test_v2_reply_fixture;
    Alcotest.test_case "v2 request fixtures (pinned)" `Quick
      test_v2_request_fixtures;
    QCheck_alcotest.to_alcotest prop_wire_roundtrip;
    QCheck_alcotest.to_alcotest prop_reply_body_reencodes;
    Alcotest.test_case "cross-version matrix" `Quick test_cross_version_matrix;
    Alcotest.test_case "nak recovery after baseline loss" `Quick
      test_nak_recovery;
    Alcotest.test_case "fuzz fixtures valid" `Quick test_fuzz_blobs_valid;
    QCheck_alcotest.to_alcotest prop_fuzz_bit_flips;
    QCheck_alcotest.to_alcotest prop_fuzz_garbage;
    Alcotest.test_case "stream reader: every split point" `Quick
      test_reader_all_split_points;
    Alcotest.test_case "stream reader: byte at a time" `Quick
      test_reader_byte_at_a_time;
    QCheck_alcotest.to_alcotest prop_reader_random_chunks;
    Alcotest.test_case "stream reader: oversized claim is corrupt" `Quick
      test_reader_oversized_claim;
    Alcotest.test_case "to_wire round-trip" `Quick test_to_wire_roundtrip;
  ]
