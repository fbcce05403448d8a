(* Tests for the persistence layer: the binary codec, snapshot
   round-trips, corruption rejection, and crash-recovery semantics. *)

module Codec = Edb_persist.Codec
module Snapshot = Edb_persist.Snapshot
module Node = Edb_core.Node
module Cluster = Edb_core.Cluster
module Operation = Edb_store.Operation
module Vv = Edb_vv.Version_vector

let set v = Operation.Set v

(* ---------- Codec ---------- *)

let test_codec_roundtrip_scalars () =
  let w = Codec.Writer.create () in
  Codec.Writer.int w 42;
  Codec.Writer.int w (-7);
  Codec.Writer.int w max_int;
  Codec.Writer.string w "hello";
  Codec.Writer.string w "";
  Codec.Writer.bool w true;
  Codec.Writer.bool w false;
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  Alcotest.(check int) "int" 42 (Codec.Reader.int r);
  Alcotest.(check int) "negative int" (-7) (Codec.Reader.int r);
  Alcotest.(check int) "max_int" max_int (Codec.Reader.int r);
  Alcotest.(check string) "string" "hello" (Codec.Reader.string r);
  Alcotest.(check string) "empty string" "" (Codec.Reader.string r);
  Alcotest.(check bool) "true" true (Codec.Reader.bool r);
  Alcotest.(check bool) "false" false (Codec.Reader.bool r);
  Codec.Reader.expect_end r

let test_codec_roundtrip_containers () =
  let w = Codec.Writer.create () in
  Codec.Writer.list w Codec.Writer.int [ 1; 2; 3 ];
  Codec.Writer.array w Codec.Writer.string [| "a"; "bb" |];
  Codec.Writer.list w Codec.Writer.int [];
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ] (Codec.Reader.list r Codec.Reader.int);
  Alcotest.(check (array string)) "array" [| "a"; "bb" |]
    (Codec.Reader.array r Codec.Reader.string);
  Alcotest.(check (list int)) "empty list" [] (Codec.Reader.list r Codec.Reader.int);
  Codec.Reader.expect_end r

let expect_corrupt f =
  match f () with
  | exception Codec.Reader.Corrupt _ -> ()
  | _ -> Alcotest.fail "expected Corrupt"

let test_codec_rejects_bit_flip () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "important data";
  let blob = Bytes.of_string (Codec.Writer.contents w) in
  Bytes.set blob 10 (Char.chr (Char.code (Bytes.get blob 10) lxor 0x40));
  expect_corrupt (fun () -> Codec.Reader.create (Bytes.to_string blob))

let test_codec_rejects_truncation () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "important data";
  let blob = Codec.Writer.contents w in
  expect_corrupt (fun () ->
      Codec.Reader.create (String.sub blob 0 (String.length blob - 3)))

let test_codec_rejects_short_read_past_end () =
  let w = Codec.Writer.create () in
  Codec.Writer.int w 1;
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  let (_ : int) = Codec.Reader.int r in
  expect_corrupt (fun () -> Codec.Reader.int r)

let test_codec_expect_end_catches_garbage () =
  let w = Codec.Writer.create () in
  Codec.Writer.int w 1;
  Codec.Writer.int w 2;
  let r = Codec.Reader.create (Codec.Writer.contents w) in
  let (_ : int) = Codec.Reader.int r in
  expect_corrupt (fun () -> Codec.Reader.expect_end r)

(* Property: any int/string script round-trips. *)
let prop_codec_roundtrip =
  QCheck2.Gen.(
    let field = oneof [ map (fun i -> `Int i) int; map (fun s -> `Str s) string_small ] in
    QCheck2.Test.make ~name:"codec roundtrips arbitrary scripts" ~count:300 (list field)
      (fun script ->
        let w = Codec.Writer.create () in
        List.iter
          (function `Int i -> Codec.Writer.int w i | `Str s -> Codec.Writer.string w s)
          script;
        let r = Codec.Reader.create (Codec.Writer.contents w) in
        let ok =
          List.for_all
            (function
              | `Int i -> Codec.Reader.int r = i
              | `Str s -> String.equal (Codec.Reader.string r) s)
            script
        in
        Codec.Reader.expect_end r;
        ok))

(* ---------- Node state round-trip ---------- *)

(* A node with every kind of state: regular items, logs from several
   origins, an auxiliary copy with pending deferred updates. *)
let busy_node () =
  let a = Node.create ~id:0 ~n:3 () in
  let b = Node.create ~id:1 ~n:3 () in
  Node.update b "shared" (set "b1");
  Node.update b "b-only" (set "b2");
  let (_ : Node.pull_result) = Node.pull ~recipient:a ~source:b () in
  Node.update a "shared" (set "a1");
  Node.update a "a-only" (Operation.Splice { offset = 1; data = "XY" });
  (* Auxiliary state: fetch a newer copy of an item out of bound and
     defer two updates on it. *)
  Node.update b "hot" (set "h1");
  let (_ : Node.oob_result) = Node.fetch_out_of_bound ~recipient:a ~source:b "hot" in
  Node.update a "hot" (set "h2");
  Node.update a "hot" (set "h3");
  a

(* [Node.export_state] is canonical (per-shard, item lists in sorted
   name order), so structural equality is state equivalence. *)
let nodes_equivalent x y = Node.export_state x = Node.export_state y

(* Property: a script written through [Writer.exact], or through a
   growing writer, gives the bytes of a reference that writes each
   [sealed] field the long way: the Adler-32 of a separately built
   blob, then the blob as a string. Scripts nest sealed fields, so the
   checksums combined from inner blobs are checked too. *)
let prop_writer_exact_and_sealed =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map (fun i -> `Int i) int;
        map (fun s -> `Str s) string_small;
        map (fun v -> `Var v) nat;
      ]
  in
  let script =
    sized
    @@ fix (fun self n ->
           list_size (int_bound 6)
             (if n = 0 then leaf
              else frequency [ (4, leaf); (1, map (fun f -> `Sealed f) (self (n / 3))) ]))
  in
  let rec write w fields =
    List.iter
      (function
        | `Int i -> Codec.Writer.int w i
        | `Str s -> Codec.Writer.string w s
        | `Var v -> Codec.Writer.varint w v
        | `Sealed fields -> Codec.Writer.sealed w (fun w -> write w fields))
      fields
  in
  let rec reference w fields =
    List.iter
      (function
        | `Sealed fields ->
          let inner = Codec.Writer.create () in
          reference inner fields;
          let blob = Codec.Writer.contents inner in
          Codec.Writer.int w (Codec.adler32 blob);
          Codec.Writer.string w blob
        | field -> write w [ field ])
      fields
  in
  QCheck2.Test.make ~name:"writer exact and sealed = reference bytes" ~count:300 script
    (fun fields ->
      let contents f =
        let w = Codec.Writer.create () in
        f w;
        Codec.Writer.contents w
      in
      let expected = contents (fun w -> reference w fields) in
      String.equal (Codec.Writer.exact (fun w -> write w fields)) expected
      && String.equal (contents (fun w -> write w fields)) expected)

let test_snapshot_roundtrip () =
  let original = busy_node () in
  match Snapshot.decode (Snapshot.encode original) with
  | Error msg -> Alcotest.fail msg
  | Ok restored ->
    Alcotest.(check bool) "states equivalent" true (nodes_equivalent original restored);
    (match Node.check_invariants restored with
    | Ok () -> ()
    | Error msg -> Alcotest.fail ("restored node invalid: " ^ msg));
    Alcotest.(check (option string)) "reads aux value" (Some "h3")
      (Node.read restored "hot");
    Alcotest.(check bool) "aux copy restored" true (Node.has_aux restored "hot");
    Alcotest.(check int) "aux log restored" 2
      (Edb_log.Aux_log.length (Node.aux_log restored))

let test_snapshot_rejects_corruption () =
  let blob = Bytes.of_string (Snapshot.encode (busy_node ())) in
  Bytes.set blob 40 (Char.chr (Char.code (Bytes.get blob 40) lxor 1));
  match Snapshot.decode (Bytes.to_string blob) with
  | Error msg ->
    Alcotest.(check bool) "mentions corruption" true
      (Astring.String.is_infix ~affix:"corrupt" msg)
  | Ok _ -> Alcotest.fail "corrupted snapshot must not load"

let test_snapshot_rejects_wrong_magic () =
  let w = Codec.Writer.create () in
  Codec.Writer.string w "NOTASNAP";
  match Snapshot.decode (Codec.Writer.contents w) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic must not load"

let test_snapshot_file_roundtrip () =
  let path = Filename.temp_file "edb-snap" ".bin" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let original = busy_node () in
      Snapshot.save original ~path;
      match Snapshot.load ~path () with
      | Ok restored ->
        Alcotest.(check bool) "file round-trip" true (nodes_equivalent original restored)
      | Error msg -> Alcotest.fail msg)

let test_snapshot_load_missing_file () =
  match Snapshot.load ~path:"/nonexistent/edb.snap" () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must not load"

(* Crash-recovery semantics: a node restored from a checkpoint taken
   before some remote updates looks like a disconnected node, and plain
   anti-entropy brings it up to date. *)
let test_recovered_node_rejoins_epidemic () =
  let a = Node.create ~id:0 ~n:2 () in
  let b = Node.create ~id:1 ~n:2 () in
  Node.update a "x" (set "v1");
  Node.sync_pair a b;
  let checkpoint = Snapshot.encode b in
  (* After the checkpoint, more updates happen elsewhere. *)
  Node.update a "x" (set "v2");
  Node.update a "y" (set "w1");
  (* b crashes and recovers from its checkpoint. *)
  let b' =
    match Snapshot.decode checkpoint with
    | Ok node -> node
    | Error msg -> Alcotest.fail msg
  in
  Alcotest.(check (option string)) "recovered at checkpoint state" (Some "v1")
    (Node.read b' "x");
  (match Node.pull ~recipient:b' ~source:a () with
  | Node.Pulled { copied; conflicts; _ } ->
    Alcotest.(check int) "no conflicts on rejoin" 0 conflicts;
    Alcotest.(check int) "caught up both items" 2 (List.length copied)
  | Node.Already_current -> Alcotest.fail "recovered node must be behind");
  Alcotest.(check (option string)) "x current" (Some "v2") (Node.read b' "x");
  Alcotest.(check (option string)) "y current" (Some "w1") (Node.read b' "y");
  Alcotest.(check bool) "dbvvs equal" true (Vv.equal (Node.dbvv a) (Node.dbvv b'))

(* A recovered node can also serve as a propagation source again: its
   restored log vector still carries forwardable records. *)
let test_recovered_node_forwards () =
  let a = Node.create ~id:0 ~n:3 () in
  let b = Node.create ~id:1 ~n:3 () in
  let c = Node.create ~id:2 ~n:3 () in
  Node.update a "x" (set "v");
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  let b' =
    match Snapshot.decode (Snapshot.encode b) with
    | Ok node -> node
    | Error msg -> Alcotest.fail msg
  in
  (match Node.pull ~recipient:c ~source:b' () with
  | Node.Pulled { copied; _ } -> Alcotest.(check int) "forwarded" 1 (List.length copied)
  | Node.Already_current -> Alcotest.fail "c is behind");
  Alcotest.(check (option string)) "c got it via restored b" (Some "v") (Node.read c "x")

(* Property: export/import round-trips after arbitrary single-writer
   scripts. *)
let prop_state_roundtrip =
  QCheck2.Gen.(
    let action = pair (int_bound 3) (int_bound 5) in
    QCheck2.Test.make ~name:"export/import identity after random runs" ~count:150
      (list_size (int_range 0 40) action)
      (fun script ->
        let cluster = Cluster.create ~seed:31 ~n:3 () in
        List.iter
          (fun (kind, rank) ->
            let item = Printf.sprintf "i%d" rank in
            match kind with
            | 0 | 1 ->
              Cluster.update cluster ~node:(rank mod 3) ~item
                (set (Printf.sprintf "v%d" rank))
            | 2 -> ignore (Cluster.pull cluster ~recipient:0 ~source:1)
            | _ -> ignore (Cluster.pull cluster ~recipient:1 ~source:0))
          script;
        let node = Cluster.node cluster 0 in
        match Snapshot.decode (Snapshot.encode node) with
        | Ok restored ->
          nodes_equivalent node restored && Node.check_invariants restored = Ok ()
        | Error _ -> false))

(* Whether every log record of [node] holds its store item's own name
   string, not an equal copy. *)
let log_records_share_names node =
  let shared = ref true in
  for s = 0 to Node.shards node - 1 do
    let rep = Node.replica node s in
    for origin = 0 to Node.dimension node - 1 do
      Edb_log.Log_component.iter
        (fun (r : Edb_log.Log_record.t) ->
          match Edb_store.Store.find_opt rep.store r.item with
          | Some it -> if it.name != r.item then shared := false
          | None -> ())
        (Edb_log.Log_vector.component rep.logs origin)
    done
  done;
  !shared

(* Property: snapshots are byte-stable. Over random pairs of nodes —
   flat or 4 shards, whole-item or op-log mode — with regular items,
   logs from both origins, auxiliary copies fetched out of bound and
   local updates deferred on them, decoding a snapshot and encoding the
   result gives the same bytes and the same exported state, and the
   decoded log records share their items' name strings. *)
let prop_snapshot_reencodes_identically =
  QCheck2.Gen.(
    let action = pair (int_bound 5) (int_bound 7) in
    QCheck2.Test.make ~name:"snapshot decode/encode is byte-identical" ~count:150
      ~print:QCheck2.Print.(triple bool bool (list (pair int int)))
      (triple bool bool (list_size (int_range 0 40) action))
      (fun (sharded, op_log, script) ->
        let shards = if sharded then 4 else 1 in
        let mode = if op_log then Node.Op_log { depth = 3 } else Node.Whole_item in
        let a = Node.create ~mode ~shards ~id:0 ~n:3 () in
        let b = Node.create ~mode ~shards ~id:1 ~n:3 () in
        List.iter
          (fun (kind, rank) ->
            let item = Printf.sprintf "i%d" rank in
            let value = Printf.sprintf "v%d.%d" kind rank in
            match kind with
            | 0 -> Node.update a item (set value)
            | 1 -> Node.update b item (Operation.Splice { offset = rank; data = value })
            | 2 -> ignore (Node.pull ~recipient:a ~source:b () : Node.pull_result)
            | 3 -> ignore (Node.pull ~recipient:b ~source:a () : Node.pull_result)
            | _ ->
              (* An out-of-bound copy, then a local update deferred on it. *)
              let (_ : Node.oob_result) =
                Node.fetch_out_of_bound ~recipient:a ~source:b item
              in
              Node.update a item (set value))
          script;
        let blob = Snapshot.encode a in
        match Snapshot.decode ~mode blob with
        | Ok restored ->
          String.equal (Snapshot.encode restored) blob
          && Node.export_state restored = Node.export_state a
          && log_records_share_names restored
          (* Conflict reports are volatile, so the restored node cannot
             know that a conflict broke the log bound. *)
          && Node.check_invariants ~log_bound:(Node.conflicts a = []) restored = Ok ()
        | Error msg -> QCheck2.Test.fail_reportf "decode failed: %s" msg))

(* One byte flipped in each region of the image, and the image cut at
   each region boundary: every case is refused. The regions are the
   layout [Snapshot] documents — magic, version, payload checksum,
   payload length, payload body, payload trailer, file trailer. *)
let test_snapshot_corruption_table () =
  let blob = Snapshot.encode (busy_node ()) in
  let total = String.length blob in
  let flip at =
    let b = Bytes.of_string blob in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x10));
    Bytes.to_string b
  in
  let cases =
    [
      ("magic length", flip 0);
      ("magic", flip 10);
      ("version", flip 16);
      ("payload checksum", flip 25);
      ("payload length", flip 32);
      ("payload body, first byte", flip 40);
      ("payload body, middle", flip ((40 + total - 8) / 2));
      ("payload body, last byte", flip (total - 9));
      ("payload trailer", flip (total - 8));
      ("file trailer", flip (total - 1));
    ]
    @ List.map
        (fun cut -> (Printf.sprintf "cut at %d" cut, String.sub blob 0 cut))
        [ 0; 4; 8; 16; 24; 32; 40; total - 8; total - 4; total - 1 ]
  in
  Alcotest.(check bool) "intact image loads" true (Result.is_ok (Snapshot.decode blob));
  List.iter
    (fun (what, image) ->
      match Snapshot.decode image with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: a damaged snapshot loaded" what)
    cases

(* Fuzz: random mutations of a valid snapshot never crash the decoder —
   they either load (mutation hit a don't-care byte and still passed the
   checksum, practically impossible) or return a clean [Error]. *)
let prop_decoder_never_crashes =
  QCheck2.Gen.(
    let gen = pair (int_bound 10_000) (int_bound 255) in
    QCheck2.Test.make ~name:"snapshot decoder survives fuzzing" ~count:300 gen
      (fun (position, byte) ->
        let blob = Bytes.of_string (Snapshot.encode (busy_node ())) in
        let position = position mod Bytes.length blob in
        Bytes.set blob position (Char.chr byte);
        match Snapshot.decode (Bytes.to_string blob) with
        | Ok _ | Error _ -> true))

(* Fuzz: arbitrary garbage is always rejected cleanly. *)
let prop_decoder_rejects_garbage =
  QCheck2.Test.make ~name:"snapshot decoder rejects garbage" ~count:300
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun garbage ->
      match Snapshot.decode garbage with
      | Error _ -> true
      | Ok _ -> (* vanishingly unlikely; would mean a forged checksum *) false)

let suite =
  [
    Alcotest.test_case "codec scalars" `Quick test_codec_roundtrip_scalars;
    QCheck_alcotest.to_alcotest prop_decoder_never_crashes;
    QCheck_alcotest.to_alcotest prop_decoder_rejects_garbage;
    Alcotest.test_case "codec containers" `Quick test_codec_roundtrip_containers;
    Alcotest.test_case "codec rejects bit flip" `Quick test_codec_rejects_bit_flip;
    Alcotest.test_case "codec rejects truncation" `Quick test_codec_rejects_truncation;
    Alcotest.test_case "codec rejects read past end" `Quick
      test_codec_rejects_short_read_past_end;
    Alcotest.test_case "codec expect_end" `Quick test_codec_expect_end_catches_garbage;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_writer_exact_and_sealed;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    QCheck_alcotest.to_alcotest prop_snapshot_reencodes_identically;
    Alcotest.test_case "snapshot corruption table" `Quick test_snapshot_corruption_table;
    Alcotest.test_case "snapshot rejects corruption" `Quick
      test_snapshot_rejects_corruption;
    Alcotest.test_case "snapshot rejects wrong magic" `Quick
      test_snapshot_rejects_wrong_magic;
    Alcotest.test_case "snapshot file round-trip" `Quick test_snapshot_file_roundtrip;
    Alcotest.test_case "snapshot missing file" `Quick test_snapshot_load_missing_file;
    Alcotest.test_case "recovered node rejoins epidemic" `Quick
      test_recovered_node_rejoins_epidemic;
    Alcotest.test_case "recovered node forwards" `Quick test_recovered_node_forwards;
    QCheck_alcotest.to_alcotest prop_state_roundtrip;
  ]
