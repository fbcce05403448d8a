(* Tests for the write-ahead log and the durable node wrapper. *)

module Wal = Edb_persist.Wal
module Codec = Edb_persist.Codec
module Wire = Edb_persist.Wire
module Durable = Edb_persist.Durable_node
module Frame = Edb_persist.Frame
module Node = Edb_core.Node
module Operation = Edb_store.Operation
module Vv = Edb_vv.Version_vector

let set v = Operation.Set v

let ok = function Ok v -> v | Error msg -> Alcotest.fail msg

(* [Wal.replay] with each record copied out, for checking contents. *)
let replay ~path ~f = Wal.replay ~path ~f:(fun data ~off ~len -> f (String.sub data off len))

let with_temp_dir f =
  let dir = Filename.temp_file "edb-wal" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let with_temp_file f =
  let path = Filename.temp_file "edb-wal" ".log" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ---------- WAL framing ---------- *)

let test_wal_roundtrip () =
  with_temp_file (fun path ->
      Sys.remove path;
      let w = Wal.open_writer ~path in
      List.iter (Wal.append w) [ "one"; "two"; ""; "four" ];
      Wal.close_writer w;
      let seen = ref [] in
      let result = ok (replay ~path ~f:(fun r -> seen := r :: !seen)) in
      Alcotest.(check int) "records" 4 result.Wal.records;
      Alcotest.(check bool) "no torn tail" false result.Wal.torn_tail;
      Alcotest.(check (list string)) "in order" [ "one"; "two"; ""; "four" ]
        (List.rev !seen))

let test_wal_missing_file_is_empty () =
  let result = ok (replay ~path:"/nonexistent/edb.wal" ~f:(fun _ -> ())) in
  Alcotest.(check int) "no records" 0 result.Wal.records

let test_wal_append_survives_reopen () =
  with_temp_file (fun path ->
      Sys.remove path;
      let w = Wal.open_writer ~path in
      Wal.append w "first";
      Wal.close_writer w;
      let w = Wal.open_writer ~path in
      Wal.append w "second";
      Wal.close_writer w;
      let count = ref 0 in
      let (_ : Wal.replay_result) = ok (replay ~path ~f:(fun _ -> incr count)) in
      Alcotest.(check int) "both records" 2 !count)

let test_wal_torn_tail_discarded () =
  with_temp_file (fun path ->
      Sys.remove path;
      let w = Wal.open_writer ~path in
      Wal.append w "complete";
      Wal.append w "will-be-torn";
      Wal.close_writer w;
      (* Chop the last 3 bytes: the second frame loses its checksum. *)
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 (String.length data - 3));
      close_out oc;
      let seen = ref [] in
      let result = ok (replay ~path ~f:(fun r -> seen := r :: !seen)) in
      Alcotest.(check int) "one intact record" 1 result.Wal.records;
      Alcotest.(check bool) "torn tail flagged" true result.Wal.torn_tail;
      Alcotest.(check (list string)) "prefix recovered" [ "complete" ] !seen)

(* A damaged frame in the *middle* of the log is not a torn tail — it is
   corruption of data that was durably written and acknowledged, and
   replay must refuse rather than silently drop it and everything
   after. *)
let test_wal_corrupt_record_is_error () =
  with_temp_file (fun path ->
      Sys.remove path;
      let w = Wal.open_writer ~path in
      Wal.append w "good1";
      Wal.append w "damaged";
      Wal.append w "good2";
      Wal.close_writer w;
      (* Flip a payload byte of the middle record: frames are
         8 + len + 4 bytes, so record 2's payload starts at 17 + 8. *)
      let ic = open_in_bin path in
      let data = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let pos = 17 + 8 in
      Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc;
      let seen = ref [] in
      match replay ~path ~f:(fun r -> seen := r :: !seen) with
      | Ok _ -> Alcotest.fail "mid-log corruption not detected"
      | Error msg ->
        Alcotest.(check bool) "names the damage" true
          (Astring.String.is_infix ~affix:"checksum mismatch" msg);
        Alcotest.(check (list string)) "records before the damage applied"
          [ "good1" ] (List.rev !seen))

(* Same for the final frame when it is fully present: only frames cut
   short by end-of-file count as a crash's torn tail. *)
let test_wal_corrupt_last_record_is_error () =
  with_temp_file (fun path ->
      Sys.remove path;
      let w = Wal.open_writer ~path in
      Wal.append w "good";
      Wal.append w "bad";
      Wal.close_writer w;
      let ic = open_in_bin path in
      let data = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let pos = Bytes.length data - 5 in
      Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc data;
      close_out oc;
      match replay ~path ~f:(fun _ -> ()) with
      | Ok _ -> Alcotest.fail "complete-frame corruption not detected"
      | Error msg ->
        Alcotest.(check bool) "names the damage" true
          (Astring.String.is_infix ~affix:"checksum mismatch" msg))

let test_wal_reset () =
  with_temp_file (fun path ->
      Sys.remove path;
      let w = Wal.open_writer ~path in
      Wal.append w "x";
      Wal.close_writer w;
      Wal.reset ~path;
      let result = ok (replay ~path ~f:(fun _ -> ())) in
      Alcotest.(check int) "empty after reset" 0 result.Wal.records)

(* A header claiming a length near [max_int] used to overflow the
   frame-end arithmetic and make [String.sub] raise; it is a torn tail,
   reported as one, and recovery still opens. *)
let test_wal_huge_length_is_torn_tail () =
  with_temp_file (fun path ->
      Sys.remove path;
      let w = Wal.open_writer ~path in
      Wal.append w "intact";
      Wal.close_writer w;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      let header = Bytes.create 8 in
      Bytes.set_int64_le header 0 (Int64.of_int (max_int - 5));
      output_bytes oc header;
      close_out oc;
      let seen = ref [] in
      let result = ok (replay ~path ~f:(fun r -> seen := r :: !seen)) in
      Alcotest.(check int) "intact prefix" 1 result.Wal.records;
      Alcotest.(check bool) "absurd claim read as a torn tail" true result.Wal.torn_tail;
      Alcotest.(check (list string)) "prefix applied" [ "intact" ] !seen)

(* ---------- The checksum kernel ---------- *)

(* The textbook per-byte Adler-32: both sums reduced after every byte. *)
let reference_adler32 s ~off ~len =
  let a = ref 1 and b = ref 0 in
  for i = off to off + len - 1 do
    a := (!a + Char.code s.[i]) mod 65_521;
    b := (!b + !a) mod 65_521
  done;
  (!b lsl 16) lor !a

let prop_adler32_matches_reference =
  let max_len = (3 * 5552) + 7 in
  QCheck2.Test.make ~name:"adler32 kernel = per-byte reference" ~count:300
    QCheck2.Gen.(
      let* s = string_size ~gen:char (int_range 0 max_len) in
      let* off = int_range 0 (String.length s) in
      let* len = int_range 0 (String.length s - off) in
      return (s, off, len))
    (fun (s, off, len) ->
      Codec.adler32 s = reference_adler32 s ~off:0 ~len:(String.length s)
      && Codec.adler32 ~off ~len s = reference_adler32 s ~off ~len)

(* [adler32_combine] over a random split of a string whose length sits
   on a boundary of the kernel's blocks (5552) or of the modulus
   (65521), checked against the per-byte reference of the whole. *)
let prop_adler32_combine =
  let lengths = [ 0; 1; 5551; 5552; 5553; 65_520; 65_521; 65_522; (3 * 5552) + 7 ] in
  QCheck2.Test.make ~name:"adler32_combine = adler32 of the concatenation" ~count:200
    QCheck2.Gen.(
      let* len = oneofl lengths in
      let* s = string_size ~gen:char (return len) in
      let* cut = int_range 0 len in
      return (s, cut))
    (fun (s, cut) ->
      let len = String.length s in
      let a = String.sub s 0 cut and b = String.sub s cut (len - cut) in
      Codec.adler32_combine (Codec.adler32 a) (Codec.adler32 b) (String.length b)
      = reference_adler32 s ~off:0 ~len)

(* All-0xFF input drives both sums to their largest values between
   reductions: the worst case for reducing once per block. *)
let test_adler32_worst_case_bytes () =
  List.iter
    (fun len ->
      let s = String.make len '\255' in
      Alcotest.(check int)
        (Printf.sprintf "%d bytes of 0xFF" len)
        (reference_adler32 s ~off:0 ~len) (Codec.adler32 s);
      Alcotest.(check int)
        (Printf.sprintf "%d bytes of 0xFF from offset 3" len)
        (reference_adler32 s ~off:3 ~len:(len - 3))
        (Codec.adler32 ~off:3 s))
    [ 5551; 5552; 5553; 65_536; 65_536 + 5552 + 1 ];
  Alcotest.(check int) "empty input" 1 (Codec.adler32 "");
  Alcotest.check_raises "range past the end"
    (Invalid_argument "Codec.adler32: range outside the string") (fun () ->
      ignore (Codec.adler32 ~off:2 ~len:3 "abcd"))

(* ---------- Durable node ---------- *)

let reopen ~dir ~id ~n =
  let t, _ = ok (Durable.open_or_create ~dir ~id ~n ()) in
  t

let test_durable_fresh_and_recover_updates () =
  with_temp_dir (fun dir ->
      let d = reopen ~dir ~id:0 ~n:2 in
      Durable.update d "x" (set "v1");
      Durable.update d "x" (set "v2");
      Durable.update d "y" (set "w");
      Alcotest.(check int) "journaled" 3 (Durable.journal_records d);
      Durable.close d;
      (* "Crash" and recover. *)
      let d = reopen ~dir ~id:0 ~n:2 in
      Alcotest.(check (option string)) "x recovered" (Some "v2")
        (Node.read (Durable.node d) "x");
      Alcotest.(check (option string)) "y recovered" (Some "w")
        (Node.read (Durable.node d) "y");
      (* The DBVV (and so the globally visible sequence numbers) are
         reproduced exactly. *)
      Alcotest.(check (array int)) "dbvv exact" [| 3; 0 |]
        (Vv.to_array (Node.dbvv (Durable.node d)));
      Durable.close d)

let test_durable_checkpoint_resets_journal () =
  with_temp_dir (fun dir ->
      let d = reopen ~dir ~id:0 ~n:2 in
      Durable.update d "x" (set "v1");
      Durable.checkpoint d;
      Alcotest.(check int) "journal reset" 0 (Durable.journal_records d);
      Durable.update d "x" (set "v2");
      Durable.close d;
      let d = reopen ~dir ~id:0 ~n:2 in
      Alcotest.(check (option string)) "snapshot + journal" (Some "v2")
        (Node.read (Durable.node d) "x");
      Durable.close d)

let test_durable_recovers_accepted_propagation () =
  with_temp_dir (fun dir ->
      let remote = Node.create ~id:1 ~n:2 () in
      Node.update remote "r" (set "remote-v");
      let d = reopen ~dir ~id:0 ~n:2 in
      (match Durable.pull_from d ~source:remote with
      | Node.Pulled { copied; _ } -> Alcotest.(check int) "copied" 1 (List.length copied)
      | Node.Already_current -> Alcotest.fail "expected propagation");
      Durable.close d;
      let d = reopen ~dir ~id:0 ~n:2 in
      Alcotest.(check (option string)) "remote data recovered" (Some "remote-v")
        (Node.read (Durable.node d) "r");
      Alcotest.(check bool) "dbvv recovered" true
        (Vv.equal (Node.dbvv (Durable.node d)) (Node.dbvv remote));
      (* Invariants hold on the recovered node. *)
      (match Node.check_invariants (Durable.node d) with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg);
      Durable.close d)

let test_durable_exact_seq_reproduction () =
  (* The critical property: updates a peer already pulled keep their
     sequence numbers across recovery — the peer and the recovered node
     agree without conflicts. *)
  with_temp_dir (fun dir ->
      let peer = Node.create ~id:1 ~n:2 () in
      let d = reopen ~dir ~id:0 ~n:2 in
      Durable.update d "x" (set "v1");
      (* The peer pulls BEFORE the crash. *)
      let (_ : Node.pull_result) = Node.pull ~recipient:peer ~source:(Durable.node d) () in
      Durable.update d "x" (set "v2");
      Durable.close d;
      let d = reopen ~dir ~id:0 ~n:2 in
      (* After recovery the peer pulls again: no conflict, clean catch-up. *)
      (match Node.pull ~recipient:peer ~source:(Durable.node d) () with
      | Node.Pulled { conflicts; copied; _ } ->
        Alcotest.(check int) "no conflicts after recovery" 0 conflicts;
        Alcotest.(check (list string)) "catches up" [ "x" ] copied
      | Node.Already_current -> Alcotest.fail "peer is behind");
      Alcotest.(check (option string)) "peer current" (Some "v2") (Node.read peer "x");
      Durable.close d)

let test_durable_rejects_mismatched_identity () =
  with_temp_dir (fun dir ->
      let d = reopen ~dir ~id:0 ~n:2 in
      Durable.update d "x" (set "v");
      Durable.checkpoint d;
      Durable.close d;
      match Durable.open_or_create ~dir ~id:1 ~n:2 () with
      | Error msg ->
        Alcotest.(check bool) "explains mismatch" true
          (Astring.String.is_infix ~affix:"node" msg)
      | Ok _ -> Alcotest.fail "must reject wrong id")

let test_durable_torn_journal_recovers_prefix () =
  with_temp_dir (fun dir ->
      let d = reopen ~dir ~id:0 ~n:2 in
      Durable.update d "x" (set "v1");
      Durable.update d "x" (set "v2");
      Durable.close d;
      (* Tear the journal's tail. *)
      let wal_path = Filename.concat dir "node.wal" in
      let ic = open_in_bin wal_path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin wal_path in
      output_string oc (String.sub data 0 (String.length data - 2));
      close_out oc;
      let d, replay = ok (Durable.open_or_create ~dir ~id:0 ~n:2 ()) in
      Alcotest.(check bool) "torn tail reported" true replay.Wal.torn_tail;
      Alcotest.(check int) "prefix applied" 1 replay.Wal.records;
      Alcotest.(check (option string)) "state at prefix" (Some "v1")
        (Node.read (Durable.node d) "x");
      Durable.close d)

(* A torn tail is cut at open, so what is appended next follows the
   intact prefix: the reopen after that replays every record. Left in
   place, the torn frame's length header would run over the newer
   records — a checksum mismatch when the claim fits (the daemon
   refuses to start), or a torn tail swallowing them when it does not. *)
let test_durable_appends_after_torn_tail () =
  let wal_bytes dir = In_channel.with_open_bin (Filename.concat dir "node.wal") In_channel.input_all in
  List.iter
    (fun (what, keep_of_last) ->
      with_temp_dir (fun dir ->
          let d = reopen ~dir ~id:0 ~n:2 in
          Durable.update d "x" (set "v1");
          Durable.close d;
          let first = String.length (wal_bytes dir) in
          let d = reopen ~dir ~id:0 ~n:2 in
          Durable.update d "x" (set "v2");
          Durable.close d;
          let data = wal_bytes dir in
          Out_channel.with_open_bin (Filename.concat dir "node.wal") (fun oc ->
              output_string oc (String.sub data 0 (first + keep_of_last (String.length data - first))));
          let d, replay = ok (Durable.open_or_create ~dir ~id:0 ~n:2 ()) in
          Alcotest.(check bool) (what ^ ": torn tail reported") true replay.Wal.torn_tail;
          Durable.update d "y" (set "after the tear");
          Durable.update d "z" (set "and another");
          Durable.close d;
          let d, replay = ok (Durable.open_or_create ~dir ~id:0 ~n:2 ()) in
          Alcotest.(check bool) (what ^ ": no torn tail after the appends") false replay.Wal.torn_tail;
          Alcotest.(check int) (what ^ ": every record replayed") 3 replay.Wal.records;
          List.iter
            (fun (item, v) ->
              Alcotest.(check (option string)) (what ^ ": " ^ item) (Some v)
                (Node.read (Durable.node d) item))
            [ ("x", "v1"); ("y", "after the tear"); ("z", "and another") ];
          Durable.close d))
    [ ("torn in its trailer", fun frame -> frame - 2); ("torn in its header", fun _ -> 2) ]

(* [disk_bytes] counts in memory what the files hold: after a
   group-commit batch and its sync, after a checkpoint, and after a
   reopen over a torn tail, where the journal counts the intact prefix
   that open cut it to. *)
let test_durable_disk_bytes_match_files () =
  let file_size path = if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0 in
  with_temp_dir (fun dir ->
      let wal_path = Filename.concat dir "node.wal" in
      let check what d =
        Alcotest.(check (pair int int))
          (what ^ ": (journal, snapshot) as on disk")
          (file_size wal_path, file_size (Filename.concat dir "node.snap"))
          (Durable.disk_bytes d)
      in
      let d = reopen ~dir ~id:0 ~n:2 in
      Durable.set_group_commit d true;
      for i = 0 to 9 do
        Durable.update d (Printf.sprintf "k%d" i) (set (String.make (10 * i) 'v'))
      done;
      Durable.sync d;
      check "group-commit appends, synced" d;
      Durable.checkpoint d;
      check "checkpoint" d;
      Alcotest.(check bool) "a snapshot is counted" true (snd (Durable.disk_bytes d) > 0);
      Durable.update d "x" (set "v1");
      Durable.update d "x" (set "v2");
      Durable.sync d;
      check "appends after the checkpoint" d;
      Durable.close d;
      let data = In_channel.with_open_bin wal_path In_channel.input_all in
      Out_channel.with_open_bin wal_path (fun oc ->
          output_string oc (String.sub data 0 (String.length data - 2)));
      let d, replay = ok (Durable.open_or_create ~dir ~id:0 ~n:2 ()) in
      Alcotest.(check bool) "torn tail reported" true replay.Wal.torn_tail;
      Alcotest.(check int) "the journal counts the intact prefix" replay.Wal.intact
        (fst (Durable.disk_bytes d));
      check "reopen over a torn tail" d;
      Durable.close d)

(* The same script writes byte-identical WALs, and none of their
   records carries the retired push tag 3 — pinned here so a tag
   renumbering or frame change can't silently orphan older WALs. *)
let test_wal_bytes_stable_when_push_off () =
  let run dir =
    let d = reopen ~dir ~id:0 ~n:2 in
    Durable.update d "x" (set "v1");
    Durable.update d "y" (set "w");
    Durable.close d;
    let ic = open_in_bin (Filename.concat dir "node.wal") in
    let data = really_input_string ic (in_channel_length ic) in
    close_in ic;
    data
  in
  let a = with_temp_dir run and b = with_temp_dir run in
  Alcotest.(check string) "push-off WAL bytes deterministic" a b;
  (* No tag-3 (push) records: every journal record of this run starts
     with an update tag. *)
  let seen = ref [] in
  with_temp_dir (fun dir ->
      let d = reopen ~dir ~id:0 ~n:2 in
      Durable.update d "x" (set "v1");
      Durable.update d "y" (set "w");
      Durable.close d;
      let (_ : Wal.replay_result) =
        ok
          (replay
             ~path:(Filename.concat dir "node.wal")
             ~f:(fun r -> seen := r :: !seen))
      in
      List.iter
        (fun r ->
          Alcotest.(check bool) "no push tags in a push-off journal" true
            (String.length r > 0 && r.[0] <> '\003'))
        !seen)

(* ---------- Retired journal tags ---------- *)

(* Records with the layouts older builds gave tags 2 (an adopted
   out-of-bound reply: source, item, value, IVV), 3 (a push: source,
   item, seq, IVV, value) and 4 (a membership reshape: extend by one
   site). *)
let retired_records =
  let record f =
    Codec.Writer.with_scratch (fun w ->
        f w;
        Codec.Writer.contents w)
  in
  let int = Codec.Writer.int and string = Codec.Writer.string in
  let ivv w = Codec.Writer.array w Codec.Writer.int [| 0; 1 |] in
  [
    ( 2,
      record (fun w ->
          int w 2;
          int w 1;
          string w "hot";
          string w "h1";
          ivv w) );
    ( 3,
      record (fun w ->
          int w 3;
          int w 1;
          string w "hot";
          int w 1;
          ivv w;
          string w "pushed") );
    ( 4,
      record (fun w ->
          int w 4;
          int w 0;
          int w 2) );
  ]

(* No daemon wrote tags 2, 3 or 4, and replay no longer knows them: a
   journal holding one after an update fails to open with an [Error]
   naming the tag, never an exception, and keeps every byte. *)
let test_durable_retired_tags_refused () =
  List.iter
    (fun (tag, record) ->
      with_temp_dir (fun dir ->
          let d = reopen ~dir ~id:0 ~n:2 in
          Durable.update d "x" (set "v");
          Durable.close d;
          let path = Durable.journal_path ~dir in
          let w = Wal.open_writer ~path in
          Wal.append_blob w record;
          Wal.close_writer w;
          let read () = In_channel.with_open_bin path In_channel.input_all in
          let before = read () in
          let label = Printf.sprintf "tag %d" tag in
          (match Durable.open_or_create ~dir ~id:0 ~n:2 () with
          | Ok (d, _) ->
            Durable.close d;
            Alcotest.fail (label ^ ": journal opened")
          | Error msg ->
            Alcotest.(check string) (label ^ ": error")
              (Printf.sprintf "corrupt journal record: unknown journal tag %d" tag)
              msg
          | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e));
          Alcotest.(check string) (label ^ ": journal bytes kept") before (read ())))
    retired_records

(* ---------- One record per session effect ---------- *)

let record_tag record = Int64.to_int (String.get_int64_le record 0)

let journal_tags dir =
  let tags = ref [] in
  let (_ : Wal.replay_result) =
    ok
      (replay ~path:(Durable.journal_path ~dir) ~f:(fun r ->
           tags := record_tag r :: !tags))
  in
  List.rev !tags

(* The daemon's catch-up shape: node 0 asks sources 1 and 2 with one
   DBVV and both answer. The second answer repeats the first, so it is
   neither journaled nor applied; a later round where the second answer
   is only partly redundant is journaled like any other. *)
let test_durable_elides_duplicate_reply ~shards () =
  with_temp_dir (fun dir ->
      let s1 = Node.create ~shards ~id:1 ~n:3 () in
      let s2 = Node.create ~shards ~id:2 ~n:3 () in
      List.iter (fun i -> Node.update s1 (Printf.sprintf "k%d" i) (set "a")) [ 0; 1; 2; 3 ];
      let (_ : Node.pull_result) = Node.pull ~recipient:s2 ~source:s1 () in
      let d, _ = ok (Durable.open_or_create ~shards ~dir ~id:0 ~n:3 ()) in
      Durable.update d "mine" (set "m");
      let round () =
        let request = Node.propagation_request (Durable.node d) in
        let r1 = Node.handle_propagation_request s1 request in
        let r2 = Node.handle_propagation_request s2 request in
        let before = Durable.journal_records d in
        Durable.accept_reply d ~source:1 r1;
        Durable.accept_reply d ~source:2 r2;
        Durable.journal_records d - before
      in
      Alcotest.(check int) "duplicate answer not journaled" 1 (round ());
      (* Source 2 learns one more of source 1's writes and adds its own:
         its answer now repeats source 1's but also carries news. *)
      Node.update s1 "k0" (set "b");
      let (_ : Node.pull_result) = Node.pull ~recipient:s2 ~source:s1 () in
      Node.update s2 "own" (set "c");
      Alcotest.(check int) "partly new answer journaled" 2 (round ());
      Alcotest.(check (option string)) "both answers applied" (Some "c")
        (Node.read (Durable.node d) "own");
      let live = Node.export_state (Durable.node d) in
      Alcotest.(check (list int)) "reply records are v2" [ 0; 5; 5; 5 ] (journal_tags dir);
      Durable.close d;
      let d, _ = ok (Durable.open_or_create ~shards ~dir ~id:0 ~n:3 ()) in
      Alcotest.(check bool) "replay reproduces the live state" true
        (Node.export_state (Durable.node d) = live);
      Durable.close d)

(* A reply journaled from the body its v2 frame carried
   ([accept_reply ~wire]) leaves the journal byte for byte as the
   re-encoding of the decoded reply does. *)
let test_durable_wire_body_journal ~shards () =
  with_temp_dir @@ fun framed_dir ->
  with_temp_dir @@ fun encoded_dir ->
  let source = Node.create ~shards ~id:1 ~n:2 () in
  let framed, _ = ok (Durable.open_or_create ~shards ~dir:framed_dir ~id:0 ~n:2 ()) in
  let encoded, _ = ok (Durable.open_or_create ~shards ~dir:encoded_dir ~id:0 ~n:2 ()) in
  List.iter
    (fun i ->
      Node.update source (Printf.sprintf "k%d" (i mod 3)) (set (Printf.sprintf "v%d" i));
      Node.update source (Printf.sprintf "k%d.%d" i i) (set "new");
      let recipient = Durable.node framed in
      let request, req_id =
        Frame.decode_request source ~src:0 (Frame.encode_request recipient ~dst:1)
      in
      let frame =
        Frame.encode_reply source ~dst:0 ~req_id (Node.handle_propagation_request source request)
      in
      match Frame.decode_reply_with_body recipient ~src:1 frame with
      | Frame.Reply (reply, _), Some (off, len) ->
        Durable.accept_reply ~wire:(frame, off, len) framed ~source:1 reply;
        Durable.accept_reply encoded ~source:1 reply
      | _ -> Alcotest.fail "expected a v2 reply")
    [ 0; 1; 2; 3 ];
  Durable.close framed;
  Durable.close encoded;
  let journal dir = In_channel.with_open_bin (Durable.journal_path ~dir) In_channel.input_all in
  Alcotest.(check (list int)) "four tag-5 records" [ 5; 5; 5; 5 ] (journal_tags framed_dir);
  Alcotest.(check string) "the same journal bytes" (journal encoded_dir) (journal framed_dir)

(* Journals written by older builds hold propagation replies as tag-1
   v1 records. A journal of the same sessions in that form must replay
   to the state the current tag-5 journal replays to. *)
let test_durable_v1_reply_journal_compatible ~shards () =
  let n = 3 in
  let source = Node.create ~shards ~id:1 ~n () in
  let replies = ref [] in
  let live =
    with_temp_dir (fun dir ->
        let d, _ = ok (Durable.open_or_create ~shards ~dir ~id:0 ~n ()) in
        List.iter
          (fun i ->
            Node.update source (Printf.sprintf "k%d" (i mod 3)) (set (Printf.sprintf "v%d" i));
            let request = Node.propagation_request (Durable.node d) in
            let reply = Node.handle_propagation_request source request in
            replies := reply :: !replies;
            Durable.accept_reply d ~source:1 reply)
          [ 0; 1; 2; 3; 4 ];
        Alcotest.(check (list int)) "current build writes tag 5" [ 5; 5; 5; 5; 5 ]
          (journal_tags dir);
        Durable.close d;
        let d, _ = ok (Durable.open_or_create ~shards ~dir ~id:0 ~n ()) in
        let state = Node.export_state (Durable.node d) in
        Durable.close d;
        state)
  in
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let w = Wal.open_writer ~path:(Durable.journal_path ~dir) in
      List.iter
        (fun reply ->
          let w' = Codec.Writer.create () in
          Codec.Writer.int w' 1;
          Codec.Writer.int w' 1;
          Wire.encode_propagation_reply w' reply;
          Wal.append w (Codec.Writer.contents w'))
        (List.rev !replies);
      Wal.close_writer w;
      let d, replay = ok (Durable.open_or_create ~shards ~dir ~id:0 ~n ()) in
      Alcotest.(check int) "every v1 record replayed" 5 replay.Wal.records;
      Alcotest.(check bool) "v1 journal replays to the v2 journal's state" true
        (Node.export_state (Durable.node d) = live);
      Durable.close d)

(* ---------- One checksum pass per record, same verdicts ---------- *)

type verdict = Replayed of int * bool | Damaged | Bad_blob of int

(* What a replay that sums each whole frame, then each blob's payload,
   directly concludes: the two-pass reading the one-pass replay must
   agree with. [Bad_blob k]: an intact frame after [k] records holds no
   valid codec blob. *)
let reference_verdict ~blobs data =
  let limit = String.length data in
  let rec loop pos count =
    if pos = limit then Replayed (count, false)
    else if pos + 8 > limit then Replayed (count, true)
    else
      let len = Int64.to_int (String.get_int64_le data pos) in
      if len < 0 then Damaged
      else if len > limit - pos - 12 then Replayed (count, true)
      else if
        Int32.to_int (String.get_int32_le data (pos + 8 + len)) land 0xFFFFFFFF
        <> Codec.adler32 ~off:(pos + 8) ~len data
      then Damaged
      else
        match if blobs then ignore (Codec.Reader.create ~off:(pos + 8) ~len data) with
        | exception Codec.Reader.Corrupt _ -> Bad_blob count
        | () -> loop (pos + 8 + len + 4) (count + 1)
  in
  loop 0 0

let replay_verdict ~blobs path =
  let applied = ref 0 in
  match
    if blobs then Wal.replay_blobs ~path ~f:(fun _ -> incr applied)
    else Wal.replay ~path ~f:(fun _ ~off:_ ~len:_ -> incr applied)
  with
  | Ok r -> Replayed (r.Wal.records, r.Wal.torn_tail)
  | Error _ -> Damaged
  | exception Codec.Reader.Corrupt _ -> Bad_blob !applied

(* Codec blobs as the durable node journals them; one spans more than
   one 5552-byte Adler-32 block. *)
let journal_blobs =
  List.map
    (fun value ->
      Codec.Writer.with_scratch (fun w ->
          Codec.Writer.int w 0;
          Codec.Writer.string w value;
          Codec.Writer.contents w))
    [ "a"; ""; String.make 6000 'v'; "tail" ]

let wal_image append records =
  with_temp_file (fun path ->
      let w = Wal.open_writer ~path in
      List.iter (append w) records;
      Wal.close_writer w;
      In_channel.with_open_bin path In_channel.input_all)

(* [append_blob] takes the frame sum from the blob's trailer; the
   frame must be the one [append] writes by summing the record. *)
let test_wal_append_blob_frames_as_append () =
  Alcotest.(check string) "same bytes" (wal_image Wal.append journal_blobs)
    (wal_image Wal.append_blob journal_blobs)

(* Flip one byte anywhere in a journal image: [replay] (any records,
   some shorter than a codec trailer) and [replay_blobs] (codec blobs)
   must reach the two-pass verdict — torn tail, damaged frame, or a
   bad blob after the same prefix. *)
let prop_one_pass_verdicts =
  let opaque = [ "one"; ""; "ab" ] @ journal_blobs in
  let images =
    [
      (false, (wal_image Wal.append opaque, List.length opaque));
      (true, (wal_image Wal.append_blob journal_blobs, List.length journal_blobs));
    ]
  in
  QCheck2.Test.make ~name:"wal: a flipped byte gets the two-pass verdict" ~count:400
    QCheck2.Gen.(triple bool (float_bound_exclusive 1.0) (int_range 1 255))
    (fun (blobs, at, mask) ->
      let image, records = List.assoc blobs images in
      let pos = int_of_float (at *. float_of_int (String.length image)) in
      let flipped = Bytes.of_string image in
      Bytes.set flipped pos (Char.chr (Char.code image.[pos] lxor mask));
      let flipped = Bytes.to_string flipped in
      with_temp_file (fun path ->
          Out_channel.with_open_bin path (fun oc -> output_string oc flipped);
          reference_verdict ~blobs image = Replayed (records, false)
          && replay_verdict ~blobs path = reference_verdict ~blobs flipped))

(* Property: crash-recovery equivalence. For any script of updates,
   pulls and two-source rounds (one request answered by both remotes,
   as the daemon's concurrent sessions do)
   and any crash point, a node that recovers from disk is in the same
   state as a node that executed the same operations in memory. *)
let prop_crash_recovery_equivalence =
  QCheck2.Gen.(
    let action = pair (int_bound 2) (int_bound 3) in
    let gen = pair (list_size (int_range 1 25) action) (int_bound 25) in
    QCheck2.Test.make ~name:"crash recovery reproduces in-memory state" ~count:60 gen
      (fun (script, crash_at) ->
        with_temp_dir (fun dir ->
            (* Two remote peers provide propagation; the second
               mirrors the first and sometimes writes too. *)
            let make_remotes () =
              let remote = Node.create ~id:1 ~n:3 () in
              Node.update remote "r1" (set "a");
              Node.update remote "r2" (set "b");
              (remote, Node.create ~id:2 ~n:3 ())
            in
            (* Both sources answer one request; the second answer is a
               duplicate of the first or, on odd ranks, partly new. *)
            let two_sources ~accept ~node (r1, r2) i rank =
              Node.update r1 (Printf.sprintf "r%d" rank) (set (Printf.sprintf "v%d" i));
              ignore (Node.pull ~recipient:r2 ~source:r1 ());
              if rank mod 2 = 1 then
                Node.update r2 (Printf.sprintf "s%d" rank) (set (Printf.sprintf "v%d" i));
              let request = Node.propagation_request (node ()) in
              let a = Node.handle_propagation_request r1 request in
              let b = Node.handle_propagation_request r2 request in
              accept ~source:1 a;
              accept ~source:2 b
            in
            let run_step ~update ~pull ~two i (kind, rank) =
              match kind with
              | 0 -> update (Printf.sprintf "i%d" rank) (set (Printf.sprintf "v%d" i))
              | 1 -> pull ()
              | _ -> two i rank
            in
            (* Reference: plain in-memory node. *)
            let remotes_a = make_remotes () in
            let reference = Node.create ~id:0 ~n:3 () in
            List.iteri
              (run_step
                 ~update:(fun item op -> Node.update reference item op)
                 ~pull:(fun () ->
                   ignore (Node.pull ~recipient:reference ~source:(fst remotes_a) ()))
                 ~two:
                   (two_sources
                      ~accept:(fun ~source reply ->
                        ignore (Node.accept_propagation reference ~source reply))
                      ~node:(fun () -> reference)
                      remotes_a))
              script;
            (* Durable run with a crash (close + reopen) at [crash_at]. *)
            let remotes_b = make_remotes () in
            let d = ref (reopen ~dir ~id:0 ~n:3) in
            List.iteri
              (fun i step ->
                if i = crash_at then begin
                  Durable.close !d;
                  d := reopen ~dir ~id:0 ~n:3
                end;
                run_step
                  ~update:(fun item op -> Durable.update !d item op)
                  ~pull:(fun () -> ignore (Durable.pull_from !d ~source:(fst remotes_b)))
                  ~two:
                    (two_sources
                       ~accept:(fun ~source reply -> Durable.accept_reply !d ~source reply)
                       ~node:(fun () -> Durable.node !d)
                       remotes_b)
                  i step)
              script;
            Durable.close !d;
            let recovered = reopen ~dir ~id:0 ~n:3 in
            let state_of node = Node.export_state node in
            let norm (s : Node.State.t) =
              (* Item lists are exported in sorted name order, so the
                 per-shard durable core compares structurally. *)
              Array.map
                (fun (sh : Node.State.shard) -> (sh.dbvv, sh.items, sh.logs))
                s.shards
            in
            let equal =
              norm (state_of reference) = norm (state_of (Durable.node recovered))
            in
            Durable.close recovered;
            equal)))

let suite =
  [
    Alcotest.test_case "wal round-trip" `Quick test_wal_roundtrip;
    QCheck_alcotest.to_alcotest prop_crash_recovery_equivalence;
    Alcotest.test_case "wal: append_blob frames as append" `Quick
      test_wal_append_blob_frames_as_append;
    QCheck_alcotest.to_alcotest prop_one_pass_verdicts;
    Alcotest.test_case "wal missing file" `Quick test_wal_missing_file_is_empty;
    Alcotest.test_case "wal reopen appends" `Quick test_wal_append_survives_reopen;
    Alcotest.test_case "wal torn tail discarded" `Quick test_wal_torn_tail_discarded;
    Alcotest.test_case "wal mid-log corruption is an error" `Quick
      test_wal_corrupt_record_is_error;
    Alcotest.test_case "wal complete-frame corruption is an error" `Quick
      test_wal_corrupt_last_record_is_error;
    Alcotest.test_case "wal reset" `Quick test_wal_reset;
    Alcotest.test_case "wal huge length claim is a torn tail" `Quick
      test_wal_huge_length_is_torn_tail;
    QCheck_alcotest.to_alcotest prop_adler32_matches_reference;
    QCheck_alcotest.to_alcotest prop_adler32_combine;
    Alcotest.test_case "adler32 worst-case bytes" `Quick test_adler32_worst_case_bytes;
    Alcotest.test_case "durable: recover updates" `Quick
      test_durable_fresh_and_recover_updates;
    Alcotest.test_case "durable: disk_bytes match the files" `Quick
      test_durable_disk_bytes_match_files;
    Alcotest.test_case "durable: checkpoint resets journal" `Quick
      test_durable_checkpoint_resets_journal;
    Alcotest.test_case "durable: recover accepted propagation" `Quick
      test_durable_recovers_accepted_propagation;
    Alcotest.test_case "durable: exact seq reproduction" `Quick
      test_durable_exact_seq_reproduction;
    Alcotest.test_case "durable: rejects mismatched identity" `Quick
      test_durable_rejects_mismatched_identity;
    Alcotest.test_case "durable: torn journal recovers prefix" `Quick
      test_durable_torn_journal_recovers_prefix;
    Alcotest.test_case "durable: appends after a torn tail replay" `Quick
      test_durable_appends_after_torn_tail;
    Alcotest.test_case "wal bytes stable with push off" `Quick
      test_wal_bytes_stable_when_push_off;
    Alcotest.test_case "durable: retired journal tags fail to open" `Quick
      test_durable_retired_tags_refused;
    Alcotest.test_case "durable: duplicate reply not journaled" `Quick
      (test_durable_elides_duplicate_reply ~shards:1);
    Alcotest.test_case "durable: duplicate reply not journaled (sharded)" `Quick
      (test_durable_elides_duplicate_reply ~shards:4);
    Alcotest.test_case "durable: a reply body journals as its re-encoding" `Quick
      (test_durable_wire_body_journal ~shards:1);
    Alcotest.test_case "durable: a reply body journals as its re-encoding (sharded)" `Quick
      (test_durable_wire_body_journal ~shards:4);
    Alcotest.test_case "durable: v1 reply journal replays" `Quick
      (test_durable_v1_reply_journal_compatible ~shards:1);
    Alcotest.test_case "durable: v1 reply journal replays (sharded)" `Quick
      (test_durable_v1_reply_journal_compatible ~shards:4);
  ]
