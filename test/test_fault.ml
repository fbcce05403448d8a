(* The failpoint registry, and the recovery guarantees it exists to
   verify: a crash injected anywhere inside the journal-then-apply
   accept path recovers to exactly the pre-session or post-session
   state, never a torn mixture; a bit-flipped checkpoint is rejected
   without touching the running group. *)

module Fault = Edb_fault.Fault
module Wal = Edb_persist.Wal
module Durable = Edb_persist.Durable_node
module Server_group = Edb_server.Server_group
module Node = Edb_core.Node
module Cluster = Edb_core.Cluster
module Operation = Edb_store.Operation

let set v = Operation.Set v

let ok = function Ok v -> v | Error msg -> Alcotest.fail msg

let with_temp_dir f =
  let dir = Filename.temp_file "edb-fault" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      Fault.clear ();
      if Sys.file_exists dir then begin
        Array.iter (fun x -> Sys.remove (Filename.concat dir x)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* [Node.export_state] is already canonical: each shard's item lists
   come out in sorted name order, so states compare with (=). *)
let normalized_state = Node.export_state

(* ---------- Registry semantics ---------- *)

let test_disabled_hit_is_noop () =
  Fault.clear ();
  Fault.hit "never.registered";
  Alcotest.(check bool) "registry off" false (Fault.enabled ());
  Alcotest.(check bool) "not active" false (Fault.active "never.registered")

let test_always_raises_and_disarms () =
  Fault.clear ();
  Fault.with_point "p" (fun () ->
      Alcotest.(check bool) "active while armed" true (Fault.active "p");
      Alcotest.check_raises "fires" (Fault.Injected "p") (fun () -> Fault.hit "p"));
  (* Disarmed however the body exits; the registry switches back off. *)
  Fault.hit "p";
  Alcotest.(check bool) "registry off again" false (Fault.enabled ())

let test_on_hit_fires_exactly_once () =
  Fault.clear ();
  Fault.with_point ~trigger:(Fault.On_hit 3) "k" (fun () ->
      Fault.hit "k";
      Fault.hit "k";
      (try
         Fault.hit "k";
         Alcotest.fail "third hit should fire"
       with Fault.Injected _ -> ());
      (* Exactly the third, not from-the-third-on. *)
      Fault.hit "k";
      Alcotest.(check int) "hits counted" 4 (Fault.hits "k");
      Alcotest.(check int) "fired once" 1 (Fault.fired "k"))

let test_from_hit_fires_from_then_on () =
  Fault.clear ();
  Fault.with_point ~trigger:(Fault.From_hit 2) "k" (fun () ->
      Fault.hit "k";
      (try
         Fault.hit "k";
         Alcotest.fail "second hit should fire"
       with Fault.Injected _ -> ());
      (try
         Fault.hit "k";
         Alcotest.fail "third hit should fire"
       with Fault.Injected _ -> ());
      Alcotest.(check int) "fired twice" 2 (Fault.fired "k"))

let test_call_action_runs_without_raising () =
  Fault.clear ();
  let calls = ref 0 in
  Fault.with_point ~trigger:(Fault.On_hit 2) ~action:(Fault.Call (fun () -> incr calls))
    "cb"
    (fun () ->
      Fault.hit "cb";
      Fault.hit "cb";
      Fault.hit "cb");
  Alcotest.(check int) "callback ran once" 1 !calls

let test_probability_is_deterministic () =
  Fault.clear ();
  let pattern () =
    Fault.seed_prng 42;
    let fired = ref [] in
    Fault.with_point ~trigger:(Fault.Probability 0.3)
      ~action:(Fault.Call (fun () -> fired := Fault.hits "p" :: !fired))
      "p"
      (fun () ->
        for _ = 1 to 200 do
          Fault.hit "p"
        done);
    List.rev !fired
  in
  let a = pattern () and b = pattern () in
  Alcotest.(check (list int)) "same seed, same firings" a b;
  let n = List.length a in
  Alcotest.(check bool) "plausible firing count" true (n > 20 && n < 120)

let test_predicate_trigger () =
  Fault.clear ();
  let fired = ref [] in
  Fault.with_point
    ~trigger:(Fault.Predicate (fun k -> k mod 3 = 0))
    ~action:(Fault.Call (fun () -> fired := Fault.hits "p" :: !fired))
    "p"
    (fun () ->
      for _ = 1 to 7 do
        Fault.hit "p"
      done);
  Alcotest.(check (list int)) "every third hit" [ 3; 6 ] (List.rev !fired)

(* ---------- Crash-atomic AcceptPropagation ---------- *)

(* A remote with two items and a multi-update history, so the accept
   loop has several per-item hits to crash between. *)
let make_remote () =
  let remote = Node.create ~id:1 ~n:2 () in
  Node.update remote "a" (set "va");
  Node.update remote "b" (set "vb");
  Node.update remote "a" (set "va2");
  remote

(* The post-session state, computed by an identical fault-free run on a
   plain in-memory node (the durable wrapper adds no state of its
   own). *)
let control_post_state () =
  let remote = make_remote () in
  let ctrl = Node.create ~id:0 ~n:2 () in
  Node.update ctrl "c" (set "vc");
  let request = Node.propagation_request ctrl in
  let reply = Node.handle_propagation_request remote request in
  let (_ : Node.accept_result) = Node.accept_propagation ctrl ~source:1 reply in
  normalized_state ctrl

type expected = Pre | Post

(* Arm one failpoint, pull through the durable node until it "crashes",
   recover from disk, and demand the recovered state is exactly the
   expected side of the session — never a torn mixture. For [Pre]
   outcomes, additionally demand that simply pulling again reaches the
   post state (the session was invisible, not half-applied). *)
let crash_scenario ~fault ~trigger ~expect () =
  with_temp_dir (fun dir ->
      Fault.clear ();
      let remote = make_remote () in
      let d, _ = ok (Durable.open_or_create ~dir ~id:0 ~n:2 ()) in
      Durable.update d "c" (set "vc");
      let pre = normalized_state (Durable.node d) in
      let post = control_post_state () in
      let crashed =
        try
          Fault.with_point ~trigger fault (fun () ->
              ignore (Durable.pull_from d ~source:remote);
              false)
        with Fault.Injected _ -> true
      in
      Alcotest.(check bool) (fault ^ " fired") true crashed;
      (* Simulate process death: abandon [d] (open channel and all) and
         recover a fresh instance from what reached disk. *)
      let d', (replay : Wal.replay_result) =
        ok (Durable.open_or_create ~dir ~id:0 ~n:2 ())
      in
      let recovered = normalized_state (Durable.node d') in
      (match expect with
      | Pre ->
        Alcotest.(check bool)
          (fault ^ ": recovered to pre-session state")
          true (recovered = pre);
        Alcotest.(check bool)
          (fault ^ ": not the post state")
          true (recovered <> post);
        (* The session left no trace; re-pulling completes it. *)
        (match Durable.pull_from d' ~source:remote with
        | Node.Pulled _ -> ()
        | Node.Already_current -> Alcotest.fail "expected a fresh propagation");
        Alcotest.(check bool)
          (fault ^ ": re-pull reaches post state")
          true
          (normalized_state (Durable.node d') = post)
      | Post ->
        Alcotest.(check bool)
          (fault ^ ": recovered to post-session state")
          true (recovered = post);
        ignore replay);
      Durable.close d')

let test_crash_before_journal =
  crash_scenario ~fault:"durable.journal.before" ~trigger:Fault.Always ~expect:Pre

(* A torn WAL append: the frame's header and half the payload reach
   disk; recovery must discard the tail and land on the pre state. *)
let test_crash_torn_journal_append () =
  with_temp_dir (fun dir ->
      Fault.clear ();
      let remote = make_remote () in
      let d, _ = ok (Durable.open_or_create ~dir ~id:0 ~n:2 ()) in
      Durable.update d "c" (set "vc");
      let pre = normalized_state (Durable.node d) in
      let crashed =
        try
          Fault.with_point "wal.append.partial" (fun () ->
              ignore (Durable.pull_from d ~source:remote);
              false)
        with Fault.Injected _ -> true
      in
      Alcotest.(check bool) "torn append fired" true crashed;
      let d', (replay : Wal.replay_result) =
        ok (Durable.open_or_create ~dir ~id:0 ~n:2 ())
      in
      Alcotest.(check bool) "torn tail detected" true replay.Wal.torn_tail;
      Alcotest.(check bool) "recovered to pre-session state" true
        (normalized_state (Durable.node d') = pre);
      Durable.close d')

let test_crash_after_journal =
  crash_scenario ~fault:"durable.apply.before" ~trigger:Fault.Always ~expect:Post

let test_crash_at_accept_begin =
  crash_scenario ~fault:"accept.begin" ~trigger:Fault.Always ~expect:Post

let test_crash_mid_first_item =
  crash_scenario ~fault:"accept.item" ~trigger:(Fault.On_hit 1) ~expect:Post

let test_crash_mid_second_item =
  crash_scenario ~fault:"accept.item" ~trigger:(Fault.On_hit 2) ~expect:Post

let test_crash_before_tails =
  crash_scenario ~fault:"accept.tail" ~trigger:Fault.Always ~expect:Post

(* Without the durable wrapper there is nothing to recover from: a
   crash mid-accept really does tear the in-memory node (some items
   applied, others not). This is the hazard the WAL commit point
   removes, so pin it down. *)
let test_bare_accept_crash_is_torn () =
  Fault.clear ();
  let remote = make_remote () in
  let bare = Node.create ~id:0 ~n:2 () in
  let request = Node.propagation_request bare in
  let reply = Node.handle_propagation_request remote request in
  (try
     Fault.with_point ~trigger:(Fault.On_hit 2) "accept.item" (fun () ->
         ignore (Node.accept_propagation bare ~source:1 reply))
   with Fault.Injected _ -> ());
  let applied name = Node.read bare name <> None in
  Alcotest.(check bool) "first item applied" true (applied "a" || applied "b");
  Alcotest.(check bool) "second item missing" true
    (not (applied "a" && applied "b"))

(* ---------- Crash-atomic checkpoint ---------- *)

(* The journals a checkpoint folds: plain updates; splices only, which
   a second replay would apply twice; and updates journaled after an
   earlier checkpoint, so the old snapshot a crash falls back on is not
   empty. *)
let checkpoint_journals =
  [
    ( "updates",
      fun d ->
        Durable.update d "a" (set "1");
        Durable.update d "b" (set "2") );
    ( "splices only",
      fun d ->
        Durable.update d "s" (Operation.Splice { offset = 2; data = "xy" });
        Durable.update d "s" (Operation.Splice { offset = 0; data = "z" }) );
    ( "after a checkpoint",
      fun d ->
        Durable.update d "a" (set "1");
        Durable.checkpoint d;
        Durable.update d "a" (set "2");
        Durable.update d "c" (Operation.Splice { offset = 1; data = "q" }) );
  ]

let checkpoint_steps =
  [
    "checkpoint.snapshot.written";
    "checkpoint.journal.retired";
    "checkpoint.snapshot.renamed";
    "checkpoint.journal.dropped";
  ]

(* Crash a checkpoint after each of its steps, over each journal, and
   reopen: the state and the DBVV must be the pre-checkpoint ones, the
   directory must hold no leftover of the protocol, and a second reopen
   (of a node that journaled one more update) must agree too. Before
   the protocol, a crash after the snapshot rename left the new
   snapshot beside the journal it holds, and two updates reopened as
   four. *)
let test_checkpoint_crash_table () =
  List.iter
    (fun (journal, fill) ->
      List.iter
        (fun point ->
          with_temp_dir (fun dir ->
              let case = Printf.sprintf "%s, crash at %s" journal point in
              let d, _ = ok (Durable.open_or_create ~dir ~id:0 ~n:3 ()) in
              fill d;
              let state = normalized_state (Durable.node d) in
              let dbvv = Node.dbvv (Durable.node d) in
              Alcotest.check_raises case (Fault.Injected point) (fun () ->
                  Fault.with_point point (fun () -> Durable.checkpoint d));
              let d, _ = ok (Durable.open_or_create ~dir ~id:0 ~n:3 ()) in
              Alcotest.(check (array int))
                (case ^ ": DBVV")
                (Edb_vv.Version_vector.to_array dbvv)
                (Edb_vv.Version_vector.to_array (Node.dbvv (Durable.node d)));
              Alcotest.(check bool) (case ^ ": state") true
                (normalized_state (Durable.node d) = state);
              Alcotest.(check (list string))
                (case ^ ": no leftover files") []
                (List.filter
                   (fun f -> Filename.check_suffix f ".tmp" || Filename.check_suffix f ".old")
                   (Array.to_list (Sys.readdir dir)));
              Durable.update d "after" (set "reopen");
              let state = normalized_state (Durable.node d) in
              Durable.close d;
              let d, _ = ok (Durable.open_or_create ~dir ~id:0 ~n:3 ()) in
              Alcotest.(check bool) (case ^ ": second reopen") true
                (normalized_state (Durable.node d) = state);
              Durable.close d))
        checkpoint_steps)
    checkpoint_journals

(* ---------- Checkpoint corruption (restore_server) ---------- *)

let test_restore_rejects_bit_flip () =
  with_temp_dir (fun dir ->
      let g = Server_group.create ~seed:5 ~n:3 () in
      ok (Server_group.create_database g "alpha");
      ok (Server_group.create_database g "beta");
      ok (Server_group.update g ~db:"alpha" ~node:0 ~item:"x" (set "x1"));
      ok (Server_group.update g ~db:"beta" ~node:2 ~item:"y" (set "y1"));
      ignore (Server_group.sync_all g);
      ok (Server_group.save_server g ~dir ~node:1);
      (* Diverge server 1 after the checkpoint, so a (partial) restore
         would be observable. *)
      ok (Server_group.update g ~db:"alpha" ~node:1 ~item:"x" (set "x2"));
      let alpha_before =
        normalized_state (Cluster.node (ok (Server_group.cluster g "alpha")) 1)
      in
      (* Flip one payload byte of the *second* database's snapshot:
         phase one must reject the whole restore before phase two
         replaces anything — including the intact first database. *)
      let path = Filename.concat dir "db-0001.snap" in
      let ic = open_in_bin path in
      let blob = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let pos = Bytes.length blob / 2 in
      Bytes.set blob pos (Char.chr (Char.code (Bytes.get blob pos) lxor 0x10));
      let oc = open_out_bin path in
      output_bytes oc blob;
      close_out oc;
      (match Server_group.restore_server g ~dir ~node:1 with
      | Ok () -> Alcotest.fail "bit-flipped checkpoint accepted"
      | Error msg ->
        Alcotest.(check bool) "names the database" true
          (Astring.String.is_infix ~affix:"beta" msg);
        Alcotest.(check bool) "names the corruption" true
          (Astring.String.is_infix ~affix:"corrupt" msg));
      let alpha_after =
        normalized_state (Cluster.node (ok (Server_group.cluster g "alpha")) 1)
      in
      Alcotest.(check bool) "intact database untouched" true
        (alpha_before = alpha_after))

(* And the same checkpoint restores fine when nothing is flipped. *)
let test_restore_intact_checkpoint () =
  with_temp_dir (fun dir ->
      let g = Server_group.create ~seed:5 ~n:3 () in
      ok (Server_group.create_database g "alpha");
      ok (Server_group.update g ~db:"alpha" ~node:0 ~item:"x" (set "x1"));
      ignore (Server_group.sync_all g);
      ok (Server_group.save_server g ~dir ~node:1);
      ok (Server_group.update g ~db:"alpha" ~node:1 ~item:"x" (set "x2"));
      ok (Server_group.restore_server g ~dir ~node:1);
      Alcotest.(check (option string)) "rolled back to checkpoint" (Some "x1")
        (ok (Server_group.read g ~db:"alpha" ~node:1 ~item:"x")))

let suite =
  [
    Alcotest.test_case "disabled hit is a no-op" `Quick test_disabled_hit_is_noop;
    Alcotest.test_case "always fires and disarms" `Quick
      test_always_raises_and_disarms;
    Alcotest.test_case "on-hit fires exactly once" `Quick
      test_on_hit_fires_exactly_once;
    Alcotest.test_case "from-hit fires from then on" `Quick
      test_from_hit_fires_from_then_on;
    Alcotest.test_case "call action" `Quick test_call_action_runs_without_raising;
    Alcotest.test_case "probability is deterministic" `Quick
      test_probability_is_deterministic;
    Alcotest.test_case "predicate trigger" `Quick test_predicate_trigger;
    Alcotest.test_case "crash before journal -> pre" `Quick test_crash_before_journal;
    Alcotest.test_case "torn journal append -> pre" `Quick
      test_crash_torn_journal_append;
    Alcotest.test_case "crash after journal -> post" `Quick test_crash_after_journal;
    Alcotest.test_case "crash at accept begin -> post" `Quick
      test_crash_at_accept_begin;
    Alcotest.test_case "crash mid first item -> post" `Quick
      test_crash_mid_first_item;
    Alcotest.test_case "crash mid second item -> post" `Quick
      test_crash_mid_second_item;
    Alcotest.test_case "crash before tails -> post" `Quick test_crash_before_tails;
    Alcotest.test_case "checkpoint: crash after each step recovers" `Quick
      test_checkpoint_crash_table;
    Alcotest.test_case "bare accept crash is torn" `Quick
      test_bare_accept_crash_is_torn;
    Alcotest.test_case "restore rejects bit flip" `Quick
      test_restore_rejects_bit_flip;
    Alcotest.test_case "restore intact checkpoint" `Quick
      test_restore_intact_checkpoint;
  ]
