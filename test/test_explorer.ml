(* The randomized fault-schedule explorer: 200+ schedules across three
   topologies must pass every check, an injected corruption must be
   caught and shrunk, and everything must be deterministic in the
   seed. *)

module Cluster = Edb_core.Cluster
module Node = Edb_core.Node
module Conflict = Edb_core.Conflict
module Operation = Edb_store.Operation
module Explorer = Edb_check.Explorer
module Oracle = Edb_check.Oracle

let set v = Operation.Set v

let expect_pass label = function
  | Ok ({ Explorer.schedules } : Explorer.report) ->
    Alcotest.(check bool) (label ^ " explored") true (schedules > 0)
  | Error msg -> Alcotest.fail (label ^ " failed:\n" ^ msg)

(* 70 schedules per topology = 210 total, every one through the full
   invariant + oracle-equivalence + conflict-exactness battery. *)
let test_explorer_passes () =
  List.iter
    (fun topology ->
      expect_pass
        (Explorer.topology_name topology)
        (Explorer.run ~topology ~seed:11 ~runs:70 ()))
    [ Explorer.Clique; Explorer.Ring; Explorer.Star ]

let test_explorer_passes_oplog () =
  expect_pass "op-log mode"
    (Explorer.run ~mode:(Node.Op_log { depth = 6 }) ~seed:13 ~runs:25 ())

(* Mutation smoke test: schedules that corrupt a node's state behind
   the protocol's back must be caught, and the report must carry a
   shrunk counterexample plus the replay seed. *)
let test_explorer_catches_mutation () =
  match Explorer.run ~mutate:true ~seed:42 ~runs:20 () with
  | Ok _ -> Alcotest.fail "injected corruption went undetected"
  | Error msg ->
    Alcotest.(check bool) "reports a counterexample" true
      (Astring.String.is_infix ~affix:"counterexample" msg);
    Alcotest.(check bool) "reports the replay seed" true
      (Astring.String.is_infix ~affix:"--seed 42" msg)

(* Determinism: the same seed must explore the same schedules and
   shrink to the identical counterexample report. *)
let test_explorer_deterministic () =
  let once () =
    match Explorer.run ~mutate:true ~seed:77 ~runs:10 () with
    | Ok _ -> Alcotest.fail "injected corruption went undetected"
    | Error msg -> msg
  in
  Alcotest.(check string) "same seed, same report" (once ()) (once ())

(* Regression for conflict-detection exactness (§3, §7): three origins
   update the same item concurrently; after full anti-entropy, every
   node's conflict set must equal the naive oracle's — no missed and no
   spurious conflicts. *)
let test_conflict_exactness_three_origins () =
  let n = 4 in
  let cluster = Cluster.create ~seed:3 ~n () in
  let oracle = Oracle.create ~n in
  let update node op =
    Cluster.update cluster ~node ~item:"x" op;
    Oracle.update oracle ~node ~item:"x" ~op
  in
  let session ~src ~dst =
    ignore (Cluster.pull cluster ~recipient:dst ~source:src);
    Oracle.session oracle ~src ~dst
  in
  (* Three concurrent writers on "x"; node 3 only observes. *)
  update 0 (set "a");
  update 1 (set "b");
  update 2 (set "c");
  for _round = 1 to n + 1 do
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then session ~src ~dst
      done
    done
  done;
  for node = 0 to n - 1 do
    let real =
      List.sort_uniq String.compare
        (List.map (fun (c : Conflict.t) -> c.item) (Node.conflicts (Cluster.node cluster node)))
    in
    Alcotest.(check (list string))
      (Printf.sprintf "node %d conflict set" node)
      (Oracle.conflict_items oracle ~node)
      real
  done;
  (* Every node saw the three-way race. *)
  for node = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "node %d flagged x" node)
      true
      (Oracle.conflicted oracle ~node ~item:"x")
  done

(* A conflict-free workload through run_schedule directly: must pass
   and leave converged replicas. *)
let test_run_schedule_direct () =
  let schedule =
    {
      Explorer.nodes = 3;
      items = 2;
      topology = Explorer.Clique;
      loss = 0.0;
      duplication = 0.0;
      reorder = 0.0;
      seed = 9;
      steps =
        [
          Explorer.Update { node = 0; item = 0; op = set "v1" };
          Explorer.Sync { src = 0; dst = 1 };
          Explorer.Fault (Explorer.Crash 2);
          Explorer.Update { node = 0; item = 1; op = set "v2" };
          Explorer.Fault (Explorer.Recover 2);
          Explorer.Sync { src = 1; dst = 2 };
        ];
      corrupt_at = None;
      granular = false;
      shards = 1;
    }
  in
  match Explorer.run_schedule schedule with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* The same conflict-free workload over the message-granular transport:
   request and reply travel (and fail) separately, yet the run must
   still pass every lockstep check and converge. *)
let test_run_schedule_granular_direct () =
  let schedule =
    {
      Explorer.nodes = 3;
      items = 2;
      topology = Explorer.Clique;
      loss = 0.1;
      duplication = 0.1;
      reorder = 0.1;
      seed = 9;
      steps =
        [
          Explorer.Update { node = 0; item = 0; op = set "v1" };
          Explorer.Sync { src = 0; dst = 1 };
          Explorer.Fault (Explorer.Crash 2);
          Explorer.Update { node = 0; item = 1; op = set "v2" };
          Explorer.Fault (Explorer.Recover 2);
          Explorer.Sync { src = 1; dst = 2 };
        ];
      corrupt_at = None;
      granular = true;
      shards = 1;
    }
  in
  match Explorer.run_schedule schedule with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* The headline chaos soak: 200+ message-granular schedules — per-message
   loss/duplication/reordering, crashes and partitions landing between a
   session's request and reply, timeout/retry/backoff active — all under
   the full invariant + lockstep-oracle battery. *)
let test_explorer_granular_passes () =
  List.iter
    (fun topology ->
      expect_pass
        ("granular " ^ Explorer.topology_name topology)
        (Explorer.run ~granular:true ~topology ~seed:19 ~runs:70 ()))
    [ Explorer.Clique; Explorer.Ring; Explorer.Star ]

(* Granular schedules must still catch out-of-band state corruption. *)
let test_explorer_granular_catches_mutation () =
  match Explorer.run ~granular:true ~mutate:true ~seed:42 ~runs:20 () with
  | Ok _ -> Alcotest.fail "injected corruption went undetected"
  | Error msg ->
    Alcotest.(check bool) "reports a counterexample" true
      (Astring.String.is_infix ~affix:"counterexample" msg);
    Alcotest.(check bool) "schedule is granular" true
      (Astring.String.is_infix ~affix:"granular" msg)

(* Determinism must survive the extra per-message randomness: same seed,
   same schedules, same shrunk counterexample. *)
let test_explorer_granular_deterministic () =
  let once () =
    match Explorer.run ~granular:true ~mutate:true ~seed:77 ~runs:10 () with
    | Ok _ -> Alcotest.fail "injected corruption went undetected"
    | Error msg -> msg
  in
  Alcotest.(check string) "same seed, same report" (once ()) (once ())

(* Push-channel equivalence (DESIGN.md §10): 100 message-granular fault
   schedules per shard count, each executed push-on and pull-only under
   identical randomness; the converged states must be bit-identical.
   Anti-entropy alone carries correctness — the push channel can drop,
   duplicate, reorder or lose anything and the outcome cannot change. *)
let test_push_equivalence () =
  List.iter
    (fun shards ->
      expect_pass
        (Printf.sprintf "push equivalence, shards=%d" shards)
        (Explorer.run_push_equivalence ~shards ~seed:23 ~runs:100 ()))
    [ 1; 4 ]

(* ---------- the CLI's soak front end ---------- *)

(* The built `edb_cli` (the test's dune stanza depends on it), run to
   completion with stdout and stderr captured. *)
let run_cli args =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name "bin/edb_cli.exe")
  in
  let out = Filename.temp_file "edb_cli" ".out" and err = Filename.temp_file "edb_cli" ".err" in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let out_fd = fd out and err_fd = fd err in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin out_fd err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  let status = match Unix.waitpid [] pid with _, Unix.WEXITED c -> c | _ -> -1 in
  let read path =
    let s = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    s
  in
  (status, read out, read err)

let contains affix s = Astring.String.is_infix ~affix s

let test_cli_soak_mutation () =
  let status, out, err = run_cli [ "soak"; "check"; "--mutate"; "--seed"; "42"; "--runs"; "10" ] in
  Alcotest.(check bool) "exits non-zero" true (status <> 0);
  Alcotest.(check bool) "prints the shrunk schedule" true
    (contains "shrunk counterexample:" out && contains "replay with: --seed 42" out);
  Alcotest.(check bool) "reports the failure" true
    (contains "invariant check failed (shrunk counterexample above)" err)

let test_cli_soak_refuses_flag () =
  let status, out, err = run_cli [ "soak"; "shard"; "--topology"; "ring" ] in
  Alcotest.(check int) "a usage error (cmdliner's code)" 124 status;
  Alcotest.(check string) "no battery ran" "" out;
  Alcotest.(check bool) "names the flag" true (contains "soak shard takes no --topology" err);
  Alcotest.(check bool) "prints the usage" true (contains "Usage:" err)

let suite =
  [
    Alcotest.test_case "210 schedules, 3 topologies" `Quick test_explorer_passes;
    Alcotest.test_case "op-log mode schedules" `Quick test_explorer_passes_oplog;
    Alcotest.test_case "mutation smoke test" `Quick test_explorer_catches_mutation;
    Alcotest.test_case "deterministic in the seed" `Quick test_explorer_deterministic;
    Alcotest.test_case "conflict exactness, 3 origins" `Quick
      test_conflict_exactness_three_origins;
    Alcotest.test_case "direct schedule run" `Quick test_run_schedule_direct;
    Alcotest.test_case "direct granular schedule run" `Quick
      test_run_schedule_granular_direct;
    Alcotest.test_case "210 granular schedules, 3 topologies" `Quick
      test_explorer_granular_passes;
    Alcotest.test_case "granular mutation smoke test" `Quick
      test_explorer_granular_catches_mutation;
    Alcotest.test_case "granular deterministic in the seed" `Quick
      test_explorer_granular_deterministic;
    Alcotest.test_case "200 push-equivalence schedules, shards {1,4}" `Quick
      test_push_equivalence;
    Alcotest.test_case "cli: soak check --mutate fails, shrunk" `Quick
      test_cli_soak_mutation;
    Alcotest.test_case "cli: soak refuses a flag its mode lacks" `Quick
      test_cli_soak_refuses_flag;
  ]
