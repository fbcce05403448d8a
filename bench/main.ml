(* The benchmark harness.

   Two complementary views of every experiment in EXPERIMENTS.md:

   1. The deterministic counter tables from [Edb_experiments] — exact,
      machine-independent operation counts reproducing the shape of the
      paper's §6 complexity claims and §8 comparisons.

   2. One Bechamel wall-clock micro-benchmark per experiment table,
      timing the protocol operation at that experiment's core, so the
      asymptotic claims are confirmed in real time units too. *)

open Bechamel
open Toolkit
module Cluster = Edb_core.Cluster
module Node = Edb_core.Node
module Message = Edb_core.Message
module Operation = Edb_store.Operation
module Workload = Edb_workload.Workload
module Demers = Edb_baselines.Demers
module Driver = Edb_baselines.Driver
module Vv = Edb_vv.Version_vector

(* ------------------------------------------------------------------ *)
(* Fixtures shared by the micro-benchmarks                             *)
(* ------------------------------------------------------------------ *)

let seeded_pair ~n_items ~dirty =
  let cluster = Cluster.create ~n:2 () in
  for rank = 0 to n_items - 1 do
    Cluster.update cluster ~node:0 ~item:(Workload.item_name rank) (Operation.Set "s")
  done;
  let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
  for rank = 0 to dirty - 1 do
    Cluster.update cluster ~node:0 ~item:(Workload.item_name rank) (Operation.Set "d")
  done;
  cluster

(* SendPropagation is read-only apart from the IsSelected scratch flags
   (which it resets), so it can be timed repeatedly against a frozen
   recipient DBVV. *)
let bench_send_propagation ~n_items ~dirty =
  let cluster = seeded_pair ~n_items ~dirty in
  let source = Cluster.node cluster 0 in
  let request = Node.propagation_request (Cluster.node cluster 1) in
  Staged.stage (fun () -> ignore (Node.handle_propagation_request source request))

(* E1 — m = 64 dirty items in a 16k-item database. *)
let test_e1 =
  Test.make ~name:"e1 send-propagation N=16384 m=64"
    (bench_send_propagation ~n_items:16_384 ~dirty:64)

(* E1 baseline — the per-item O(N) scan of classic anti-entropy on an
   already-converged pair. *)
let test_e1_baseline =
  let demers = Demers.create ~n:2 ~universe:(Workload.universe 16_384) in
  Demers.session demers ~src:0 ~dst:1;
  Test.make ~name:"e1-baseline demers scan N=16384"
    (Staged.stage (fun () -> Demers.session demers ~src:0 ~dst:1))

(* E2 — same database, 16x the dirty items: time should scale ~16x
   relative to e1. *)
let test_e2 =
  Test.make ~name:"e2 send-propagation N=16384 m=1024"
    (bench_send_propagation ~n_items:16_384 ~dirty:1_024)

(* E3 — identical replicas: the constant-time you-are-current answer. *)
let test_e3 =
  let cluster = seeded_pair ~n_items:16_384 ~dirty:0 in
  let source = Cluster.node cluster 0 in
  let request = Node.propagation_request (Cluster.node cluster 1) in
  Test.make ~name:"e3 you-are-current N=16384"
    (Staged.stage (fun () -> ignore (Node.handle_propagation_request source request)))

(* E4 — the constant-size log record hot path: AddLogRecord with its
   O(1) unlink-and-append (paper Fig. 1). *)
let test_e4 =
  let component = Edb_log.Log_component.create () in
  let seq = ref 0 in
  Test.make ~name:"e4 add-log-record (dedup)"
    (Staged.stage (fun () ->
         incr seq;
         Edb_log.Log_component.add component
           ~item:(if !seq land 1 = 0 then "x" else "y")
           ~seq:!seq))

(* E4 at scale — the same re-add, cycling over 16 384 distinct items, so
   each add finds its pointer and moves a node that sits among 16k
   others rather than one of two that never leave the cache. *)
let test_e4_16k =
  let component = Edb_log.Log_component.create () in
  let names = Array.init 16_384 Workload.item_name in
  let seq = ref 0 in
  Test.make ~name:"e4 add-log-record over 16384 items"
    (Staged.stage (fun () ->
         incr seq;
         Edb_log.Log_component.add component ~item:names.(!seq land 16_383) ~seq:!seq))

(* E5 — serving an out-of-bound request is O(1) in the database size. *)
let test_e5 =
  let cluster = seeded_pair ~n_items:16_384 ~dirty:0 in
  let source = Cluster.node cluster 0 in
  let request = { Message.item = Workload.item_name 7 } in
  Test.make ~name:"e5 serve-out-of-bound N=16384"
    (Staged.stage (fun () -> ignore (Node.serve_out_of_bound source request)))

(* E6/E7 — a full no-op anti-entropy round across 16 converged nodes:
   the steady-state cost the epidemic schedule pays forever. *)
let test_e7 =
  let cluster = Cluster.create ~n:16 () in
  Cluster.update cluster ~node:0 ~item:"x" (Operation.Set "v");
  ignore (Cluster.sync_until_converged cluster);
  Test.make ~name:"e7 idle anti-entropy round n=16"
    (Staged.stage (fun () -> Cluster.random_pull_round cluster))

(* E8 — the per-update bookkeeping: apply + IVV + DBVV + log record. *)
let test_e8 =
  let cluster = Cluster.create ~n:2 () in
  let node = Cluster.node cluster 0 in
  Test.make ~name:"e8 update bookkeeping"
    (Staged.stage (fun () -> Node.update node "hot" (Operation.Set "v")))

(* E9 — the pairwise version-vector comparison every adoption and
   conflict check performs. *)
let test_e9 =
  let a = Vv.of_array (Array.init 16 (fun i -> i)) in
  let b = Vv.of_array (Array.init 16 (fun i -> 16 - i)) in
  Test.make ~name:"e9 vv-compare dim=16"
    (Staged.stage (fun () -> ignore (Vv.compare_vv a b)))

(* E10 — extracting a log tail is linear in the records selected, not
   the log size. *)
let test_e10 =
  let component = Edb_log.Log_component.create () in
  for seq = 1 to 16_384 do
    Edb_log.Log_component.add component ~item:(Workload.item_name seq) ~seq
  done;
  Test.make ~name:"e10 tail-after selecting 64 of 16384"
    (Staged.stage (fun () ->
         ignore (Edb_log.Log_component.tail_after component ~seq:16_320)))

(* E11 — the op-log transport's unit of work: applying one splice to a
   2KB value (vs adopting the whole copy). The value is sized so the
   result string stays under Max_young_wosize (256 words): a 4KB result
   is a major-heap allocation, and with this process's large live heap
   (every benchmark cluster stays reachable) the attendant GC slices are
   bimodal enough to ruin the OLS fit. *)
let test_e11 =
  let base = String.make 2_032 'a' in
  let op = Operation.Splice { offset = 1_000; data = "EDITEDIT" } in
  Test.make ~name:"e11 apply 8B splice to 2KB value"
    (Staged.stage (fun () -> ignore (Operation.apply base op)))

(* E12 — a full pull round-trip between converged nodes: request build,
   you-are-current answer, accept. The steady-state session cost that a
   short anti-entropy period multiplies. *)
let test_e12 =
  let cluster = seeded_pair ~n_items:1_024 ~dirty:0 in
  let a = Cluster.node cluster 0 and b = Cluster.node cluster 1 in
  Test.make ~name:"e12 idle pull round-trip N=1024"
    (Staged.stage (fun () -> ignore (Node.pull ~recipient:b ~source:a ())))

(* E13 — the histogram hot path used while tracking delays. A fresh
   histogram every 4096 adds keeps memory bounded across millions of
   benchmark iterations. *)
let test_e13 =
  let h = ref (Edb_metrics.Histogram.create ()) in
  let i = ref 0 in
  Test.make ~name:"e13 histogram add"
    (Staged.stage (fun () ->
         incr i;
         if !i land 0xFFF = 0 then h := Edb_metrics.Histogram.create ();
         Edb_metrics.Histogram.add !h (float_of_int (!i land 0xFF))))

(* E14 — token ping-pong between two nodes, including the out-of-bound
   copy that travels with each grant. *)
let test_e14 =
  let cluster = Cluster.create ~n:2 () in
  let tokens = Edb_tokens.Token_manager.create cluster in
  Cluster.update cluster ~node:0 ~item:"t" (Operation.Set "v");
  let turn = ref 0 in
  Test.make ~name:"e14 token transfer (ping-pong)"
    (Staged.stage (fun () ->
         turn := 1 - !turn;
         match Edb_tokens.Token_manager.acquire tokens ~node:!turn ~item:"t" with
         | Ok _ -> ()
         | Error (`Cycle _) -> assert false))

(* E15 — the steady-state fast path: with the peer-knowledge cache, an
   idle anti-entropy round on a converged cluster skips every session
   with zero messages (compare e7, the uncached idle round). *)
let test_e15 =
  let cluster = Cluster.create ~cache:true ~n:16 () in
  Cluster.update cluster ~node:0 ~item:"x" (Operation.Set "v");
  ignore (Cluster.sync_until_converged cluster);
  (* Warm every ordered (recipient, source) pair, not just the ring
     neighbours: the measured round draws random sources, and a mix of
     cache-hit and cache-miss sessions inside the closure made the
     regression bimodal (r^2 well under 0.9). With all pairs marked
     current, every iteration is the pure skip path. *)
  let n = 16 in
  for recipient = 0 to n - 1 do
    for source = 0 to n - 1 do
      if source <> recipient then
        ignore (Cluster.pull cluster ~recipient ~source)
    done
  done;
  Test.make ~name:"e15 cached idle round n=16"
    (Staged.stage (fun () -> Cluster.random_pull_round cluster))

(* E16 — parallel multi-database anti-entropy: [sync_all] over
   share-nothing databases, sequential vs fanned out over a Domain
   pool. Identical results by construction; the wall clock divides. *)
let bench_sync_all ~domains =
  let group = Edb_server.Server_group.create ~n:4 () in
  for d = 0 to 7 do
    let db = Printf.sprintf "db%d" d in
    (match Edb_server.Server_group.create_database group db with
    | Ok () -> ()
    | Error msg -> failwith msg);
    for rank = 0 to 511 do
      match
        Edb_server.Server_group.update group ~db ~node:0
          ~item:(Workload.item_name rank) (Operation.Set "s")
      with
      | Ok () -> ()
      | Error msg -> failwith msg
    done
  done;
  let (_ : (string * int) list) = Edb_server.Server_group.sync_all group in
  Staged.stage (fun () ->
      ignore (Edb_server.Server_group.sync_all ~domains group))

let test_e16_seq =
  Test.make ~name:"e16 sync-all 8 dbs domains=1" (bench_sync_all ~domains:1)

let test_e16_par =
  Test.make ~name:"e16 sync-all 8 dbs domains=4" (bench_sync_all ~domains:4)

(* E18 — sharded replicas. Two instances:

   1. Per-shard skipping: a converged sharded pair with dirty items
      confined to one shard answers a propagation request by skipping
      every other shard (their per-shard DBVVs dominate), so the
      session costs one delta regardless of the shard count.

   2. Intra-pair parallelism: [sync_all] over a single fat sharded
      database, where domains beyond one-per-database fan the per-shard
      delta construction and acceptance of each pull out over a Domain
      pool. *)
let bench_e18_skip ~shards =
  let cluster = Cluster.create ~shards ~n:2 () in
  for rank = 0 to 4_095 do
    Cluster.update cluster ~node:0 ~item:(Workload.item_name rank) (Operation.Set "s")
  done;
  let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
  (* Dirty ~64 items that all live in shard 0, leaving every other
     shard converged. *)
  let source = Cluster.node cluster 0 in
  let dirtied = ref 0 in
  let rank = ref 0 in
  while !dirtied < 64 && !rank < 4_096 do
    let name = Workload.item_name !rank in
    if Node.shard_of_item source name = 0 then begin
      Cluster.update cluster ~node:0 ~item:name (Operation.Set "d");
      incr dirtied
    end;
    incr rank
  done;
  let request = Node.propagation_request_owned (Cluster.node cluster 1) in
  Staged.stage (fun () -> ignore (Node.handle_propagation_request source request))

let bench_e18_sync_all ~shards ~domains =
  let group = Edb_server.Server_group.create ~n:8 () in
  (match Edb_server.Server_group.create_database ~shards group "fat" with
  | Ok () -> ()
  | Error msg -> failwith msg);
  for rank = 0 to 2_047 do
    match
      Edb_server.Server_group.update group ~db:"fat" ~node:(rank land 7)
        ~item:(Workload.item_name rank) (Operation.Set "s")
    with
    | Ok () -> ()
    | Error msg -> failwith msg
  done;
  let (_ : (string * int) list) = Edb_server.Server_group.sync_all group in
  let turn = ref 0 in
  Staged.stage (fun () ->
      (* Re-dirty a rotating node so every iteration has one real
         delta to push through the cluster. *)
      incr turn;
      (match
         Edb_server.Server_group.update group ~db:"fat" ~node:(!turn land 7)
           ~item:(Workload.item_name (!turn land 2_047))
           (Operation.Set (string_of_int !turn))
       with
      | Ok () -> ()
      | Error msg -> failwith msg);
      ignore (Edb_server.Server_group.sync_all ~domains group))

(* E19 — wire codec cost: encode+decode of a diverged-session reply
   (16-node cluster, several origins contributed updates) in v1
   fixed-width vs v2 compact form. The bytes v2 saves must not cost
   meaningful CPU: the acceptance bar is v2 within 1.2x of v1. The
   reply is sized so even the v1 frame stays under Max_young_wosize —
   a per-iteration major-heap frame makes the fit as noisy as e11's
   old 4KB splice (see that comment); the per-field cost ratio the
   bench exists to pin is size-independent. *)
let bench_e19_codec ~version =
  let nodes = 16 in
  let cluster = Cluster.create ~n:nodes () in
  for rank = 0 to 3 do
    let name = Workload.item_name rank in
    Cluster.update cluster ~node:rank ~item:name
      (Operation.Set (Workload.payload ~item:name ~seq:1 ~size:64))
  done;
  (* Node 0 gathers everything; node 1 knows only its own update, so
     the reply to node 1 ships tails from several origins plus their
     items. *)
  for peer = 1 to nodes - 1 do
    ignore (Cluster.pull cluster ~recipient:0 ~source:peer)
  done;
  let source = Cluster.node cluster 0 in
  let request = Node.propagation_request_owned (Cluster.node cluster 1) in
  let reply = Node.handle_propagation_request source request in
  let module Codec = Edb_persist.Codec in
  let round_trip =
    if version = 1 then fun () ->
      let data =
        Codec.Writer.with_scratch (fun w ->
            Edb_persist.Wire.encode_propagation_reply w reply;
            Codec.Writer.contents w)
      in
      ignore
        (Edb_persist.Wire.decode_propagation_reply (Codec.Reader.create data))
    else fun () ->
      let data =
        Codec.Writer.with_scratch (fun w ->
            Edb_persist.Wire_v2.encode_propagation_reply w reply;
            Codec.Writer.contents w)
      in
      ignore
        (Edb_persist.Wire_v2.decode_propagation_reply
           (Codec.Reader.create data) ~n:nodes)
  in
  Staged.stage round_trip

let test_e19_v1 =
  Test.make ~name:"e19 reply codec v1" (bench_e19_codec ~version:1)

let test_e19_v2 =
  Test.make ~name:"e19 reply codec v2" (bench_e19_codec ~version:2)

(* E21 — dynamic membership. Two instances:

   1. Join bootstrap: the snapshot-v3 transfer a newcomer pays before
      catch-up anti-entropy starts — encode the donor, decode the blob,
      re-import the state under the vacated slot.

   2. The idle-pull dividend of retirement: an idle session between two
      live members of a 16-member group, with 0 vs 4 members retired.
      Session cost is dominated by the vectors shipped and compared, so
      the retired components' absence is measurable. *)

module Group = Edb_membership.Group
module Snapshot = Edb_persist.Snapshot

let bench_e21_join_bootstrap =
  let cluster = Cluster.create ~n:8 () in
  for rank = 0 to 1_023 do
    Cluster.update cluster ~node:0 ~item:(Workload.item_name rank) (Operation.Set "s")
  done;
  let donor = Cluster.node cluster 0 in
  Staged.stage (fun () ->
      let blob = Snapshot.encode donor in
      match Snapshot.decode blob with
      | Error msg -> failwith msg
      | Ok node ->
        let state = Node.export_state node in
        ignore (Node.import_state { state with Node.State.id = 7 } : Node.t))

let e21_ring_pass g =
  let names =
    Array.to_list (Group.roster g)
    |> List.filter (fun name ->
           Group.alive g ~name
           &&
           match Group.status g ~name with
           | Group.Joining | Group.Active | Group.Draining -> true
           | Group.Departed | Group.Retiring | Group.Retired -> false)
  in
  let arr = Array.of_list names in
  let k = Array.length arr in
  for i = 0 to k - 1 do
    match Group.sync g ~a:arr.(i) ~b:arr.((i + 1) mod k) with
    | Ok () -> ()
    | Error msg -> failwith msg
  done;
  ignore (Group.observe g : Group.event list)

let e21_group ~retired =
  let n = 16 in
  let g = Group.create ~shards:1 ~n () in
  for name = 0 to n - 1 do
    match
      Group.update g ~name ~item:(Workload.item_name name) (Operation.Set "s")
    with
    | Ok () -> ()
    | Error msg -> failwith msg
  done;
  for _ = 1 to n do
    e21_ring_pass g
  done;
  if retired > 0 then begin
    for name = n - retired to n - 1 do
      Group.crash g ~name;
      match Group.retire g ~name with
      | Ok () -> ()
      | Error msg -> failwith msg
    done;
    for _ = 1 to n do
      e21_ring_pass g
    done
  end;
  assert (Group.converged g && Group.pending_fences g = []);
  g

let bench_e21_idle_pull ~retired =
  let g = e21_group ~retired in
  Staged.stage (fun () ->
      match Group.sync g ~a:0 ~b:1 with
      | Ok () -> ()
      | Error msg -> failwith msg)

let test_e21_join =
  Test.make ~name:"e21 join bootstrap n=8 items=1024" bench_e21_join_bootstrap

let test_e21_idle_pre =
  Test.make ~name:"e21 idle pull n=16 retired=0" (bench_e21_idle_pull ~retired:0)

let test_e21_idle_post =
  Test.make ~name:"e21 idle pull n=16 retired=4" (bench_e21_idle_pull ~retired:4)

let micro_tests ~shards =
  let test_e18_skip =
    Test.make
      ~name:(Printf.sprintf "e18 sharded skip shards=%d m=64" shards)
      (bench_e18_skip ~shards)
  in
  let test_e18_syncall_seq =
    Test.make
      ~name:(Printf.sprintf "e18 sync-all 1 db shards=%d domains=1" shards)
      (bench_e18_sync_all ~shards ~domains:1)
  in
  let test_e18_syncall_par =
    Test.make
      ~name:(Printf.sprintf "e18 sync-all 1 db shards=%d domains=4" shards)
      (bench_e18_sync_all ~shards ~domains:4)
  in
  [
    test_e1;
    test_e1_baseline;
    test_e2;
    test_e3;
    test_e4;
    test_e4_16k;
    test_e5;
    test_e7;
    test_e8;
    test_e9;
    test_e10;
    test_e11;
    test_e12;
    test_e13;
    test_e14;
    test_e15;
    test_e16_seq;
    test_e16_par;
    test_e18_skip;
    test_e18_syncall_seq;
    test_e18_syncall_par;
    test_e19_v1;
    test_e19_v2;
    test_e21_join;
    test_e21_idle_pre;
    test_e21_idle_post;
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel driver                                                     *)
(* ------------------------------------------------------------------ *)

type micro_result = {
  name : string;
  ns_per_op : float option;
  r_square : float option;
  minor_words : float option;
      (* Minor-heap words allocated per operation — the allocation-free
         hot-path regression gate. *)
}

let estimate ols_result =
  match Analyze.OLS.estimates ols_result with
  | Some (value :: _) -> Some value
  | Some [] | None -> None

let run_micro_benchmarks ~shards () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  (* Both instances are recorded in the same run: wall clock for the
     asymptotic claims, minor words for the allocation claims. *)
  let instances = Instance.[ monotonic_clock; minor_allocated ] in
  let cfg =
    Benchmark.cfg ~limit:3_000 ~quota:(Time.second 0.5) ~stabilize:false
      ~kde:(Some 1_000) ()
  in
  let grouped = Test.make_grouped ~name:"edb" ~fmt:"%s %s" (micro_tests ~shards) in
  let raw = Benchmark.all cfg instances grouped in
  let clock_results = Analyze.all ols Instance.monotonic_clock raw in
  let minor_results = Analyze.all ols Instance.minor_allocated raw in
  let names =
    Hashtbl.fold (fun name _ acc -> name :: acc) clock_results []
    |> List.sort String.compare
  in
  List.map
    (fun name ->
      let clock = Hashtbl.find clock_results name in
      let minor = Hashtbl.find_opt minor_results name in
      {
        name;
        ns_per_op = estimate clock;
        r_square = Analyze.OLS.r_square clock;
        minor_words = Option.bind minor estimate;
      })
    names

(* ------------------------------------------------------------------ *)
(* E22 — daemon throughput: the N-process select-loop cluster          *)
(*                                                                     *)
(* Unlike the in-process micro-benchmarks above, these instances time  *)
(* the real `edb_cli serve` engine: N daemon processes over Unix-domain*)
(* sockets, non-blocking writes, WAL group commit. Two rates per       *)
(* anti-entropy fan-out (max_sessions = 1 / 4 / 8):                    *)
(*                                                                     *)
(*   sessions   — completed initiator sessions (real + no-op) per      *)
(*                second cluster-wide, from source-side counter deltas *)
(*                over a fixed idle window;                            *)
(*   visibility — update-visibility events per second: K updates       *)
(*                spread round-robin, each visible on the n-1 other    *)
(*                nodes once `await_converged` returns.                *)
(*                                                                     *)
(* fan-out=1 restores the old one-session-at-a-time loop, so the pair  *)
(* is the before/after for the concurrent event loop. Wall-clock       *)
(* rates from a 9-process cluster on a shared box, so no OLS fit:      *)
(* ns_per_op = 1e9 / rate, r² and minor words are n/a.                 *)
(* ------------------------------------------------------------------ *)

module Harness = Edb_transport.Harness

(* The daemons are `edb_cli serve` processes; dune builds edb_cli next
   to this executable (the bench rules depend on it). *)
let edb_cli =
  lazy
    (let exe =
       Filename.concat
         (Filename.dirname Sys.executable_name)
         (Filename.concat Filename.parent_dir_name "bin/edb_cli.exe")
     in
     if not (Sys.file_exists exe) then
       failwith (Printf.sprintf "daemon bench: %s not built (dune build bin/edb_cli.exe)" exe);
     exe)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(* Sessions are charged on the source side (`Node.handle_sharded`), so
   the cluster-wide completed-session count is the sum over all nodes
   of both session counters. *)
let daemon_session_total h ~n =
  let total = ref 0 in
  for node = 0 to n - 1 do
    match Harness.counters_of h ~node with
    | Error msg -> failwith ("daemon bench counters: " ^ msg)
    | Ok fields ->
        List.iter
          (fun (field, v) ->
            match field with
            | "propagation_sessions" | "noop_sessions" -> total := !total + v
            | _ -> ())
          fields
  done;
  !total

let run_daemon_fanout ~quick ~fanout =
  let n = 9 in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "edb-bench-daemon-%d-f%d" (Unix.getpid ()) fanout)
  in
  rm_rf dir;
  (* 20 ms ticks: the single-session baseline is then bounded by its
     one-dial-per-tick serialization (the regime the tentpole attacks),
     not by this container's single core — cranking the tick rate until
     fan-out=1 saturates the CPU would flatten the very ratio the
     instances exist to show. *)
  let h =
    Harness.start ~exe:(Lazy.force edb_cli) ~ae_period:0.02 ~seed:(41 + fanout)
      ~max_sessions:fanout ~dir ~n ()
  in
  Fun.protect
    ~finally:(fun () ->
      Harness.shutdown h;
      rm_rf dir)
    (fun () ->
      (* Warm up to an identical steady state: one update per node,
         fully converged, every daemon past its boot transient. *)
      for node = 0 to n - 1 do
        match
          Harness.update h ~node
            ~item:(Printf.sprintf "seed.%d" node)
            (Operation.Set "s")
        with
        | Ok () -> ()
        | Error msg -> failwith ("daemon bench warm-up update: " ^ msg)
      done;
      (match Harness.await_converged ~deadline:60.0 h with
      | Ok _ -> ()
      | Error msg -> failwith ("daemon bench warm-up: " ^ msg));
      let window = if quick then 0.8 else 2.5 in
      let c0 = daemon_session_total h ~n in
      let t0 = Unix.gettimeofday () in
      Unix.sleepf window;
      let elapsed = Unix.gettimeofday () -. t0 in
      let c1 = daemon_session_total h ~n in
      let sessions = max 1 (c1 - c0) in
      let ns_session = elapsed *. 1e9 /. float_of_int sessions in
      let k = if quick then 18 else 64 in
      let t1 = Unix.gettimeofday () in
      for i = 0 to k - 1 do
        match
          Harness.update h ~node:(i mod n)
            ~item:(Printf.sprintf "vis.%d" i)
            (Operation.Set (string_of_int i))
        with
        | Ok () -> ()
        | Error msg -> failwith ("daemon bench visibility update: " ^ msg)
      done;
      (match Harness.await_converged ~deadline:60.0 h with
      | Ok _ -> ()
      | Error msg -> failwith ("daemon bench visibility: " ^ msg));
      let vis_elapsed = Unix.gettimeofday () -. t1 in
      let ns_visibility = vis_elapsed *. 1e9 /. float_of_int (k * (n - 1)) in
      (ns_session, ns_visibility))

let daemon_fanouts = [ 1; 4; 8 ]

let run_daemon_benchmarks ~quick () =
  List.concat_map
    (fun fanout ->
      let ns_session, ns_visibility = run_daemon_fanout ~quick ~fanout in
      [
        {
          name = Printf.sprintf "edb e22 daemon sessions fan-out=%d" fanout;
          ns_per_op = Some ns_session;
          r_square = None;
          minor_words = None;
        };
        {
          name = Printf.sprintf "edb e22 daemon visibility fan-out=%d" fanout;
          ns_per_op = Some ns_visibility;
          r_square = None;
          minor_words = None;
        };
      ])
    daemon_fanouts

(* ------------------------------------------------------------------ *)
(* E23 — recovery: journal replay per shipped item                     *)
(*                                                                     *)
(* A daemon's restart is checkpoint load plus WAL replay, and replay   *)
(* re-runs AcceptPropagation for every item its journaled replies      *)
(* shipped. The instance journals [rounds] pulls of a durable node 2   *)
(* (n = 3) from a writer that makes 1000 updates of 100-byte values    *)
(* over 14 000 items between pulls, then times [Durable_node.          *)
(* open_or_create] over that journal: WAL scan, decode and apply. One  *)
(* op is one shipped item; wall clock, best of the repetitions, so no  *)
(* OLS fit and no minor words.                                         *)
(* ------------------------------------------------------------------ *)

module Durable = Edb_persist.Durable_node

let run_replay_benchmark ~quick () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "edb-bench-replay-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let open_node () =
    match Durable.open_or_create ~dir ~id:2 ~n:3 () with
    | Ok (d, _) -> d
    | Error msg -> failwith ("replay bench: " ^ msg)
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let writer = Node.create ~id:0 ~n:3 () in
      let prng = Edb_util.Prng.create ~seed:23 in
      let d = open_node () in
      let shipped = ref 0 in
      for round = 1 to if quick then 12 else 54 do
        for _ = 1 to 1_000 do
          let item = Workload.item_name (Edb_util.Prng.int prng 14_000) in
          Node.update writer item
            (Operation.Set (Workload.payload ~item ~seq:round ~size:100))
        done;
        match Durable.pull_from d ~source:writer with
        | Node.Pulled r -> shipped := !shipped + List.length r.copied
        | Node.Already_current -> ()
      done;
      Durable.close d;
      let best = ref infinity in
      for _ = 1 to if quick then 3 else 9 do
        let t0 = Unix.gettimeofday () in
        let d = open_node () in
        best := Float.min !best (Unix.gettimeofday () -. t0);
        Durable.close d
      done;
      [
        {
          name = "edb e23 journal replay per shipped item";
          ns_per_op = Some (!best *. 1e9 /. float_of_int !shipped);
          r_square = None;
          minor_words = None;
        };
      ])

let print_micro_table results =
  let table =
    Edb_metrics.Table.create
      ~title:"Wall-clock micro-benchmarks (monotonic clock + minor words/op)"
      ~columns:[ "benchmark"; "ns/op"; "minor words"; "r^2" ]
  in
  let cell fmt = function Some v -> Printf.sprintf fmt v | None -> "n/a" in
  List.iter
    (fun r ->
      Edb_metrics.Table.add_row table
        [
          r.name;
          cell "%.1f" r.ns_per_op;
          cell "%.1f" r.minor_words;
          cell "%.4f" r.r_square;
        ])
    results;
  Edb_metrics.Table.print table

(* ------------------------------------------------------------------ *)
(* JSON emission: the machine-readable perf trajectory                 *)
(* ------------------------------------------------------------------ *)

module Json = Edb_metrics.Json

let json_schema_version = 1

let json_of_results ~quick experiments results =
  let num = function Some v -> Json.Float v | None -> Json.Null in
  let benchmarks =
    List.map
      (fun r ->
        ( r.name,
          Json.Obj
            [
              ("ns_per_op", num r.ns_per_op);
              ("minor_words", num r.minor_words);
              ("r_square", num r.r_square);
            ] ))
      results
  in
  Json.Obj
    [
      ("schema", Json.Int json_schema_version);
      ( "generated_by",
        Json.String
          (if quick then "dune exec bench/main.exe -- --quick --json"
           else "dune exec bench/main.exe -- --json") );
      ("quick", Json.Bool quick);
      (* The host shape every number above depends on. *)
      ("host", Json.Obj [ ("cores", Json.Int (Domain.recommended_domain_count ())) ]);
      ("benchmarks", Json.Obj benchmarks);
      ( "experiments",
        Json.List (List.map (fun (_, table) -> Json.of_table table) experiments) );
    ]

let write_json ~quick ~path experiments results =
  let doc = json_of_results ~quick experiments results in
  let oc = open_out_bin path in
  output_string oc (Json.to_string doc);
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  (* The PR 5 stabilization trick, one level up: the measured closures
     already keep their per-op allocations on the minor heap (see e11,
     e15, e19), but this process carries every suite's live clusters,
     so with the default 256K-word nursery the minor collections that
     do land inside a sample are dominated by major GC slices. An 8M-
     word nursery makes them ~32× rarer, so far fewer samples carry a
     slice and the OLS fits (e10, e19 v1 were the noisy ones) tighten. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 };
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let json = List.mem "--json" argv in
  let shards =
    let rec find = function
      | "--shards" :: k :: _ -> int_of_string k
      | _ :: rest -> find rest
      | [] -> 16
    in
    find argv
  in
  let out =
    let rec find = function
      | "--out" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    Option.value (find argv) ~default:"BENCH_micro.json"
  in
  print_endline "=== Experiment tables (deterministic operation counts) ===";
  print_newline ();
  let experiments = Edb_experiments.Experiments.all ~quick () in
  List.iter
    (fun (id, table) ->
      Printf.printf "[%s]\n" id;
      Edb_metrics.Table.print table)
    experiments;
  print_endline "=== Bechamel micro-benchmarks ===";
  print_newline ();
  let results = run_micro_benchmarks ~shards () in
  print_endline "=== Daemon throughput (N-process select-loop cluster) ===";
  print_newline ();
  let daemon = run_daemon_benchmarks ~quick () in
  let replay = run_replay_benchmark ~quick () in
  let results =
    List.sort (fun a b -> String.compare a.name b.name) (results @ daemon @ replay)
  in
  print_micro_table results;
  if json then write_json ~quick ~path:out experiments results
