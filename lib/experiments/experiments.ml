module Cluster = Edb_core.Cluster
module Node = Edb_core.Node
module Operation = Edb_store.Operation
module Counters = Edb_metrics.Counters
module Table = Edb_metrics.Table
module Workload = Edb_workload.Workload
module Demers = Edb_baselines.Demers
module Lotus = Edb_baselines.Lotus
module Oracle = Edb_baselines.Oracle_push
module Wuu = Edb_baselines.Wuu_bernstein
module Driver = Edb_baselines.Driver
module Engine = Edb_sim.Engine
module Frame = Edb_persist.Frame
module Wire_v2 = Edb_persist.Wire_v2
module Codec = Edb_persist.Codec
module Group = Edb_membership.Group
module Scenario = Edb_scenario.Scenario
module Orchestrator = Edb_scenario.Orchestrator

let item = Workload.item_name

let payload ~rank ~seq = Workload.payload ~item:(item rank) ~seq ~size:64

(* Update the first [m] items of the universe at [node], stamping them
   with [seq] so repeated dirtying produces fresh values. *)
let dirty_first_m ~update ~node ~m ~seq =
  for rank = 0 to m - 1 do
    update ~node ~item:(item rank) ~op:(Operation.Set (payload ~rank ~seq))
  done

(* A two-node epidemic cluster pre-converged on a universe of [n_items]
   items (every item updated once at node 0 and propagated to node 1). *)
let seeded_pair ~n_items =
  let cluster = Cluster.create ~n:2 () in
  dirty_first_m
    ~update:(fun ~node ~item ~op -> Cluster.update cluster ~node ~item op)
    ~node:0 ~m:n_items ~seq:1;
  let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
  Cluster.reset_counters cluster;
  cluster

(* ------------------------------------------------------------------ *)
(* E1 — propagation overhead vs database size N (m fixed)              *)
(* ------------------------------------------------------------------ *)

let e1_cost_vs_database_size ?(quick = false) () =
  let sizes = if quick then [ 200; 800 ] else [ 1_000; 4_000; 16_000; 64_000 ] in
  let m = if quick then 8 else 64 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E1: one propagation round, %d dirty items, growing database size N \
            (work = vv comparisons + items examined + log records + items copied)"
           m)
      ~columns:[ "N"; "dbvv work"; "demers work"; "lotus work" ]
  in
  List.iter
    (fun n_items ->
      (* The paper's protocol. *)
      let cluster = seeded_pair ~n_items in
      dirty_first_m
        ~update:(fun ~node ~item ~op -> Cluster.update cluster ~node ~item op)
        ~node:0 ~m ~seq:2;
      Cluster.reset_counters cluster;
      let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
      let dbvv_work = Counters.total_work (Cluster.total_counters cluster) in
      (* Demers-style per-item anti-entropy. *)
      let demers = Demers.create ~n:2 ~universe:(Workload.universe n_items) in
      dirty_first_m
        ~update:(fun ~node ~item ~op -> Demers.update demers ~node ~item op)
        ~node:0 ~m ~seq:1;
      (Demers.driver demers).Driver.reset_counters ();
      Demers.session demers ~src:0 ~dst:1;
      let demers_work =
        Counters.total_work ((Demers.driver demers).Driver.total_counters ())
      in
      (* Lotus Notes. *)
      let lotus = Lotus.create ~n:2 ~universe:(Workload.universe n_items) in
      dirty_first_m
        ~update:(fun ~node ~item ~op -> Lotus.update lotus ~node ~item op)
        ~node:0 ~m ~seq:1;
      (Lotus.driver lotus).Driver.reset_counters ();
      Lotus.session lotus ~src:0 ~dst:1;
      let lotus_work =
        Counters.total_work ((Lotus.driver lotus).Driver.total_counters ())
      in
      Table.add_int_row table ~label:(string_of_int n_items)
        [ dbvv_work; demers_work; lotus_work ])
    sizes;
  table

(* ------------------------------------------------------------------ *)
(* E2 — propagation overhead vs items copied m (N fixed)               *)
(* ------------------------------------------------------------------ *)

let e2_cost_vs_items_copied ?(quick = false) () =
  let n_items = if quick then 1_024 else 16_384 in
  let ms = if quick then [ 16; 64 ] else [ 16; 64; 256; 1_024; 4_096 ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E2: dbvv propagation overhead vs items copied m (N = %d fixed)" n_items)
      ~columns:[ "m"; "work"; "work/m"; "records shipped"; "items copied" ]
  in
  List.iter
    (fun m ->
      let cluster = seeded_pair ~n_items in
      dirty_first_m
        ~update:(fun ~node ~item ~op -> Cluster.update cluster ~node ~item op)
        ~node:0 ~m ~seq:2;
      Cluster.reset_counters cluster;
      let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
      let total = Cluster.total_counters cluster in
      let work = Counters.total_work total in
      Table.add_int_row table ~label:(string_of_int m)
        [ work; work / m; total.log_records_examined; total.items_copied ])
    ms;
  table

(* ------------------------------------------------------------------ *)
(* E3 — replicas identical through indirect propagation                *)
(* ------------------------------------------------------------------ *)

let e3_identical_replicas ?(quick = false) () =
  let sizes = if quick then [ 256 ] else [ 1_000; 4_000; 16_000 ] in
  let table =
    Table.create
      ~title:
        "E3: session between replicas made identical indirectly (via a third \
         node); work to discover there is nothing to do"
      ~columns:[ "N"; "dbvv work"; "lotus work" ]
  in
  List.iter
    (fun n_items ->
      let m = min 64 n_items in
      (* The paper's protocol: 3 nodes, b and c catch up from a, then c
         pulls from b. *)
      let cluster = Cluster.create ~n:3 () in
      dirty_first_m
        ~update:(fun ~node ~item ~op -> Cluster.update cluster ~node ~item op)
        ~node:0 ~m:n_items ~seq:1;
      let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
      let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:2 ~source:0 in
      ignore m;
      Cluster.reset_counters cluster;
      let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:2 ~source:1 in
      let dbvv_work = Counters.total_work (Cluster.total_counters cluster) in
      (* Lotus: same topology. *)
      let lotus = Lotus.create ~n:3 ~universe:(Workload.universe n_items) in
      dirty_first_m
        ~update:(fun ~node ~item ~op -> Lotus.update lotus ~node ~item op)
        ~node:0 ~m:n_items ~seq:1;
      Lotus.session lotus ~src:0 ~dst:1;
      Lotus.session lotus ~src:0 ~dst:2;
      (Lotus.driver lotus).Driver.reset_counters ();
      Lotus.session lotus ~src:1 ~dst:2;
      let lotus_work =
        Counters.total_work ((Lotus.driver lotus).Driver.total_counters ())
      in
      Table.add_int_row table ~label:(string_of_int n_items) [ dbvv_work; lotus_work ])
    sizes;
  table

(* ------------------------------------------------------------------ *)
(* E4 — message bytes vs items copied                                  *)
(* ------------------------------------------------------------------ *)

let e4_message_bytes ?(quick = false) () =
  let n_items = if quick then 512 else 4_096 in
  let ms = if quick then [ 16; 64 ] else [ 16; 64; 256; 1_024 ] in
  let value_size = 64 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E4: propagation message size vs m (N = %d, %d-byte values); overhead = \
            bytes beyond the item payloads, constant per item"
           n_items value_size)
      ~columns:[ "m"; "total bytes"; "payload bytes"; "overhead"; "overhead/m" ]
  in
  List.iter
    (fun m ->
      let cluster = seeded_pair ~n_items in
      dirty_first_m
        ~update:(fun ~node ~item ~op -> Cluster.update cluster ~node ~item op)
        ~node:0 ~m ~seq:2;
      Cluster.reset_counters cluster;
      let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
      (* Bytes the source shipped (the recipient only sent its DBVV). *)
      let source_bytes = (Node.counters (Cluster.node cluster 0)).Counters.bytes_sent in
      let payload_bytes = m * value_size in
      let overhead = source_bytes - payload_bytes in
      Table.add_int_row table ~label:(string_of_int m)
        [ source_bytes; payload_bytes; overhead; overhead / m ])
    ms;
  table

(* ------------------------------------------------------------------ *)
(* E5 — out-of-bound copying and intra-node propagation                *)
(* ------------------------------------------------------------------ *)

let e5_out_of_bound ?(quick = false) () =
  let table =
    Table.create
      ~title:
        "E5: out-of-bound copy cost is O(1) in N; intra-node propagation is \
         linear in the deferred updates k"
      ~columns:[ "scenario"; "vv comparisons"; "aux replays"; "total work" ]
  in
  (* Part A: OOB fetch cost against database size. *)
  let fetch_sizes = if quick then [ 256 ] else [ 1_024; 16_384 ] in
  List.iter
    (fun n_items ->
      let cluster = seeded_pair ~n_items in
      Cluster.update cluster ~node:0 ~item:(item 0)
        (Operation.Set (payload ~rank:0 ~seq:2));
      Cluster.reset_counters cluster;
      let (_ : Node.oob_result) =
        Cluster.fetch_out_of_bound cluster ~recipient:1 ~source:0 (item 0)
      in
      let total = Cluster.total_counters cluster in
      Table.add_row table
        [
          Printf.sprintf "oob fetch, N=%d" n_items;
          string_of_int total.vv_comparisons;
          string_of_int total.aux_replays;
          string_of_int (Counters.total_work total);
        ])
    fetch_sizes;
  (* Part B: intra-node replay cost against deferred update count. *)
  let ks = if quick then [ 1; 8 ] else [ 1; 8; 64; 512 ] in
  List.iter
    (fun k ->
      let cluster = Cluster.create ~n:2 () in
      Cluster.update cluster ~node:0 ~item:"hot" (Operation.Set "h0");
      let (_ : Node.oob_result) =
        Cluster.fetch_out_of_bound cluster ~recipient:1 ~source:0 "hot"
      in
      for i = 1 to k do
        Cluster.update cluster ~node:1 ~item:"hot"
          (Operation.Set (Printf.sprintf "h%d" i))
      done;
      Cluster.reset_counters cluster;
      let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
      let total = Cluster.total_counters cluster in
      Table.add_row table
        [
          Printf.sprintf "intra-node, k=%d" k;
          string_of_int total.vv_comparisons;
          string_of_int total.aux_replays;
          string_of_int (Counters.total_work total);
        ])
    ks;
  table

(* ------------------------------------------------------------------ *)
(* E6 — originator failure: epidemic forwarding vs Oracle push         *)
(* ------------------------------------------------------------------ *)

let e6_failure_resilience ?(quick = false) () =
  let n = if quick then 6 else 16 in
  let fs = if quick then [ 1; 2 ] else [ 1; 2; 4; 8 ] in
  let recovery_time = 100.0 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E6: originator of an update crashes after reaching f of %d nodes \
            (anti-entropy period 1.0; Oracle originator recovers at t=%.0f)"
           n recovery_time)
      ~columns:
        [ "f"; "dbvv converge time"; "dbvv stale nodes @t=50"; "oracle stale nodes @t=50"; "oracle converge time" ]
  in
  List.iter
    (fun f ->
      (* The paper's protocol under the simulator. *)
      let _, driver = Edb_baselines.Epidemic_driver.create ~seed:(100 + f) ~n () in
      let engine = Engine.create ~seed:(200 + f) ~driver () in
      driver.Driver.update ~node:0 ~item:"x" ~op:(Operation.Set "v");
      (* The originator reaches f nodes, then crashes. *)
      for dst = 1 to f do
        driver.Driver.session ~src:0 ~dst
      done;
      Engine.schedule engine ~at:0.0 (Engine.Crash 0);
      Engine.schedule engine ~at:0.5
        (Engine.Anti_entropy_round { period = 1.0; policy = Engine.Random_peer });
      let converge_time =
        Engine.run_until_converged engine ~check_every:1.0 ~deadline:1_000.0
      in
      let dbvv_time =
        match converge_time with
        | Some t -> Printf.sprintf "%.0f" t
        | None -> "never"
      in
      let dbvv_stale_at_50 =
        match converge_time with
        | Some t when t <= 50.0 -> 0
        | Some _ | None -> n - 1 - f
      in
      (* Oracle push: nobody forwards; the stranded nodes wait for the
         originator to recover. *)
      let oracle = Oracle.create ~n in
      Oracle.update oracle ~node:0 ~item:"x" (Operation.Set "v");
      for dst = 1 to f do
        Oracle.push_to oracle ~origin:0 ~dst
      done;
      Oracle.crash oracle ~node:0;
      (* Between the crash and the recovery, the reached nodes keep
         "pushing" — they have nothing queued, so nothing changes. *)
      let stale_at_50 = ref 0 in
      for node = 0 to n - 1 do
        if Oracle.is_stale oracle ~node then incr stale_at_50
      done;
      Oracle.recover oracle ~node:0;
      Oracle.push_all oracle ~origin:0;
      let oracle_time =
        if Oracle.converged oracle then Printf.sprintf "%.0f" recovery_time else "never"
      in
      Table.add_row table
        [
          string_of_int f;
          dbvv_time;
          string_of_int dbvv_stale_at_50;
          string_of_int !stale_at_50;
          oracle_time;
        ])
    fs;
  table

(* ------------------------------------------------------------------ *)
(* E7 — epidemic convergence rounds vs cluster size                    *)
(* ------------------------------------------------------------------ *)

let e7_convergence_rounds ?(quick = false) () =
  let ns = if quick then [ 4; 8 ] else [ 4; 8; 16; 32; 64 ] in
  let seeds = [ 1; 2; 3 ] in
  let table =
    Table.create
      ~title:
        "E7: random-peer anti-entropy rounds until one update reaches every \
         node (3 seeds averaged); expected O(log n) epidemic spread"
      ~columns:[ "n"; "avg rounds"; "max rounds"; "avg item copies"; "log2 n" ]
  in
  List.iter
    (fun n ->
      let results =
        List.map
          (fun seed ->
            let cluster = Cluster.create ~seed ~n () in
            Cluster.update cluster ~node:0 ~item:"x" (Operation.Set "v");
            let rounds = Cluster.sync_until_converged cluster in
            let copies = (Cluster.total_counters cluster).Counters.items_copied in
            (rounds, copies))
          seeds
      in
      let rounds = List.map fst results and copies = List.map snd results in
      let avg xs = List.fold_left ( + ) 0 xs / List.length xs in
      let max_rounds = List.fold_left max 0 rounds in
      let log2 = int_of_float (ceil (log (float_of_int n) /. log 2.0)) in
      Table.add_int_row table ~label:(string_of_int n)
        [ avg rounds; max_rounds; avg copies; log2 ])
    ns;
  table

(* ------------------------------------------------------------------ *)
(* E8 — log vector deduplication under a skewed update stream          *)
(* ------------------------------------------------------------------ *)

let e8_log_dedup ?(quick = false) () =
  let n_items = if quick then 200 else 1_000 in
  let counts = if quick then [ 500; 2_000 ] else [ 1_000; 4_000; 16_000 ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E8: retained log records after U zipf(1.0) updates over %d items \
            (single node; bound is N = %d)"
           n_items n_items)
      ~columns:[ "U updates"; "retained records"; "distinct items"; "bound n*N" ]
  in
  List.iter
    (fun count ->
      let cluster = Cluster.create ~n:2 () in
      let selector = Workload.Selector.zipfian ~n:n_items ~exponent:1.0 in
      let steps =
        Workload.update_stream ~seed:42 ~selector ~nodes:1 ~count ~value_size:16
      in
      let touched = Hashtbl.create 64 in
      List.iter
        (fun (step : Workload.step) ->
          Hashtbl.replace touched step.item ();
          Cluster.update cluster ~node:0 ~item:step.item step.op)
        steps;
      let retained =
        Edb_log.Log_vector.total_records (Node.log_vector (Cluster.node cluster 0))
      in
      Table.add_int_row table ~label:(string_of_int count)
        [ retained; Hashtbl.length touched; 2 * n_items ])
    counts;
  table

(* ------------------------------------------------------------------ *)
(* E9 — conflict detection vs Lotus's silent override                  *)
(* ------------------------------------------------------------------ *)

let e9_conflict_detection ?quick:(_ = false) () =
  let table =
    Table.create
      ~title:
        "E9: the paper's §8.1 scenario — node i updates x twice, node j once \
         (concurrently), then propagation i->j"
      ~columns:[ "protocol"; "conflicts detected"; "value at j afterwards"; "j's update lost" ]
  in
  (* The paper's protocol. *)
  let cluster = Cluster.create ~n:2 () in
  Cluster.update cluster ~node:0 ~item:"x" (Operation.Set "i-v1");
  Cluster.update cluster ~node:0 ~item:"x" (Operation.Set "i-v2");
  Cluster.update cluster ~node:1 ~item:"x" (Operation.Set "j-v1");
  let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
  let total = Cluster.total_counters cluster in
  let j_value = Option.value ~default:"<none>" (Cluster.read cluster ~node:1 ~item:"x") in
  Table.add_row table
    [
      "dbvv";
      string_of_int total.conflicts_detected;
      j_value;
      (if String.equal j_value "j-v1" then "no" else "yes");
    ];
  (* Lotus: the higher sequence number silently wins. *)
  let lotus = Lotus.create ~n:2 ~universe:[ "x" ] in
  Lotus.update lotus ~node:0 ~item:"x" (Operation.Set "i-v1");
  Lotus.update lotus ~node:0 ~item:"x" (Operation.Set "i-v2");
  Lotus.update lotus ~node:1 ~item:"x" (Operation.Set "j-v1");
  Lotus.session lotus ~src:0 ~dst:1;
  let lotus_total = (Lotus.driver lotus).Driver.total_counters () in
  let lotus_j = Option.value ~default:"<none>" (Lotus.read lotus ~node:1 ~item:"x") in
  Table.add_row table
    [
      "lotus";
      string_of_int lotus_total.conflicts_detected;
      lotus_j;
      (if String.equal lotus_j "j-v1" then "no" else "yes");
    ];
  table

(* ------------------------------------------------------------------ *)
(* E10 — overhead vs raw update count (log-based gossip comparison)    *)
(* ------------------------------------------------------------------ *)

let e10_log_based_gossip ?(quick = false) () =
  let m = 32 in
  let counts = if quick then [ 64; 256 ] else [ 32; 128; 512; 2_048 ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E10: one session after U updates spread over %d hot items: dbvv \
            cost tracks items, Wuu-Bernstein tracks updates (records examined)"
           m)
      ~columns:
        [ "U updates"; "dbvv records"; "dbvv work"; "wuu records"; "wuu work";
          "2pg records"; "2pg bytes"; "wuu bytes" ]
  in
  List.iter
    (fun count ->
      (* The paper's protocol. *)
      let cluster = Cluster.create ~n:2 () in
      for i = 0 to count - 1 do
        let rank = i mod m in
        Cluster.update cluster ~node:0 ~item:(item rank)
          (Operation.Set (payload ~rank ~seq:i))
      done;
      Cluster.reset_counters cluster;
      let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
      let total = Cluster.total_counters cluster in
      (* Wuu-Bernstein. *)
      let wuu = Wuu.create ~n:2 in
      for i = 0 to count - 1 do
        let rank = i mod m in
        Wuu.update wuu ~node:0 ~item:(item rank) (Operation.Set (payload ~rank ~seq:i))
      done;
      (Wuu.driver wuu).Driver.reset_counters ();
      Wuu.session wuu ~src:0 ~dst:1;
      let wuu_total = (Wuu.driver wuu).Driver.total_counters () in
      (* Two-phase gossip: same linear-in-updates scan, smaller vector
         overhead on the wire. *)
      let tpg = Edb_baselines.Two_phase_gossip.create ~n:2 in
      for i = 0 to count - 1 do
        let rank = i mod m in
        Edb_baselines.Two_phase_gossip.update tpg ~node:0 ~item:(item rank)
          (Operation.Set (payload ~rank ~seq:i))
      done;
      (Edb_baselines.Two_phase_gossip.driver tpg).Driver.reset_counters ();
      Edb_baselines.Two_phase_gossip.session tpg ~src:0 ~dst:1;
      let tpg_total =
        (Edb_baselines.Two_phase_gossip.driver tpg).Driver.total_counters ()
      in
      Table.add_int_row table ~label:(string_of_int count)
        [
          total.log_records_examined;
          Counters.total_work total;
          wuu_total.log_records_examined;
          Counters.total_work wuu_total;
          tpg_total.log_records_examined;
          tpg_total.bytes_sent;
          wuu_total.bytes_sent;
        ])
    counts;
  table

(* ------------------------------------------------------------------ *)
(* E11 — op-log vs whole-item transport (extension; paper §2)          *)
(* ------------------------------------------------------------------ *)

let e11_oplog_transport ?(quick = false) () =
  let m = if quick then 4 else 16 in
  let value_bytes = 4_096 in
  let edits_per_item = 8 in
  let edit_sizes = if quick then [ 8; 512 ] else [ 8; 64; 512; 2_048 ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E11: transport comparison - %d items of %d bytes, %d edits each; \
            bytes for one propagation session"
           m value_bytes edits_per_item)
      ~columns:
        [ "edit bytes"; "whole-item bytes"; "op-log bytes"; "ratio"; "fallbacks" ]
  in
  let run_one ~mode ~edit_size =
    let cluster = Cluster.create ?mode ~n:2 () in
    (* Converge on the initial big values first. *)
    for rank = 0 to m - 1 do
      Cluster.update cluster ~node:0 ~item:(item rank)
        (Operation.Set (String.make value_bytes 'a'))
    done;
    let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
    (* Small in-place edits. *)
    for rank = 0 to m - 1 do
      for e = 0 to edits_per_item - 1 do
        Cluster.update cluster ~node:0 ~item:(item rank)
          (Operation.Splice { offset = e * edit_size; data = String.make edit_size 'b' })
      done
    done;
    Cluster.reset_counters cluster;
    let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
    let total = Cluster.total_counters cluster in
    (total.bytes_sent, total.whole_fallbacks)
  in
  List.iter
    (fun edit_size ->
      let whole_bytes, _ = run_one ~mode:None ~edit_size in
      let delta_bytes, fallbacks =
        run_one ~mode:(Some (Node.Op_log { depth = 16 })) ~edit_size
      in
      Table.add_row table
        [
          string_of_int edit_size;
          string_of_int whole_bytes;
          string_of_int delta_bytes;
          Printf.sprintf "%.1fx" (float_of_int whole_bytes /. float_of_int delta_bytes);
          string_of_int fallbacks;
        ])
    edit_sizes;
  table

(* ------------------------------------------------------------------ *)
(* Orchestrated experiments: E12, E13, E17, E20                        *)
(* ------------------------------------------------------------------ *)

(* What every orchestrated experiment cell shares: one shard, 64-byte
   values, no peer cache, duplication, faults or churn, random-peer
   anti-entropy, run until converged. Each cell overrides the rest. *)
let orchestrated =
  {
    Scenario.name = "experiment";
    description = "One orchestrated experiment cell.";
    nodes = 8;
    shards = 1;
    items = 8;
    value_size = 64;
    zipf = 0.0;
    single_writer = false;
    cache = false;
    seeds = { Scenario.driver = 1; engine = 1; workload = 1 };
    topology = Scenario.Random;
    period = 1.0;
    first_at = 0.5;
    latency = 1.0;
    loss = 0.0;
    duplication = 0.0;
    transport = Scenario.Session;
    push = None;
    arrival = Scenario.Script [];
    faults = [];
    churn = None;
    duration = 0.0;
    tick = 1.0;
    until_converged = true;
    deadline = 1_000.0;
  }

(* ------------------------------------------------------------------ *)
(* E12 — timeliness vs anti-entropy period (extension)                 *)
(* ------------------------------------------------------------------ *)

let e12_timeliness_vs_period ?(quick = false) () =
  let n = if quick then 6 else 16 in
  let updates = if quick then 40 else 200 in
  let window = 100.0 in
  let periods = if quick then [ 1.0; 4.0 ] else [ 0.5; 1.0; 2.0; 4.0; 8.0 ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E12: anti-entropy period vs timeliness - %d nodes, %d single-writer \
            updates over %.0f time units; lag = time from last update to full \
            convergence"
           n updates window)
      ~columns:[ "period"; "convergence lag"; "sessions"; "bytes sent"; "noop sessions" ]
  in
  List.iter
    (fun period ->
      let r =
        Orchestrator.run
          {
            orchestrated with
            Scenario.name = "e12";
            nodes = n;
            items = 200;
            zipf = 1.0;
            single_writer = true;
            seeds = { Scenario.driver = 77; engine = 78; workload = 79 };
            period;
            first_at = period /. 2.0;
            arrival =
              Scenario.Phases
                [ { Scenario.from_ = 0.0; until = window; rate = float_of_int updates /. window } ];
            duration = window;
            tick = period /. 2.0;
            deadline = window +. 500.0;
          }
      in
      let lag =
        match r.Orchestrator.converged_at with
        | Some t -> Printf.sprintf "%.1f" (t -. window)
        | None -> "never"
      in
      Table.add_row table
        [
          Printf.sprintf "%.1f" period;
          lag;
          string_of_int r.Orchestrator.attempted;
          string_of_int r.Orchestrator.totals.bytes_sent;
          string_of_int r.Orchestrator.totals.noop_sessions;
        ])
    periods;
  table

(* ------------------------------------------------------------------ *)
(* E13 — update propagation delay distribution (extension)             *)
(* ------------------------------------------------------------------ *)

(* The orchestrator samples visibility as the DBVV watermark: per-origin
   knowledge is prefix-closed, so "every DBVV covers the update" is
   "every replica has the value". *)
let e13_with_totals ?(quick = false) () =
  let ns = if quick then [ 8 ] else [ 8; 16; 32 ] in
  let updates = if quick then 30 else 100 in
  let issue_window = 20 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E13: rounds from update to full visibility on every replica - %d \
            one-shot updates issued over %d random-pull rounds"
           updates issue_window)
      ~columns:[ "n"; "mean"; "p50"; "p90"; "max" ]
  in
  let totals =
    List.map
      (fun n ->
        (* Distinct item per update so visibility is unambiguous. *)
        let prng = Edb_util.Prng.create ~seed:(400 + n) in
        let script =
          List.init updates (fun i ->
              let node = Edb_util.Prng.int prng n in
              let at = Edb_util.Prng.int prng issue_window in
              { Scenario.at = float_of_int at; node; item = i; seq = 1 })
        in
        let r =
          Orchestrator.run
            {
              orchestrated with
              Scenario.name = "e13";
              nodes = n;
              items = updates;
              seeds = { Scenario.driver = 300 + n; engine = 300 + n; workload = 0 };
              period = 1.0;
              first_at = 0.5;
              latency = 0.0;
              arrival = Scenario.Script script;
              (* Round r is the engine round at r + 0.5 and tick r + 1
                 samples right after it, so a delay counts the round
                 that delivered the update. Convergence is checked only
                 from the last issue round on, so the run never stops
                 before every update is issued. *)
              duration = float_of_int (issue_window - 1);
              tick = 1.0;
              deadline = 400.0;
            }
        in
        let delays = r.Orchestrator.staleness in
        let pct p = Printf.sprintf "%.0f" (Edb_metrics.Histogram.percentile delays p) in
        Table.add_row table
          [
            string_of_int n;
            Printf.sprintf "%.1f" (Edb_metrics.Histogram.mean delays);
            pct 50.0;
            pct 90.0;
            Printf.sprintf "%.0f" (Edb_metrics.Histogram.max_value delays);
          ];
        r.Orchestrator.totals)
      ns
  in
  (table, totals)

let e13_propagation_delay ?quick () = fst (e13_with_totals ?quick ())

(* ------------------------------------------------------------------ *)
(* E14 — token ablation: pessimistic vs optimistic under contention    *)
(* ------------------------------------------------------------------ *)

let e14_token_ablation ?(quick = false) () =
  let n = if quick then 3 else 6 in
  let rounds = if quick then 4 else 12 in
  let hot_items = 4 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E14: %d nodes all updating %d hot items for %d rounds - optimistic \
            (paper default) vs token-protected (paper SS2's pessimistic option)"
           n hot_items rounds)
      ~columns:
        [ "regime"; "conflicts"; "token transfers"; "hint hops"; "converged"; "work" ]
  in
  let workload update_fn cluster =
    for round = 1 to rounds do
      for node = 0 to n - 1 do
        let name = item ((node + round) mod hot_items) in
        update_fn ~node ~item:name
          (Operation.Set (Printf.sprintf "r%d-n%d" round node))
      done;
      Cluster.random_pull_round cluster
    done
  in
  (* Optimistic: the paper's default, conflicts detected and reported. *)
  let cluster = Cluster.create ~seed:50 ~n () in
  workload (fun ~node ~item op -> Cluster.update cluster ~node ~item op) cluster;
  let converged =
    match Cluster.sync_until_converged ~max_rounds:50 cluster with
    | _ -> "yes"
    | exception Failure _ -> "no (conflicts pending)"
  in
  let total = Cluster.total_counters cluster in
  Table.add_row table
    [
      "optimistic";
      string_of_int total.conflicts_detected;
      "0";
      "0";
      converged;
      string_of_int (Counters.total_work total);
    ];
  (* Pessimistic: every update acquires the item's token first. *)
  let cluster = Cluster.create ~seed:50 ~n () in
  let tokens = Edb_tokens.Token_manager.create cluster in
  workload
    (fun ~node ~item op ->
      match Edb_tokens.Token_manager.update tokens ~node ~item op with
      | Ok _ -> ()
      | Error (`Cycle _) -> failwith "token cycle")
    cluster;
  let converged =
    match Cluster.sync_until_converged ~max_rounds:200 cluster with
    | _ -> "yes"
    | exception Failure _ -> "no"
  in
  let total = Cluster.total_counters cluster in
  Table.add_row table
    [
      "tokens";
      string_of_int total.conflicts_detected;
      string_of_int (Edb_tokens.Token_manager.transfers tokens);
      string_of_int (Edb_tokens.Token_manager.hops_followed tokens);
      converged;
      string_of_int (Counters.total_work total);
    ];
  table

(* ------------------------------------------------------------------ *)
(* E15 — steady-state message savings from the peer-knowledge cache    *)
(* ------------------------------------------------------------------ *)

let e15_peer_cache_savings ?(quick = false) () =
  let nodes = 16 in
  let rounds = if quick then 6 else 20 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E15: %d steady-state ring rounds on a converged %d-node cluster — \
            peer-knowledge cache vs the paper's protocol (savings = messages \
            eliminated)"
           rounds nodes)
      ~columns:
        [ "variant"; "sessions run"; "sessions skipped"; "messages"; "bytes"; "savings" ]
  in
  let steady_counters ~cache =
    let cluster = Cluster.create ~cache ~n:nodes () in
    for rank = 0 to 7 do
      Cluster.update cluster ~node:(rank mod nodes) ~item:(item rank)
        (Operation.Set (payload ~rank ~seq:1))
    done;
    (* Deterministic convergence: n ring rounds propagate transitively
       from every node to every other (paper Theorem 5). *)
    for _ = 1 to nodes do
      Cluster.ring_pull_round cluster
    done;
    assert (Cluster.converged cluster);
    Cluster.reset_counters cluster;
    for _ = 1 to rounds do
      Cluster.ring_pull_round cluster
    done;
    Cluster.total_counters cluster
  in
  let plain = steady_counters ~cache:false in
  let cached = steady_counters ~cache:true in
  let row name (c : Counters.t) =
    let savings =
      if plain.messages = 0 then "0%"
      else
        Printf.sprintf "%.1f%%"
          (100.0
          *. float_of_int (plain.messages - c.messages)
          /. float_of_int plain.messages)
    in
    Table.add_row table
      [
        name;
        string_of_int (c.propagation_sessions + c.noop_sessions);
        string_of_int c.sessions_skipped_cached;
        string_of_int c.messages;
        string_of_int c.bytes_sent;
        savings;
      ]
  in
  row "dbvv" plain;
  row "dbvv+cache" cached;
  table

(* ------------------------------------------------------------------ *)
(* E17 — per-message loss vs the whole-session loss model              *)
(* ------------------------------------------------------------------ *)

let e17_message_loss ?(quick = false) () =
  let nodes = if quick then 8 else 16 in
  let period = 5.0 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E17: convergence and overhead under message loss, %d nodes, \
            random-peer anti-entropy every %.0f units — whole-session loss \
            (the old model: a lost session just vanishes) vs per-message loss \
            with timeout/retry/backoff (request and reply each face the \
            loss rate; a timed-out attempt is re-sent up to %d times)"
           nodes period Engine.default_retry_policy.Engine.max_retries)
      ~columns:
        [
          "transport"; "loss"; "rounds"; "messages"; "bytes"; "timeouts"; "retries";
          "abandoned"; "conns"; "conn retries";
        ]
  in
  let run ~transport_name ~transport ~loss =
    let r =
      Orchestrator.run
        {
          orchestrated with
          Scenario.name = "e17";
          nodes;
          items = 8;
          seeds = { Scenario.driver = 17; engine = 23; workload = 0 };
          period;
          first_at = period /. 2.0;
          loss;
          transport;
          arrival =
            Scenario.Script
              (List.init 8 (fun rank ->
                   { Scenario.at = 0.0; node = rank mod nodes; item = rank; seq = 1 }));
          tick = period;
          deadline = 3_000.0;
        }
    in
    let totals = r.Orchestrator.totals in
    Table.add_row table
      [
        transport_name;
        Printf.sprintf "%.2f" loss;
        (match r.Orchestrator.converged_at with
        | Some at -> Printf.sprintf "%.0f" (at /. period)
        | None -> "-");
        string_of_int totals.Counters.messages;
        string_of_int totals.Counters.bytes_sent;
        string_of_int totals.Counters.timeouts;
        string_of_int totals.Counters.retries;
        string_of_int totals.Counters.sessions_abandoned;
        string_of_int totals.Counters.connections_opened;
        string_of_int totals.Counters.connection_retries;
      ]
  in
  List.iter
    (fun loss ->
      run ~transport_name:"session" ~transport:Scenario.Session ~loss;
      run ~transport_name:"message" ~transport:(Scenario.Message Scenario.default_retry)
        ~loss)
    [ 0.0; 0.05; 0.2 ];
  table

(* ------------------------------------------------------------------ *)
(* E18 — sharded replicas: per-shard skipping and parallel sync        *)
(* ------------------------------------------------------------------ *)

let e18_sharded_replicas ?(quick = false) () =
  let nodes = if quick then 8 else 16 in
  let n_items = if quick then 64 else 256 in
  let rounds = if quick then 4 else 10 in
  let updates_per_round = if quick then 8 else 24 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E18: sharded replicas — %d steady-state ring rounds on %d nodes, \
            %d items (1 KiB values), hot-shard Zipf updates (exponent 1.2, \
            so most shards stay converged between rounds); a source skips \
            every shard the recipient's per-shard DBVV already dominates, \
            shipping zero bytes for it, and domains=4 fans per-shard delta \
            work out over the domain pool (clamped to the host's cores)"
           rounds nodes n_items)
      ~columns:
        [
          "shards"; "domains"; "sessions"; "noop"; "shards skipped"; "bytes";
          "wall ms";
        ]
  in
  let run ~shards ~domains =
    let cluster = Cluster.create ~shards ~n:nodes () in
    (* Seed the full universe at node 0 and converge, so steady state
       starts from identical replicas. *)
    dirty_first_m
      ~update:(fun ~node ~item ~op -> Cluster.update cluster ~node ~item op)
      ~node:0 ~m:n_items ~seq:1;
    for _ = 1 to nodes do
      Cluster.ring_pull_round ~domains cluster
    done;
    assert (Cluster.converged cluster);
    Cluster.reset_counters cluster;
    (* Steady state: a Zipf-skewed trickle of updates — the hot items
       cluster into few shards, leaving the rest converged — then a
       ring round to spread them. *)
    let selector = Workload.Selector.zipfian ~n:n_items ~exponent:1.2 in
    let prng = Edb_util.Prng.create ~seed:(1800 + shards) in
    let started = Unix.gettimeofday () in
    for round = 1 to rounds do
      for _ = 1 to updates_per_round do
        let rank = Workload.Selector.pick selector prng in
        Cluster.update cluster ~node:0 ~item:(item rank)
          (Operation.Set
             (Workload.payload ~item:(item rank) ~seq:(1 + round) ~size:1024))
      done;
      Cluster.ring_pull_round ~domains cluster
    done;
    let elapsed_ms = (Unix.gettimeofday () -. started) *. 1000.0 in
    let totals = Cluster.total_counters cluster in
    Table.add_row table
      [
        string_of_int shards;
        string_of_int domains;
        string_of_int totals.Counters.propagation_sessions;
        string_of_int totals.Counters.noop_sessions;
        string_of_int totals.Counters.shards_skipped;
        string_of_int totals.Counters.bytes_sent;
        Printf.sprintf "%.1f" elapsed_ms;
      ]
  in
  List.iter
    (fun shards ->
      run ~shards ~domains:1;
      if shards > 1 then run ~shards ~domains:4)
    [ 1; 4; 16 ];
  table

(* ------------------------------------------------------------------ *)
(* E19 — wire codec v2: measured bytes on the wire                     *)
(* ------------------------------------------------------------------ *)

let e19_wire_codec ?(quick = false) () =
  let nodes = 16 in
  let n_items = if quick then 32 else 128 in
  let updates_per_node = if quick then 2 else 8 in
  let value_size = 256 in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E19: wire codec v2 vs v1 — framed ring sessions on %d nodes, \
            %d items (%d B values), counting real encoded frame lengths \
            (wire bytes) next to the fixed-width size model; v2 = varints \
            + per-message name interning + sparse IVVs + request DBVVs \
            delta-encoded against the peer's acknowledged baseline \
            (absolute fallback on any mismatch, so compression never \
            risks correctness)"
           nodes n_items value_size)
      ~columns:
        [
          "scenario"; "codec"; "sessions"; "rounds"; "bytes (model)";
          "wire bytes"; "wire B/session"; "vs v1";
        ]
  in
  let wire_ring_round cluster =
    for i = 0 to nodes - 1 do
      let recipient = Cluster.node cluster i in
      let source = Cluster.node cluster ((i + 1) mod nodes) in
      let (_ : Node.pull_result) = Frame.pull ~recipient ~source () in
      ()
    done
  in
  let converge cluster =
    let rounds = ref 0 in
    while not (Cluster.converged cluster) do
      incr rounds;
      if !rounds > 10 * nodes then failwith "E19: cluster failed to converge";
      wire_ring_round cluster
    done;
    !rounds
  in
  let run ~version ~diverged =
    let cluster = Cluster.create ~seed:1900 ~n:nodes () in
    if version = 1 then
      for i = 0 to nodes - 1 do
        Node.set_wire_version (Cluster.node cluster i) 1
      done;
    (* History plus warm-up: seed every node, converge over frames so
       every ring pair has negotiated its codec version (pessimistic v1
       start) and, under v2, holds an acknowledged delta baseline —
       then measure the steady state, not the handshake. *)
    for rank = 0 to n_items - 1 do
      Cluster.update cluster ~node:(rank mod nodes) ~item:(item rank)
        (Operation.Set (Workload.payload ~item:(item rank) ~seq:1 ~size:value_size))
    done;
    let (_ : int) = converge cluster in
    wire_ring_round cluster;
    Cluster.reset_counters cluster;
    if diverged then
      for node = 0 to nodes - 1 do
        for k = 0 to updates_per_node - 1 do
          let rank = ((node * updates_per_node) + k) mod n_items in
          Cluster.update cluster ~node ~item:(item rank)
            (Operation.Set
               (Workload.payload ~item:(item rank) ~seq:2 ~size:value_size))
        done
      done;
    let rounds =
      if diverged then converge cluster
      else begin
        wire_ring_round cluster;
        1
      end
    in
    let totals = Cluster.total_counters cluster in
    (totals, rounds)
  in
  let scenario ~name ~diverged =
    let v1, v1_rounds = run ~version:1 ~diverged in
    let v2, v2_rounds = run ~version:2 ~diverged in
    let per_session (c : Counters.t) =
      let sessions = c.propagation_sessions + c.noop_sessions in
      if sessions = 0 then 0.0
      else float_of_int c.wire_bytes_sent /. float_of_int sessions
    in
    let row codec (c : Counters.t) rounds reduction =
      Table.add_row table
        [
          name;
          codec;
          string_of_int (c.propagation_sessions + c.noop_sessions);
          string_of_int rounds;
          string_of_int c.bytes_sent;
          string_of_int c.wire_bytes_sent;
          Printf.sprintf "%.1f" (per_session c);
          reduction;
        ]
    in
    row "v1" v1 v1_rounds "-";
    row "v2" v2 v2_rounds
      (if per_session v1 = 0.0 then "-"
       else
         Printf.sprintf "-%.1f%%"
           (100.0 *. (1.0 -. (per_session v2 /. per_session v1))))
  in
  scenario ~name:"converged idle round" ~diverged:false;
  scenario ~name:"diverged, to convergence" ~diverged:true;
  table

(* ------------------------------------------------------------------ *)
(* E20 — realtime push vs pull-only anti-entropy                       *)
(* ------------------------------------------------------------------ *)

(* Two arms per cell, identical except for the push channel: same
   seeds, same message-grain transport, same anti-entropy cadence. The
   push arm streams each update to every peer within roughly
   [flush_period + latency], so updates are globally visible long
   before the next anti-entropy round — the staleness percentiles
   collapse, and most rounds arrive to find both ends already equal
   (noop sessions). Anti-entropy stays on throughout: it is the
   correctness mechanism, and under loss it silently repairs whatever
   the unacknowledged pushes dropped.

   The workload window opens only at [e20_warmup]: pushes flow solely
   to peers that have provably negotiated wire v2, and under the
   random-peer cadence covering all 120 node pairs takes ~40 rounds
   (coupon collector). The idle warm-up — identical in both arms, all
   sessions noops — lets E20 measure the steady state instead of the
   handshake, and the noop/session fractions are windowed past it. *)
let e20_warmup = 240.0

let e20_scenario ~loss ~capacity ~push =
  {
    orchestrated with
    Scenario.name = "e20";
    nodes = 16;
    items = 64;
    zipf = 1.0;
    single_writer = true;
    seeds = { Scenario.driver = 91; engine = 92; workload = 93 };
    period = 4.0;
    first_at = 1.0;
    loss;
    transport = Scenario.Message Scenario.default_retry;
    push =
      (if push then
         Some { Scenario.capacity; drop = Scenario.Drop_oldest; flush_period = 0.25 }
       else None);
    arrival =
      (* Sparse load: well under one update per anti-entropy period
         cluster-wide. Pushes make an update globally visible in
         ~flush + latency, so at this rate most AE rounds genuinely
         arrive converged; a denser stream would hide the noop savings
         behind updates still in flight when a session lands. The rate
         is chosen so the (evenly spaced) inter-update gap of 20/3 is
         aperiodic against the 4.0 AE period — a gap that divides the
         period would phase-lock every push wave into the same spot of
         every round. *)
      Scenario.Phases
        [ { Scenario.from_ = e20_warmup; until = e20_warmup +. 240.0; rate = 0.15 } ];
    duration = e20_warmup +. 240.0;
    tick = 0.5;
    deadline = 900.0;
  }

let e20_push_vs_pull ?(quick = false) () =
  let cells =
    if quick then [ (0.0, 64) ]
    else [ (0.0, 64); (0.0, 4); (0.1, 64); (0.3, 64); (0.3, 4) ]
  in
  let table =
    Table.create
      ~title:
        "E20: best-effort realtime push vs pull-only anti-entropy — 16-node \
         mesh, steady single-writer load, equal AE cadence in both arms; \
         staleness percentiles of update-to-global-visibility delay, the \
         fraction of AE sessions that arrive already converged (noop), and \
         the AE wire bytes the push arm no longer ships (its own frame bytes \
         counted separately under push overflow/drops)"
      ~columns:
        [
          "loss"; "capacity"; "pull p50"; "push p50"; "pull p90"; "push p90";
          "pull p99"; "push p99"; "p99 ratio"; "ae skipped frac";
          "ae bytes saved"; "push overflow";
        ]
  in
  List.iter
    (fun (loss, capacity) ->
      let pull = Orchestrator.run (e20_scenario ~loss ~capacity ~push:false) in
      let push = Orchestrator.run (e20_scenario ~loss ~capacity ~push:true) in
      let pct (r : Orchestrator.result) p =
        Edb_metrics.Histogram.percentile r.Orchestrator.staleness p
      in
      let pull_p99 = pct pull 99.0 and push_p99 = pct push 99.0 in
      let noop_frac =
        (* Window past the warm-up: during it the cluster is idle, so
           every session is a noop in {e both} arms and would inflate
           the fraction. The tick rows carry cumulative counters;
           subtract the last pre-workload sample. The denominator is
           noop + propagation {e decodes} rather than engine session
           attempts: under loss a retransmitted request can be judged
           at the source more than once, and a session whose frames
           never get through is judged zero times. *)
        let at_warmup field =
          List.fold_left
            (fun acc (tk : Orchestrator.tick) ->
              if tk.time <= e20_warmup then List.assoc field tk.counters else acc)
            0 push.Orchestrator.ticks
        in
        let noop =
          push.Orchestrator.totals.Counters.noop_sessions
          - at_warmup "noop_sessions"
        in
        let prop =
          push.Orchestrator.totals.Counters.propagation_sessions
          - at_warmup "propagation_sessions"
        in
        if noop + prop = 0 then 0.0
        else float_of_int noop /. float_of_int (noop + prop)
      in
      let ae_bytes (r : Orchestrator.result) =
        r.Orchestrator.totals.wire_bytes_sent
        - r.Orchestrator.totals.push_wire_bytes
      in
      Table.add_row table
        [
          Printf.sprintf "%.2f" loss;
          string_of_int capacity;
          Printf.sprintf "%.2f" (pct pull 50.0);
          Printf.sprintf "%.2f" (pct push 50.0);
          Printf.sprintf "%.2f" (pct pull 90.0);
          Printf.sprintf "%.2f" (pct push 90.0);
          Printf.sprintf "%.2f" pull_p99;
          Printf.sprintf "%.2f" push_p99;
          (if push_p99 = 0.0 then "-"
           else Printf.sprintf "%.1f" (pull_p99 /. push_p99));
          Printf.sprintf "%.2f" noop_frac;
          string_of_int (ae_bytes pull - ae_bytes push);
          string_of_int push.Orchestrator.totals.push_dropped_overflow;
        ])
    cells;
  table

(* ------------------------------------------------------------------ *)
(* E21 — membership GC: vector and wire bytes before/after retirement  *)
(* ------------------------------------------------------------------ *)

(* The closed-world cost the membership subsystem reclaims: every
   DBVV/IVV/log vector is O(n) in nodes that {e ever} existed, and the
   idle anti-entropy session ships those vectors forever. Retiring a
   quarter of the members drops their components from every vector on
   every live replica, so both the per-vector wire encoding and the
   steady-state session bytes shrink proportionally — measured here as
   exact byte counts, before and after the fence completes. *)

(* One full ring pass over the group's live, session-capable members,
   followed by a controller pass. *)
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

let e21_settle g =
  let budget = ref (4 * Array.length (Group.roster g)) in
  let settled () =
    Group.pending_fences g = []
    && Group.converged g
    && Array.for_all
         (fun name ->
           match Group.status g ~name with
           | Group.Active | Group.Departed | Group.Retired -> true
           | Group.Joining | Group.Draining | Group.Retiring -> false)
         (Group.roster g)
  in
  while (not (settled ())) && !budget > 0 do
    e21_ring_pass g;
    decr budget
  done;
  assert (settled ())

(* The real varint wire encoding of one live member's summary DBVV
   (wire v2, checksum trailer excluded) — the bytes a framed session
   actually pays per vector, next to the fixed-width size model. *)
let e21_dbvv_wire_bytes g =
  let name =
    Array.to_list (Group.roster g)
    |> List.find (fun name ->
           Group.alive g ~name && Group.status g ~name = Group.Active)
  in
  let w = Codec.Writer.create () in
  Wire_v2.encode_vv w (Node.dbvv_view (Group.node g ~name));
  String.length (Codec.Writer.contents w) - 4

(* Size-model bytes of one idle ring pass (8 bytes per vector
   component, so the per-session vector tax is explicit). *)
let e21_idle_pass_bytes g =
  let before = (Group.counters_total g).Counters.bytes_sent in
  e21_ring_pass g;
  (Group.counters_total g).Counters.bytes_sent - before

let e21_membership_gc ?(quick = false) () =
  let ns = if quick then [ 8; 16 ] else [ 8; 32; 128 ] in
  let table =
    Table.create
      ~title:
        "E21: retirement garbage collection — vector components, their v2 \
         wire encoding, and size-model bytes of one idle ring pass, before \
         vs after retiring n/4 dead members"
      ~columns:
        [
          "n"; "retired"; "components"; "components'"; "dbvv wire B";
          "dbvv wire B'"; "idle pass B"; "idle pass B'"; "gc'd";
        ]
  in
  List.iter
    (fun n ->
      let g = Group.create ~shards:1 ~n () in
      (* One update per member so every origin's component is live. *)
      for name = 0 to n - 1 do
        match
          Group.update g ~name ~item:(item name)
            (Operation.Set (payload ~rank:name ~seq:1))
        with
        | Ok () -> ()
        | Error msg -> failwith msg
      done;
      e21_settle g;
      let components = int_of_float (Group.mean_vector_components g) in
      let wire_before = e21_dbvv_wire_bytes g in
      let idle_before = e21_idle_pass_bytes g in
      (* Crash and retire the last quarter of the roster. *)
      let retired = n / 4 in
      for name = n - retired to n - 1 do
        Group.crash g ~name;
        match Group.retire g ~name with
        | Ok () -> ()
        | Error msg -> failwith msg
      done;
      e21_settle g;
      let components' = int_of_float (Group.mean_vector_components g) in
      let wire_after = e21_dbvv_wire_bytes g in
      let idle_after = e21_idle_pass_bytes g in
      let gced = (Group.counters_total g).Counters.vector_components_gced in
      Table.add_row table
        [
          string_of_int n;
          string_of_int retired;
          string_of_int components;
          string_of_int components';
          string_of_int wire_before;
          string_of_int wire_after;
          string_of_int idle_before;
          string_of_int idle_after;
          string_of_int gced;
        ])
    ns;
  table

let all ?(quick = false) () =
  [
    ("E1", fun () -> e1_cost_vs_database_size ~quick ());
    ("E2", fun () -> e2_cost_vs_items_copied ~quick ());
    ("E3", fun () -> e3_identical_replicas ~quick ());
    ("E4", fun () -> e4_message_bytes ~quick ());
    ("E5", fun () -> e5_out_of_bound ~quick ());
    ("E6", fun () -> e6_failure_resilience ~quick ());
    ("E7", fun () -> e7_convergence_rounds ~quick ());
    ("E8", fun () -> e8_log_dedup ~quick ());
    ("E9", fun () -> e9_conflict_detection ~quick ());
    ("E10", fun () -> e10_log_based_gossip ~quick ());
    ("E11", fun () -> e11_oplog_transport ~quick ());
    ("E12", fun () -> e12_timeliness_vs_period ~quick ());
    ("E13", fun () -> e13_propagation_delay ~quick ());
    ("E14", fun () -> e14_token_ablation ~quick ());
    ("E15", fun () -> e15_peer_cache_savings ~quick ());
    ("E17", fun () -> e17_message_loss ~quick ());
    ("E18", fun () -> e18_sharded_replicas ~quick ());
    ("E19", fun () -> e19_wire_codec ~quick ());
    ("E20", fun () -> e20_push_vs_pull ~quick ());
    ("E21", fun () -> e21_membership_gc ~quick ());
  ]
