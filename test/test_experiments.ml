(* Smoke + shape tests for the experiment suite (quick mode): every
   table renders, and the headline claims hold at small scale. *)

module Experiments = Edb_experiments.Experiments
module Cluster = Edb_core.Cluster
module Node = Edb_core.Node
module Counters = Edb_metrics.Counters
module Operation = Edb_store.Operation
module Workload = Edb_workload.Workload

let test_all_tables_render () =
  let tables = Experiments.all ~quick:true () in
  Alcotest.(check int) "twenty experiments" 20 (List.length tables);
  List.iter
    (fun (id, build) ->
      let rendered = Edb_metrics.Table.render (build ()) in
      Alcotest.(check bool) (id ^ " renders") true (String.length rendered > 0))
    tables

(* E1's claim at small scale: quadrupling N leaves the dbvv cost
   unchanged while the per-item baselines' cost grows with N. *)
let measure_session_work ~n_items ~m =
  let cluster = Cluster.create ~n:2 () in
  for rank = 0 to n_items - 1 do
    Cluster.update cluster ~node:0 ~item:(Workload.item_name rank) (Operation.Set "s")
  done;
  let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
  for rank = 0 to m - 1 do
    Cluster.update cluster ~node:0 ~item:(Workload.item_name rank) (Operation.Set "d")
  done;
  Cluster.reset_counters cluster;
  let (_ : Node.pull_result) = Cluster.pull cluster ~recipient:1 ~source:0 in
  Counters.total_work (Cluster.total_counters cluster)

let test_dbvv_cost_independent_of_n () =
  let small = measure_session_work ~n_items:200 ~m:16 in
  let large = measure_session_work ~n_items:3_200 ~m:16 in
  Alcotest.(check int) "same work at 16x the database" small large

let test_dbvv_cost_linear_in_m () =
  let m16 = measure_session_work ~n_items:800 ~m:16 in
  let m64 = measure_session_work ~n_items:800 ~m:64 in
  (* Within 10% of perfect 4x scaling. *)
  let ratio = float_of_int m64 /. float_of_int m16 in
  Alcotest.(check bool)
    (Printf.sprintf "4x items ~ 4x work (ratio %.2f)" ratio)
    true
    (ratio > 3.6 && ratio < 4.4)

let test_e7_rounds_grow_slowly () =
  (* Epidemic spread: going from 4 to 64 nodes should multiply rounds by
     far less than 16x. *)
  let rounds n =
    let cluster = Cluster.create ~seed:1 ~n () in
    Cluster.update cluster ~node:0 ~item:"x" (Operation.Set "v");
    Cluster.sync_until_converged cluster
  in
  let r4 = rounds 4 and r64 = rounds 64 in
  Alcotest.(check bool)
    (Printf.sprintf "sub-linear growth (%d -> %d)" r4 r64)
    true
    (r64 < r4 * 8)

let test_e3_claim_identical_replicas_o1 () =
  (* b and c became identical via a; the session between them must cost
     exactly one comparison. *)
  let cluster = Cluster.create ~n:3 () in
  for rank = 0 to 299 do
    Cluster.update cluster ~node:0 ~item:(Workload.item_name rank) (Operation.Set "v")
  done;
  ignore (Cluster.pull cluster ~recipient:1 ~source:0);
  ignore (Cluster.pull cluster ~recipient:2 ~source:0);
  Cluster.reset_counters cluster;
  ignore (Cluster.pull cluster ~recipient:2 ~source:1);
  Alcotest.(check int) "one comparison total" 1
    (Counters.total_work (Cluster.total_counters cluster))

let test_e4_claim_constant_overhead_per_item () =
  let overhead_per_item m =
    let cluster = Cluster.create ~n:2 () in
    for rank = 0 to 499 do
      Cluster.update cluster ~node:0 ~item:(Workload.item_name rank)
        (Operation.Set (Workload.payload ~item:(Workload.item_name rank) ~seq:1 ~size:64))
    done;
    ignore (Cluster.pull cluster ~recipient:1 ~source:0);
    for rank = 0 to m - 1 do
      Cluster.update cluster ~node:0 ~item:(Workload.item_name rank)
        (Operation.Set (Workload.payload ~item:(Workload.item_name rank) ~seq:2 ~size:64))
    done;
    Cluster.reset_counters cluster;
    ignore (Cluster.pull cluster ~recipient:1 ~source:0);
    let bytes = (Node.counters (Cluster.node cluster 0)).Counters.bytes_sent in
    (* Drop the constant 8-byte reply header and the value payloads:
       what is left is the per-item control information. *)
    (bytes - 8 - (m * 64)) / m
  in
  Alcotest.(check int) "same overhead at 8 and 128 items" (overhead_per_item 8)
    (overhead_per_item 128)

let test_e10_claim_independent_of_update_count () =
  let work updates =
    let cluster = Cluster.create ~n:2 () in
    for i = 0 to updates - 1 do
      Cluster.update cluster ~node:0 ~item:(Workload.item_name (i mod 8))
        (Operation.Set (string_of_int i))
    done;
    Cluster.reset_counters cluster;
    ignore (Cluster.pull cluster ~recipient:1 ~source:0);
    Counters.total_work (Cluster.total_counters cluster)
  in
  Alcotest.(check int) "8 updates vs 512 updates, same session work" (work 8) (work 512)

(* ---------- Pinned E12/E13/E17/E18 tables ---------- *)

(* E12, E13 and E17 run through Edb_scenario.Orchestrator. Each table is
   pinned at both sweep sizes by a digest of its rendering (title,
   columns and every cell), and E13's quick run also by its cluster
   counter totals, field by field, so a failure shows which counter
   moved. Every run is seeded, so a changed pin means the simulator now
   behaves differently (engine event order, peer draws, counter
   charges, arrival timing), not a stale fixture. E18's ring rounds are
   pinned the same way; its wall-clock times are a separate line
   ([Experiments.e18_with_wall]), not a column. *)
let table_pins =
  [
    ( "E12 quick", Experiments.e12_timeliness_vs_period ~quick:true,
      "1fdc48990fab57706c81f51367f52fc7" );
    ( "E12 full", Experiments.e12_timeliness_vs_period ~quick:false,
      "d8714928e24f54747f9189fa110eb319" );
    ( "E13 quick", Experiments.e13_propagation_delay ~quick:true,
      "4138faccef758fdfbbf96290860832ae" );
    ( "E13 full", Experiments.e13_propagation_delay ~quick:false,
      "aaf46cad5375df0186c3f20070280d73" );
    ( "E17 quick", Experiments.e17_message_loss ~quick:true,
      "ef61e0e17797b027141fa5d4d8dd2254" );
    ( "E17 full", Experiments.e17_message_loss ~quick:false,
      "677d1b1a3b181712a9d2e19eb455b9df" );
    ( "E18 quick", Experiments.e18_sharded_replicas ~quick:true,
      "c5df6796e4c4d380cb5595c995783d8c" );
    ( "E18 full", Experiments.e18_sharded_replicas ~quick:false,
      "c1ba72b8af5982f9f9391002a6ed2e8b" );
  ]

let test_table_pin (id, run, digest) () =
  let rendered = Edb_metrics.Table.render (run ()) in
  Alcotest.(check string) (id ^ " digest of\n" ^ rendered) digest
    (Digest.to_hex (Digest.string rendered))

(* The quick run's one n = 8 cell: its nonzero fields; every other
   Counters field is pinned at 0. *)
let e13_quick_totals =
  [
    ("vv_comparisons", 426); ("items_examined", 210); ("log_records_examined", 420);
    ("items_copied", 210); ("messages", 432); ("bytes_sent", 49200);
    ("updates_applied", 30); ("propagation_sessions", 116); ("noop_sessions", 100);
  ]

let test_e13_totals_pin () =
  let _, totals = Experiments.e13_with_totals ~quick:true () in
  let expected =
    List.map
      (fun name -> (name, Option.value ~default:0 (List.assoc_opt name e13_quick_totals)))
      Counters.field_names
  in
  Alcotest.(check (list (list (pair string int))))
    "E13 quick totals, one bundle per n" [ expected ]
    (List.map (fun c -> List.map (fun (name, get) -> (name, get c)) Counters.fields) totals)

let suite =
  [
    Alcotest.test_case "all tables render (quick)" `Slow test_all_tables_render;
    Alcotest.test_case "E3 claim: identical replicas O(1)" `Quick
      test_e3_claim_identical_replicas_o1;
    Alcotest.test_case "E4 claim: constant overhead per item" `Quick
      test_e4_claim_constant_overhead_per_item;
    Alcotest.test_case "E10 claim: work independent of update count" `Quick
      test_e10_claim_independent_of_update_count;
    Alcotest.test_case "E1 claim: cost independent of N" `Quick
      test_dbvv_cost_independent_of_n;
    Alcotest.test_case "E2 claim: cost linear in m" `Quick test_dbvv_cost_linear_in_m;
    Alcotest.test_case "E7 claim: sub-linear rounds" `Quick test_e7_rounds_grow_slowly;
    Alcotest.test_case "E13 quick counter totals (pinned)" `Quick test_e13_totals_pin;
  ]
  @ List.map
      (fun ((id, _, _) as pin) ->
        Alcotest.test_case (id ^ " table (pinned)") `Quick (test_table_pin pin))
      table_pins
