(* The scenario harness: golden-run pinning, determinism, parser
   totality under hostile input, data-file sync, and the monotone
   sampler's behaviour across node-replacement resets. *)

module Scenario = Edb_scenario.Scenario
module Orchestrator = Edb_scenario.Orchestrator
module Sampler = Edb_scenario.Sampler
module Counters = Edb_metrics.Counters
module Cluster = Edb_core.Cluster
module Node = Edb_core.Node
module Operation = Edb_store.Operation

let read_file path = In_channel.with_open_bin path In_channel.input_all

let steady =
  match Scenario.builtin "steady" with
  | Some sc -> sc
  | None -> Alcotest.fail "no steady builtin"

(* ---------- Golden run ---------- *)

let builtin name =
  match Scenario.builtin name with
  | Some sc -> sc
  | None -> Alcotest.failf "no %s builtin" name

(* The steady run is session-grain and never reaches the message-grain
   timeout/retry machinery, so two message-grain runs are pinned too:
   by a digest of their whole emission, with the session-machinery
   totals spelled out beside it so a failure shows what moved. *)
let message_grain_pins =
  [
    ( "lossy-mesh",
      "f8982ecaf9ef3434b3bf8bdcb18891a4",
      [
        ("timeouts", 143);
        ("retries", 141);
        ("sessions_abandoned", 2);
        ("connections_opened", 537);
        ("connection_retries", 141);
        ("wire_bytes_sent", 176196);
      ] );
    ( "push-smoke",
      "b71bc20bfed75c87427e18bc16a15908",
      [
        ("timeouts", 0);
        ("retries", 0);
        ("sessions_abandoned", 0);
        ("connections_opened", 62);
        ("connection_retries", 0);
        ("wire_bytes_sent", 5404);
      ] );
  ]

(* The committed BENCH_timeseries.json is exactly what
   `edb_cli scenario steady --json` emits: one fixed seed triple, one
   byte-for-byte emission. Any drift — in the engine's event order, the
   driver's counter charges, the workload stream, the float formatting,
   the JSON field order — fails here first, with the tick series as the
   diff surface. *)
let test_golden_run () =
  let r = Orchestrator.run steady in
  let emitted =
    Orchestrator.to_string ~generated_by:"edb_cli scenario steady --json" r
  in
  let committed = read_file "../BENCH_timeseries.json" in
  Alcotest.(check string) "byte-identical to BENCH_timeseries.json" committed
    emitted;
  List.iter
    (fun (name, digest, totals) ->
      let r = Orchestrator.run (builtin name) in
      List.iter
        (fun (field, want) ->
          Alcotest.(check int) (name ^ " " ^ field) want
            ((List.assoc field Counters.fields) r.Orchestrator.totals))
        totals;
      Alcotest.(check string) (name ^ " emission digest") digest
        (Digest.to_hex
           (Digest.string (Orchestrator.to_string ~generated_by:"pin" r))))
    message_grain_pins

let test_determinism_same_seed () =
  let once () = Orchestrator.to_string ~generated_by:"g" (Orchestrator.run steady) in
  Alcotest.(check string) "same seed, same series" (once ()) (once ())

let test_different_seed_differs () =
  let reseeded =
    { steady with Scenario.seeds = { Scenario.driver = 911; engine = 912; workload = 913 } }
  in
  let a = Orchestrator.to_string ~generated_by:"g" (Orchestrator.run steady) in
  let b = Orchestrator.to_string ~generated_by:"g" (Orchestrator.run reseeded) in
  Alcotest.(check bool) "different seeds, different series" true (a <> b)

(* ---------- Data files ---------- *)

(* scenarios/*.json are data, but they are pinned data: each file is
   exactly [Scenario.to_string] of its builtin, and parses back to an
   equal value. *)
let test_scenario_files_in_sync () =
  List.iter
    (fun (sc : Scenario.t) ->
      let path = "../scenarios/" ^ sc.Scenario.name ^ ".json" in
      let blob = read_file path in
      Alcotest.(check string) (path ^ " in sync") (Scenario.to_string sc) blob;
      match Scenario.of_string blob with
      | Ok sc' ->
        Alcotest.(check bool) (path ^ " parses back equal") true
          (Scenario.equal sc sc')
      | Error msg -> Alcotest.fail (path ^ ": " ^ msg))
    Scenario.builtins

let test_builtin_lookup () =
  Alcotest.(check (list string))
    "builtin names"
    [ "steady"; "diurnal"; "churn"; "lossy-mesh"; "converged-idle"; "smoke";
      "push-smoke"; "push-vs-pull"; "membership-churn" ]
    Scenario.builtin_names;
  Alcotest.(check bool) "unknown name" true (Scenario.builtin "nope" = None);
  List.iter
    (fun sc ->
      match Scenario.validate sc with
      | Ok () -> ()
      | Error msg -> Alcotest.fail (sc.Scenario.name ^ " invalid: " ^ msg))
    Scenario.builtins

(* ---------- Parser totality ---------- *)

let parses_without_exception label blob =
  match Scenario.of_string blob with
  | Ok _ | Error _ -> ()
  | exception e ->
    Alcotest.fail
      (Printf.sprintf "%s: parser leaked exception %s" label (Printexc.to_string e))

(* Every prefix that cuts actual content (the last byte is the printer's
   trailing newline — dropping only that leaves valid JSON) is invalid
   JSON or an incomplete scenario: all must come back as [Error], none
   as an exception. *)
let test_truncated_input () =
  let whole = Scenario.to_string steady in
  for k = 0 to String.length whole - 2 do
    let prefix = String.sub whole 0 k in
    (match Scenario.of_string prefix with
    | Ok _ -> Alcotest.failf "prefix of length %d parsed as a scenario" k
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "prefix of length %d leaked %s" k (Printexc.to_string e))
  done

(* Single-bit corruption anywhere in the file: may still parse (a digit
   flipped to another digit), may fail — must never throw. *)
let test_bit_flipped_input () =
  let whole = Scenario.to_string steady in
  List.iter
    (fun bit ->
      String.iteri
        (fun i _ ->
          let b = Bytes.of_string whole in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
          parses_without_exception
            (Printf.sprintf "byte %d flipped by 0x%02x" i bit)
            (Bytes.to_string b))
        whole)
    [ 0x01; 0x20; 0x80 ]

let test_garbage_input () =
  List.iter
    (fun blob ->
      parses_without_exception "garbage" blob;
      match Scenario.of_string blob with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "garbage %S parsed as a scenario" blob)
    [
      ""; " "; "{"; "}"; "null"; "true"; "42"; "\"scenario\""; "[1,2";
      "{\"schema\":1}";
      "{\"schema\":2,\"name\":\"x\"}";
      String.make 4096 '[';
      "{\"schema\":1,\"name\":\"\x00\x01\x02";
      "{\"schema\":1,\"name\":3,\"nodes\":\"eight\"}";
    ];
  (* Structured but wrong: a valid document with one field driven out
     of range must name the failure, not throw. *)
  let broken field value =
    match Scenario.to_json steady with
    | Edb_metrics.Json.Obj fields ->
      Edb_metrics.Json.Obj
        (List.map (fun (k, v) -> if k = field then (k, value) else (k, v)) fields)
    | _ -> Alcotest.fail "scenario did not print as an object"
  in
  List.iter
    (fun (field, value) ->
      match Scenario.of_json (broken field value) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "out-of-range %s accepted" field
      | exception e ->
        Alcotest.failf "out-of-range %s leaked %s" field (Printexc.to_string e))
    Edb_metrics.Json.
      [
        ("nodes", Int 1);
        ("nodes", Float 8.5);
        ("zipf", Float nan);
        ("tick", Float 0.0);
        ("deadline", Float 1.0);
        ("network", Obj [ ("latency", Float (-1.0)); ("loss", Float 0.0);
                          ("duplication", Float 0.0) ]);
        ("transport", String "pigeon");
        ("arrival", Obj [ ("phases", List [ Obj [] ]) ]);
        ("faults", List [ Obj [ ("kind", String "meteor"); ("at", Float 1.0) ] ]);
      ]

(* ---------- QCheck: round-trip and totality ---------- *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"scenario print/parse round-trip" ~count:300
    ~print:Scenario.to_string Gen.scenario (fun sc ->
      match Scenario.of_string (Scenario.to_string sc) with
      | Ok sc' -> Scenario.equal sc sc'
      | Error msg -> QCheck2.Test.fail_reportf "rejected own output: %s" msg)

let prop_parser_total =
  QCheck2.Test.make ~name:"parser total on random bytes" ~count:500
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 128))
    (fun blob ->
      match Scenario.of_string blob with
      | Ok _ | Error _ -> true
      | exception _ -> false)

(* ---------- Monotone sampling across node replacement ---------- *)

(* Unit-level: a backward step in the raw cumulative counters (a node
   swapped for a restored checkpoint whose counters start at zero) must
   fold into the preserved base, keeping every reported total
   monotone. *)
let test_sampler_absorbs_reset () =
  let sampler = Sampler.create () in
  let c = Counters.create () in
  c.Counters.messages <- 10;
  c.Counters.bytes_sent <- 700;
  let at n sample = List.assoc n sample in
  let s1 = Sampler.sample sampler c in
  Alcotest.(check int) "first sample passes through" 10 (at "messages" s1);
  (* The raw total drops — a replaced node took its counters with it. *)
  c.Counters.messages <- 4;
  c.Counters.bytes_sent <- 700;
  let s2 = Sampler.sample sampler c in
  Alcotest.(check int) "reset folded into base" 10 (at "messages" s2);
  Alcotest.(check int) "untouched field unchanged" 700 (at "bytes_sent" s2);
  c.Counters.messages <- 9;
  let s3 = Sampler.sample sampler c in
  Alcotest.(check int) "growth resumes on top of base" 15 (at "messages" s3)

(* Integration-level: drive a real cluster, replace a node with a fresh
   one (the persistence layer's restore path), keep driving, and pin
   that sampled totals never step backwards even though the cluster's
   raw totals did. *)
let test_post_restore_sampling_monotone () =
  let n = 3 in
  let cluster = Cluster.create ~seed:5 ~n () in
  let sampler = Sampler.create () in
  let drive () =
    for rank = 0 to 5 do
      Cluster.update cluster ~node:(rank mod n)
        ~item:(Edb_workload.Workload.item_name rank) (Operation.Set "v")
    done;
    ignore (Cluster.random_pull_round cluster)
  in
  drive ();
  let before = Sampler.sample sampler (Cluster.total_counters cluster) in
  (* Restore node 1 from "a checkpoint": a fresh node, zero counters. *)
  Cluster.replace_node cluster 1 (Node.create ~id:1 ~n ());
  let after_restore = Sampler.sample sampler (Cluster.total_counters cluster) in
  drive ();
  let after_drive = Sampler.sample sampler (Cluster.total_counters cluster) in
  List.iter2
    (fun (name, b) (name', a) ->
      Alcotest.(check string) "field order stable" name name';
      if a < b then
        Alcotest.failf "%s stepped back across restore (%d -> %d)" name b a)
    before after_restore;
  List.iter2
    (fun (name, b) (name', a) ->
      Alcotest.(check string) "field order stable" name name';
      if a < b then Alcotest.failf "%s stepped back after restart (%d -> %d)" name b a)
    after_restore after_drive;
  (* The run did real work after the restore, and the series shows it. *)
  Alcotest.(check bool) "post-restore work visible" true
    (List.assoc "messages" after_drive > List.assoc "messages" after_restore)

(* ---------- Orchestrator sanity on a non-steady builtin ---------- *)

let test_churn_run_consistent () =
  let sc =
    match Scenario.builtin "churn" with
    | Some sc -> sc
    | None -> Alcotest.fail "no churn builtin"
  in
  let r = Orchestrator.run sc in
  Alcotest.(check bool) "converged" true (r.Orchestrator.converged_at <> None);
  Alcotest.(check int) "every update became visible" r.Orchestrator.issued
    r.Orchestrator.visible;
  (* The crash schedule showed up in the series: some tick saw fewer
     than [nodes] live members. *)
  Alcotest.(check bool) "a tick observed a dead node" true
    (List.exists
       (fun (t : Orchestrator.tick) -> t.Orchestrator.alive < sc.Scenario.nodes)
       r.Orchestrator.ticks)

(* The membership runner: the churn block routes the scenario onto the
   synchronous Group path. Every tick must carry a membership sample,
   visibility stays monotone across epoch changes, and the retirement's
   component drop is visible in the mean-vector-length series. *)
let test_membership_churn_run () =
  let sc =
    match Scenario.builtin "membership-churn" with
    | Some sc -> sc
    | None -> Alcotest.fail "no membership-churn builtin"
  in
  let r = Orchestrator.run sc in
  Alcotest.(check bool) "converged" true (r.Orchestrator.converged_at <> None);
  Alcotest.(check int) "every surviving update became visible"
    r.Orchestrator.issued r.Orchestrator.visible;
  List.iter
    (fun (t : Orchestrator.tick) ->
      match t.Orchestrator.membership with
      | Some _ -> ()
      | None -> Alcotest.failf "tick %d has no membership sample" t.Orchestrator.index)
    r.Orchestrator.ticks;
  let series =
    List.filter_map (fun (t : Orchestrator.tick) -> t.Orchestrator.membership)
      r.Orchestrator.ticks
  in
  let peak =
    List.fold_left
      (fun m (s : Orchestrator.membership_sample) -> max m s.mean_components)
      0.0 series
  in
  let last = List.nth series (List.length series - 1) in
  Alcotest.(check bool) "join grew the vectors past the initial dimension" true
    (peak > float_of_int sc.Scenario.nodes);
  Alcotest.(check bool) "retirement dropped the mean vector length" true
    (last.Orchestrator.mean_components < peak);
  let rec monotone = function
    | (a : Orchestrator.tick) :: (b : Orchestrator.tick) :: rest ->
      if b.Orchestrator.visible < a.Orchestrator.visible then
        Alcotest.failf "visible dipped at tick %d" b.Orchestrator.index;
      monotone (b :: rest)
    | _ -> ()
  in
  monotone r.Orchestrator.ticks;
  (* A classic run keeps the field empty — the JSON key is [null]. *)
  let classic = Orchestrator.run steady in
  List.iter
    (fun (t : Orchestrator.tick) ->
      if t.Orchestrator.membership <> None then
        Alcotest.failf "classic tick %d grew a membership sample"
          t.Orchestrator.index)
    classic.Orchestrator.ticks

let test_run_rejects_invalid () =
  let broken = { steady with Scenario.tick = 0.0 } in
  match Orchestrator.run broken with
  | _ -> Alcotest.fail "orchestrator ran an invalid scenario"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "golden run reproduces BENCH_timeseries.json" `Quick
      test_golden_run;
    Alcotest.test_case "same seed, same series" `Quick test_determinism_same_seed;
    Alcotest.test_case "different seed, different series" `Quick
      test_different_seed_differs;
    Alcotest.test_case "scenarios/*.json in sync with builtins" `Quick
      test_scenario_files_in_sync;
    Alcotest.test_case "builtin lookup and validity" `Quick test_builtin_lookup;
    Alcotest.test_case "truncated input never throws" `Quick test_truncated_input;
    Alcotest.test_case "bit-flipped input never throws" `Slow test_bit_flipped_input;
    Alcotest.test_case "garbage and out-of-range input" `Quick test_garbage_input;
    Alcotest.test_case "sampler absorbs counter resets" `Quick
      test_sampler_absorbs_reset;
    Alcotest.test_case "post-restore sampling monotone" `Quick
      test_post_restore_sampling_monotone;
    Alcotest.test_case "churn run consistent" `Quick test_churn_run_consistent;
    Alcotest.test_case "membership churn run" `Quick test_membership_churn_run;
    Alcotest.test_case "run rejects invalid scenario" `Quick test_run_rejects_invalid;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_parser_total;
  ]
