(* Dynamic membership: join, graceful leave, dead-node retirement with
   version-vector GC, and the randomized membership-equivalence
   explorer. *)

module Group = Edb_membership.Group
module Node = Edb_core.Node
module Cluster = Edb_core.Cluster
module Peer_cache = Edb_core.Peer_cache
module Operation = Edb_store.Operation
module Counters = Edb_metrics.Counters
module Vv = Edb_vv.Version_vector
module Explorer = Edb_check.Explorer

let set v = Operation.Set v

let ok = function Ok v -> v | Error msg -> Alcotest.fail msg

let check_group g =
  match Group.check g with Ok () -> () | Error msg -> Alcotest.fail msg

let sync g a b = ok (Group.sync g ~a ~b)

(* Sessions over every live pair plus a controller pass, repeated until
   nothing changes — the test-side quiescence drive. *)
let settle g =
  for _ = 1 to 8 do
    let names = Array.to_list (Group.roster g) in
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            if a < b then ignore (Group.sync g ~a ~b : (unit, string) result))
          names)
      names;
    ignore (Group.observe g : Group.event list)
  done

(* ---------- Join ---------- *)

let test_join_bootstraps_and_activates () =
  let g = Group.create ~n:3 () in
  ok (Group.update g ~name:0 ~item:"a" (set "v0"));
  ok (Group.update g ~name:1 ~item:"b" (set "v1"));
  sync g 0 1;
  sync g 1 2;
  let name = ok (Group.join g ~donor:1) in
  Alcotest.(check int) "fresh stable name" 3 name;
  Alcotest.(check string) "joining" "joining"
    (Group.status_to_string (Group.status g ~name));
  (* The catch-up window serves no reads... *)
  (match Group.read g ~name ~item:"a" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "joining member served a read");
  (* ...and accepts no user updates. *)
  (match Group.update g ~name ~item:"c" (set "nope") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "joining member accepted an update");
  (* Every member that reconciles extends its vectors for the newcomer. *)
  sync g 0 1;
  Alcotest.(check int) "donor extended" 4 (Node.dimension (Group.node g ~name:1));
  Alcotest.(check int) "peer extended" 4 (Node.dimension (Group.node g ~name:0));
  settle g;
  Alcotest.(check string) "activated" "active"
    (Group.status_to_string (Group.status g ~name));
  Alcotest.(check (option string)) "reads after activation" (Some "v0")
    (ok (Group.read g ~name ~item:"a"));
  Alcotest.(check int) "join counted" 1
    (Group.counters_total g).Counters.joins_completed;
  check_group g;
  Alcotest.(check bool) "converged" true (Group.converged g)

let test_crash_during_join_stalls_then_finishes () =
  let g = Group.create ~n:3 () in
  ok (Group.update g ~name:0 ~item:"a" (set "v0"));
  sync g 0 1;
  let name = ok (Group.join g ~donor:0) in
  ok (Group.update g ~name:0 ~item:"a" (set "v1"));
  Group.crash g ~name;
  (* A crashed joiner cannot activate; nothing corrupts meanwhile. *)
  for _ = 1 to 3 do
    sync g 0 1;
    sync g 1 2;
    ignore (Group.observe g : Group.event list)
  done;
  Alcotest.(check string) "still joining" "joining"
    (Group.status_to_string (Group.status g ~name));
  check_group g;
  ok (Group.recover g ~name);
  settle g;
  Alcotest.(check string) "activates after recovery" "active"
    (Group.status_to_string (Group.status g ~name));
  Alcotest.(check bool) "converged" true (Group.converged g);
  check_group g

(* ---------- Graceful leave ---------- *)

let test_leave_drains_then_departs () =
  let g = Group.create ~n:3 () in
  ok (Group.update g ~name:2 ~item:"x" (set "last-words"));
  ok (Group.leave g ~name:2);
  (* Draining members refuse user updates but still serve reads and
     still run anti-entropy — they must, to finish. *)
  (match Group.update g ~name:2 ~item:"x" (set "more") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "draining member accepted an update");
  Alcotest.(check (option string)) "still serves reads" (Some "last-words")
    (ok (Group.read g ~name:2 ~item:"x"));
  Alcotest.(check int) "not departed before a peer subsumes it" 3
    (Group.live_count g);
  settle g;
  Alcotest.(check string) "departed" "departed"
    (Group.status_to_string (Group.status g ~name:2));
  Alcotest.(check int) "two participants left" 2 (Group.live_count g);
  (* The update survived the drain: it was propagated before departure. *)
  Alcotest.(check (option string)) "drained update survives" (Some "last-words")
    (ok (Group.read g ~name:0 ~item:"x"));
  check_group g

let test_peer_cache_forgets_departed_peer () =
  let g = Group.create ~n:3 () in
  ok (Group.update g ~name:1 ~item:"k" (set "v"));
  sync g 0 1;
  sync g 1 2;
  let cache0 = Node.peer_cache (Group.node g ~name:0) in
  Alcotest.(check bool) "proven DBVV cached after the session" true
    (Peer_cache.proven cache0 ~peer:1 <> None);
  ok (Group.leave g ~name:1);
  settle g;
  Alcotest.(check string) "departed" "departed"
    (Group.status_to_string (Group.status g ~name:1));
  (* Proven lower bounds must not outlive the peer they were proven
     against: the departed slot will never answer a session again. *)
  Alcotest.(check (option string)) "cached baseline forgotten" None
    (Option.map Vv.to_string (Peer_cache.proven cache0 ~peer:1))

(* ---------- Retirement ---------- *)

let test_retirement_gcs_the_component () =
  let g = Group.create ~n:4 () in
  ok (Group.update g ~name:3 ~item:"doomed" (set "payload"));
  settle g;
  Group.crash g ~name:3;
  ok (Group.retire g ~name:3);
  (match Group.recover g ~name:3 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "retirement victim recovered");
  Alcotest.(check (list int)) "fence pending" [ 3 ] (Group.pending_fences g);
  settle g;
  Alcotest.(check (list int)) "fence complete" [] (Group.pending_fences g);
  Alcotest.(check string) "retired" "retired"
    (Group.status_to_string (Group.status g ~name:3));
  Alcotest.(check int) "roster shrank" 3 (Array.length (Group.roster g));
  List.iter
    (fun name ->
      Alcotest.(check int)
        (Printf.sprintf "member %d dropped the component" name)
        3
        (Node.dimension (Group.node g ~name)))
    [ 0; 1; 2 ];
  (* The victim's data survives its vector component. *)
  Alcotest.(check (option string)) "retired member's update survives"
    (Some "payload")
    (ok (Group.read g ~name:0 ~item:"doomed"));
  let totals = Group.counters_total g in
  Alcotest.(check int) "retirement counted" 3 totals.Counters.retirements_completed;
  Alcotest.(check bool) "components GCed" true
    (totals.Counters.vector_components_gced > 0);
  check_group g;
  Alcotest.(check bool) "converged" true (Group.converged g)

(* Retire-while-partitioned: a required acker that cannot hear about
   the fence keeps completion unreachable — the fence stalls, vectors
   stay intact, and completion arrives only when the partition heals. *)
let test_retirement_stalls_until_partition_heals () =
  let g = Group.create ~n:4 () in
  ok (Group.update g ~name:3 ~item:"d" (set "v"));
  sync g 3 0;
  sync g 0 1;
  (* Member 2 is "partitioned": it never hears a session below. *)
  Group.crash g ~name:3;
  ok (Group.retire g ~name:3);
  for _ = 1 to 4 do
    sync g 0 1;
    ignore (Group.observe g : Group.event list)
  done;
  Alcotest.(check (list int)) "fence stalls on the silent member" [ 3 ]
    (Group.pending_fences g);
  Alcotest.(check int) "no component dropped while stalled" 4
    (Node.dimension (Group.node g ~name:0));
  check_group g;
  (* Heal: one session with the laggard completes the fence. *)
  sync g 1 2;
  sync g 0 2;
  sync g 0 1;
  ignore (Group.observe g : Group.event list);
  Alcotest.(check (list int)) "fence completes after heal" []
    (Group.pending_fences g);
  (* Members apply [Retire_done] on their next catch-up. *)
  ignore (Group.observe g : Group.event list);
  Alcotest.(check int) "component dropped everywhere" 3
    (Node.dimension (Group.node g ~name:0));
  check_group g

let test_retire_refused_for_live_member () =
  let g = Group.create ~n:3 () in
  match Group.retire g ~name:1 with
  | Error msg ->
    Alcotest.(check bool) "message names the state" true
      (Astring.String.is_infix ~affix:"active" msg)
  | Ok () -> Alcotest.fail "retired a live active member"

(* ---------- Error-message surgery (satellite) ---------- *)

let test_replace_node_errors_carry_ids () =
  let cluster = Cluster.create ~n:3 () in
  (match Cluster.replace_node cluster 1 (Node.create ~id:2 ~n:3 ()) with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names slot and node id" true
      (Astring.String.is_infix ~affix:"slot 1" msg
      && Astring.String.is_infix ~affix:"node id 2" msg)
  | () -> Alcotest.fail "id mismatch accepted");
  match Cluster.replace_node cluster 1 (Node.create ~id:1 ~n:4 ()) with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "names both dimensions" true
      (Astring.String.is_infix ~affix:"n = 3" msg
      && Astring.String.is_infix ~affix:"dimension = 4" msg)
  | () -> Alcotest.fail "dimension mismatch accepted"

let test_vv_surgery_bounds () =
  let v = Vv.of_array [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "extend appends a zero" [| 1; 2; 3; 0 |]
    (Vv.to_array (Vv.extend v));
  Alcotest.(check (array int)) "remove drops the slot" [| 1; 3 |]
    (Vv.to_array (Vv.remove_component v ~at:1));
  (match Vv.remove_component v ~at:3 with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "bounds named" true
      (Astring.String.is_infix ~affix:"index 3" msg)
  | _ -> Alcotest.fail "out-of-bounds removal accepted");
  match Vv.remove_component (Vv.of_array [| 5 |]) ~at:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "removed the last component"

(* ---------- Randomized equivalence (the tentpole property) ---------- *)

let expect_pass label = function
  | Ok ({ Explorer.schedules } : Explorer.report) ->
    Alcotest.(check bool) (label ^ " explored") true (schedules > 0)
  | Error msg -> Alcotest.fail (label ^ " failed:\n" ^ msg)

let test_membership_equivalence () =
  expect_pass "membership equivalence"
    (Explorer.run_membership_equivalence ~seed:7 ~runs:40 ())

let test_membership_equivalence_sharded () =
  expect_pass "membership equivalence (4 shards)"
    (Explorer.run_membership_equivalence ~shards:4 ~seed:19 ~runs:25 ())

let suite =
  [
    Alcotest.test_case "join bootstraps and activates" `Quick
      test_join_bootstraps_and_activates;
    Alcotest.test_case "crash during join stalls then finishes" `Quick
      test_crash_during_join_stalls_then_finishes;
    Alcotest.test_case "leave drains then departs" `Quick
      test_leave_drains_then_departs;
    Alcotest.test_case "peer cache forgets a departed peer" `Quick
      test_peer_cache_forgets_departed_peer;
    Alcotest.test_case "retirement GCs the component" `Quick
      test_retirement_gcs_the_component;
    Alcotest.test_case "retirement stalls until the partition heals" `Quick
      test_retirement_stalls_until_partition_heals;
    Alcotest.test_case "retire refused for a live member" `Quick
      test_retire_refused_for_live_member;
    Alcotest.test_case "replace_node errors carry ids" `Quick
      test_replace_node_errors_carry_ids;
    Alcotest.test_case "version-vector surgery bounds" `Quick test_vv_surgery_bounds;
    Alcotest.test_case "membership equivalence" `Slow test_membership_equivalence;
    Alcotest.test_case "membership equivalence (sharded)" `Slow
      test_membership_equivalence_sharded;
  ]
