(* Unit tests for the protocol node: update bookkeeping (§5.3),
   SendPropagation (Fig. 2), AcceptPropagation (Fig. 3), and the DBVV
   maintenance rules (§4.1). *)

module Node = Edb_core.Node
module Message = Edb_core.Message
module Conflict = Edb_core.Conflict
module Operation = Edb_store.Operation
module Vv = Edb_vv.Version_vector
module Log_component = Edb_log.Log_component
module Log_vector = Edb_log.Log_vector

let set v = Operation.Set v

let expect_ok node =
  match Node.check_invariants node with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant violated: " ^ msg)

let check_vv msg expected actual =
  Alcotest.(check (array int)) msg expected (Vv.to_array actual)

let make_pair () = (Node.create ~id:0 ~n:2 (), Node.create ~id:1 ~n:2 ())

let test_update_bookkeeping () =
  let a = Node.create ~id:0 ~n:3 () in
  Node.update a "x" (set "v1");
  check_vv "dbvv" [| 1; 0; 0 |] (Node.dbvv a);
  (match Node.item_vv a "x" with
  | Some ivv -> check_vv "item ivv" [| 1; 0; 0 |] ivv
  | None -> Alcotest.fail "item should exist");
  Alcotest.(check (option string)) "value" (Some "v1") (Node.read a "x");
  let component = Log_vector.component (Node.log_vector a) 0 in
  Alcotest.(check int) "one log record" 1 (Log_component.length component);
  expect_ok a

let test_update_log_dedup () =
  let a = Node.create ~id:0 ~n:2 () in
  Node.update a "x" (set "v1");
  Node.update a "y" (set "w1");
  Node.update a "x" (set "v2");
  let component = Log_vector.component (Node.log_vector a) 0 in
  Alcotest.(check int) "two records for two items" 2 (Log_component.length component);
  (match Log_component.find_record component "x" with
  | Some r -> Alcotest.(check int) "x record has latest seq" 3 r.Edb_log.Log_record.seq
  | None -> Alcotest.fail "expected x record");
  check_vv "dbvv counts all updates" [| 3; 0 |] (Node.dbvv a);
  expect_ok a

let test_identical_replicas_noop () =
  let a, b = make_pair () in
  let reply = Node.handle_propagation_request a (Node.propagation_request b) in
  Alcotest.(check bool) "you-are-current" true (reply = Message.You_are_current);
  Alcotest.(check int) "counted as noop" 1 (Node.counters a).noop_sessions

let test_basic_propagation () =
  let a, b = make_pair () in
  Node.update a "x" (set "v1");
  (match Node.pull ~recipient:b ~source:a () with
  | Node.Pulled { copied; conflicts; resolved } ->
    Alcotest.(check (list string)) "copied x" [ "x" ] copied;
    Alcotest.(check int) "no conflicts" 0 conflicts;
    Alcotest.(check int) "no resolutions" 0 resolved
  | Node.Already_current -> Alcotest.fail "expected propagation");
  Alcotest.(check (option string)) "value arrived" (Some "v1") (Node.read b "x");
  check_vv "dbvv caught up" [| 1; 0 |] (Node.dbvv b);
  (match Node.item_vv b "x" with
  | Some ivv -> check_vv "ivv adopted" [| 1; 0 |] ivv
  | None -> Alcotest.fail "item should exist");
  (* The records travelled too: b can now serve them onward. *)
  let component = Log_vector.component (Node.log_vector b) 0 in
  Alcotest.(check int) "record forwarded" 1 (Log_component.length component);
  expect_ok a;
  expect_ok b

let test_pull_twice_second_is_noop () =
  let a, b = make_pair () in
  Node.update a "x" (set "v1");
  (match Node.pull ~recipient:b ~source:a () with
  | Node.Pulled _ -> ()
  | Node.Already_current -> Alcotest.fail "first pull should copy");
  match Node.pull ~recipient:b ~source:a () with
  | Node.Already_current -> ()
  | Node.Pulled _ -> Alcotest.fail "second pull should be a no-op"

let test_propagation_ships_only_dirty_items () =
  let a, b = make_pair () in
  (* Converge on a 50-item database first. *)
  for i = 0 to 49 do
    Node.update a (Printf.sprintf "item-%02d" i) (set "base")
  done;
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  (* One fresh update: the next session must ship exactly one item. *)
  Node.update a "item-07" (set "fresh");
  (match Node.handle_propagation_request a (Node.propagation_request b) with
  | Message.Propagate { items; tails } ->
    Alcotest.(check int) "one item in S" 1 (List.length items);
    let total_records = Array.fold_left (fun acc l -> acc + List.length l) 0 tails in
    Alcotest.(check int) "one record in D" 1 total_records;
    (match items with
    | [ shipped ] -> Alcotest.(check string) "right item" "item-07" shipped.Message.name
    | _ -> Alcotest.fail "expected singleton")
  | Message.Propagate_sharded _ -> Alcotest.fail "sharded reply from a 1-shard node"
  | Message.You_are_current -> Alcotest.fail "expected propagation");
  expect_ok a

let test_is_selected_flags_reset () =
  let a, b = make_pair () in
  Node.update a "x" (set "v1");
  Node.update a "y" (set "v2");
  (match Node.handle_propagation_request a (Node.propagation_request b) with
  | Message.Propagate _ -> ()
  | Message.Propagate_sharded _ -> Alcotest.fail "sharded reply from a 1-shard node"
  | Message.You_are_current -> Alcotest.fail "expected propagation");
  (* check_invariants includes the stray-flag check. *)
  expect_ok a

let test_transitive_propagation () =
  let a = Node.create ~id:0 ~n:3 () in
  let b = Node.create ~id:1 ~n:3 () in
  let c = Node.create ~id:2 ~n:3 () in
  Node.update a "x" (set "v1");
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  (* c hears about a's update via b only. *)
  let (_ : Node.pull_result) = Node.pull ~recipient:c ~source:b () in
  Alcotest.(check (option string)) "c got the value" (Some "v1") (Node.read c "x");
  check_vv "c's dbvv" [| 1; 0; 0 |] (Node.dbvv c);
  expect_ok c

let test_indirectly_identical_detected_in_constant_time () =
  (* The Lotus weakness the paper fixes (§8.1): b and c both caught up
     via a; a session between them must answer you-are-current from the
     DBVVs alone. *)
  let a = Node.create ~id:0 ~n:3 () in
  let b = Node.create ~id:1 ~n:3 () in
  let c = Node.create ~id:2 ~n:3 () in
  for i = 0 to 19 do
    Node.update a (Printf.sprintf "i%02d" i) (set "v")
  done;
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  let (_ : Node.pull_result) = Node.pull ~recipient:c ~source:a () in
  let before = Edb_metrics.Counters.copy (Node.counters c) in
  (match Node.pull ~recipient:b ~source:c () with
  | Node.Already_current -> ()
  | Node.Pulled _ -> Alcotest.fail "replicas are identical");
  let cost =
    Edb_metrics.Counters.diff ~after:(Node.counters c) ~before
  in
  Alcotest.(check int) "single vv comparison" 1 cost.vv_comparisons;
  Alcotest.(check int) "no item examined" 0 cost.items_examined;
  Alcotest.(check int) "no record examined" 0 cost.log_records_examined

let test_dbvv_rule_3 () =
  (* After adopting an item, the recipient's DBVV grows by exactly the
     IVV surplus of the incoming copy. *)
  let a = Node.create ~id:0 ~n:3 () in
  let b = Node.create ~id:1 ~n:3 () in
  Node.update a "x" (set "v1");
  Node.update a "x" (set "v2");
  Node.update a "y" (set "w");
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  check_vv "b's dbvv equals a's" (Vv.to_array (Node.dbvv a)) (Node.dbvv b);
  expect_ok b

let test_conflict_detected () =
  let a, b = make_pair () in
  Node.update a "x" (set "from-a");
  Node.update b "x" (set "from-b");
  (match Node.pull ~recipient:b ~source:a () with
  | Node.Pulled { copied; conflicts; _ } ->
    Alcotest.(check int) "one conflict" 1 conflicts;
    Alcotest.(check (list string)) "nothing adopted" [] copied
  | Node.Already_current -> Alcotest.fail "expected a session");
  (* Criterion 2: propagation must not overwrite either version. *)
  Alcotest.(check (option string)) "b keeps its version" (Some "from-b") (Node.read b "x");
  Alcotest.(check (option string)) "a keeps its version" (Some "from-a") (Node.read a "x");
  match Node.conflicts b with
  | [ conflict ] ->
    Alcotest.(check string) "conflicting item" "x" conflict.Conflict.item;
    (match conflict.Conflict.culprits with
    | Some (k, l) ->
      Alcotest.(check bool) "culprits are 0 and 1" true ((k, l) = (0, 1) || (k, l) = (1, 0))
    | None -> Alcotest.fail "culprits should be derivable")
  | conflicts ->
    Alcotest.fail (Printf.sprintf "expected one conflict, got %d" (List.length conflicts))

let test_conflict_detected_on_both_sides () =
  let a, b = make_pair () in
  Node.update a "x" (set "from-a");
  Node.update b "x" (set "from-b");
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  let (_ : Node.pull_result) = Node.pull ~recipient:a ~source:b () in
  Alcotest.(check int) "a saw it too" 1 (List.length (Node.conflicts a))

let test_conflict_spares_other_items () =
  let a, b = make_pair () in
  Node.update a "x" (set "from-a");
  Node.update b "x" (set "from-b");
  Node.update a "y" (set "clean");
  (match Node.pull ~recipient:b ~source:a () with
  | Node.Pulled { copied; conflicts; _ } ->
    Alcotest.(check int) "one conflict" 1 conflicts;
    Alcotest.(check (list string)) "clean item still adopted" [ "y" ] copied
  | Node.Already_current -> Alcotest.fail "expected a session");
  Alcotest.(check (option string)) "y arrived" (Some "clean") (Node.read b "y");
  expect_ok b

let test_resolution_policy () =
  let resolver ~(local : Message.shipped_item) ~(remote : Message.shipped_item) =
    (* Deterministic merge: the lexicographically larger value wins. *)
    let value s = Option.value ~default:"" (Message.whole_value s) in
    if String.compare (value local) (value remote) >= 0 then value local
    else value remote
  in
  let a = Node.create ~policy:(Resolve resolver) ~id:0 ~n:2 () in
  let b = Node.create ~policy:(Resolve resolver) ~id:1 ~n:2 () in
  Node.update a "x" (set "aaa");
  Node.update b "x" (set "zzz");
  (match Node.pull ~recipient:b ~source:a () with
  | Node.Pulled { conflicts; resolved; _ } ->
    Alcotest.(check int) "no reported conflict" 0 conflicts;
    Alcotest.(check int) "one resolution" 1 resolved
  | Node.Already_current -> Alcotest.fail "expected a session");
  Alcotest.(check (option string)) "winner value" (Some "zzz") (Node.read b "x");
  (* The resolution is a fresh update that dominates both ancestors, so
     it propagates back and the pair converges. *)
  let (_ : Node.pull_result) = Node.pull ~recipient:a ~source:b () in
  Alcotest.(check (option string)) "a converged to winner" (Some "zzz") (Node.read a "x");
  Alcotest.(check bool) "dbvvs equal" true (Vv.equal (Node.dbvv a) (Node.dbvv b));
  expect_ok a;
  expect_ok b

let test_conflict_handler_invoked () =
  let seen = ref [] in
  let handler conflict = seen := conflict :: !seen in
  let a = Node.create ~id:0 ~n:2 () in
  let b = Node.create ~conflict_handler:handler ~id:1 ~n:2 () in
  Node.update a "x" (set "va");
  Node.update b "x" (set "vb");
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  Alcotest.(check int) "handler called once" 1 (List.length !seen)

let test_sync_pair_converges () =
  let a, b = make_pair () in
  Node.update a "x" (set "va");
  Node.update b "y" (set "vb");
  Node.sync_pair a b;
  Alcotest.(check (option string)) "a has y" (Some "vb") (Node.read a "y");
  Alcotest.(check (option string)) "b has x" (Some "va") (Node.read b "x");
  (* One more exchange settles the reverse direction completely. *)
  Node.sync_pair a b;
  Alcotest.(check bool) "dbvvs equal" true (Vv.equal (Node.dbvv a) (Node.dbvv b));
  expect_ok a;
  expect_ok b

let test_bytes_charged () =
  let a, b = make_pair () in
  Node.update a "x" (set "0123456789");
  let (_ : Node.pull_result) = Node.pull ~recipient:b ~source:a () in
  Alcotest.(check bool) "source sent bytes" true ((Node.counters a).bytes_sent > 0);
  Alcotest.(check bool) "recipient sent request bytes" true
    ((Node.counters b).bytes_sent > 0);
  Alcotest.(check int) "one message each" 1 (Node.counters a).messages

let test_create_validation () =
  Alcotest.check_raises "bad id" (Invalid_argument "Node.create: id out of range")
    (fun () -> ignore (Node.create ~id:5 ~n:2 ()));
  Alcotest.check_raises "bad n" (Invalid_argument "Node.create: n must be positive")
    (fun () -> ignore (Node.create ~id:0 ~n:0 ()))

(* Heap footprint per item: a 100k-item node at n = 3 with 100-byte
   values and a single writer, built live and then restored from its
   snapshot. Every item holds one value string, one IVV, its store entry
   and one retained log record with its P(x) pointer; the restored node
   also holds a slot of the store's sorted-name cache, which the live
   one builds only at its first traversal. Everything beyond the
   100-byte value is bookkeeping. The restored node must cost no more
   than the bound either: its log records share their items' name
   strings, as the live node's do. The bound is 5 words under the 47.3
   words per item the boxed-node log representation took. *)
let test_words_per_item () =
  let items = 100_000 in
  let bound = 47.3 -. 5.0 in
  let node = Node.create ~id:0 ~n:3 () in
  for rank = 0 to items - 1 do
    let item = Edb_workload.Workload.item_name rank in
    Node.update node item (set (Edb_workload.Workload.payload ~item ~seq:1 ~size:100))
  done;
  let check what node =
    let words =
      float_of_int (Obj.reachable_words (Obj.repr node)) /. float_of_int items
    in
    Printf.printf "heap words per 100-byte item at n = 3, %s: %.1f\n%!" what words;
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.1f heap words per item (want <= %.1f)" what words bound)
      true (words <= bound)
  in
  (* Measured before the encode below traverses it. *)
  check "built live" node;
  match Edb_persist.Snapshot.(decode (encode node)) with
  | Ok restored -> check "restored from its snapshot" restored
  | Error msg -> Alcotest.fail msg

let suite =
  [
    Alcotest.test_case "update bookkeeping" `Quick test_update_bookkeeping;
    Alcotest.test_case "update log dedup" `Quick test_update_log_dedup;
    Alcotest.test_case "identical replicas answered O(1)" `Quick
      test_identical_replicas_noop;
    Alcotest.test_case "basic propagation" `Quick test_basic_propagation;
    Alcotest.test_case "second pull is a no-op" `Quick test_pull_twice_second_is_noop;
    Alcotest.test_case "ships only dirty items" `Quick
      test_propagation_ships_only_dirty_items;
    Alcotest.test_case "IsSelected flags reset" `Quick test_is_selected_flags_reset;
    Alcotest.test_case "transitive propagation" `Quick test_transitive_propagation;
    Alcotest.test_case "indirectly identical detected O(1)" `Quick
      test_indirectly_identical_detected_in_constant_time;
    Alcotest.test_case "DBVV rule 3" `Quick test_dbvv_rule_3;
    Alcotest.test_case "conflict detected with culprits" `Quick test_conflict_detected;
    Alcotest.test_case "conflict detected on both sides" `Quick
      test_conflict_detected_on_both_sides;
    Alcotest.test_case "conflict spares other items" `Quick test_conflict_spares_other_items;
    Alcotest.test_case "resolution policy" `Quick test_resolution_policy;
    Alcotest.test_case "conflict handler invoked" `Quick test_conflict_handler_invoked;
    Alcotest.test_case "sync_pair converges" `Quick test_sync_pair_converges;
    Alcotest.test_case "bytes charged" `Quick test_bytes_charged;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "heap words per item" `Quick test_words_per_item;
  ]
