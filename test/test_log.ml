(* Tests for log components (paper §4.2, Figure 1), the log vector, and
   the auxiliary log (§4.4). *)

module Log_record = Edb_log.Log_record
module Log_component = Edb_log.Log_component
module Log_vector = Edb_log.Log_vector
module Aux_log = Edb_log.Aux_log
module Operation = Edb_store.Operation
module Vv = Edb_vv.Version_vector

let record = Alcotest.testable Log_record.pp Log_record.equal

let records_of list = List.map (fun (item, seq) -> { Log_record.item; seq }) list

let check_records msg expected component =
  Alcotest.(check (list record)) msg (records_of expected) (Log_component.to_list component)

let expect_ok = function
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("invariant violated: " ^ msg)

(* ---------- Log component ---------- *)

let test_figure_1 () =
  (* Exactly the paper's Figure 1: L_ij = [y1; x3; z4]; adding (x,5)
     unlinks (x,3) and appends (x,5), yielding [y1; z4; x5]. *)
  let c = Log_component.create () in
  Log_component.add c ~item:"y" ~seq:1;
  Log_component.add c ~item:"x" ~seq:3;
  Log_component.add c ~item:"z" ~seq:4;
  check_records "figure 1a" [ ("y", 1); ("x", 3); ("z", 4) ] c;
  Log_component.add c ~item:"x" ~seq:5;
  check_records "figure 1b" [ ("y", 1); ("z", 4); ("x", 5) ] c;
  expect_ok (Log_component.check_invariants c)

let test_one_record_per_item () =
  let c = Log_component.create () in
  for seq = 1 to 100 do
    Log_component.add c ~item:"hot" ~seq
  done;
  Alcotest.(check int) "single retained record" 1 (Log_component.length c);
  check_records "latest wins" [ ("hot", 100) ] c

let test_latest_seq () =
  let c = Log_component.create () in
  Alcotest.(check int) "empty" 0 (Log_component.latest_seq c);
  Log_component.add c ~item:"a" ~seq:7;
  Alcotest.(check int) "after add" 7 (Log_component.latest_seq c)

let test_monotonic_seq_enforced () =
  let c = Log_component.create () in
  Log_component.add c ~item:"a" ~seq:5;
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Log_component.add: sequence numbers must increase") (fun () ->
      Log_component.add c ~item:"b" ~seq:5)

let test_tail_after () =
  let c = Log_component.create () in
  List.iter
    (fun (item, seq) -> Log_component.add c ~item ~seq)
    [ ("a", 1); ("b", 2); ("c", 5); ("d", 9) ];
  Alcotest.(check (list record)) "tail above 2" (records_of [ ("c", 5); ("d", 9) ])
    (Log_component.tail_after c ~seq:2);
  Alcotest.(check (list record)) "tail above 0 is all"
    (records_of [ ("a", 1); ("b", 2); ("c", 5); ("d", 9) ])
    (Log_component.tail_after c ~seq:0);
  Alcotest.(check (list record)) "tail above newest is empty" []
    (Log_component.tail_after c ~seq:9)

let test_tail_after_respects_dedup () =
  let c = Log_component.create () in
  Log_component.add c ~item:"a" ~seq:1;
  Log_component.add c ~item:"b" ~seq:2;
  Log_component.add c ~item:"a" ~seq:3;
  (* The (a,1) record no longer exists; the tail above 0 sees only the
     latest per item. *)
  Alcotest.(check (list record)) "dedup visible in tail"
    (records_of [ ("b", 2); ("a", 3) ])
    (Log_component.tail_after c ~seq:0)

let test_find_record () =
  let c = Log_component.create () in
  Log_component.add c ~item:"a" ~seq:1;
  Log_component.add c ~item:"a" ~seq:4;
  (match Log_component.find_record c "a" with
  | Some r -> Alcotest.(check int) "latest seq" 4 r.Log_record.seq
  | None -> Alcotest.fail "expected record");
  Alcotest.(check bool) "absent item" true (Log_component.find_record c "zz" = None)

(* Property: after any sequence of adds with increasing seq, the
   component holds the latest record per item, in seq order. Besides
   adds of arbitrary items, the script re-adds the item of the current
   head, tail or middle record (the only record, when there is one), so
   every position a node can move to the tail from is exercised; every
   step is followed by checks of [to_list], [tail_after], [find_record]
   and [check_invariants] against the model. *)
let prop_component_model =
  QCheck2.Test.make ~name:"log component matches latest-per-item model" ~count:300
    Gen.component_script
    (fun script ->
      let c = Log_component.create () in
      (* The model: retained records, oldest first. *)
      let model = ref [] in
      let ok = ref true in
      let check seq k =
        let records = !model in
        let threshold = k * seq / 9 in
        let probe = Printf.sprintf "i%d" k in
        ok :=
          !ok
          && Log_component.to_list c = records
          && Log_component.length c = List.length records
          && Log_component.latest_seq c
             = List.fold_left (fun _ (r : Log_record.t) -> r.seq) 0 records
          && Log_component.tail_after c ~seq:threshold
             = List.filter (fun (r : Log_record.t) -> r.seq > threshold) records
          && Log_component.find_record c probe
             = List.find_opt (fun (r : Log_record.t) -> r.item = probe) records
          && Log_component.check_invariants c = Ok ()
      in
      List.iteri
        (fun i (kind, k) ->
          let seq = i + 1 in
          let records = !model in
          let item =
            match (kind, records) with
            | (0 | 1), _ | _, [] -> Printf.sprintf "i%d" k
            | 2, head :: _ -> head.Log_record.item
            | 3, _ -> (List.nth records (List.length records - 1)).item
            | _, _ -> (List.nth records (List.length records / 2)).item
          in
          Log_component.add c ~item ~seq;
          model :=
            List.filter (fun (r : Log_record.t) -> r.item <> item) records
            @ [ { Log_record.item; seq } ];
          check seq k)
        script;
      !ok)

(* ---------- Log vector ---------- *)

let test_log_vector_dispatch () =
  let lv = Log_vector.create ~n:3 () in
  Log_vector.add lv ~origin:0 ~item:"x" ~seq:1;
  Log_vector.add lv ~origin:2 ~item:"x" ~seq:1;
  Log_vector.add lv ~origin:2 ~item:"y" ~seq:2;
  Alcotest.(check int) "component 0" 1 (Log_component.length (Log_vector.component lv 0));
  Alcotest.(check int) "component 1" 0 (Log_component.length (Log_vector.component lv 1));
  Alcotest.(check int) "component 2" 2 (Log_component.length (Log_vector.component lv 2));
  Alcotest.(check int) "total" 3 (Log_vector.total_records lv);
  expect_ok (Log_vector.check_invariants lv)

let test_log_vector_bound () =
  (* The paper's bound: at most n * N records, whatever the update count. *)
  let n = 3 and items = 5 in
  let lv = Log_vector.create ~n () in
  let seq = Array.make n 0 in
  for round = 1 to 200 do
    let origin = round mod n in
    let item = Printf.sprintf "i%d" (round mod items) in
    seq.(origin) <- seq.(origin) + 1;
    Log_vector.add lv ~origin ~item ~seq:seq.(origin)
  done;
  Alcotest.(check bool) "bounded by n*N" true (Log_vector.total_records lv <= n * items)

(* ---------- Auxiliary log ---------- *)

let aux_record item ivv op = { Aux_log.item; ivv = Vv.of_array ivv; op }

let test_aux_append_earliest () =
  let log = Aux_log.create () in
  Aux_log.append log (aux_record "x" [| 0; 0 |] (Operation.Set "1"));
  Aux_log.append log (aux_record "x" [| 1; 0 |] (Operation.Set "2"));
  Aux_log.append log (aux_record "y" [| 0; 0 |] (Operation.Set "a"));
  (match Aux_log.earliest log "x" with
  | Some r -> Alcotest.(check bool) "earliest is first" true (Vv.get r.Aux_log.ivv 0 = 0)
  | None -> Alcotest.fail "expected record");
  Alcotest.(check int) "length" 3 (Aux_log.length log)

let test_aux_remove_earliest_fifo () =
  let log = Aux_log.create () in
  Aux_log.append log (aux_record "x" [| 0 |] (Operation.Set "1"));
  Aux_log.append log (aux_record "x" [| 1 |] (Operation.Set "2"));
  Aux_log.remove_earliest log "x";
  (match Aux_log.earliest log "x" with
  | Some r -> Alcotest.(check int) "second is now earliest" 1 (Vv.get r.Aux_log.ivv 0)
  | None -> Alcotest.fail "expected record");
  Aux_log.remove_earliest log "x";
  Alcotest.(check bool) "drained" true (Aux_log.earliest log "x" = None);
  Alcotest.(check bool) "no records left" false (Aux_log.has_records_for log "x")

let test_aux_remove_missing_raises () =
  let log = Aux_log.create () in
  Alcotest.check_raises "missing" (Invalid_argument "Aux_log.remove_earliest: no record for item")
    (fun () -> Aux_log.remove_earliest log "nope")

let test_aux_per_item_isolation () =
  let log = Aux_log.create () in
  Aux_log.append log (aux_record "x" [| 0 |] (Operation.Set "1"));
  Aux_log.append log (aux_record "y" [| 0 |] (Operation.Set "a"));
  Aux_log.remove_earliest log "x";
  Alcotest.(check bool) "y untouched" true (Aux_log.has_records_for log "y");
  Alcotest.(check int) "one record left" 1 (Aux_log.length log)

let test_aux_to_list_order () =
  let log = Aux_log.create () in
  Aux_log.append log (aux_record "x" [| 0 |] (Operation.Set "1"));
  Aux_log.append log (aux_record "y" [| 0 |] (Operation.Set "2"));
  Aux_log.append log (aux_record "x" [| 1 |] (Operation.Set "3"));
  let items = List.map (fun r -> r.Aux_log.item) (Aux_log.to_list log) in
  Alcotest.(check (list string)) "global order kept" [ "x"; "y"; "x" ] items

let test_aux_storage_bytes () =
  let log = Aux_log.create () in
  Alcotest.(check int) "empty" 0 (Aux_log.storage_bytes log);
  Aux_log.append log (aux_record "x" [| 0; 0 |] (Operation.Set "abcd"));
  (* 4 bytes op + 16 bytes of vv + 16 fixed. *)
  Alcotest.(check int) "one record" 36 (Aux_log.storage_bytes log)

(* Property: the auxiliary log matches a per-item FIFO model under any
   interleaving of appends and earliest-removals. *)
let prop_aux_log_model =
  QCheck2.Test.make ~name:"aux log matches per-item FIFO model" ~count:300
    Gen.aux_script
    (fun script ->
      let log = Aux_log.create () in
      let model : (string, int Queue.t) Hashtbl.t = Hashtbl.create 4 in
      let counter = ref 0 in
      let ok = ref true in
      List.iter
        (fun (is_append, item_id) ->
          let item = Printf.sprintf "i%d" item_id in
          if is_append then begin
            incr counter;
            Aux_log.append log
              { Aux_log.item; ivv = Vv.of_array [| !counter |];
                op = Operation.Set (string_of_int !counter) };
            let q =
              match Hashtbl.find_opt model item with
              | Some q -> q
              | None ->
                let q = Queue.create () in
                Hashtbl.add model item q;
                q
            in
            Queue.add !counter q
          end
          else begin
            let expected =
              match Hashtbl.find_opt model item with
              | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
              | Some _ | None -> None
            in
            match (Aux_log.earliest log item, expected) with
            | Some r, Some stamp ->
              if Vv.get r.Aux_log.ivv 0 <> stamp then ok := false
              else Aux_log.remove_earliest log item
            | None, None -> ()
            | Some _, None | None, Some _ -> ok := false
          end)
        script;
      let model_size = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) model 0 in
      !ok && Aux_log.length log = model_size)

let suite =
  [
    Alcotest.test_case "paper figure 1" `Quick test_figure_1;
    QCheck_alcotest.to_alcotest prop_aux_log_model;
    Alcotest.test_case "one record per item" `Quick test_one_record_per_item;
    Alcotest.test_case "latest_seq" `Quick test_latest_seq;
    Alcotest.test_case "monotonic seq enforced" `Quick test_monotonic_seq_enforced;
    Alcotest.test_case "tail_after" `Quick test_tail_after;
    Alcotest.test_case "tail_after respects dedup" `Quick test_tail_after_respects_dedup;
    Alcotest.test_case "find_record" `Quick test_find_record;
    QCheck_alcotest.to_alcotest prop_component_model;
    Alcotest.test_case "log vector dispatch" `Quick test_log_vector_dispatch;
    Alcotest.test_case "log vector n*N bound" `Quick test_log_vector_bound;
    Alcotest.test_case "aux append/earliest" `Quick test_aux_append_earliest;
    Alcotest.test_case "aux remove earliest FIFO" `Quick test_aux_remove_earliest_fifo;
    Alcotest.test_case "aux remove missing raises" `Quick test_aux_remove_missing_raises;
    Alcotest.test_case "aux per-item isolation" `Quick test_aux_per_item_isolation;
    Alcotest.test_case "aux global order" `Quick test_aux_to_list_order;
    Alcotest.test_case "aux storage bytes" `Quick test_aux_storage_bytes;
  ]
