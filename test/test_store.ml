(* Tests for operations, items, and the per-node store. *)

module Operation = Edb_store.Operation
module Item = Edb_store.Item
module Store = Edb_store.Store
module Vv = Edb_vv.Version_vector

(* ---------- Operations ---------- *)

let test_set () =
  Alcotest.(check string) "set replaces" "new" (Operation.apply "old" (Operation.Set "new"))

let test_splice_inside () =
  Alcotest.(check string) "overwrite middle" "abXYef"
    (Operation.apply "abcdef" (Operation.Splice { offset = 2; data = "XY" }))

let test_splice_extends () =
  Alcotest.(check string) "extends value" "abcXY"
    (Operation.apply "abc" (Operation.Splice { offset = 3; data = "XY" }))

let test_splice_pads_gap () =
  Alcotest.(check string) "zero-pads gap" "ab\000\000XY"
    (Operation.apply "ab" (Operation.Splice { offset = 4; data = "XY" }))

let test_splice_on_empty () =
  Alcotest.(check string) "splice at zero" "hi"
    (Operation.apply "" (Operation.Splice { offset = 0; data = "hi" }))

let test_splice_negative_offset () =
  Alcotest.check_raises "negative offset"
    (Invalid_argument "Operation.apply: negative offset") (fun () ->
      ignore (Operation.apply "x" (Operation.Splice { offset = -1; data = "y" })))

let test_operation_determinism () =
  let ops =
    [
      Operation.Set "base";
      Operation.Splice { offset = 2; data = "zz" };
      Operation.Set "other";
      Operation.Splice { offset = 0; data = "Q" };
    ]
  in
  let run () = List.fold_left Operation.apply "" ops in
  Alcotest.(check string) "same result twice" (run ()) (run ())

let test_operation_equal () =
  Alcotest.(check bool) "set equal" true
    (Operation.equal (Operation.Set "a") (Operation.Set "a"));
  Alcotest.(check bool) "set differs" false
    (Operation.equal (Operation.Set "a") (Operation.Set "b"));
  Alcotest.(check bool) "kinds differ" false
    (Operation.equal (Operation.Set "a") (Operation.Splice { offset = 0; data = "a" }))

let test_size_bytes () =
  Alcotest.(check int) "set size" 5 (Operation.size_bytes (Operation.Set "hello"));
  Alcotest.(check int) "splice size" 10
    (Operation.size_bytes (Operation.Splice { offset = 3; data = "ab" }))

(* ---------- Items ---------- *)

let test_item_create () =
  let item = Item.create ~name:"x" ~n:3 in
  Alcotest.(check string) "empty value" "" item.Item.value;
  Alcotest.(check int) "zero ivv" 0 (Vv.sum item.Item.ivv);
  Alcotest.(check bool) "not selected" false item.Item.is_selected

let test_item_apply () =
  let item = Item.create ~name:"x" ~n:2 in
  Item.apply item (Operation.Set "v1");
  Alcotest.(check string) "applied" "v1" item.Item.value;
  Alcotest.(check int) "ivv untouched" 0 (Vv.sum item.Item.ivv)

let test_item_snapshot_isolation () =
  let item = Item.create ~name:"x" ~n:2 in
  Item.apply item (Operation.Set "v1");
  Vv.incr item.Item.ivv 0;
  let value, ivv = Item.snapshot item in
  Item.apply item (Operation.Set "v2");
  Vv.incr item.Item.ivv 0;
  Alcotest.(check string) "snapshot value frozen" "v1" value;
  Alcotest.(check int) "snapshot ivv frozen" 1 (Vv.get ivv 0)

(* ---------- Store ---------- *)

let test_store_find_or_create () =
  let store = Store.create ~n:3 () in
  let a = Store.find_or_create store "x" in
  let b = Store.find_or_create store "x" in
  Alcotest.(check bool) "same item" true (a == b);
  Alcotest.(check int) "size" 1 (Store.size store)

let test_store_find_opt () =
  let store = Store.create ~n:2 () in
  Alcotest.(check bool) "absent" true (Store.find_opt store "x" = None);
  ignore (Store.find_or_create store "x");
  Alcotest.(check bool) "present" true (Store.find_opt store "x" <> None);
  Alcotest.(check bool) "mem" true (Store.mem store "x")

let test_store_iteration () =
  let store = Store.create ~n:2 () in
  (* Inserted out of order on purpose: [names]/[iter]/[fold] promise
     ascending name order, no caller-side sort needed. *)
  List.iter (fun name -> ignore (Store.find_or_create store name)) [ "b"; "c"; "a" ];
  Alcotest.(check (list string)) "names sorted" [ "a"; "b"; "c" ] (Store.names store);
  let folded = Store.fold (fun acc (i : Item.t) -> i.name :: acc) [] store in
  Alcotest.(check (list string)) "fold sorted" [ "c"; "b"; "a" ] folded

let test_store_total_bytes () =
  let store = Store.create ~n:2 () in
  Item.apply (Store.find_or_create store "a") (Operation.Set "xx");
  Item.apply (Store.find_or_create store "b") (Operation.Set "yyy");
  Alcotest.(check int) "total bytes" 5 (Store.total_value_bytes store)

let test_store_rejects_bad_dimension () =
  Alcotest.check_raises "n=0" (Invalid_argument "Store.create: dimension must be positive")
    (fun () -> ignore (Store.create ~n:0 ()))

(* Property: splice result length is max of original length and
   offset + data length. *)
let prop_splice_length =
  QCheck2.Gen.(
    let gen = triple string_small small_nat string_small in
    QCheck2.Test.make ~name:"splice length law" ~count:300 gen (fun (value, offset, data) ->
        let result = Operation.apply value (Operation.Splice { offset; data }) in
        String.length result = max (String.length value) (offset + String.length data)))

(* Property: Set is right-absorbing — any prefix of operations followed
   by Set v yields v. *)
let prop_set_absorbs =
  QCheck2.Gen.(
    let op =
      oneof
        [
          map (fun s -> Operation.Set s) string_small;
          map2 (fun off data -> Operation.Splice { offset = off; data }) small_nat string_small;
        ]
    in
    QCheck2.Test.make ~name:"set absorbs history" ~count:300 (pair (list op) string_small)
      (fun (ops, final) ->
        let value = List.fold_left Operation.apply "" ops in
        Operation.apply value (Operation.Set final) = final))

let suite =
  [
    Alcotest.test_case "set" `Quick test_set;
    Alcotest.test_case "splice inside" `Quick test_splice_inside;
    Alcotest.test_case "splice extends" `Quick test_splice_extends;
    Alcotest.test_case "splice pads gap" `Quick test_splice_pads_gap;
    Alcotest.test_case "splice on empty" `Quick test_splice_on_empty;
    Alcotest.test_case "splice negative offset" `Quick test_splice_negative_offset;
    Alcotest.test_case "operation determinism" `Quick test_operation_determinism;
    Alcotest.test_case "operation equality" `Quick test_operation_equal;
    Alcotest.test_case "operation sizes" `Quick test_size_bytes;
    Alcotest.test_case "item create" `Quick test_item_create;
    Alcotest.test_case "item apply" `Quick test_item_apply;
    Alcotest.test_case "item snapshot isolation" `Quick test_item_snapshot_isolation;
    Alcotest.test_case "store find_or_create" `Quick test_store_find_or_create;
    Alcotest.test_case "store find_opt/mem" `Quick test_store_find_opt;
    Alcotest.test_case "store iteration" `Quick test_store_iteration;
    Alcotest.test_case "store total bytes" `Quick test_store_total_bytes;
    Alcotest.test_case "store rejects bad dimension" `Quick
      test_store_rejects_bad_dimension;
    QCheck_alcotest.to_alcotest prop_splice_length;
    QCheck_alcotest.to_alcotest prop_set_absorbs;
  ]
