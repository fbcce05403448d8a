(* Tests for the intrusive doubly-linked list (substrate of paper Fig. 1). *)

module Dll = Edb_util.Dll

let check_list msg expected t = Alcotest.(check (list int)) msg expected (Dll.to_list t)

let of_list values =
  let t = Dll.create 0 in
  let nodes = List.map (Dll.append t) values in
  (t, nodes)

let test_empty () =
  let t = Dll.create (-1) in
  Alcotest.(check int) "length" 0 (Dll.length t);
  Alcotest.(check int) "last_value is the placeholder" (-1) (Dll.last_value t);
  check_list "contents" [] t

let test_append_order () =
  let t, _ = of_list [ 1; 2; 3 ] in
  check_list "append keeps order" [ 1; 2; 3 ] t;
  Alcotest.(check int) "length" 3 (Dll.length t);
  Alcotest.(check int) "last_value" 3 (Dll.last_value t)

let test_remove_middle () =
  let t, nodes = of_list [ 1; 2; 3 ] in
  Dll.remove t (List.nth nodes 1);
  check_list "middle removed" [ 1; 3 ] t;
  Alcotest.(check int) "length" 2 (Dll.length t)

let test_remove_ends () =
  let t, nodes = of_list [ 1; 2; 3 ] in
  Dll.remove t (List.nth nodes 0);
  Dll.remove t (List.nth nodes 2);
  check_list "ends removed" [ 2 ] t;
  Alcotest.(check int) "new tail" 2 (Dll.last_value t)

let test_remove_only_element () =
  let t, nodes = of_list [ 7 ] in
  Dll.remove t (List.hd nodes);
  Alcotest.(check int) "empty again" 0 (Dll.length t);
  Alcotest.(check int) "placeholder again" 0 (Dll.last_value t);
  check_list "contents" [] t

let test_double_remove_is_noop () =
  let t, nodes = of_list [ 1; 2 ] in
  let a = List.hd nodes in
  Dll.remove t a;
  Dll.remove t a;
  check_list "single removal effect" [ 2 ] t;
  Alcotest.(check int) "length" 1 (Dll.length t)

(* Emptying a list node by node leaves a list as good as new. *)
let test_reuse_after_clear () =
  let t, nodes = of_list [ 1; 2 ] in
  List.iter (Dll.remove t) nodes;
  Alcotest.(check int) "cleared" 0 (Dll.length t);
  let (_ : int Dll.node) = Dll.append t 9 in
  check_list "usable after clear" [ 9 ] t

let test_move_to_back () =
  let t, nodes = of_list [ 1; 2; 3 ] in
  let node i = List.nth nodes i in
  Dll.move_to_back t (node 0);
  check_list "head to back" [ 2; 3; 1 ] t;
  Dll.move_to_back t (node 2);
  check_list "middle to back" [ 2; 1; 3 ] t;
  Dll.move_to_back t (node 2);
  check_list "tail stays" [ 2; 1; 3 ] t;
  Alcotest.(check int) "length unchanged" 3 (Dll.length t);
  Dll.set_value (node 1) 20;
  Dll.move_to_back t (node 1);
  check_list "moved node carries its new value" [ 1; 3; 20 ] t;
  Alcotest.(check int) "last_value" 20 (Dll.last_value t);
  (* The only node of a list is already at the back. *)
  let single, only = of_list [ 5 ] in
  Dll.move_to_back single (List.hd only);
  check_list "only node" [ 5 ] single

let test_take_while_rev () =
  let t, _ = of_list [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list int)) "suffix above 2" [ 3; 4; 5 ]
    (Dll.take_while_rev (fun v -> v > 2) t);
  Alcotest.(check (list int)) "empty suffix" [] (Dll.take_while_rev (fun v -> v > 9) t);
  Alcotest.(check (list int)) "whole list" [ 1; 2; 3; 4; 5 ]
    (Dll.take_while_rev (fun _ -> true) t)

let test_fold_and_set_value () =
  let t, nodes = of_list [ 10; 20 ] in
  Dll.set_value (List.hd nodes) 11;
  Alcotest.(check int) "value" 11 (Dll.value (List.hd nodes));
  Alcotest.(check int) "sum after set_value" 31 (Dll.fold_left ( + ) 0 t)

(* Property: any interleaving of appends, removals and moves to the back
   matches a model implemented with plain lists. *)
let prop_matches_model =
  let gen = QCheck2.Gen.(list (pair (int_bound 2) small_nat)) in
  QCheck2.Test.make ~name:"dll matches list model" ~count:300 gen (fun script ->
      let t = Dll.create 0 in
      let nodes = ref [] in
      let model = ref [] in
      let counter = ref 0 in
      List.iter
        (fun (op, k) ->
          if op = 0 || !nodes = [] then begin
            incr counter;
            let v = !counter in
            nodes := !nodes @ [ Dll.append t v ];
            model := !model @ [ v ]
          end
          else begin
            let index = k mod List.length !nodes in
            let node = List.nth !nodes index in
            let v = Dll.value node in
            model := List.filter (fun x -> x <> v) !model;
            if op = 1 then begin
              Dll.remove t node;
              nodes := List.filteri (fun i _ -> i <> index) !nodes
            end
            else begin
              Dll.move_to_back t node;
              model := !model @ [ v ]
            end
          end)
        script;
      Dll.to_list t = !model
      && Dll.length t = List.length !model
      && Dll.last_value t = List.fold_left (fun _ v -> v) 0 !model
      && Dll.fold_left (fun acc v -> v :: acc) [] t = List.rev !model)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "append order" `Quick test_append_order;
    Alcotest.test_case "remove middle" `Quick test_remove_middle;
    Alcotest.test_case "remove ends" `Quick test_remove_ends;
    Alcotest.test_case "remove only element" `Quick test_remove_only_element;
    Alcotest.test_case "double remove is no-op" `Quick test_double_remove_is_noop;
    Alcotest.test_case "reuse after clear" `Quick test_reuse_after_clear;
    Alcotest.test_case "move to back" `Quick test_move_to_back;
    Alcotest.test_case "take_while_rev" `Quick test_take_while_rev;
    Alcotest.test_case "fold and set_value" `Quick test_fold_and_set_value;
    QCheck_alcotest.to_alcotest prop_matches_model;
  ]
