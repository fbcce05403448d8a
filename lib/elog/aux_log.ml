module Dll = Edb_util.Dll
module Vv = Edb_vv.Version_vector

type record = { item : string; ivv : Vv.t; op : Edb_store.Operation.t }

type t = {
  records : record Dll.t;
  (* Per-item FIFO of nodes, giving O(1) Earliest(x) and O(1) removal of
     the earliest record. Queues of emptied items are dropped lazily. *)
  per_item : (string, record Dll.node Queue.t) Hashtbl.t;
}

(* The list sentinel's record; never returned. *)
let no_record = { item = ""; ivv = Vv.create ~n:1; op = Edb_store.Operation.Set "" }

let create () = { records = Dll.create no_record; per_item = Hashtbl.create 8 }

let append t r =
  let node = Dll.append t.records r in
  let queue =
    match Hashtbl.find_opt t.per_item r.item with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add t.per_item r.item q;
      q
  in
  Queue.add node queue

let earliest t item =
  match Hashtbl.find_opt t.per_item item with
  | None -> None
  | Some q -> if Queue.is_empty q then None else Some (Dll.value (Queue.peek q))

let remove_earliest t item =
  match Hashtbl.find_opt t.per_item item with
  | None -> invalid_arg "Aux_log.remove_earliest: no record for item"
  | Some q ->
    if Queue.is_empty q then invalid_arg "Aux_log.remove_earliest: no record for item";
    let node = Queue.pop q in
    Dll.remove t.records node;
    if Queue.is_empty q then Hashtbl.remove t.per_item item

let has_records_for t item = earliest t item <> None

let length t = Dll.length t.records

let iter f t = Dll.fold_left (fun () r -> f r) () t.records

let to_list t = Dll.to_list t.records

let records_for t item =
  match Hashtbl.find_opt t.per_item item with
  | None -> []
  | Some q -> Queue.fold (fun acc node -> Dll.value node :: acc) [] q |> List.rev

let storage_bytes t =
  Dll.fold_left
    (fun acc r ->
      acc + Edb_store.Operation.size_bytes r.op + (8 * Vv.dimension r.ivv) + 16)
    0 t.records
