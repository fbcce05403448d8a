module Dll = Edb_util.Dll

(* The sentinel's record: [latest_seq] of an empty component reads its
   0 without a branch. *)
let no_record = { Log_record.item = ""; seq = 0 }

(* The mark of an empty pointer slot, compared physically. *)
let free = Dll.append (Dll.create no_record) no_record

type t = {
  records : Log_record.t Dll.t;
  (* The paper's P(x) pointers: an open-addressing table of the list
     nodes themselves, keyed by the item of the record each node
     carries, so a pointer costs one array slot instead of a 4-word
     hash-table binding. Items never leave a component (a re-added
     item's node only moves), so linear probing needs no tombstones.
     The length is a power of two and at least twice the record
     count. *)
  mutable slots : Log_record.t Dll.node array;
}

let table_size capacity =
  let rec grow size = if size >= 2 * capacity then size else grow (2 * size) in
  grow 16

let create ?(capacity = 0) () =
  { records = Dll.create no_record; slots = Array.make (table_size capacity) free }

(* The slot holding [item]'s node, or the free slot where it belongs. *)
let slot slots item =
  let mask = Array.length slots - 1 in
  let rec probe i =
    let node = Array.unsafe_get slots i in
    if node == free || String.equal (Dll.value node).Log_record.item item then i
    else probe ((i + 1) land mask)
  in
  probe (String.hash item land mask)

let grow t =
  let slots = Array.make (2 * Array.length t.slots) free in
  Array.iter
    (fun node ->
      if node != free then slots.(slot slots (Dll.value node).Log_record.item) <- node)
    t.slots;
  t.slots <- slots

let latest_seq t = (Dll.last_value t.records).seq

let add t ~item ~seq =
  if seq <= latest_seq t then
    invalid_arg "Log_component.add: sequence numbers must increase";
  let record = { Log_record.item; seq } in
  let i = slot t.slots item in
  let node = Array.unsafe_get t.slots i in
  if node == free then begin
    t.slots.(i) <- Dll.append t.records record;
    if 2 * Dll.length t.records > Array.length t.slots then grow t
  end
  else begin
    (* The item's node carries the new record to the tail: the stale
       record is dropped and the pointer stays valid. *)
    Dll.set_value node record;
    Dll.move_to_back t.records node
  end

let tail_after t ~seq =
  Dll.take_while_rev (fun (r : Log_record.t) -> r.seq > seq) t.records

let find_record t item =
  let node = t.slots.(slot t.slots item) in
  if node == free then None else Some (Dll.value node)

let length t = Dll.length t.records

let to_list t = Dll.to_list t.records

let check_invariants t =
  let records = to_list t in
  let rec ordered = function
    | [] | [ _ ] -> true
    | (a : Log_record.t) :: (b :: _ as rest) -> a.seq < b.seq && ordered rest
  in
  let items = List.map (fun (r : Log_record.t) -> r.item) records in
  let distinct = List.sort_uniq String.compare items in
  if not (ordered records) then Error "log records out of sequence order"
  else if List.length distinct <> List.length items then
    Error "duplicate item record in log component"
  else if Array.fold_left (fun n node -> if node == free then n else n + 1) 0 t.slots
          <> List.length records
  then
    Error "pointer map size differs from record count"
  else
    let bad_pointer =
      List.find_opt
        (fun (r : Log_record.t) ->
          match find_record t r.item with
          | Some r' -> not (Log_record.equal r r')
          | None -> true)
        records
    in
    match bad_pointer with
    | Some r -> Error (Format.asprintf "pointer map misses record %a" Log_record.pp r)
    | None -> Ok ()
