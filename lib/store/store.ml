(* Keyed with [String.equal] and [String.hash] rather than the
   polymorphic compare and hash; [String.hash] is [Hashtbl.hash], so
   the buckets are the same. *)
module Names = Hashtbl.Make (String)

type t = {
  items : Item.t Names.t;
  n : int;
  mutable sorted : Item.t array;
      (* Items in ascending name order, rebuilt lazily. Items are
         add-only (there is no delete), so a single dirty bit set on
         insertion keeps the cache coherent. *)
  mutable dirty : bool;
}

let create ?(capacity = 64) ~n () =
  if n <= 0 then invalid_arg "Store.create: dimension must be positive";
  { items = Names.create capacity; n; sorted = [||]; dirty = false }

let dimension t = t.n

let find_opt t name = Names.find_opt t.items name

let find_or_create t name =
  match Names.find_opt t.items name with
  | Some item -> item
  | None ->
    let item = Item.create ~name ~n:t.n in
    Names.add t.items name item;
    t.dirty <- true;
    item

let mem t name = Names.mem t.items name

let size t = Names.length t.items

let sorted_items t =
  if t.dirty then begin
    let acc = ref [] in
    Names.iter (fun _ item -> acc := item :: !acc) t.items;
    let arr = Array.of_list !acc in
    Array.sort (fun a b -> String.compare a.Item.name b.Item.name) arr;
    t.sorted <- arr;
    t.dirty <- false
  end;
  t.sorted

let iter f t = Array.iter f (sorted_items t)

let fold f init t = Array.fold_left f init (sorted_items t)

let names t = Array.to_list (Array.map (fun item -> item.Item.name) (sorted_items t))

let total_value_bytes t = fold (fun acc item -> acc + Item.value_size item) 0 t
