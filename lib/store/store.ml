(* Keyed with [String.equal] and [String.hash] rather than the
   polymorphic compare and hash; [String.hash] is [Hashtbl.hash], so
   the buckets are the same. *)
module Names = Hashtbl.Make (String)

(* Fills the unused slots of [order]. *)
let vacant = Item.create ~name:"" ~n:1

type t = {
  items : Item.t Names.t;
  n : int;
  (* The sorted-name cache, allocated at the first insert. Slots
     [0, size) hold every item: the first [sorted] in ascending name
     order, the rest in insertion order, waiting to be merged in. Items
     are add-only (there is no delete). An insert whose name sorts after
     the last sorted one, with nothing waiting, extends the sorted run,
     so a load in name order (a snapshot restore, a preload, a tail
     shipped in name order) never sorts, and neither does the first
     checkpoint after it; any other insert waits, and the next traversal
     sorts only the waiting items and merges them in. *)
  mutable order : Item.t array;
  mutable sorted : int;
  capacity : int;
}

let create ?(capacity = 64) ~n () =
  if n <= 0 then invalid_arg "Store.create: dimension must be positive";
  { items = Names.create capacity; n; order = [||]; sorted = 0; capacity }

let dimension t = t.n

let find_opt t name = Names.find_opt t.items name

let mem t name = Names.mem t.items name

let size t = Names.length t.items

let by_name (a : Item.t) (b : Item.t) = String.compare a.name b.name

(* Whether [item] sorts after every name present, and so extends the
   sorted run. *)
let extends_run t (item : Item.t) =
  let size = size t in
  t.sorted = size && (size = 0 || by_name t.order.(size - 1) item < 0)

(* [item] must be absent. The first insert sizes the cache from the
   capacity the store was created for. *)
let insert t (item : Item.t) ~extends =
  let size = size t in
  if size = Array.length t.order then begin
    let order = Array.make (if size = 0 then max 1 t.capacity else 2 * size) vacant in
    Array.blit t.order 0 order 0 size;
    t.order <- order
  end;
  t.order.(size) <- item;
  if extends then t.sorted <- size + 1;
  Names.add t.items item.name item

let add t (item : Item.t) =
  (* A name past every present one cannot be a duplicate: a restore in
     name order skips the membership probe. *)
  let extends = extends_run t item in
  if (not extends) && Names.mem t.items item.name then
    invalid_arg (Printf.sprintf "Store.add: duplicate item %S" item.name);
  insert t item ~extends

let find_or_create t name =
  match Names.find_opt t.items name with
  | Some item -> item
  | None ->
    let item = Item.create ~name ~n:t.n in
    insert t item ~extends:(extends_run t item);
    item

(* Merges the waiting items into a fresh array, so a traversal already
   running over the old one keeps a stable view. *)
let sorted_items t =
  let size = size t in
  if t.sorted < size then begin
    let waiting = Array.sub t.order t.sorted (size - t.sorted) in
    Array.stable_sort by_name waiting;
    let order = Array.make (Array.length t.order) vacant in
    let i = ref 0 and j = ref 0 in
    for k = 0 to size - 1 do
      if
        !j = Array.length waiting
        || (!i < t.sorted && by_name t.order.(!i) waiting.(!j) < 0)
      then begin
        order.(k) <- t.order.(!i);
        incr i
      end
      else begin
        order.(k) <- waiting.(!j);
        incr j
      end
    done;
    t.order <- order;
    t.sorted <- size
  end;
  t.order

let fold f init t =
  let order = sorted_items t in
  let acc = ref init in
  for i = 0 to size t - 1 do
    acc := f !acc (Array.unsafe_get order i)
  done;
  !acc

let iter f t = fold (fun () item -> f item) () t

let names t = List.rev (fold (fun acc (item : Item.t) -> item.name :: acc) [] t)

let total_value_bytes t = fold (fun acc item -> acc + Item.value_size item) 0 t

let sharer t =
  let cursor = ref 0 in
  let rec walk name i =
    if i >= t.sorted then begin
      cursor := i;
      None
    end
    else
      let c = String.compare t.order.(i).Item.name name in
      if c < 0 then walk name (i + 1)
      else begin
        cursor := i;
        if c = 0 then Some t.order.(i).name else None
      end
  in
  fun name ->
    match walk name !cursor with
    | Some name -> name
    | None -> ( match Names.find_opt t.items name with Some it -> it.name | None -> name)
