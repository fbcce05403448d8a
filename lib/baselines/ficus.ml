module Vv = Edb_vv.Version_vector
module Store = Edb_store.Store
module Item = Edb_store.Item
module Operation = Edb_store.Operation
module Counters = Edb_metrics.Counters

type node = {
  store : Store.t;
  mutable pending_notifications : string list;
  mutable alive : bool;
}

type t = {
  n : int;
  universe : string array;
  nodes : node array;
  counters : Counters.t array;
  mutable conflicts : int;
}

let create ~n ~universe =
  let make _ =
    let store = Store.create ~n () in
    List.iter (fun name -> ignore (Store.find_or_create store name)) universe;
    { store; pending_notifications = []; alive = true }
  in
  {
    n;
    universe = Array.of_list universe;
    nodes = Array.init n make;
    counters = Array.init n (fun _ -> Counters.create ());
    conflicts = 0;
  }

let update t ~node ~item op =
  let c = t.counters.(node) in
  c.updates_applied <- c.updates_applied + 1;
  let nd = t.nodes.(node) in
  let it = Store.find_or_create nd.store item in
  Item.apply it op;
  Vv.incr it.ivv node;
  if not (List.mem item nd.pending_notifications) then
    nd.pending_notifications <- item :: nd.pending_notifications

(* One peer pulls one named item from the updater: compare IVVs, adopt
   if the updater's copy dominates. *)
let pull_item t ~src ~dst name =
  let sx = Store.find_or_create t.nodes.(src).store name in
  let dx = Store.find_or_create t.nodes.(dst).store name in
  let csrc = t.counters.(src) and cdst = t.counters.(dst) in
  cdst.vv_comparisons <- cdst.vv_comparisons + 1;
  match Vv.compare_vv sx.Item.ivv dx.Item.ivv with
  | Vv.Dominates ->
    dx.value <- sx.value;
    dx.ivv <- Vv.copy sx.ivv;
    cdst.items_copied <- cdst.items_copied + 1;
    csrc.bytes_sent <- csrc.bytes_sent + String.length sx.value + (8 * t.n)
  | Vv.Concurrent ->
    t.conflicts <- t.conflicts + 1;
    cdst.conflicts_detected <- cdst.conflicts_detected + 1
  | Vv.Equal | Vv.Dominated -> ()

let notify t ~origin =
  let nd = t.nodes.(origin) in
  let names = nd.pending_notifications in
  nd.pending_notifications <- [];
  if nd.alive && names <> [] then begin
    let c = t.counters.(origin) in
    for dst = 0 to t.n - 1 do
      if dst <> origin then begin
        c.messages <- c.messages + 1;
        c.bytes_sent <- c.bytes_sent + (8 * List.length names);
        (* A crashed peer simply misses the notification; it is never
           re-sent. *)
        if t.nodes.(dst).alive then
          List.iter (fun name -> pull_item t ~src:origin ~dst name) names
      end
    done
  end

let reconcile t ~src ~dst =
  if t.nodes.(src).alive && t.nodes.(dst).alive then begin
    let csrc = t.counters.(src) in
    csrc.messages <- csrc.messages + 1;
    csrc.bytes_sent <- csrc.bytes_sent + (Array.length t.universe * (8 + (8 * t.n)));
    Array.iter
      (fun name ->
        csrc.items_examined <- csrc.items_examined + 1;
        pull_item t ~src ~dst name)
      t.universe
  end

let crash t ~node = t.nodes.(node).alive <- false

let recover t ~node = t.nodes.(node).alive <- true

let read t ~node ~item =
  Option.map (fun (i : Item.t) -> i.value) (Store.find_opt t.nodes.(node).store item)

let conflicts_detected t = t.conflicts

let converged t =
  let reference = t.nodes.(0).store in
  Array.for_all
    (fun node ->
      Array.for_all
        (fun name ->
          let a = Store.find_or_create reference name in
          let b = Store.find_or_create node.store name in
          String.equal a.Item.value b.Item.value && Vv.equal a.ivv b.ivv)
        t.universe)
    t.nodes

let driver t =
  {
    Driver.name = "ficus";
    n = t.n;
    update =
      (fun ~node ~item ~op ->
        update t ~node ~item op;
        notify t ~origin:node);
    session = (fun ~src ~dst -> reconcile t ~src ~dst);
    read = (fun ~node ~item -> read t ~node ~item);
    counters = (fun ~node -> t.counters.(node));
    total_counters = (fun () -> Driver.total_of_nodes t.counters);
    reset_counters = (fun () -> Driver.reset_nodes t.counters);
    converged = (fun () -> converged t);
    granular = None;
    push = None;
  }
