module Vv = Edb_vv.Version_vector
module Store = Edb_store.Store
module Item = Edb_store.Item
module Operation = Edb_store.Operation
module Counters = Edb_metrics.Counters

type t = {
  n : int;
  universe : string array;
  stores : Store.t array;
  counters : Counters.t array;
  mutable conflicts : int;
}

let create ~n ~universe =
  let stores = Array.init n (fun _ -> Store.create ~n ()) in
  (* Materialize the whole universe on every replica: per-item
     anti-entropy pays for every item, updated or not. *)
  Array.iter
    (fun store -> List.iter (fun name -> ignore (Store.find_or_create store name)) universe)
    stores;
  {
    n;
    universe = Array.of_list universe;
    stores;
    counters = Array.init n (fun _ -> Counters.create ());
    conflicts = 0;
  }

let update t ~node ~item op =
  let c = t.counters.(node) in
  c.updates_applied <- c.updates_applied + 1;
  let it = Store.find_or_create t.stores.(node) item in
  Item.apply it op;
  Vv.incr it.ivv node

let session t ~src ~dst =
  let source = t.stores.(src) and target = t.stores.(dst) in
  let csrc = t.counters.(src) and cdst = t.counters.(dst) in
  (* The source ships (name, IVV) control state for every item; the
     recipient compares each pair. This is the per-item version
     information exchange of classic anti-entropy. *)
  csrc.messages <- csrc.messages + 1;
  csrc.bytes_sent <- csrc.bytes_sent + (Array.length t.universe * (8 + (8 * t.n)));
  let copied = ref false in
  Array.iter
    (fun name ->
      let sx = Store.find_or_create source name in
      let dx = Store.find_or_create target name in
      csrc.items_examined <- csrc.items_examined + 1;
      cdst.vv_comparisons <- cdst.vv_comparisons + 1;
      match Vv.compare_vv sx.Item.ivv dx.Item.ivv with
      | Vv.Dominates ->
        dx.value <- sx.value;
        dx.ivv <- Vv.copy sx.ivv;
        cdst.items_copied <- cdst.items_copied + 1;
        csrc.bytes_sent <- csrc.bytes_sent + String.length sx.value;
        copied := true
      | Vv.Concurrent ->
        t.conflicts <- t.conflicts + 1;
        cdst.conflicts_detected <- cdst.conflicts_detected + 1
      | Vv.Equal | Vv.Dominated -> ())
    t.universe;
  if !copied then csrc.propagation_sessions <- csrc.propagation_sessions + 1
  else csrc.noop_sessions <- csrc.noop_sessions + 1

let read t ~node ~item =
  Option.map (fun (i : Item.t) -> i.value) (Store.find_opt t.stores.(node) item)

let conflicts_detected t = t.conflicts

let converged t =
  let reference = t.stores.(0) in
  Array.for_all
    (fun store ->
      Array.for_all
        (fun name ->
          let a = Store.find_or_create reference name in
          let b = Store.find_or_create store name in
          String.equal a.Item.value b.Item.value && Vv.equal a.ivv b.ivv)
        t.universe)
    t.stores

let driver t =
  {
    Driver.name = "demers";
    n = t.n;
    update = (fun ~node ~item ~op -> update t ~node ~item op);
    session = (fun ~src ~dst -> session t ~src ~dst);
    read = (fun ~node ~item -> read t ~node ~item);
    counters = (fun ~node -> t.counters.(node));
    total_counters = (fun () -> Driver.total_of_nodes t.counters);
    reset_counters = (fun () -> Driver.reset_nodes t.counters);
    converged = (fun () -> converged t);
    granular = None;
    push = None;
  }
