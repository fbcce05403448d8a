module Vv = Edb_vv.Version_vector
module Prng = Edb_util.Prng
module Counters = Edb_metrics.Counters
module Store = Edb_store.Store
module Item = Edb_store.Item

type t = {
  nodes : Node.t array;
  prng : Prng.t;
  cache : bool;
  (* Strictly increasing bias folded into the epoch so that replacing a
     node (whose revision counter restarts, possibly below its old
     value) can never make the epoch revisit an earlier value and
     revalidate stale cache entries. *)
  mutable epoch_bias : int;
}

let create ?(seed = 42) ?policy ?mode ?(cache = false) ?shards ~n () =
  let make id = Node.create ?policy ?mode ?shards ~id ~n () in
  { nodes = Array.init n make; prng = Prng.create ~seed; cache; epoch_bias = 0 }

let shards t = Node.shards t.nodes.(0)

let n t = Array.length t.nodes

let node t i = t.nodes.(i)

let nodes t = t.nodes

(* The cluster epoch: bias + Σ node revisions. Every state mutation
   anywhere bumps some node's revision, so equal epochs at two points in
   time prove no node state changed in between — the exactness gate for
   cached skips. O(n) per read, amortized against the session it can
   elide. *)
let epoch t =
  (* Plain loop: this runs on every cache-gated pull and must not
     allocate (Array.iter's closure would capture the accumulator). *)
  let sum = ref t.epoch_bias in
  for i = 0 to Array.length t.nodes - 1 do
    sum := !sum + Node.revision t.nodes.(i)
  done;
  !sum

let replace_node t i node =
  if Node.id node <> i then
    invalid_arg
      (Printf.sprintf "Cluster.replace_node: id mismatch (slot %d, node id %d)" i
         (Node.id node));
  if Node.dimension node <> Array.length t.nodes then
    invalid_arg
      (Printf.sprintf
         "Cluster.replace_node: dimension mismatch (cluster n = %d, node dimension \
          = %d)"
         (Array.length t.nodes) (Node.dimension node));
  (* The replacement may be a rollback: advance the epoch past every
     value the old node could have contributed, and drop what other
     nodes believed they had proven about this peer — both proven lower
     bounds (monotonicity no longer links them to the new state) and
     currency flags. The new node's own cache is empty by construction. *)
  t.epoch_bias <- t.epoch_bias + Node.revision t.nodes.(i) + 1;
  Array.iteri
    (fun j peer_node ->
      if j <> i then Peer_cache.forget_peer (Node.peer_cache peer_node) ~peer:i)
    t.nodes;
  t.nodes.(i) <- node

let update t ~node ~item op = Node.update t.nodes.(node) item op

let read t ~node ~item = Node.read t.nodes.(node) item

(* Record everything one completed session proves about the other end:
   the summary lower bound and, for sharded nodes, the per-shard lower
   bounds (the request carried every shard vector and the reply either
   shipped or skipped each shard). *)
let note_session_knowledge ~owner ~peer peer_node =
  let cache = Node.peer_cache owner in
  Peer_cache.note_proven cache ~peer (Node.dbvv_view peer_node);
  let shards = Node.shards peer_node in
  if shards > 1 then
    for s = 0 to shards - 1 do
      Peer_cache.note_proven_shard cache ~peer ~shard:s
        (Node.shard_dbvv_view peer_node s)
    done

let pull ?(domains = 1) t ~recipient ~source =
  if not t.cache then
    Node.pull ~domains ~recipient:t.nodes.(recipient) ~source:t.nodes.(source) ()
  else begin
    let r = t.nodes.(recipient) and s = t.nodes.(source) in
    let ep = epoch t in
    if Peer_cache.is_current (Node.peer_cache r) ~peer:source ~epoch:ep then begin
      (* A past session proved r's DBVV dominates s's, and the epoch
         gate proves no state changed since: running the session would
         reproduce Fig. 2's "you are current" from the same two vectors.
         Skip it — zero messages, no counters the real session's no-op
         path would have charged. (For sharded nodes the summary
         comparison is the you-are-current answer — DESIGN.md §7 — so
         the same gate applies unchanged.) *)
      (Node.counters r).Counters.sessions_skipped_cached <-
        (Node.counters r).Counters.sessions_skipped_cached + 1;
      Node.Already_current
    end
    else begin
      let result = Node.pull ~domains ~recipient:r ~source:s () in
      (* Both ends of a completed session learn the other's DBVV: the
         request carried r's, and the reply brought r up to date on
         everything s had (or proved there was nothing to bring). In
         this in-process layer we read both live vectors directly. *)
      note_session_knowledge ~owner:r ~peer:source s;
      note_session_knowledge ~owner:s ~peer:recipient r;
      let ep' = epoch t in
      if Vv.dominates_or_equal (Node.dbvv_view r) (Node.dbvv_view s) then
        Peer_cache.mark_current (Node.peer_cache r) ~peer:source ~epoch:ep';
      if Vv.dominates_or_equal (Node.dbvv_view s) (Node.dbvv_view r) then
        Peer_cache.mark_current (Node.peer_cache s) ~peer:recipient ~epoch:ep';
      result
    end
  end

let fetch_out_of_bound t ~recipient ~source item =
  Node.fetch_out_of_bound ~recipient:t.nodes.(recipient) ~source:t.nodes.(source) item

let random_peer t ~self =
  let size = n t in
  if size <= 1 then
    invalid_arg "Cluster.random_peer: a singleton cluster has no peers";
  let peer = Prng.int t.prng (size - 1) in
  if peer >= self then peer + 1 else peer

let random_pull_round ?(domains = 1) t =
  (* A singleton cluster has nobody to pull from: the round is a no-op
     (and must not draw from an empty PRNG range). *)
  if n t > 1 then
    for i = 0 to n t - 1 do
      let source = random_peer t ~self:i in
      let (_ : Node.pull_result) = pull ~domains t ~recipient:i ~source in
      ()
    done

let ring_pull_round ?(domains = 1) t =
  let size = n t in
  if size > 1 then
    for i = 0 to size - 1 do
      let source = (i + size - 1) mod size in
      let (_ : Node.pull_result) = pull ~domains t ~recipient:i ~source in
      ()
    done

(* A missing regular copy is equivalent to an empty one: value "" and an
   all-zero IVV (exactly what [Store.find_or_create] would make). *)
let item_matches_missing (it : Item.t) =
  String.equal it.value "" && Vv.sum it.ivv = 0

let shard_dbvvs_equal a b =
  let shards = Node.shards a in
  let rec loop s =
    s >= shards
    || (Vv.equal (Node.shard_dbvv_view a s) (Node.shard_dbvv_view b s) && loop (s + 1))
  in
  loop 0

let converged t =
  let reference = t.nodes.(0) in
  let ref_dbvv = Node.dbvv_view reference in
  (* O(1) per node instead of a per-item has_aux scan. *)
  Array.for_all (fun node -> Node.aux_count node = 0) t.nodes
  && Array.for_all
       (fun node ->
         node == reference
         || (Vv.equal (Node.dbvv_view node) ref_dbvv
            && shard_dbvvs_equal node reference))
       t.nodes
  && begin
    (* Single pass: the shared name table is built once, then every
       name is checked across all nodes by reading item fields in place
       (no IVV copies, no repeated name-set rebuilds). *)
    let names = Hashtbl.create 64 in
    Array.iter
      (fun node ->
        Node.iter_items (fun item -> Hashtbl.replace names item.Item.name ()) node)
      t.nodes;
    let node_count = Array.length t.nodes in
    let name_matches name =
      let ref_item = Node.find_item reference name in
      let rec check i =
        i >= node_count
        ||
        let it = Node.find_item t.nodes.(i) name in
        (match (ref_item, it) with
        | None, None -> true
        | Some a, Some b -> String.equal a.Item.value b.Item.value && Vv.equal a.ivv b.ivv
        | Some a, None -> item_matches_missing a
        | None, Some b -> item_matches_missing b)
        && check (i + 1)
      in
      check 1
    in
    Hashtbl.fold (fun name () acc -> acc && name_matches name) names true
  end

let sync_until_converged ?(max_rounds = 10_000) ?(domains = 1) t =
  let rec loop rounds =
    if converged t then rounds
    else if rounds >= max_rounds then
      failwith
        (Printf.sprintf "Cluster.sync_until_converged: not converged after %d rounds"
           max_rounds)
    else begin
      random_pull_round ~domains t;
      loop (rounds + 1)
    end
  in
  loop 0

let total_counters t =
  let acc = Counters.create () in
  Array.iter (fun node -> Counters.add_into acc (Node.counters node)) t.nodes;
  acc

let reset_counters t = Array.iter (fun node -> Counters.reset (Node.counters node)) t.nodes

let check_invariants t =
  (* A report-only conflict anywhere breaks the per-origin prefix
     property system-wide, so the seq <= DBVV log bound only applies
     while every node is conflict-free (see Node.check_invariants). *)
  let log_bound = Array.for_all (fun node -> Node.conflicts node = []) t.nodes in
  let rec loop i =
    if i >= n t then Ok ()
    else
      match Node.check_invariants ~log_bound t.nodes.(i) with
      | Ok () -> loop (i + 1)
      | Error msg -> Error (Printf.sprintf "node %d: %s" i msg)
  in
  loop 0
