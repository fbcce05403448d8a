module Vv = Edb_vv.Version_vector
module Store = Edb_store.Store
module Item = Edb_store.Item
module Operation = Edb_store.Operation
module Log_record = Edb_log.Log_record
module Log_component = Edb_log.Log_component
module Log_vector = Edb_log.Log_vector
module Aux_log = Edb_log.Aux_log
module Counters = Edb_metrics.Counters
module Fault = Edb_fault.Fault

let src = Logs.Src.create "edb.node" ~doc:"Epidemic replication node"

module Log = (val Logs.src_log src : Logs.LOG)

type resolution_policy = Protocol.resolution_policy =
  | Report_only
  | Resolve of (local:Message.shipped_item -> remote:Message.shipped_item -> string)

type propagation_mode = Protocol.propagation_mode =
  | Whole_item
  | Op_log of { depth : int }

type accept_result = Protocol.accept_result = {
  copied : string list;
  conflicts : int;
  resolved : int;
}

type pull_result = Already_current | Pulled of accept_result

type oob_result = [ `Adopted | `Already_current | `Conflict ]

type t = {
  id : int;
  n : int;
  shards : int;
  replicas : Replica.t array;
  (* Component-wise sum of the shard DBVVs. When [shards = 1] it is
     physically the single replica's DBVV, so the unsharded node pays
     nothing for the extra vector and every wire byte stays identical
     to the pre-sharding protocol. *)
  summary : Vv.t;
  counters : Counters.t;
  policy : resolution_policy;
  mode : propagation_mode;
  conflict_handler : Conflict.t -> unit;
  mutable conflicts : Conflict.t list;
  peer_cache : Peer_cache.t;
  (* Bumped on every state mutation; Σ revisions over a cluster is its
     epoch, the staleness gate for cached peer knowledge. Volatile, like
     the peer cache itself. *)
  mutable revision : int;
  (* Fired after every local user update applied to a regular copy, with
     the update in push-stream shape. Best-effort by design: updates
     born on the auxiliary path, conflict resolutions and aux replays
     never fire it — anti-entropy carries those. *)
  mutable update_hook : (Message.push_update -> unit) option;
  ctx : Protocol.ctx;
}

let declare_conflict t ~item ~local_vv ~remote_vv ~origin =
  t.revision <- t.revision + 1;
  let conflict = Conflict.make ~item ~node:t.id ~local_vv ~remote_vv ~origin in
  t.counters.conflicts_detected <- t.counters.conflicts_detected + 1;
  t.conflicts <- conflict :: t.conflicts;
  Log.info (fun m -> m "%a" Conflict.pp conflict);
  t.conflict_handler conflict

(* [replica s] builds shard [s]'s empty replica once the arguments are
   validated: {!create} makes default-sized ones, {!import_state}
   presized ones. *)
let make ?(policy = Report_only) ?(conflict_handler = fun _ -> ()) ?(mode = Whole_item)
    ~shards ~replica ~id ~n () =
  if n <= 0 then invalid_arg "Node.create: n must be positive";
  if id < 0 || id >= n then invalid_arg "Node.create: id out of range";
  if shards < 1 then invalid_arg "Node.create: shards must be >= 1";
  (match mode with
  | Whole_item -> ()
  | Op_log { depth } ->
    if depth < 1 then invalid_arg "Node.create: op-log depth must be >= 1");
  let replicas = Array.init shards replica in
  let summary =
    if shards = 1 then replicas.(0).Replica.dbvv else Vv.create ~n
  in
  let counters = Counters.create () in
  let rec t =
    {
      id;
      n;
      shards;
      replicas;
      summary;
      counters;
      policy;
      mode;
      conflict_handler;
      conflicts = [];
      peer_cache = Peer_cache.create ~shards ~n ();
      revision = 0;
      update_hook = None;
      ctx;
    }
  and ctx =
    {
      Protocol.node_id = id;
      n;
      mode;
      policy;
      counters;
      summary;
      declare_conflict =
        (fun ~item ~local_vv ~remote_vv ~origin ->
          declare_conflict t ~item ~local_vv ~remote_vv ~origin);
      touch = (fun () -> t.revision <- t.revision + 1);
    }
  in
  t

let create ?policy ?conflict_handler ?mode ?(shards = 1) ~id ~n () =
  make ?policy ?conflict_handler ?mode ~shards
    ~replica:(fun _ -> Replica.create ~n ())
    ~id ~n ()

let revision t = t.revision

let peer_cache t = t.peer_cache

let wire_version t = Peer_cache.own_wire_version t.peer_cache

let set_wire_version t v = Peer_cache.set_own_wire_version t.peer_cache v

let id t = t.id

let dimension t = t.n

let mode t = t.mode

let shards t = t.shards

let replica t s =
  if s < 0 || s >= t.shards then invalid_arg "Node.replica: shard out of range";
  t.replicas.(s)

let shard_of_item t name = Shard_map.shard_of ~shards:t.shards name

let replica_for t name = t.replicas.(shard_of_item t name)

let dbvv t = Vv.copy t.summary

let dbvv_view t = t.summary

let shard_dbvv_view t s =
  if s < 0 || s >= t.shards then invalid_arg "Node.shard_dbvv_view: shard out of range";
  t.replicas.(s).Replica.dbvv

let shard_dbvvs t = Array.map (fun (r : Replica.t) -> Vv.copy r.dbvv) t.replicas

let counters t = t.counters

(* The unsharded accessors below serve the pre-sharding callers (tests,
   checker internals); a sharded node has no single store/log/aux-log
   to hand out. *)
let single_replica t what =
  if t.shards <> 1 then
    invalid_arg (Printf.sprintf "Node.%s: node is sharded (use Node.replica)" what);
  t.replicas.(0)

let store t = (single_replica t "store").Replica.store

let log_vector t = (single_replica t "log_vector").Replica.logs

let aux_log t = (single_replica t "aux_log").Replica.aux_log

let iter_items f t =
  Array.iter (fun (r : Replica.t) -> Store.iter f r.store) t.replicas

let fold_items f init t =
  Array.fold_left (fun acc (r : Replica.t) -> Store.fold f acc r.store) init t.replicas

let find_item t name = Store.find_opt (replica_for t name).Replica.store name

let read t name =
  let rep = replica_for t name in
  match Hashtbl.find_opt rep.Replica.aux_items name with
  | Some aux -> Some aux.Item.value
  | None -> Option.map (fun (i : Item.t) -> i.value) (Store.find_opt rep.Replica.store name)

let read_regular t name =
  Option.map
    (fun (i : Item.t) -> i.value)
    (Store.find_opt (replica_for t name).Replica.store name)

let item_vv t name =
  Option.map
    (fun (i : Item.t) -> Vv.copy i.ivv)
    (Store.find_opt (replica_for t name).Replica.store name)

let has_aux t name = Hashtbl.mem (replica_for t name).Replica.aux_items name

let aux_count t =
  let total = ref 0 in
  Array.iter (fun r -> total := !total + Replica.aux_count r) t.replicas;
  !total

let aux_entries t =
  let acc = ref [] in
  Array.iter
    (fun (r : Replica.t) ->
      Hashtbl.iter
        (fun name (it : Item.t) -> acc := (name, Vv.copy it.ivv) :: !acc)
        r.aux_items)
    t.replicas;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let aux_vv t name =
  Option.map
    (fun (i : Item.t) -> Vv.copy i.ivv)
    (Hashtbl.find_opt (replica_for t name).Replica.aux_items name)

let conflicts t = t.conflicts

let clear_conflicts t = t.conflicts <- []

let set_update_hook t hook = t.update_hook <- hook

let update t name op =
  match t.update_hook with
  | None -> Protocol.update t.ctx (replica_for t name) name op
  | Some hook ->
    let rep = replica_for t name in
    (* Auxiliary-path updates defer (§5.3) and assign no sequence number
       yet; they reach peers through anti-entropy after replay. *)
    let regular = not (Hashtbl.mem rep.Replica.aux_items name) in
    Protocol.update t.ctx rep name op;
    if regular then (
      match Store.find_opt rep.Replica.store name with
      | None -> ()
      | Some item ->
        hook
          {
            Message.item = item.Item.name;
            seq = Vv.get rep.Replica.dbvv t.id;
            ivv = Vv.copy item.Item.ivv;
            value = item.Item.value;
          })

(* Apply-if-fresh (DESIGN.md §10): a pushed update is applied iff it is
   exactly the next update this node expects from its origin — the
   origin's DBVV component here is [seq - 1] and the update's IVV is the
   local regular IVV plus one origin tick. Under that guard the adoption
   is literally a one-record anti-entropy delta (same Figure 3 path,
   same DBVV/log bookkeeping), so no invariant can move: DBVV sums,
   per-origin prefix and the log bound are preserved by the same
   argument as a pulled session. Anything else — duplicate, reordered,
   raced by anti-entropy, conflicting history — is dropped as stale;
   the periodic session repairs it. *)
let apply_push t ~source (u : Message.push_update) =
  if source < 0 || source >= t.n then invalid_arg "Node.apply_push: source out of range";
  if source = t.id then invalid_arg "Node.apply_push: push from self";
  let rep = replica_for t u.item in
  let c = t.counters in
  c.vv_comparisons <- c.vv_comparisons + 1;
  let next_seq = u.seq = Vv.get rep.Replica.dbvv source + 1 in
  let ivv_is_successor () =
    (* Stale pushes must not materialize items: probe, don't create. *)
    let local = Store.find_opt rep.Replica.store u.item in
    Vv.dimension u.ivv = t.n
    &&
    let ok = ref true in
    for l = 0 to t.n - 1 do
      let here = match local with None -> 0 | Some it -> Vv.get it.Item.ivv l in
      let expected = if l = source then here + 1 else here in
      if Vv.get u.ivv l <> expected then ok := false
    done;
    !ok
  in
  if next_seq && ivv_is_successor () then begin
    let tails = Array.make t.n [] in
    tails.(source) <- [ { Log_record.item = u.item; seq = u.seq } ];
    let items =
      [ { Message.name = u.item; payload = Message.Whole u.value; ivv = u.ivv } ]
    in
    let (_ : accept_result) =
      Protocol.accept_delta t.ctx rep ~source ~tails ~items
    in
    c.push_applied <- c.push_applied + 1;
    `Applied
  end
  else begin
    c.push_stale <- c.push_stale + 1;
    `Stale
  end

let intra_node_propagation t names =
  List.iter
    (fun name -> Protocol.intra_node_propagation t.ctx (replica_for t name) [ name ])
    names

(* ------------------------------------------------------------------ *)
(* Per-shard domain fan-out                                            *)
(* ------------------------------------------------------------------ *)

(* Run every task, using up to [domains] domains (including the calling
   one) with atomic work stealing over the shared {!Domain_pool}. Tasks
   must touch disjoint state; the caller merges any shared effects
   afterwards, in task order. *)
let parallel_run ~domains tasks = Domain_pool.run ~domains tasks

(* ------------------------------------------------------------------ *)
(* SendPropagation (paper Figure 2)                                    *)
(* ------------------------------------------------------------------ *)

(* The request borrows the live vectors rather than copying them: this
   is the per-pull allocation on the steady-state path. Sound because
   the request is consumed synchronously — [handle_propagation_request]
   only reads it, the wire codec serializes it immediately, and no
   caller retains it past the session. *)
let propagation_request t =
  if t.shards = 1 then
    { Message.recipient = t.id; recipient_dbvv = t.summary; recipient_shard_dbvvs = [||] }
  else
    {
      Message.recipient = t.id;
      recipient_dbvv = t.summary;
      recipient_shard_dbvvs = Array.map (fun (r : Replica.t) -> r.dbvv) t.replicas;
    }

let propagation_request_owned t =
  let req = propagation_request t in
  {
    req with
    Message.recipient_dbvv = Vv.copy req.recipient_dbvv;
    recipient_shard_dbvvs = Array.map Vv.copy req.recipient_shard_dbvvs;
  }

let handle_sharded t ~domains (req : Message.propagation_request) =
  if Array.length req.recipient_shard_dbvvs <> t.shards then
    invalid_arg "Node.handle_propagation_request: shard count mismatch";
  let c = t.counters in
  (* The summary comparison answers you-are-current in O(n) regardless
     of the shard count; see DESIGN.md §7 for why summary dominance is
     sound under session-atomic acceptance. *)
  c.vv_comparisons <- c.vv_comparisons + 1;
  if Vv.dominates_or_equal req.recipient_dbvv t.summary then begin
    c.noop_sessions <- c.noop_sessions + 1;
    Message.You_are_current
  end
  else begin
    c.propagation_sessions <- c.propagation_sessions + 1;
    (* Per-shard skip decisions run sequentially (they charge the
       session counters); only non-converged shards build deltas. At
       least one shard ships: a strictly-larger summary component
       implies a strictly-larger component in some shard. *)
    let pending = ref [] in
    for s = t.shards - 1 downto 0 do
      c.vv_comparisons <- c.vv_comparisons + 1;
      let rvv = req.recipient_shard_dbvvs.(s) in
      if Vv.dominates_or_equal rvv t.replicas.(s).Replica.dbvv then
        c.shards_skipped <- c.shards_skipped + 1
      else pending := (s, rvv) :: !pending
    done;
    let pending = Array.of_list !pending in
    let count = Array.length pending in
    let deltas = Array.make count None in
    let build ctx i =
      let s, rvv = pending.(i) in
      let tails, items = Protocol.build_delta ctx t.replicas.(s) ~recipient_vv:rvv in
      deltas.(i) <- Some { Message.shard = s; tails; items }
    in
    if min domains count <= 1 then
      for i = 0 to count - 1 do
        build t.ctx i
      done
    else begin
      (* Delta building only reads replica state (plus the per-item
         IsSelected scratch flags, disjoint per shard) and charges
         counters, so a scratch counter set per shard is the only
         isolation needed; the sums merge commutatively. *)
      let scratch = Array.init count (fun _ -> Counters.create ()) in
      let tasks =
        Array.init count (fun i () ->
            build { t.ctx with Protocol.counters = scratch.(i) } i)
      in
      parallel_run ~domains tasks;
      Array.iter (fun sc -> Counters.add_into c sc) scratch
    end;
    Message.Propagate_sharded
      (Array.to_list deltas |> List.map Option.get)
  end

let handle_propagation_request ?(domains = 1) t req =
  if t.shards = 1 && Array.length req.Message.recipient_shard_dbvvs = 0 then
    Protocol.handle_request t.ctx t.replicas.(0) req
  else handle_sharded t ~domains req

(* ------------------------------------------------------------------ *)
(* AcceptPropagation (paper Figure 3)                                  *)
(* ------------------------------------------------------------------ *)

let combine_results results =
  let copied =
    List.concat_map (fun (r : accept_result) -> r.copied) (Array.to_list results)
  in
  let conflicts =
    Array.fold_left (fun acc (r : accept_result) -> acc + r.conflicts) 0 results
  in
  let resolved =
    Array.fold_left (fun acc (r : accept_result) -> acc + r.resolved) 0 results
  in
  { copied; conflicts; resolved }

let accept_sharded t ~domains ~source deltas =
  Fault.hit "accept.begin";
  List.iter
    (fun (d : Message.shard_delta) ->
      if d.shard < 0 || d.shard >= t.shards then
        invalid_arg "Node.accept_propagation: shard index out of range")
    deltas;
  let deltas = Array.of_list deltas in
  let count = Array.length deltas in
  let results = Array.make count { copied = []; conflicts = 0; resolved = 0 } in
  if min domains count <= 1 then begin
    Array.iteri
      (fun i (d : Message.shard_delta) ->
        results.(i) <-
          Protocol.accept_delta t.ctx t.replicas.(d.shard) ~source ~tails:d.tails
            ~items:d.items)
      deltas;
    combine_results results
  end
  else begin
    (* Shards touch disjoint replicas; the shared effects — counters,
       summary growth, revision bumps, conflict declarations — go to
       per-shard scratch sinks and are merged in shard order below, so
       the result is independent of domain scheduling. Conflict
       handlers therefore run after the parallel section (in shard
       order) rather than interleaved with acceptance; a handler that
       mutates the node must use [domains = 1]. *)
    let scratch_counters = Array.init count (fun _ -> Counters.create ()) in
    let scratch_summary = Array.init count (fun _ -> Vv.create ~n:t.n) in
    let scratch_conflicts = Array.make count [] in
    let scratch_touches = Array.make count 0 in
    let tasks =
      Array.init count (fun i () ->
          let d = deltas.(i) in
          let ctx =
            {
              t.ctx with
              Protocol.counters = scratch_counters.(i);
              summary = scratch_summary.(i);
              declare_conflict =
                (fun ~item ~local_vv ~remote_vv ~origin ->
                  scratch_touches.(i) <- scratch_touches.(i) + 1;
                  scratch_counters.(i).conflicts_detected <-
                    scratch_counters.(i).conflicts_detected + 1;
                  scratch_conflicts.(i) <-
                    Conflict.make ~item ~node:t.id ~local_vv ~remote_vv ~origin
                    :: scratch_conflicts.(i));
              touch = (fun () -> scratch_touches.(i) <- scratch_touches.(i) + 1);
            }
          in
          results.(i) <-
            Protocol.accept_delta ctx t.replicas.(d.shard) ~source ~tails:d.tails
              ~items:d.items)
    in
    parallel_run ~domains tasks;
    for i = 0 to count - 1 do
      Counters.add_into t.counters scratch_counters.(i);
      for l = 0 to t.n - 1 do
        let grown = Vv.get scratch_summary.(i) l in
        if grown <> 0 then Vv.set t.summary l (Vv.get t.summary l + grown)
      done;
      t.revision <- t.revision + scratch_touches.(i);
      List.iter
        (fun conflict ->
          t.conflicts <- conflict :: t.conflicts;
          Log.info (fun m -> m "%a" Conflict.pp conflict);
          t.conflict_handler conflict)
        (List.rev scratch_conflicts.(i))
    done;
    combine_results results
  end

let accept_propagation ?(domains = 1) t ~source reply =
  match reply with
  | Message.You_are_current -> { copied = []; conflicts = 0; resolved = 0 }
  | Message.Propagate { tails; items } ->
    if t.shards <> 1 then
      invalid_arg "Node.accept_propagation: unsharded reply at a sharded node";
    (* Failpoints (see DESIGN.md, "Failure model"): a crash here leaves
       the node exactly as before the session. *)
    Fault.hit "accept.begin";
    Protocol.accept_delta t.ctx t.replicas.(0) ~source ~tails ~items
  | Message.Propagate_sharded deltas -> accept_sharded t ~domains ~source deltas

(* A reply this node's [accept_propagation] would reject (wrong shard
   shape or index) is not a no-op: it must still reach the accept and
   raise there. *)
let reply_is_noop t reply =
  match reply with
  | Message.You_are_current -> true
  | Message.Propagate { tails; items } ->
    t.shards = 1 && Protocol.delta_is_noop t.replicas.(0) ~tails ~items
  | Message.Propagate_sharded deltas ->
    List.for_all
      (fun (d : Message.shard_delta) ->
        d.shard >= 0 && d.shard < t.shards
        && Protocol.delta_is_noop t.replicas.(d.shard) ~tails:d.tails ~items:d.items)
      deltas

(* ------------------------------------------------------------------ *)
(* Out-of-bound copying (paper §5.2)                                   *)
(* ------------------------------------------------------------------ *)

let serve_out_of_bound t (req : Message.oob_request) =
  Protocol.serve_out_of_bound (replica_for t req.item) req

let accept_out_of_bound t ~source (reply : Message.oob_reply) =
  (Protocol.accept_out_of_bound t.ctx (replica_for t reply.item) ~source reply
    :> oob_result)

(* ------------------------------------------------------------------ *)
(* In-process sessions                                                 *)
(* ------------------------------------------------------------------ *)

let charge_message (c : Counters.t) bytes =
  c.messages <- c.messages + 1;
  c.bytes_sent <- c.bytes_sent + bytes

let pull ?(domains = 1) ~recipient ~source () =
  if recipient.shards <> source.shards then
    invalid_arg "Node.pull: recipient and source shard counts differ";
  let req = propagation_request recipient in
  charge_message recipient.counters (Message.request_bytes req);
  let reply = handle_propagation_request ~domains source req in
  charge_message source.counters (Message.reply_bytes reply);
  match reply with
  | Message.You_are_current -> Already_current
  | (Message.Propagate _ | Message.Propagate_sharded _) as reply ->
    Pulled (accept_propagation ~domains recipient ~source:source.id reply)

let sync_pair ?(domains = 1) a b =
  let (_ : pull_result) = pull ~domains ~recipient:a ~source:b () in
  let (_ : pull_result) = pull ~domains ~recipient:b ~source:a () in
  ()

let fetch_out_of_bound ~recipient ~source name =
  let req = { Message.item = name } in
  charge_message recipient.counters (Message.oob_request_bytes req);
  let reply = serve_out_of_bound source req in
  charge_message source.counters (Message.oob_reply_bytes reply);
  accept_out_of_bound recipient ~source:source.id reply

(* ------------------------------------------------------------------ *)
(* State export / import                                               *)
(* ------------------------------------------------------------------ *)

module State = struct
  type item = { name : string; value : string; ivv : int array }

  type aux_record = { item : string; ivv : int array; op : Operation.t }

  type shard = {
    items : item list;
    dbvv : int array;
    logs : (string * int) list array;
    aux_items : item list;
    aux_log : aux_record list;
  }

  type t = { id : int; n : int; shards : shard array }
end

let export_state t =
  let item_state (it : Item.t) =
    { State.name = it.name; value = it.value; ivv = Vv.to_array it.ivv }
  in
  let export_shard (rep : Replica.t) =
    let items =
      List.rev (Store.fold (fun acc it -> item_state it :: acc) [] rep.store)
    in
    let logs =
      Array.init t.n (fun origin ->
          List.map
            (fun (r : Log_record.t) -> (r.item, r.seq))
            (Log_component.to_list (Log_vector.component rep.logs origin)))
    in
    let aux_items =
      Hashtbl.fold (fun _ it acc -> item_state it :: acc) rep.aux_items []
      |> List.sort (fun (a : State.item) b -> String.compare a.name b.name)
    in
    let aux_log =
      List.map
        (fun (r : Aux_log.record) ->
          { State.item = r.item; ivv = Vv.to_array r.ivv; op = r.op })
        (Aux_log.to_list rep.aux_log)
    in
    { State.items; dbvv = Vv.to_array rep.dbvv; logs; aux_items; aux_log }
  in
  { State.id = t.id; n = t.n; shards = Array.map export_shard t.replicas }

let import_state ?policy ?conflict_handler ?mode (state : State.t) =
  let shards = Array.length state.shards in
  if shards = 0 then invalid_arg "Node.import_state: no shards";
  (* Size every table for the counts the state already carries, so the
     import never rehashes. A log vector of the wrong dimension is left
     default-sized here and rejected below. *)
  let replica s =
    let shard = state.shards.(s) in
    let log_records =
      if Array.length shard.State.logs = state.n then
        Some (Array.map List.length shard.logs)
      else None
    in
    Replica.create ~items:(List.length shard.items) ?log_records ~n:state.n ()
  in
  let t =
    make ?policy ?conflict_handler ?mode ~shards ~replica ~id:state.id ~n:state.n ()
  in
  let import_shard s (shard : State.shard) =
    let rep = t.replicas.(s) in
    if Array.length shard.dbvv <> state.n then
      invalid_arg "Node.import_state: DBVV dimension mismatch";
    if Array.length shard.logs <> state.n then
      invalid_arg "Node.import_state: log vector dimension mismatch";
    let restore_item (st : State.item) =
      if Array.length st.ivv <> state.n then
        invalid_arg "Node.import_state: item IVV dimension mismatch";
      let it = Store.find_or_create rep.Replica.store st.name in
      it.value <- st.value;
      it.ivv <- Vv.of_array st.ivv
    in
    List.iter restore_item shard.items;
    (* [create] made zero DBVVs; overwrite shard and summary in place. *)
    Array.iteri
      (fun l v ->
        Vv.set rep.dbvv l v;
        if not (t.summary == rep.dbvv) then
          Vv.set t.summary l (Vv.get t.summary l + v))
      shard.dbvv;
    Array.iteri
      (fun origin records ->
        List.iter
          (fun (item, seq) ->
            (* Log_component.add enforces the monotonic-seq invariant and
               rejects inconsistent snapshots. *)
            Log_vector.add rep.logs ~origin ~item ~seq)
          records)
      shard.logs;
    List.iter
      (fun (st : State.item) ->
        if Array.length st.ivv <> state.n then
          invalid_arg "Node.import_state: aux IVV dimension mismatch";
        let it = Item.create ~name:st.name ~n:state.n in
        it.value <- st.value;
        it.ivv <- Vv.of_array st.ivv;
        Hashtbl.replace rep.aux_items st.name it)
      shard.aux_items;
    List.iter
      (fun (r : State.aux_record) ->
        Aux_log.append rep.aux_log
          { Aux_log.item = r.item; ivv = Vv.of_array r.ivv; op = r.op })
      shard.aux_log
  in
  Array.iteri import_shard state.shards;
  t

(* ------------------------------------------------------------------ *)
(* Membership reshape                                                  *)
(* ------------------------------------------------------------------ *)

(* Both reshapes rebuild the node through [export_state] / pure array
   surgery / [import_state]: every vector, log component and aux record
   flows through the one code path that already knows how to rebuild a
   node, so a representation added later cannot be silently missed.
   The peer cache comes back cold by construction — proven DBVVs of the
   old dimension cannot survive a membership change. *)

let reshaped ~id ~n ~f_vec ~f_logs t =
  let state = export_state t in
  let reshape_item (it : State.item) = { it with State.ivv = f_vec it.State.ivv } in
  let reshape_shard (sh : State.shard) =
    {
      State.items = List.map reshape_item sh.State.items;
      dbvv = f_vec sh.State.dbvv;
      logs = f_logs sh.State.logs;
      aux_items = List.map reshape_item sh.State.aux_items;
      aux_log =
        List.map
          (fun (r : State.aux_record) -> { r with State.ivv = f_vec r.State.ivv })
          sh.State.aux_log;
    }
  in
  let state = { State.id; n; shards = Array.map reshape_shard state.State.shards } in
  let t' =
    import_state ~policy:t.policy ~conflict_handler:t.conflict_handler ~mode:t.mode
      state
  in
  Counters.add_into t'.counters t.counters;
  t'.conflicts <- t.conflicts;
  t'.revision <- t.revision + 1;
  t'

let extend_dimension t =
  let f_vec v = Vv.to_array (Vv.extend (Vv.of_array v)) in
  let f_logs logs = Array.append logs [| [] |] in
  reshaped ~id:t.id ~n:(t.n + 1) ~f_vec ~f_logs t

let retire_component t ~slot =
  if slot < 0 || slot >= t.n then
    invalid_arg
      (Printf.sprintf "Node.retire_component: slot %d out of bounds [0,%d)" slot t.n);
  if slot = t.id then
    invalid_arg
      (Printf.sprintf "Node.retire_component: node %d cannot retire itself" t.id);
  let f_vec v = Vv.to_array (Vv.remove_component (Vv.of_array v) ~at:slot) in
  let f_logs logs =
    Array.init
      (Array.length logs - 1)
      (fun o -> if o < slot then logs.(o) else logs.(o + 1))
  in
  (* Ids above the vacated slot shift down so the id space stays dense
     [0, n-1] — the same renaming every surviving member applies. *)
  let id = if t.id > slot then t.id - 1 else t.id in
  (* Count what the surgery is about to drop: one component per DBVV,
     item IVV, aux IVV and aux-log IVV, plus the victim's log-vector
     slot per shard. The summary DBVV is physically the shard DBVV when
     shards = 1, so it only counts separately beyond that. *)
  let dropped = ref (if t.shards = 1 then 0 else 1) in
  Array.iter
    (fun (rep : Replica.t) ->
      dropped := !dropped + 2;
      Store.iter (fun _ -> incr dropped) rep.Replica.store;
      dropped := !dropped + Hashtbl.length rep.aux_items;
      dropped := !dropped + List.length (Aux_log.to_list rep.aux_log))
    t.replicas;
  let t' = reshaped ~id ~n:(t.n - 1) ~f_vec ~f_logs t in
  t'.counters.Counters.vector_components_gced <-
    t'.counters.Counters.vector_components_gced + !dropped;
  t'

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

let check_replica_invariants ?(log_bound = true) t s =
  let rep = t.replicas.(s) in
  (* Shard DBVV = component-wise sum of the shard's item IVVs (§4.1). *)
  let sums = Array.make t.n 0 in
  Store.iter
    (fun item ->
      for l = 0 to t.n - 1 do
        sums.(l) <- sums.(l) + Vv.get item.Item.ivv l
      done)
    rep.Replica.store;
  let rec check_sum l =
    if l >= t.n then Ok ()
    else if sums.(l) <> Vv.get rep.dbvv l then
      Error
        (Printf.sprintf "shard %d: DBVV[%d] = %d but item IVVs sum to %d" s l
           (Vv.get rep.dbvv l) sums.(l))
    else check_sum (l + 1)
  in
  let check_log_bound () =
    if (not log_bound) || t.conflicts <> [] then Ok ()
    else
      let rec loop k =
        if k >= t.n then Ok ()
        else
          let latest = Log_component.latest_seq (Log_vector.component rep.logs k) in
          if latest > Vv.get rep.dbvv k then
            Error
              (Printf.sprintf
                 "shard %d: log component %d newest seq %d exceeds DBVV[%d] = %d" s k
                 latest k (Vv.get rep.dbvv k))
          else loop (k + 1)
      in
      loop 0
  in
  let check_flags () =
    let stray =
      Store.fold (fun acc item -> acc || item.Item.is_selected) false rep.store
    in
    if stray then
      Error
        (Printf.sprintf "shard %d: stray IsSelected flag outside a propagation" s)
    else Ok ()
  in
  match check_sum 0 with
  | Error _ as e -> e
  | Ok () -> (
    match Log_vector.check_invariants rep.logs with
    | Error msg -> Error (Printf.sprintf "shard %d: %s" s msg)
    | Ok () -> (
      match check_log_bound () with Error _ as e -> e | Ok () -> check_flags ()))

let check_summary t =
  (* Summary DBVV = component-wise sum of the shard DBVVs; trivially
     true (physically the same vector) when shards = 1. *)
  let sums = Array.make t.n 0 in
  Array.iter
    (fun (rep : Replica.t) ->
      for l = 0 to t.n - 1 do
        sums.(l) <- sums.(l) + Vv.get rep.dbvv l
      done)
    t.replicas;
  let rec loop l =
    if l >= t.n then Ok ()
    else if sums.(l) <> Vv.get t.summary l then
      Error
        (Printf.sprintf "summary DBVV[%d] = %d but shard DBVVs sum to %d" l
           (Vv.get t.summary l) sums.(l))
    else loop (l + 1)
  in
  loop 0

let check_invariants ?(log_bound = true) t =
  let rec per_shard s =
    if s >= t.shards then Ok ()
    else
      match check_replica_invariants ~log_bound t s with
      | Error _ as e -> e
      | Ok () -> per_shard (s + 1)
  in
  match per_shard 0 with Error _ as e -> e | Ok () -> check_summary t
