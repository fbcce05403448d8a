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

type resolution_policy =
  | Report_only
  | Resolve of (local:Message.shipped_item -> remote:Message.shipped_item -> string)

type propagation_mode = Whole_item | Op_log of { depth : int }

type accept_result = { copied : string list; conflicts : int; resolved : int }

(* Everything the Figure 2/3/4 functions need besides the shard replica
   they operate on. The [summary] vector mirrors every DBVV mutation so
   the node-level summary DBVV (component-wise sum of shard DBVVs)
   stays exact; when the node runs unsharded the summary IS the single
   replica's DBVV (physically the same vector), and the [==] guards
   below make the mirroring free. [declare_conflict] and [touch] are
   sinks into the owning node (conflict list, handler, revision), which
   lets parallel per-shard acceptance substitute scratch sinks. *)
type ctx = {
  node_id : int;
  n : int;
  mode : propagation_mode;
  policy : resolution_policy;
  counters : Counters.t;
  summary : Vv.t;
  declare_conflict :
    item:string -> local_vv:Vv.t -> remote_vv:Vv.t -> origin:Conflict.origin -> unit;
  touch : unit -> unit;
}

let incr_own ctx (rep : Replica.t) =
  Vv.incr rep.dbvv ctx.node_id;
  if not (ctx.summary == rep.dbvv) then Vv.incr ctx.summary ctx.node_id

let add_diff ctx (rep : Replica.t) ~newer ~older =
  Vv.add_diff_into rep.dbvv ~newer ~older;
  if not (ctx.summary == rep.dbvv) then Vv.add_diff_into ctx.summary ~newer ~older

let history_of ctx (rep : Replica.t) name =
  match ctx.mode with
  | Whole_item -> None
  | Op_log { depth } ->
    Some
      (match Hashtbl.find_opt rep.histories name with
      | Some history -> history
      | None ->
        let history = Edb_store.Item_history.create ~depth in
        Hashtbl.add rep.histories name history;
        history)

(* Bookkeeping common to every update applied to the regular copy: bump
   the item IVV and DBVV own-components, log the update (§5.3), and in
   op-log mode retain the operation for delta shipping. *)
let record_regular_update ctx (rep : Replica.t) (item : Item.t) ~op =
  ctx.touch ();
  Vv.incr item.ivv ctx.node_id;
  incr_own ctx rep;
  let seq = Vv.get rep.dbvv ctx.node_id in
  Log_vector.add rep.logs ~origin:ctx.node_id ~item:item.name ~seq;
  match history_of ctx rep item.name with
  | None -> ()
  | Some history ->
    Edb_store.Item_history.push history
      { Edb_store.Item_history.origin = ctx.node_id; seq; op }

let update ctx (rep : Replica.t) name op =
  ctx.counters.updates_applied <- ctx.counters.updates_applied + 1;
  match Hashtbl.find_opt rep.aux_items name with
  | Some aux ->
    ctx.touch ();
    (* §5.3 first case: the record stores the IVV excluding this update. *)
    Aux_log.append rep.aux_log { Aux_log.item = name; ivv = Vv.copy aux.ivv; op };
    Item.apply aux op;
    Vv.incr aux.ivv ctx.node_id
  | None ->
    let item = Store.find_or_create rep.store name in
    Item.apply item op;
    record_regular_update ctx rep item ~op

(* ------------------------------------------------------------------ *)
(* SendPropagation (paper Figure 2)                                    *)
(* ------------------------------------------------------------------ *)

(* Op-log mode: can this item's missing updates be shipped as exactly
   the operations the recipient lacks? The recipient reflects, for each
   origin k, precisely the first [recipient_vv(k)] updates of k to this
   shard (the per-origin prefix property, shard-local). A delta is
   provably complete iff for every origin that contributed updates to
   the item:
   - either the recipient already reflects the item's last k-update
     (log record seq <= recipient_vv(k)), or
   - the retained history still holds every k-op the recipient misses:
     all evicted k-ops have seq below the oldest retained k-entry, so
     it suffices that recipient_vv(k) >= oldest_retained_k - 1. *)
let delta_payload ctx (rep : Replica.t) (item : Item.t) ~recipient_vv =
  match history_of ctx rep item.name with
  | None -> None
  | Some history ->
    let threshold = Vv.to_array recipient_vv in
    let rec provable k =
      if k >= ctx.n then true
      else if Vv.get item.ivv k = 0 then provable (k + 1)
      else
        match Log_component.find_record (Log_vector.component rep.logs k) item.name with
        | None ->
          (* No retained log record despite known k-updates (possible
             only in post-conflict states): cannot reason. *)
          false
        | Some last ->
          if last.Log_record.seq <= threshold.(k) then
            (* The recipient reflects every k-update to this item. *)
            provable (k + 1)
          else (
            match
              Edb_store.Item_history.oldest_seq_of_origin history ~origin:k
            with
            | None -> false
            | Some oldest ->
              if threshold.(k) >= oldest - 1 then provable (k + 1) else false)
    in
    if not (provable 0) then None
    else
      Some
        (List.map
           (fun (e : Edb_store.Item_history.entry) ->
             { Message.origin = e.origin; seq = e.seq; op = e.op })
           (Edb_store.Item_history.entries_after history ~threshold))

(* The Fig. 2 body: the per-origin tails the recipient misses and the
   set S of items they reference. [recipient_vv] is the recipient's
   DBVV for this shard. The dominance test and session counters are the
   caller's job (they are per-session, not per-shard). *)
let build_delta ctx (rep : Replica.t) ~recipient_vv =
  let c = ctx.counters in
  let tails = Array.make ctx.n [] in
  (* Items flagged IsSelected while building the tails; the flags give
     the set union S in O(m) and are reset below (§6). *)
  let selected = ref [] in
  for k = 0 to ctx.n - 1 do
    if Vv.get rep.dbvv k > Vv.get recipient_vv k then begin
      let records =
        Log_component.tail_after
          (Log_vector.component rep.logs k)
          ~seq:(Vv.get recipient_vv k)
      in
      tails.(k) <- records;
      (* One traversal both counts the records and flags their items
         (no separate List.length pass). *)
      let examined = ref 0 in
      let flag (r : Log_record.t) =
        incr examined;
        match Store.find_opt rep.store r.item with
        | None ->
          (* A logged update always concerns a materialized item. *)
          assert false
        | Some item ->
          if not item.is_selected then begin
            item.is_selected <- true;
            selected := item :: !selected
          end
      in
      List.iter flag records;
      c.log_records_examined <- c.log_records_examined + !examined
    end
  done;
  let ship (item : Item.t) =
    item.is_selected <- false;
    c.items_examined <- c.items_examined + 1;
    let value, ivv = Item.snapshot item in
    let payload =
      match ctx.mode with
      | Whole_item -> Message.Whole value
      | Op_log _ -> (
        match delta_payload ctx rep item ~recipient_vv with
        | Some ops -> Message.Delta ops
        | None ->
          c.whole_fallbacks <- c.whole_fallbacks + 1;
          Message.Whole value)
    in
    { Message.name = item.name; payload; ivv }
  in
  let items = List.rev_map ship !selected in
  (tails, items)

(* The unsharded SendPropagation, kept verbatim so a [shards = 1] node
   behaves (and counts) exactly as before the Replica split. *)
let handle_request ctx (rep : Replica.t) (req : Message.propagation_request) =
  let c = ctx.counters in
  c.vv_comparisons <- c.vv_comparisons + 1;
  if Vv.dominates_or_equal req.recipient_dbvv rep.dbvv then begin
    c.noop_sessions <- c.noop_sessions + 1;
    Message.You_are_current
  end
  else begin
    c.propagation_sessions <- c.propagation_sessions + 1;
    let tails, items = build_delta ctx rep ~recipient_vv:req.recipient_dbvv in
    Message.Propagate { tails; items }
  end

(* ------------------------------------------------------------------ *)
(* IntraNodePropagation (paper Figure 4)                               *)
(* ------------------------------------------------------------------ *)

let intra_node_propagation ctx (rep : Replica.t) copied_items =
  let c = ctx.counters in
  let catch_up name =
    match Hashtbl.find_opt rep.aux_items name with
    | None -> ()
    | Some aux ->
      let regular = Store.find_or_create rep.store name in
      let rec drain () =
        match Aux_log.earliest rep.aux_log name with
        | Some e ->
          c.vv_comparisons <- c.vv_comparisons + 1;
          (match Vv.compare_vv regular.ivv e.ivv with
          | Equal ->
            (* The regular copy has caught up to the exact state this
               deferred update was applied at: replay it as a fresh
               local update. *)
            Item.apply regular e.op;
            record_regular_update ctx rep regular ~op:e.op;
            Aux_log.remove_earliest rep.aux_log name;
            c.aux_replays <- c.aux_replays + 1;
            drain ()
          | Concurrent ->
            ctx.declare_conflict ~item:name ~local_vv:regular.ivv ~remote_vv:e.ivv
              ~origin:Conflict.Intra_node
          | Dominated ->
            (* The regular copy is still behind; wait for more
               propagation. *)
            ()
          | Dominates ->
            (* The paper asserts "v_i(x) can never dominate a version
               vector of an auxiliary record" (§5.1), but it can: if a
               remote update to x raced the deferred out-of-bound
               update, the regular copy moves strictly past the state
               the deferred update was applied at without containing
               it. Since the deferred update exists in no other
               replica, domination proves the histories diverged, so we
               declare the conflict rather than leave it latent
               (deviation documented in DESIGN.md §5). *)
            ctx.declare_conflict ~item:name ~local_vv:regular.ivv ~remote_vv:e.ivv
              ~origin:Conflict.Intra_node)
        | None ->
          c.vv_comparisons <- c.vv_comparisons + 1;
          if Vv.dominates_or_equal regular.ivv aux.ivv then begin
            (* The regular copy has caught up with the auxiliary copy:
               discard the latter (Fig. 4, final comparison). *)
            ctx.touch ();
            Hashtbl.remove rep.aux_items name
          end
      in
      drain ()
  in
  (* Only a replica holding auxiliary copies has anything to catch up:
     every other one returns without looking at a copied item. *)
  if Hashtbl.length rep.aux_items > 0 then List.iter catch_up copied_items

(* ------------------------------------------------------------------ *)
(* AcceptPropagation (paper Figure 3)                                  *)
(* ------------------------------------------------------------------ *)

(* Record the resolver's output as a fresh local update so the resolved
   state dominates both conflicting ancestors and propagates normally
   (extension; see DESIGN.md §5). *)
let resolve_propagation_conflict ctx (rep : Replica.t) (local : Item.t)
    (sx : Message.shipped_item) resolver =
  let local_snapshot =
    { Message.name = local.name; payload = Message.Whole local.value; ivv = Vv.copy local.ivv }
  in
  let merged = Vv.copy local.ivv in
  Vv.merge_into merged ~from:sx.ivv;
  add_diff ctx rep ~newer:merged ~older:local.ivv;
  let resolved_value = resolver ~local:local_snapshot ~remote:sx in
  local.value <- resolved_value;
  local.ivv <- merged;
  (* A whole-copy style overwrite: any retained history no longer
     describes a contiguous suffix of this value. *)
  (match history_of ctx rep local.name with
  | None -> ()
  | Some history -> Edb_store.Item_history.clear history);
  record_regular_update ctx rep local ~op:(Operation.Set resolved_value)

(* The Fig. 3 body for one shard's delta. The caller hits the
   "accept.begin" failpoint once per session before the first shard. *)
let accept_delta ctx (rep : Replica.t) ~source ~tails ~items =
  let c = ctx.counters in
  (* Items whose tail records must not be appended. Only a conflict or
     a rejected delta creates the table; a clean accept never hashes
     into it. *)
  let skip_records = ref None in
  let skip name =
    match !skip_records with
    | Some skip -> Hashtbl.replace skip name ()
    | None ->
      let skip = Hashtbl.create 4 in
      Hashtbl.replace skip name ();
      skip_records := Some skip
  in
  let copied = ref [] in
  let conflict_count = ref 0 in
  let resolved_count = ref 0 in
  let consider (sx : Message.shipped_item) =
    (* ...a crash here leaves some shipped items applied and others
       not — torn, unless the caller journaled the whole reply
       first (Durable_node does)... *)
    Fault.hit "accept.item";
    let local = Store.find_or_create rep.store sx.name in
    c.vv_comparisons <- c.vv_comparisons + 1;
    match Vv.compare_vv sx.ivv local.ivv with
    | Dominates -> (
      (* The received copy is strictly newer: adopt it and grow the
         DBVV by the extra updates it has seen (DBVV rule 3, §4.1). *)
      match sx.payload with
      | Message.Whole value ->
        ctx.touch ();
        add_diff ctx rep ~newer:sx.ivv ~older:local.ivv;
        local.value <- value;
        local.ivv <- Vv.copy sx.ivv;
        (* The local history no longer describes a contiguous suffix
           of this value: forget it (op-log mode only). *)
        (match history_of ctx rep sx.name with
        | None -> ()
        | Some history -> Edb_store.Item_history.clear history);
        c.items_copied <- c.items_copied + 1;
        copied := sx.name :: !copied
      | Message.Delta ops ->
        (* Defensive completeness check: the shipped operations must
           account exactly for the per-origin IVV gap. The list is
           measured once here; every later use reuses the count. *)
        let n_ops = List.length ops in
        let expected = ref 0 in
        for k = 0 to ctx.n - 1 do
          expected := !expected + (Vv.get sx.ivv k - Vv.get local.ivv k)
        done;
        if n_ops <> !expected then begin
          Log.err (fun m ->
              m "node %d: delta for %S has %d ops, expected %d; skipping" ctx.node_id
                sx.name n_ops !expected);
          skip sx.name
        end
        else begin
          ctx.touch ();
          add_diff ctx rep ~newer:sx.ivv ~older:local.ivv;
          List.iter
            (fun (dop : Message.delta_op) ->
              local.value <- Operation.apply local.value dop.op;
              match history_of ctx rep sx.name with
              | None -> ()
              | Some history ->
                Edb_store.Item_history.push history
                  { Edb_store.Item_history.origin = dop.origin; seq = dop.seq; op = dop.op })
            ops;
          local.ivv <- Vv.copy sx.ivv;
          c.delta_ops_applied <- c.delta_ops_applied + n_ops;
          c.items_copied <- c.items_copied + 1;
          copied := sx.name :: !copied
        end)
    | Concurrent -> (
      match (ctx.policy, sx.payload) with
      | Resolve resolver, Message.Whole _ ->
        resolve_propagation_conflict ctx rep local sx resolver;
        incr resolved_count;
        c.items_copied <- c.items_copied + 1;
        copied := sx.name :: !copied
      | Report_only, _ | Resolve _, Message.Delta _ ->
        (* A conflicting delta cannot be resolved: the remote value is
           not reconstructible from ops against a diverged base. *)
        ctx.declare_conflict ~item:sx.name ~local_vv:local.ivv ~remote_vv:sx.ivv
          ~origin:(Conflict.Propagation { source });
        incr conflict_count;
        skip sx.name)
    | Equal ->
      (* Identical copies; no tail record can reference this item in
         conflict-free operation, and stale re-sent records are
         filtered below. *)
      ()
    | Dominated ->
      (* "We do not consider the case when v_i(x) dominates v_j(x)
         because this cannot happen" (§5.1). Reachable only after an
         earlier conflict was reported; drop the stale records. *)
      Log.warn (fun m ->
          m "node %d: local copy of %S is newer than the shipped one" ctx.node_id
            sx.name);
      skip sx.name
  in
  List.iter consider items;
  (* ...and a crash here has every item applied but no tail records,
     deflating the local logs relative to the DBVV. *)
  Fault.hit "accept.tail";
  (* Append the tails to the local logs (Fig. 3, second loop), skipping
     records of conflicting items and records the local log already
     subsumes (possible only in post-conflict states). *)
  let kept =
    match !skip_records with
    | None -> fun _ -> true
    | Some skip -> fun (r : Log_record.t) -> not (Hashtbl.mem skip r.item)
  in
  let append_tail k records =
    let component = Log_vector.component rep.logs k in
    let append (r : Log_record.t) =
      if kept r then begin
        c.log_records_examined <- c.log_records_examined + 1;
        if r.seq > Log_component.latest_seq component then
          Log_component.add component ~item:r.item ~seq:r.seq
      end
    in
    List.iter append records
  in
  Array.iteri append_tail tails;
  let copied = List.rev !copied in
  intra_node_propagation ctx rep copied;
  { copied; conflicts = !conflict_count; resolved = !resolved_count }

(* Read-only: would [accept_delta] leave this shard exactly as it is?
   Yes when every shipped item's IVV equals the local regular copy's
   (the [Equal] arm adopts nothing and skips no record) and every tail
   record is already subsumed by its log component (the append loop
   adds only [seq > latest_seq]); then nothing is copied, so the
   trailing intra-node propagation has nothing to replay either. An
   item with no local copy is never a no-op: accepting it would at
   least materialize the item. Only counters would move. *)
let delta_is_noop (rep : Replica.t) ~tails ~items =
  List.for_all
    (fun (sx : Message.shipped_item) ->
      match Store.find_opt rep.store sx.name with
      | Some local -> Vv.equal sx.ivv local.ivv
      | None -> false)
    items
  && Array.length tails = Log_vector.dimension rep.logs
  &&
  let rec subsumed k =
    k = Array.length tails
    || (let latest = Log_component.latest_seq (Log_vector.component rep.logs k) in
        List.for_all (fun (r : Log_record.t) -> r.seq <= latest) tails.(k))
       && subsumed (k + 1)
  in
  subsumed 0

(* ------------------------------------------------------------------ *)
(* Out-of-bound copying (paper §5.2)                                   *)
(* ------------------------------------------------------------------ *)

let serve_out_of_bound (rep : Replica.t) (req : Message.oob_request) =
  let snapshot (item : Item.t) =
    let value, ivv = Item.snapshot item in
    { Message.item = req.item; value; ivv }
  in
  match Hashtbl.find_opt rep.aux_items req.item with
  | Some aux ->
    (* "Auxiliary copies are preferred ... the auxiliary copy is never
       older than the regular copy" (§5.2). *)
    snapshot aux
  | None -> snapshot (Store.find_or_create rep.store req.item)

let accept_out_of_bound ctx (rep : Replica.t) ~source (reply : Message.oob_reply) =
  let c = ctx.counters in
  let local_vv =
    match Hashtbl.find_opt rep.aux_items reply.item with
    | Some aux -> aux.Item.ivv
    | None -> (Store.find_or_create rep.store reply.item).Item.ivv
  in
  c.vv_comparisons <- c.vv_comparisons + 1;
  match Vv.compare_vv reply.ivv local_vv with
  | Dominates ->
    ctx.touch ();
    let aux =
      match Hashtbl.find_opt rep.aux_items reply.item with
      | Some aux -> aux
      | None ->
        let aux = Item.create ~name:reply.item ~n:ctx.n in
        Hashtbl.add rep.aux_items reply.item aux;
        aux
    in
    (* Adopt data and IVV; the auxiliary log is deliberately left
       untouched (§5.2). *)
    aux.value <- reply.value;
    aux.ivv <- Vv.copy reply.ivv;
    c.oob_copies <- c.oob_copies + 1;
    `Adopted
  | Equal | Dominated -> `Already_current
  | Concurrent ->
    ctx.declare_conflict ~item:reply.item ~local_vv ~remote_vv:reply.ivv
      ~origin:(Conflict.Out_of_bound { source });
    `Conflict
