module Vv = Edb_vv.Version_vector

(* Per-peer wire-codec negotiation and DBVV-delta baselines (wire
   format v2, see Edb_persist.Frame and DESIGN.md §8). All of it is
   volatile by construction — it lives inside the cache entry, so
   [forget_peer] / [reset] (crash recovery, node replacement) drop it
   and the next session falls back to version 1 and absolute vectors,
   the same safety discipline as the proven lower bounds (§5a). *)
module Wire_state = struct
  type baseline = { id : int; vv : Vv.t }

  type t = {
    mutable peer_version : int;
        (* Highest codec version the peer has advertised in a decoded
           frame; 1 (the version every node speaks) until proven
           higher. *)
    mutable next_id : int;
        (* Requester side: the next request id to assign. Starts at 1
           so 0 can mean "no id" on the wire. *)
    mutable last_sent : baseline option;
        (* Requester side: id and DBVV of the newest request sent to
           this peer — the only candidate for acknowledgement. *)
    mutable acked : baseline option;
        (* Requester side: the newest request this peer provably
           decoded (its reply echoed the id), hence a DBVV the peer
           still holds — the delta baseline for the next request. *)
    mutable committed : baseline option;
        (* Source side: a recipient baseline proven stable — some later
           request referenced it, so the recipient held its ack when
           that request was built. *)
    mutable candidate : baseline option;
        (* Source side: the newest request decoded from this peer; it
           becomes [committed] when a later request references it. *)
  }

  let create () =
    {
      peer_version = 1;
      next_id = 1;
      last_sent = None;
      acked = None;
      committed = None;
      candidate = None;
    }
end

type entry = {
  proven : Vv.t;
      (* Highest DBVV this node has proven the peer to hold — the
         summary DBVV when the peer is sharded. Grows by merge only, so
         with monotone peer DBVVs it stays a sound lower bound until
         the peer is rolled back, at which point the owner must call
         [forget_peer]. *)
  proven_shards : Vv.t array;
      (* Per-shard lower bounds, same merge discipline. Length is the
         owner's shard count; all-zero entries mean nothing was ever
         proven about that shard. *)
  mutable current : bool;
  mutable epoch : int;
      (* Cluster epoch at which [current] was established. *)
  wire : Wire_state.t;
}

type t = {
  n : int;
  shards : int;
  entries : entry option array;
  mutable own_wire_version : int;
      (* Highest wire-codec version this node's transports may speak —
         Edb_persist.Frame.max_version unless pinned down (tests, mixed
         fleets). Volatile like the rest of the cache. *)
}

(* Keep in sync with Edb_persist.Frame.max_version (asserted equal in
   the test suite; Peer_cache cannot see the persist layer). *)
let default_own_wire_version = 2

let create ?(shards = 1) ~n () =
  if n <= 0 then invalid_arg "Peer_cache.create: n must be positive";
  if shards < 1 then invalid_arg "Peer_cache.create: shards must be >= 1";
  {
    n;
    shards;
    entries = Array.make n None;
    own_wire_version = default_own_wire_version;
  }

let dimension t = t.n

let shards t = t.shards

let entry t ~peer =
  if peer < 0 || peer >= t.n then invalid_arg "Peer_cache: peer out of range";
  match t.entries.(peer) with
  | Some e -> e
  | None ->
    let e =
      {
        proven = Vv.create ~n:t.n;
        proven_shards = Array.init t.shards (fun _ -> Vv.create ~n:t.n);
        current = false;
        epoch = min_int;
        wire = Wire_state.create ();
      }
    in
    t.entries.(peer) <- Some e;
    e

let note_proven t ~peer vv =
  let e = entry t ~peer in
  Vv.merge_into e.proven ~from:vv

let note_proven_shard t ~peer ~shard vv =
  let e = entry t ~peer in
  if shard < 0 || shard >= t.shards then
    invalid_arg "Peer_cache.note_proven_shard: shard out of range";
  Vv.merge_into e.proven_shards.(shard) ~from:vv

let proven t ~peer =
  if peer < 0 || peer >= t.n then invalid_arg "Peer_cache: peer out of range";
  Option.map (fun e -> Vv.copy e.proven) t.entries.(peer)

let proven_shard t ~peer ~shard =
  if peer < 0 || peer >= t.n then invalid_arg "Peer_cache: peer out of range";
  if shard < 0 || shard >= t.shards then
    invalid_arg "Peer_cache.proven_shard: shard out of range";
  Option.map (fun e -> Vv.copy e.proven_shards.(shard)) t.entries.(peer)

let mark_current t ~peer ~epoch =
  let e = entry t ~peer in
  e.current <- true;
  e.epoch <- epoch

let is_current t ~peer ~epoch =
  if peer < 0 || peer >= t.n then invalid_arg "Peer_cache: peer out of range";
  match t.entries.(peer) with
  | None -> false
  | Some e -> e.current && e.epoch = epoch

let wire_state t ~peer = (entry t ~peer).wire

let own_wire_version t = t.own_wire_version

let set_own_wire_version t v =
  if v < 1 then invalid_arg "Peer_cache.set_own_wire_version: below 1";
  t.own_wire_version <- v

let forget_peer t ~peer =
  if peer < 0 || peer >= t.n then invalid_arg "Peer_cache: peer out of range";
  t.entries.(peer) <- None

let reset t = Array.fill t.entries 0 t.n None

let is_empty t = Array.for_all (fun e -> e = None) t.entries
