module Operation = Edb_store.Operation
module Vv = Edb_vv.Version_vector
module Message = Edb_core.Message
module W = Codec.Writer
module R = Codec.Reader

let corrupt fmt = Printf.ksprintf (fun msg -> raise (R.Corrupt msg)) fmt

(* ------------------------------------------------------------------ *)
(* Name interning                                                      *)
(* ------------------------------------------------------------------ *)

(* Per-message dictionary: the first occurrence of a name ships as
   [varint 0; vstring] and implicitly takes the next index; every later
   occurrence ships as [varint (index + 1)]. Item names repeat a lot in
   a propagation reply — once per log record plus once per shipped item
   — so this collapses each name to one or two bytes after its debut.
   The dictionary never crosses a message boundary: encoder and decoder
   both start empty per message, so frames stay self-contained. The
   encoder's table is sized from the message (its shipped items or
   pushed updates, about one name each), so it never grows mid-encode. *)
module Dict = struct
  module Writer = struct
    module Names = Hashtbl.Make (String)

    let create ~size : int Names.t = Names.create size

    let string d w s =
      match Names.find d s with
      | k -> W.varint w (k + 1)
      | exception Not_found ->
        W.varint w 0;
        W.vstring w s;
        Names.add d s (Names.length d)
  end

  module Reader = struct
    type t = { mutable names : string array; mutable count : int }

    let create () = { names = Array.make 32 ""; count = 0 }

    let string d r =
      match R.varint r with
      | 0 ->
        let s = R.vstring r in
        if d.count = Array.length d.names then begin
          let bigger = Array.make (2 * d.count) "" in
          Array.blit d.names 0 bigger 0 d.count;
          d.names <- bigger
        end;
        d.names.(d.count) <- s;
        d.count <- d.count + 1;
        s
      | k ->
        if k < 1 || k > d.count then
          corrupt "name index %d outside interning table of %d" (k - 1) d.count
        else d.names.(k - 1)
  end
end

(* ------------------------------------------------------------------ *)
(* Version vectors: sparse and delta forms                             *)
(* ------------------------------------------------------------------ *)

(* Sparse form: [varint count] then [count] strictly-ascending
   [(varint origin, varint value)] pairs, zero components omitted. The
   dimension is not encoded — both ends of a session share [n]. *)
let encode_vv w vv =
  let n = Vv.dimension vv in
  let nz = ref 0 in
  for j = 0 to n - 1 do
    if Vv.get vv j <> 0 then incr nz
  done;
  W.varint w !nz;
  for j = 0 to n - 1 do
    let v = Vv.get vv j in
    if v <> 0 then begin
      W.varint w j;
      W.varint w v
    end
  done

let decode_sparse_pairs r ~n ~what fill =
  let count = R.varint r in
  if count < 0 || count > n then
    corrupt "%s carries %d entries over dimension %d" what count n;
  let prev = ref (-1) in
  for _ = 1 to count do
    let j = R.varint r in
    if j <= !prev || j >= n then
      corrupt "%s origin %d out of order or range (dimension %d)" what j n;
    prev := j;
    let v = R.varint r in
    if v <= 0 then corrupt "%s entry at origin %d is %d, not positive" what j v;
    fill j v
  done

let decode_vv r ~n =
  if n < 1 then invalid_arg "Wire_v2.decode_vv: dimension below 1";
  let vv = Vv.create ~n in
  decode_sparse_pairs r ~n ~what:"sparse version vector" (Vv.set vv);
  vv

(* Delta form: the sparse encoding of [vv - baseline]. Only valid when
   [vv] dominates or equals [baseline] — DBVVs are monotone, so a
   requester's current vector always dominates any vector it sent
   earlier. In the steady state the diff is all-zero and the whole
   vector costs one byte. *)
let encode_vv_delta w ~baseline vv =
  let n = Vv.dimension vv in
  if Vv.dimension baseline <> n then
    invalid_arg "Wire_v2.encode_vv_delta: dimension mismatch";
  let nz = ref 0 in
  for j = 0 to n - 1 do
    let d = Vv.get vv j - Vv.get baseline j in
    if d < 0 then invalid_arg "Wire_v2.encode_vv_delta: baseline not dominated";
    if d <> 0 then incr nz
  done;
  W.varint w !nz;
  for j = 0 to n - 1 do
    let d = Vv.get vv j - Vv.get baseline j in
    if d <> 0 then begin
      W.varint w j;
      W.varint w d
    end
  done

let decode_vv_delta r ~baseline =
  let n = Vv.dimension baseline in
  let vv = Vv.copy baseline in
  decode_sparse_pairs r ~n ~what:"delta version vector" (fun j d ->
      let v = Vv.get vv j in
      if v > max_int - d then corrupt "delta version vector overflows at origin %d" j;
      Vv.set vv j (v + d));
  vv

(* A cheap commitment to the baseline's contents, carried next to the
   baseline id in delta requests. The id alone already pins the vector;
   the checksum turns a bookkeeping bug on either side into a loud
   [Corrupt] (answered with a Nak and an absolute retry) instead of a
   silently wrong reconstruction. *)
let vv_checksum vv =
  let h = ref (Vv.dimension vv) in
  for j = 0 to Vv.dimension vv - 1 do
    h := (!h * 31) + Vv.get vv j;
    h := !h land 0x3FFF_FFFF
  done;
  !h

(* ------------------------------------------------------------------ *)
(* Operations and payloads                                             *)
(* ------------------------------------------------------------------ *)

let encode_operation w (op : Operation.t) =
  match op with
  | Operation.Set v ->
    W.byte w 0;
    W.vstring w v
  | Operation.Splice { offset; data } ->
    W.byte w 1;
    (* The one zig-zag field: offsets are non-negative today, but the
       splice form is the natural home for a signed displacement and
       zig-zag keeps small values of either sign to one byte. *)
    W.svarint w offset;
    W.vstring w data

let decode_operation r =
  match R.byte r with
  | 0 -> Operation.Set (R.vstring r)
  | 1 ->
    let offset = R.svarint r in
    if offset < 0 then corrupt "negative splice offset %d" offset;
    let data = R.vstring r in
    Operation.Splice { offset; data }
  | tag -> corrupt "unknown operation tag %d" tag

let encode_payload w (payload : Message.payload) =
  match payload with
  | Message.Whole value ->
    W.byte w 0;
    W.vstring w value
  | Message.Delta ops ->
    W.byte w 1;
    W.varint w (List.length ops);
    List.iter
      (fun (dop : Message.delta_op) ->
        W.varint w dop.origin;
        W.varint w dop.seq;
        encode_operation w dop.op)
      ops

let checked_count r count what =
  (* Every element of every v2 form costs at least one byte, so a count
     beyond the unread payload is forged. Elements are decoded one by
     one (no up-front allocation), but rejecting early keeps a hostile
     count from looping millions of times over a short buffer. *)
  if count < 0 || count > R.remaining r then
    corrupt "%s count %d exceeds %d remaining payload bytes" what count
      (R.remaining r)

let decode_payload r ~n =
  match R.byte r with
  | 0 -> Message.Whole (R.vstring r)
  | 1 ->
    let count = R.varint r in
    checked_count r count "delta-op";
    Message.Delta
      (List.init count (fun _ ->
           let origin = R.varint r in
           if origin < 0 || origin >= n then
             corrupt "delta-op origin %d outside dimension %d" origin n;
           let seq = R.varint r in
           if seq < 1 then corrupt "delta-op sequence %d below 1" seq;
           let op = decode_operation r in
           { Message.origin; seq; op }))
  | tag -> corrupt "unknown payload tag %d" tag

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

let encode_shipped_item dict w (s : Message.shipped_item) =
  Dict.Writer.string dict w s.name;
  encode_payload w s.payload;
  encode_vv w s.ivv

let decode_shipped_item dict r ~n =
  let name = Dict.Reader.string dict r in
  let payload = decode_payload r ~n in
  let ivv = decode_vv r ~n in
  { Message.name; payload; ivv }

(* Tails ship sparsely: only origins whose tail is non-empty appear,
   as strictly-ascending [(origin, record count, records)] groups. A
   nearly-converged session has mostly-empty tails, which v1's dense
   [n]-slot array paid 8 bytes each for. *)
let encode_tails dict w tails =
  let nz = ref 0 in
  Array.iter (fun tail -> if tail <> [] then incr nz) tails;
  W.varint w !nz;
  Array.iteri
    (fun origin tail ->
      if tail <> [] then begin
        W.varint w origin;
        W.varint w (List.length tail);
        List.iter
          (fun (record : Edb_log.Log_record.t) ->
            Dict.Writer.string dict w record.item;
            W.varint w record.seq)
          tail
      end)
    tails

let decode_tails dict r ~n =
  let tails = Array.make n [] in
  let count = R.varint r in
  if count < 0 || count > n then
    corrupt "tail vector carries %d origins over dimension %d" count n;
  let prev = ref (-1) in
  for _ = 1 to count do
    let origin = R.varint r in
    if origin <= !prev || origin >= n then
      corrupt "tail origin %d out of order or range (dimension %d)" origin n;
    prev := origin;
    let len = R.varint r in
    checked_count r len "log-record";
    if len < 1 then corrupt "empty tail encoded for origin %d" origin;
    tails.(origin) <-
      List.init len (fun _ ->
          let item = Dict.Reader.string dict r in
          let seq = R.varint r in
          if seq < 1 then corrupt "log record sequence %d below 1" seq;
          { Edb_log.Log_record.item; seq })
  done;
  tails

let encode_items dict w items =
  W.varint w (List.length items);
  List.iter (encode_shipped_item dict w) items

let decode_items dict r ~n =
  let count = R.varint r in
  checked_count r count "shipped-item";
  List.init count (fun _ -> decode_shipped_item dict r ~n)

let encode_propagation_reply w (reply : Message.propagation_reply) =
  match reply with
  | Message.You_are_current -> W.byte w 0
  | Message.Propagate { tails; items } ->
    let dict = Dict.Writer.create ~size:(List.length items) in
    W.byte w 1;
    encode_tails dict w tails;
    encode_items dict w items
  | Message.Propagate_sharded deltas ->
    let dict =
      Dict.Writer.create
        ~size:(List.fold_left (fun acc (d : Message.shard_delta) -> acc + List.length d.items) 0 deltas)
    in
    W.byte w 2;
    W.varint w (List.length deltas);
    List.iter
      (fun (d : Message.shard_delta) ->
        W.varint w d.shard;
        encode_tails dict w d.tails;
        encode_items dict w d.items)
      deltas

let decode_propagation_reply r ~n =
  let dict = Dict.Reader.create () in
  match R.byte r with
  | 0 -> Message.You_are_current
  | 1 ->
    let tails = decode_tails dict r ~n in
    let items = decode_items dict r ~n in
    Message.Propagate { tails; items }
  | 2 ->
    let count = R.varint r in
    checked_count r count "shard-delta";
    Message.Propagate_sharded
      (List.init count (fun _ ->
           let shard = R.varint r in
           if shard < 0 then corrupt "negative shard index %d" shard;
           let tails = decode_tails dict r ~n in
           let items = decode_items dict r ~n in
           { Message.shard; tails; items }))
  | tag -> corrupt "unknown reply tag %d" tag

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let encode_propagation_request w ?baseline (req : Message.propagation_request) =
  W.varint w req.recipient;
  (match baseline with
  | Some (id, bvv)
    when Vv.dimension bvv = Vv.dimension req.recipient_dbvv
         && Vv.dominates_or_equal req.recipient_dbvv bvv ->
    W.byte w 1;
    W.varint w id;
    W.varint w (vv_checksum bvv);
    encode_vv_delta w ~baseline:bvv req.recipient_dbvv
  | Some _ | None ->
    (* No usable baseline (or one the current vector no longer
       dominates, which a rollback on our own side could produce):
       ship the absolute sparse form. *)
    W.byte w 0;
    encode_vv w req.recipient_dbvv);
  W.varint w (Array.length req.recipient_shard_dbvvs);
  Array.iter (encode_vv w) req.recipient_shard_dbvvs

let decode_propagation_request r ~n ~resolve =
  let recipient = R.varint r in
  if recipient < 0 then corrupt "negative recipient id %d" recipient;
  let recipient_dbvv, used_baseline =
    match R.byte r with
    | 0 -> (decode_vv r ~n, None)
    | 1 ->
      let id = R.varint r in
      if id < 1 then corrupt "delta baseline id %d below 1" id;
      let sum = R.varint r in
      (match resolve id with
      | None -> corrupt "unknown delta baseline id %d" id
      | Some bvv ->
        if Vv.dimension bvv <> n then
          corrupt "delta baseline id %d has dimension %d, expected %d" id
            (Vv.dimension bvv) n;
        if vv_checksum bvv <> sum then
          corrupt "delta baseline id %d checksum mismatch" id;
        (decode_vv_delta r ~baseline:bvv, Some id))
    | tag -> corrupt "unknown request-DBVV tag %d" tag
  in
  let shard_count = R.varint r in
  checked_count r shard_count "shard-DBVV";
  let recipient_shard_dbvvs =
    Array.init shard_count (fun _ -> decode_vv r ~n)
  in
  ({ Message.recipient; recipient_dbvv; recipient_shard_dbvvs }, used_baseline)

(* ------------------------------------------------------------------ *)
(* Push batches (best-effort realtime stream)                          *)
(* ------------------------------------------------------------------ *)

let encode_push w updates =
  let dict = Dict.Writer.create ~size:(List.length updates) in
  W.varint w (List.length updates);
  List.iter
    (fun (u : Message.push_update) ->
      Dict.Writer.string dict w u.item;
      W.varint w u.seq;
      encode_vv w u.ivv;
      W.vstring w u.value)
    updates

let decode_push r ~n =
  let dict = Dict.Reader.create () in
  let count = R.varint r in
  checked_count r count "push-update";
  List.init count (fun _ ->
      let item = Dict.Reader.string dict r in
      let seq = R.varint r in
      if seq < 1 then corrupt "push-update sequence %d below 1" seq;
      let ivv = decode_vv r ~n in
      let value = R.vstring r in
      { Message.item; seq; ivv; value })
