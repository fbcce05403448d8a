module Operation = Edb_store.Operation
module Vv = Edb_vv.Version_vector
module Message = Edb_core.Message

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Codec.Reader.Corrupt msg)) fmt

let encode_operation w (op : Operation.t) =
  match op with
  | Operation.Set v ->
    Codec.Writer.int w 0;
    Codec.Writer.string w v
  | Operation.Splice { offset; data } ->
    Codec.Writer.int w 1;
    Codec.Writer.int w offset;
    Codec.Writer.string w data

let decode_operation r =
  match Codec.Reader.int r with
  | 0 -> Operation.Set (Codec.Reader.string r)
  | 1 ->
    let offset = Codec.Reader.int r in
    if offset < 0 then corrupt "negative splice offset %d" offset;
    let data = Codec.Reader.string r in
    Operation.Splice { offset; data }
  | tag -> corrupt "unknown operation tag %d" tag

(* [Codec.Writer.array]'s layout, written without copying the vector
   to an array. *)
let encode_vv w vv =
  let n = Vv.dimension vv in
  Codec.Writer.int w n;
  for j = 0 to n - 1 do
    Codec.Writer.int w (Vv.get vv j)
  done

let decode_vv r =
  let a =
    Codec.Reader.array r (fun r ->
        let v = Codec.Reader.int r in
        if v < 0 then corrupt "negative version-vector component %d" v;
        v)
  in
  if Array.length a = 0 then corrupt "empty version vector";
  Vv.of_array a

let encode_log_record w (record : Edb_log.Log_record.t) =
  Codec.Writer.string w record.item;
  Codec.Writer.int w record.seq

let decode_log_record r =
  let item = Codec.Reader.string r in
  let seq = Codec.Reader.int r in
  if seq < 1 then corrupt "log record sequence %d below 1" seq;
  { Edb_log.Log_record.item; seq }

let encode_payload w (payload : Message.payload) =
  match payload with
  | Message.Whole value ->
    Codec.Writer.int w 0;
    Codec.Writer.string w value
  | Message.Delta ops ->
    Codec.Writer.int w 1;
    Codec.Writer.list w
      (fun w (dop : Message.delta_op) ->
        Codec.Writer.int w dop.origin;
        Codec.Writer.int w dop.seq;
        encode_operation w dop.op)
      ops

let decode_payload r =
  match Codec.Reader.int r with
  | 0 -> Message.Whole (Codec.Reader.string r)
  | 1 ->
    let decode_delta_op r =
      let origin = Codec.Reader.int r in
      if origin < 0 then corrupt "negative delta-op origin %d" origin;
      let seq = Codec.Reader.int r in
      if seq < 1 then corrupt "delta-op sequence %d below 1" seq;
      let op = decode_operation r in
      { Message.origin; seq; op }
    in
    Message.Delta (Codec.Reader.list r decode_delta_op)
  | tag -> corrupt "unknown payload tag %d" tag

let encode_shipped_item w (s : Message.shipped_item) =
  Codec.Writer.string w s.name;
  encode_payload w s.payload;
  encode_vv w s.ivv

let decode_shipped_item r =
  let name = Codec.Reader.string r in
  let payload = decode_payload r in
  let ivv = decode_vv r in
  { Message.name; payload; ivv }

let encode_propagation_reply w (reply : Message.propagation_reply) =
  match reply with
  | Message.You_are_current -> Codec.Writer.int w 0
  | Message.Propagate { tails; items } ->
    Codec.Writer.int w 1;
    Codec.Writer.array w
      (fun w records -> Codec.Writer.list w encode_log_record records)
      tails;
    Codec.Writer.list w encode_shipped_item items

  | Message.Propagate_sharded deltas ->
    Codec.Writer.int w 2;
    Codec.Writer.list w
      (fun w (d : Message.shard_delta) ->
        Codec.Writer.int w d.shard;
        Codec.Writer.array w
          (fun w records -> Codec.Writer.list w encode_log_record records)
          d.tails;
        Codec.Writer.list w encode_shipped_item d.items)
      deltas

let decode_propagation_reply r =
  match Codec.Reader.int r with
  | 0 -> Message.You_are_current
  | 1 ->
    let tails = Codec.Reader.array r (fun r -> Codec.Reader.list r decode_log_record) in
    let items = Codec.Reader.list r decode_shipped_item in
    Message.Propagate { tails; items }
  | 2 ->
    let decode_shard_delta r =
      let shard = Codec.Reader.int r in
      if shard < 0 then corrupt "negative shard index %d" shard;
      let tails =
        Codec.Reader.array r (fun r -> Codec.Reader.list r decode_log_record)
      in
      let items = Codec.Reader.list r decode_shipped_item in
      { Message.shard; tails; items }
    in
    Message.Propagate_sharded (Codec.Reader.list r decode_shard_delta)
  | tag -> corrupt "unknown reply tag %d" tag

(* The request never travels through the WAL or a snapshot — sessions
   are not journaled from the requesting side — so this codec is new
   with the framed transports and has no pinned-fixture constraint.
   Still fixed-width, like every v1 form. *)
let encode_propagation_request w (req : Message.propagation_request) =
  Codec.Writer.int w req.recipient;
  encode_vv w req.recipient_dbvv;
  Codec.Writer.array w (fun w vv -> encode_vv w vv) req.recipient_shard_dbvvs

let decode_propagation_request r =
  let recipient = Codec.Reader.int r in
  let recipient_dbvv = decode_vv r in
  let recipient_shard_dbvvs = Codec.Reader.array r decode_vv in
  { Message.recipient; recipient_dbvv; recipient_shard_dbvvs }
