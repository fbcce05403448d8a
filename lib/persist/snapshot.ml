module Node = Edb_core.Node

(* Bump when the layout changes; decode refuses newer/older layouts
   explicitly rather than misparsing them. v2 wraps the payload in an
   explicit Adler-32 so corruption of the node state is reported as
   such, distinctly from damage to the file framing. v3 adds a shard
   count and per-shard sections; an unsharded node still writes v2, so
   its snapshots stay byte-identical to the pre-sharding format and
   old snapshots keep loading as single-shard nodes. *)
let version_flat = 2

let version_sharded = 3

let magic = "EDBSNAP1"

let encode_operation = Wire.encode_operation

let decode_operation = Wire.decode_operation

let encode_item w (item : Node.State.item) =
  Codec.Writer.string w item.name;
  Codec.Writer.string w item.value;
  Codec.Writer.array w Codec.Writer.int item.ivv

let decode_item r =
  let name = Codec.Reader.string r in
  let value = Codec.Reader.string r in
  let ivv = Codec.Reader.array r Codec.Reader.int in
  { Node.State.name; value; ivv }

let encode_log_record w (item, seq) =
  Codec.Writer.string w item;
  Codec.Writer.int w seq

let decode_log_record r =
  let item = Codec.Reader.string r in
  let seq = Codec.Reader.int r in
  (item, seq)

let encode_aux_record w (record : Node.State.aux_record) =
  Codec.Writer.string w record.item;
  Codec.Writer.array w Codec.Writer.int record.ivv;
  encode_operation w record.op

let decode_aux_record r =
  let item = Codec.Reader.string r in
  let ivv = Codec.Reader.array r Codec.Reader.int in
  let op = decode_operation r in
  { Node.State.item; ivv; op }

let encode_shard w (shard : Node.State.shard) =
  Codec.Writer.list w encode_item shard.items;
  Codec.Writer.array w Codec.Writer.int shard.dbvv;
  Codec.Writer.array w
    (fun w records -> Codec.Writer.list w encode_log_record records)
    shard.logs;
  Codec.Writer.list w encode_item shard.aux_items;
  Codec.Writer.list w encode_aux_record shard.aux_log

let decode_shard ~n r =
  let items = Codec.Reader.list r decode_item in
  let dbvv = Codec.Reader.array r Codec.Reader.int in
  let logs = Codec.Reader.array r (fun r -> Codec.Reader.list r decode_log_record) in
  let aux_items = Codec.Reader.list r decode_item in
  let aux_log = Codec.Reader.list r decode_aux_record in
  if Array.length dbvv <> n || Array.length logs <> n then
    raise (Codec.Reader.Corrupt "shard vector dimension mismatch");
  { Node.State.items; dbvv; logs; aux_items; aux_log }

let encode_payload (state : Node.State.t) =
  Codec.Writer.with_scratch (fun w ->
      Codec.Writer.int w state.Node.State.id;
      Codec.Writer.int w state.n;
      if Array.length state.shards = 1 then
        (* The flat v2 body: exactly the pre-sharding byte stream. *)
        encode_shard w state.shards.(0)
      else begin
        Codec.Writer.int w (Array.length state.shards);
        Array.iter (encode_shard w) state.shards
      end;
      Codec.Writer.contents w)

let encode node =
  let state = Node.export_state node in
  let payload = encode_payload state in
  let format_version =
    if Array.length state.Node.State.shards = 1 then version_flat
    else version_sharded
  in
  Codec.Writer.with_scratch (fun w ->
      Codec.Writer.string w magic;
      Codec.Writer.int w format_version;
      (* Explicit payload checksum on top of the codec's whole-blob
         trailer: a flipped bit in the node state is reported as state
         corruption rather than a generic framing error, and the
         payload stays verifiable even if re-framed. *)
      Codec.Writer.int w (Codec.adler32 payload);
      Codec.Writer.string w payload;
      Codec.Writer.contents w)

let decode_payload ?policy ?conflict_handler ?mode ~version payload =
  let r = Codec.Reader.create payload in
  let id = Codec.Reader.int r in
  let n = Codec.Reader.int r in
  let shards =
    if version = version_flat then [| decode_shard ~n r |]
    else begin
      let count = Codec.Reader.int r in
      if count < 1 then raise (Codec.Reader.Corrupt "bad shard count");
      Array.init count (fun _ -> decode_shard ~n r)
    end
  in
  Codec.Reader.expect_end r;
  Node.import_state ?policy ?conflict_handler ?mode { Node.State.id; n; shards }

let decode ?policy ?conflict_handler ?mode blob =
  match
    let r = Codec.Reader.create blob in
    let file_magic = Codec.Reader.string r in
    if not (String.equal file_magic magic) then
      raise (Codec.Reader.Corrupt (Printf.sprintf "bad magic %S" file_magic));
    let version = Codec.Reader.int r in
    if version <> version_flat && version <> version_sharded then
      raise
        (Codec.Reader.Corrupt
           (Printf.sprintf "unsupported snapshot version %d (expected %d or %d)"
              version version_flat version_sharded));
    let stored = Codec.Reader.int r in
    let payload = Codec.Reader.string r in
    Codec.Reader.expect_end r;
    let computed = Codec.adler32 payload in
    if stored <> computed then
      raise
        (Codec.Reader.Corrupt
           (Printf.sprintf "payload checksum mismatch (stored %#x, computed %#x)"
              stored computed));
    decode_payload ?policy ?conflict_handler ?mode ~version payload
  with
  | node -> Ok node
  | exception Codec.Reader.Corrupt msg -> Error ("corrupt snapshot: " ^ msg)
  | exception Invalid_argument msg -> Error ("inconsistent snapshot: " ^ msg)

let save node ~path =
  let blob = encode node in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc blob;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  Sys.rename tmp path

let load ?policy ?conflict_handler ?mode ~path () =
  match open_in_bin path with
  | exception Sys_error msg -> Error ("cannot open snapshot: " ^ msg)
  | ic ->
    let read () =
      let len = in_channel_length ic in
      really_input_string ic len
    in
    (match read () with
    | blob ->
      close_in ic;
      decode ?policy ?conflict_handler ?mode blob
    | exception e ->
      close_in_noerr ic;
      Error ("cannot read snapshot: " ^ Printexc.to_string e))
