module Node = Edb_core.Node
module Vv = Edb_vv.Version_vector
module Item = Edb_store.Item

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

(* The file image is {!Codec}'s framing, twice: the file is the codec
   blob of [magic; version; payload checksum; payload], the last two
   written by {!Codec.Writer.sealed}, and the payload is the codec blob
   of the node state. Every integer is 64-bit little-endian and every
   string length-prefixed, so a well-formed image is
     [0, 16)               magic length (8) and magic
     [16, 24)              format version
     [24, 32)              Adler-32 of the payload
     [32, 40)              payload length = body length + 4
     [40, 40 + body)       payload body: the node state
     4 bytes               payload trailer: Adler-32 of the body
     4 bytes               file trailer: Adler-32 of everything before it *)
let header_len = 40

(* ---------- encoding: straight from the node ---------- *)

let put_item w (it : Item.t) =
  Codec.Writer.string w it.name;
  Codec.Writer.string w it.value;
  Wire.encode_vv w it.ivv

(* The payload body: id, n, then each shard's items, DBVV, log vector
   (n components), aux items and aux log, all count-prefixed. Only a
   sharded node (v3) writes its shard count, so a flat body is exactly
   the pre-sharding byte stream. *)
let put_node w node =
  let n = Node.dimension node in
  Codec.Writer.int w (Node.id node);
  Codec.Writer.int w n;
  let shards = Node.shards node in
  if shards > 1 then Codec.Writer.int w shards;
  for s = 0 to shards - 1 do
    Node.visit_shard node s
      {
        items = Codec.Writer.int w;
        item = put_item w;
        dbvv = Wire.encode_vv w;
        log =
          (fun ~origin count ->
            if origin = 0 then Codec.Writer.int w n;
            Codec.Writer.int w count);
        record = (fun ~origin:_ r -> Wire.encode_log_record w r);
        aux_items = Codec.Writer.int w;
        aux_item = put_item w;
        aux_log = Codec.Writer.int w;
        aux_record =
          (fun r ->
            Codec.Writer.string w r.item;
            Wire.encode_vv w r.ivv;
            Wire.encode_operation w r.op);
      }
  done

(* Two walks of the node, one measuring and one writing into the
   exactly sized image; one checksum pass over the body gives all three
   sums. *)
let encode node =
  Codec.Writer.exact (fun w ->
      Codec.Writer.string w magic;
      Codec.Writer.int w (if Node.shards node = 1 then version_flat else version_sharded);
      (* Explicit payload checksum on top of the codec's whole-blob
         trailer: a flipped bit in the node state is reported as state
         corruption rather than a generic framing error, and the
         payload stays verifiable even if re-framed. *)
      Codec.Writer.sealed w (fun w -> put_node w node))

(* ---------- decoding: straight into the node ---------- *)

(* [decode]'s three checks sum, in a well-formed image of [total]
   bytes, [0, total - 4) (file trailer), [40, total - 4) (payload
   guard) and [40, total - 8) (payload trailer). One pass over the body
   and two combines give all three. Any other range — which only a
   malformed image makes the checks ask for — is summed directly, so
   every verdict is the one three separate passes would give. *)
let range_sums blob =
  let body_end = String.length blob - 8 in
  let direct ~off ~len = Codec.adler32 ~off ~len blob in
  if body_end < header_len then direct
  else begin
    let body = direct ~off:header_len ~len:(body_end - header_len) in
    let payload = Codec.adler32_combine body (direct ~off:body_end ~len:4) 4 in
    fun ~off ~len ->
      let stop = off + len in
      if off = header_len && stop = body_end then body
      else if off = header_len && stop = body_end + 4 then payload
      else if off = 0 && stop = body_end + 4 then
        Codec.adler32_combine (direct ~off:0 ~len:header_len) payload (len - header_len)
      else direct ~off ~len
  end

let decode_vv r =
  let len = Codec.Reader.count r in
  Vv.init len (fun _ -> Codec.Reader.int r)

let decode_shard b ~n r =
  let items = Codec.Reader.count r in
  Node.Restore.shard b ~items;
  for _ = 1 to items do
    let name = Codec.Reader.string r in
    let value = Codec.Reader.string r in
    Node.Restore.item b ~name ~value ~ivv:(decode_vv r)
  done;
  let dbvv = decode_vv r in
  if Vv.dimension dbvv <> n || Codec.Reader.count r <> n then
    raise (Codec.Reader.Corrupt "shard vector dimension mismatch");
  Node.Restore.dbvv b dbvv;
  for origin = 0 to n - 1 do
    let records = Codec.Reader.count r in
    Node.Restore.log b ~origin ~records;
    for _ = 1 to records do
      let item = Codec.Reader.string r in
      Node.Restore.record b ~item ~seq:(Codec.Reader.int r)
    done
  done;
  for _ = 1 to Codec.Reader.count r do
    let name = Codec.Reader.string r in
    let value = Codec.Reader.string r in
    Node.Restore.aux_item b ~name ~value ~ivv:(decode_vv r)
  done;
  for _ = 1 to Codec.Reader.count r do
    let item = Codec.Reader.string r in
    let ivv = decode_vv r in
    Node.Restore.aux_record b ~item ~ivv ~op:(Wire.decode_operation r)
  done

let decode_payload ?policy ?conflict_handler ?mode ~version r =
  let id = Codec.Reader.int r in
  let n = Codec.Reader.int r in
  (* Every shard spends at least 16 bytes per origin on its DBVV and
     log counts: a larger claim is forged, and must not reach the
     allocator. *)
  if n < 1 || n > Codec.Reader.remaining r / 16 then
    raise (Codec.Reader.Corrupt (Printf.sprintf "bad dimension %d" n));
  let b = Node.Restore.create ~n in
  if version = version_flat then decode_shard b ~n r
  else begin
    let count = Codec.Reader.count r in
    if count < 1 then raise (Codec.Reader.Corrupt "bad shard count");
    for _ = 1 to count do
      decode_shard b ~n r
    done
  end;
  Codec.Reader.expect_end r;
  Node.Restore.finish ?policy ?conflict_handler ?mode b ~id

let decode ?policy ?conflict_handler ?mode blob =
  match
    let checksum = range_sums blob in
    let r = Codec.Reader.create ~checksum blob in
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
    let off, len = Codec.Reader.string_in_place r in
    Codec.Reader.expect_end r;
    (* Explicit payload checksum on top of the codec's whole-blob
       trailer: a flipped bit in the node state is reported as state
       corruption rather than a generic framing error. *)
    let computed = checksum ~off ~len in
    if stored <> computed then
      raise
        (Codec.Reader.Corrupt
           (Printf.sprintf "payload checksum mismatch (stored %#x, computed %#x)"
              stored computed));
    decode_payload ?policy ?conflict_handler ?mode ~version
      (Codec.Reader.create ~off ~len ~checksum blob)
  with
  | node -> Ok node
  | exception Codec.Reader.Corrupt msg -> Error ("corrupt snapshot: " ^ msg)
  | exception Invalid_argument msg -> Error ("inconsistent snapshot: " ^ msg)

let write node ~path =
  let blob = encode node in
  let oc = open_out_bin path in
  try
    output_string oc blob;
    close_out oc;
    String.length blob
  with e ->
    close_out_noerr oc;
    raise e

let save node ~path =
  let tmp = path ^ ".tmp" in
  let (_ : int) = write node ~path:tmp in
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
