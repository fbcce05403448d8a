(* Adler-32 (RFC 1950): simple, fast, and good enough to catch the
   truncation/corruption failure modes a snapshot file or journal frame
   meets. The sums are reduced once per [nmax]-byte block rather than
   per byte: 5552 is zlib's NMAX, the largest block after which [b]
   cannot exceed 2^32 even if every byte is 0xFF, so the output is the
   per-byte reduction's bit for bit (OCaml's 63-bit ints would allow
   more, but the bound keeps the argument the standard one). *)
let adler_modulus = 65_521

let adler_nmax = 5_552

(* The kernel reads [Bytes] so {!Writer.contents} can checksum its
   output buffer before the trailer goes in; strings reach it read-only
   through [Bytes.unsafe_of_string]. *)
let adler32_bytes data ~off ~len =
  let a = ref 1 and b = ref 0 in
  let pos = ref off in
  let stop = off + len in
  while !pos < stop do
    let block_end = min stop (!pos + adler_nmax) in
    (* Four bytes per iteration: b gains 4a + 4c0 + 3c1 + 2c2 + c3. *)
    let i = ref !pos in
    while !i + 4 <= block_end do
      let c0 = Char.code (Bytes.unsafe_get data !i) in
      let c1 = Char.code (Bytes.unsafe_get data (!i + 1)) in
      let c2 = Char.code (Bytes.unsafe_get data (!i + 2)) in
      let c3 = Char.code (Bytes.unsafe_get data (!i + 3)) in
      b := !b + (4 * !a) + (4 * c0) + (3 * c1) + (2 * c2) + c3;
      a := !a + c0 + c1 + c2 + c3;
      i := !i + 4
    done;
    while !i < block_end do
      a := !a + Char.code (Bytes.unsafe_get data !i);
      b := !b + !a;
      incr i
    done;
    a := !a mod adler_modulus;
    b := !b mod adler_modulus;
    pos := block_end
  done;
  (!b lsl 16) lor !a

let adler32 ?(off = 0) ?len data =
  let len = match len with Some l -> l | None -> String.length data - off in
  if off < 0 || len < 0 || off > String.length data - len then
    invalid_arg "Codec.adler32: range outside the string";
  adler32_bytes (Bytes.unsafe_of_string data) ~off ~len

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 4_096

  (* One reusable scratch buffer per domain, so encode-heavy paths
     (snapshots, manifests, WAL batches) stop allocating a fresh 4KB+
     buffer per call. Domain-local storage keeps the parallel
     anti-entropy fan-out race-free; the in-use flag makes nested
     [with_scratch] calls fall back to a fresh buffer instead of
     clobbering the outer one. *)
  let scratch_key =
    Domain.DLS.new_key (fun () -> (Buffer.create 65_536, ref false))

  let with_scratch f =
    let buf, in_use = Domain.DLS.get scratch_key in
    if !in_use then f (create ())
    else begin
      in_use := true;
      Buffer.clear buf;
      Fun.protect ~finally:(fun () -> in_use := false) (fun () -> f buf)
    end

  let int t v = Buffer.add_int64_le t (Int64.of_int v)

  let string t s =
    int t (String.length s);
    Buffer.add_string t s

  let bool t v = Buffer.add_char t (if v then '\001' else '\000')

  let byte t v =
    if v < 0 || v > 0xFF then invalid_arg "Codec.Writer.byte: out of range";
    Buffer.add_char t (Char.unsafe_chr v)

  (* LEB128. [lsr] is a logical shift, so a negative int (top bit set in
     OCaml's 63-bit representation) terminates after at most 9 groups —
     it round-trips as the same 63-bit pattern, it just costs 9 bytes.
     Sane wire fields are non-negative and small, which is the point. *)
  let rec varint t v =
    if v land lnot 0x7F = 0 then Buffer.add_char t (Char.unsafe_chr v)
    else begin
      Buffer.add_char t (Char.unsafe_chr (v land 0x7F lor 0x80));
      varint t (v lsr 7)
    end

  (* Zig-zag for the few genuinely signed fields: small magnitudes of
     either sign stay short. *)
  let svarint t v = varint t ((v lsl 1) lxor (v asr 62))

  let vstring t s =
    varint t (String.length s);
    Buffer.add_string t s

  let list t encode xs =
    int t (List.length xs);
    List.iter (encode t) xs

  let array t encode xs =
    int t (Array.length xs);
    Array.iter (encode t) xs

  (* One copy: the payload is blitted into the result, which is then
     checksummed in place. *)
  let contents t =
    let len = Buffer.length t in
    let out = Bytes.create (len + 4) in
    Buffer.blit t 0 out 0 len;
    Bytes.set_int32_le out len (Int32.of_int (adler32_bytes out ~off:0 ~len));
    Bytes.unsafe_to_string out
end

module Reader = struct
  type t = { data : string; limit : int; mutable pos : int }

  exception Corrupt of string

  let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

  let create data =
    let len = String.length data in
    if len < 4 then corrupt "snapshot shorter than its checksum trailer";
    let payload_len = len - 4 in
    let stored =
      Int32.to_int (String.get_int32_le data payload_len) land 0xFFFFFFFF
    in
    let actual = adler32 ~len:payload_len data in
    if stored <> actual then
      corrupt "checksum mismatch: stored %08x, computed %08x" stored actual;
    { data; limit = payload_len; pos = 0 }

  (* [t.limit - t.pos] cannot overflow, so comparing against it (rather
     than computing [t.pos + n], which can wrap for a hostile length)
     keeps a forged 2^62-byte claim from slipping past the bound. *)
  let need t n =
    if n < 0 || n > t.limit - t.pos then
      corrupt "truncated payload: need %d bytes at offset %d, have %d" n t.pos
        (t.limit - t.pos)

  let int t =
    need t 8;
    let v = Int64.to_int (String.get_int64_le t.data t.pos) in
    t.pos <- t.pos + 8;
    v

  let string t =
    let len = int t in
    if len < 0 then corrupt "negative string length";
    need t len;
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let bool t =
    need t 1;
    let c = t.data.[t.pos] in
    t.pos <- t.pos + 1;
    match c with
    | '\000' -> false
    | '\001' -> true
    | other -> corrupt "invalid boolean byte %C" other

  let bounded_count t len what =
    if len < 0 then corrupt "negative %s length" what;
    (* Every element of every format encodes to at least one byte, so a
       count exceeding the remaining payload is forged — reject it here
       instead of letting [List.init]/[Array.init] attempt a giant
       allocation before the per-element reads run out of bytes. *)
    if len > t.limit - t.pos then
      corrupt "%s length %d exceeds %d remaining payload bytes" what len
        (t.limit - t.pos)

  let list t decode =
    let len = int t in
    bounded_count t len "list";
    List.init len (fun _ -> decode t)

  let array t decode =
    let len = int t in
    bounded_count t len "array";
    Array.init len (fun _ -> decode t)

  let byte t =
    need t 1;
    let c = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    c

  let varint t =
    let rec loop shift acc =
      if shift > 56 then corrupt "varint longer than 9 bytes"
      else begin
        need t 1;
        let b = Char.code t.data.[t.pos] in
        t.pos <- t.pos + 1;
        let acc = acc lor ((b land 0x7F) lsl shift) in
        if b land 0x80 = 0 then acc else loop (shift + 7) acc
      end
    in
    loop 0 0

  let svarint t =
    let u = varint t in
    (u lsr 1) lxor (- (u land 1))

  let vstring t =
    let len = varint t in
    need t len;
    let s = String.sub t.data t.pos len in
    t.pos <- t.pos + len;
    s

  let remaining t = t.limit - t.pos

  let expect_end t =
    if t.pos <> t.limit then
      corrupt "trailing garbage: %d unread payload bytes" (t.limit - t.pos)
end
