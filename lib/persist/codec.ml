(* Adler-32 (RFC 1950): simple, fast, and good enough to catch the
   truncation/corruption failure modes a snapshot file or journal frame
   meets. The sums are reduced once per [nmax]-byte block rather than
   per byte: 5552 is zlib's NMAX, the largest block after which [b]
   cannot exceed 2^32 even if every byte is 0xFF, so the output is the
   per-byte reduction's bit for bit (OCaml's 63-bit ints would allow
   more, but the bound keeps the argument the standard one). *)
let adler_modulus = 65_521

let adler_nmax = 5_552

(* The kernel reads [Bytes] so {!Writer} can checksum its buffer before
   the trailer goes in; strings reach it read-only through
   [Bytes.unsafe_of_string]. *)
let adler32_bytes data ~off ~len =
  let a = ref 1 and b = ref 0 in
  let pos = ref off in
  let stop = off + len in
  while !pos < stop do
    let block_end = min stop (!pos + adler_nmax) in
    (* Eight bytes per iteration. With p_k the sum of the first k + 1
       of them, a gains p7 and b gains 8a + p0 + ... + p7, which is
       8a + 8c0 + 7c1 + ... + c7: the per-byte steps, summed. *)
    let i = ref !pos in
    while !i + 8 <= block_end do
      let j = !i in
      let p0 = Char.code (Bytes.unsafe_get data j) in
      let p1 = p0 + Char.code (Bytes.unsafe_get data (j + 1)) in
      let p2 = p1 + Char.code (Bytes.unsafe_get data (j + 2)) in
      let p3 = p2 + Char.code (Bytes.unsafe_get data (j + 3)) in
      let p4 = p3 + Char.code (Bytes.unsafe_get data (j + 4)) in
      let p5 = p4 + Char.code (Bytes.unsafe_get data (j + 5)) in
      let p6 = p5 + Char.code (Bytes.unsafe_get data (j + 6)) in
      let p7 = p6 + Char.code (Bytes.unsafe_get data (j + 7)) in
      b := !b + (8 * !a) + p0 + p1 + p2 + p3 + p4 + p5 + p6 + p7;
      a := !a + p7;
      i := j + 8
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

(* zlib's adler32_combine. Over a concatenation [x ^ y] the sums are
   a(xy) = a(x) + a(y) - 1 and b(xy) = b(x) + b(y) + |y| (a(x) - 1),
   both mod 65521 (the [- 1] removes the initial 1 that [y]'s own [a]
   started from). Adding one modulus keeps every operand
   non-negative. *)
let adler32_combine sum1 sum2 len2 =
  if len2 < 0 then invalid_arg "Codec.adler32_combine: negative length";
  let a1 = sum1 land 0xFFFF and b1 = sum1 lsr 16 in
  let a2 = sum2 land 0xFFFF and b2 = sum2 lsr 16 in
  let a = (a1 + a2 + adler_modulus - 1) mod adler_modulus in
  let b =
    (b1 + b2 + (len2 mod adler_modulus * (a1 + adler_modulus - 1))) mod adler_modulus
  in
  (b lsl 16) lor a

module Writer = struct
  (* [Grow]: a buffer that doubles as needed ({!create},
     {!with_scratch}). [Measure]: stores nothing and only counts, so a
     walk can size its output before [Exact] writes it. [Exact]: a
     buffer of the measured size plus the trailer, filled in place and
     returned without a copy ({!exact}). *)
  type kind = Grow | Measure | Exact

  type t = {
    kind : kind;
    mutable buf : Bytes.t;
    mutable pos : int;
    (* [(off, len, sum)] of each {!sealed} blob, newest first: a
       checksum over a range holding one combines its sum instead of
       re-reading its bytes. *)
    mutable sealed_sums : (int * int * int) list;
  }

  let make kind buf = { kind; buf; pos = 0; sealed_sums = [] }

  let create () = make Grow (Bytes.create 4_096)

  (* One reusable scratch writer per domain, so encode-heavy paths
     (manifests, WAL batches) stop allocating a fresh 4KB+ buffer per
     call. Domain-local storage keeps the parallel anti-entropy fan-out
     race-free; the in-use flag makes nested [with_scratch] calls fall
     back to a fresh writer instead of clobbering the outer one. *)
  let scratch_key =
    Domain.DLS.new_key (fun () -> (make Grow (Bytes.create 65_536), ref false))

  let with_scratch f =
    let t, in_use = Domain.DLS.get scratch_key in
    if !in_use then f (create ())
    else begin
      in_use := true;
      t.pos <- 0;
      t.sealed_sums <- [];
      Fun.protect ~finally:(fun () -> in_use := false) (fun () -> f t)
    end

  let grow t need =
    let cap = ref (max 16 (Bytes.length t.buf)) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let buf = Bytes.create !cap in
    Bytes.blit t.buf 0 buf 0 t.pos;
    t.buf <- buf

  let make_room t n =
    match t.kind with
    | Measure -> false
    | Exact -> invalid_arg "Codec.Writer.exact: a run wrote past the measured size"
    | Grow ->
      grow t (t.pos + n);
      true

  (* Whether the [n] bytes at [t.pos] are to be stored, after making
     room for them in a growing writer. Every caller advances [t.pos]
     by [n] either way, so a measuring writer, whose buffer is empty,
     counts exactly what the others store. *)
  let room t n = t.pos + n <= Bytes.length t.buf || make_room t n

  let char t c =
    if room t 1 then Bytes.set t.buf t.pos c;
    t.pos <- t.pos + 1

  let bytes t s =
    let len = String.length s in
    if room t len then Bytes.blit_string s 0 t.buf t.pos len;
    t.pos <- t.pos + len

  let int t v =
    if room t 8 then Bytes.set_int64_le t.buf t.pos (Int64.of_int v);
    t.pos <- t.pos + 8

  let string t s =
    int t (String.length s);
    bytes t s

  let blit t s ~off ~len =
    if room t len then Bytes.blit_string s off t.buf t.pos len;
    t.pos <- t.pos + len

  let bool t v = char t (if v then '\001' else '\000')

  let byte t v =
    if v < 0 || v > 0xFF then invalid_arg "Codec.Writer.byte: out of range";
    char t (Char.unsafe_chr v)

  (* LEB128. [lsr] is a logical shift, so a negative int (top bit set in
     OCaml's 63-bit representation) terminates after at most 9 groups —
     it round-trips as the same 63-bit pattern, it just costs 9 bytes.
     Sane wire fields are non-negative and small, which is the point. *)
  let rec varint t v =
    if v land lnot 0x7F = 0 then char t (Char.unsafe_chr v)
    else begin
      char t (Char.unsafe_chr (v land 0x7F lor 0x80));
      varint t (v lsr 7)
    end

  (* Zig-zag for the few genuinely signed fields: small magnitudes of
     either sign stay short. *)
  let svarint t v = varint t ((v lsl 1) lxor (v asr 62))

  let vstring t s =
    varint t (String.length s);
    bytes t s

  let list t encode xs =
    int t (List.length xs);
    List.iter (encode t) xs

  let array t encode xs =
    int t (Array.length xs);
    Array.iter (encode t) xs

  (* The Adler-32 of [start, t.pos), with the sums of the sealed blobs
     inside it combined rather than re-read, and the sealed sums
     before [start]. *)
  let sum_since t start =
    let rec split inner = function
      | ((off, _, _) as blob) :: rest when off >= start -> split (blob :: inner) rest
      | outer -> (inner, outer)
    in
    let inner, outer = split [] t.sealed_sums in
    let step (sum, pos) (off, len, blob) =
      let gap = adler32_bytes t.buf ~off:pos ~len:(off - pos) in
      (adler32_combine (adler32_combine sum gap (off - pos)) blob len, off + len)
    in
    let sum, pos = List.fold_left step (1, start) inner in
    let tail = adler32_bytes t.buf ~off:pos ~len:(t.pos - pos) in
    (adler32_combine sum tail (t.pos - pos), outer)

  (* Appends the 4-byte trailer of [start, t.pos), which makes that
     range a codec blob in place, and gives the blob's own sum (none
     when measuring). *)
  let seal t start =
    let sum =
      if not (room t 4) then None
      else begin
        let body, outer = sum_since t start in
        Bytes.set_int32_le t.buf t.pos (Int32.of_int body);
        t.sealed_sums <- outer;
        Some (adler32_combine body (adler32_bytes t.buf ~off:t.pos ~len:4) 4)
      end
    in
    t.pos <- t.pos + 4;
    sum

  let sealed t f =
    let sum_at = t.pos in
    int t 0;
    let len_at = t.pos in
    int t 0;
    let start = t.pos in
    f t;
    match seal t start with
    | None -> ()
    | Some sum ->
      let len = t.pos - start in
      Bytes.set_int64_le t.buf sum_at (Int64.of_int sum);
      Bytes.set_int64_le t.buf len_at (Int64.of_int len);
      t.sealed_sums <- (start, len, sum) :: t.sealed_sums

  (* One copy: the payload is blitted into the result after it is
     checksummed where it lies. *)
  let contents t =
    if t.kind <> Grow then invalid_arg "Codec.Writer.contents: not a growing writer";
    let len = t.pos in
    let sum, _ = sum_since t 0 in
    let out = Bytes.create (len + 4) in
    Bytes.blit t.buf 0 out 0 len;
    Bytes.set_int32_le out len (Int32.of_int sum);
    Bytes.unsafe_to_string out

  let exact f =
    let measure = make Measure Bytes.empty in
    f measure;
    let t = make Exact (Bytes.create (measure.pos + 4)) in
    f t;
    if t.pos <> measure.pos then
      invalid_arg "Codec.Writer.exact: the two runs wrote different lengths";
    ignore (seal t 0 : int option);
    (* [t] is dropped here: the bytes are never mutated again. *)
    Bytes.unsafe_to_string t.buf
end

module Reader = struct
  type t = { data : string; limit : int; mutable pos : int }

  exception Corrupt of string

  let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

  let create ?(off = 0) ?len ?checksum data =
    let len = match len with Some l -> l | None -> String.length data - off in
    if off < 0 || len < 0 || off > String.length data - len then
      invalid_arg "Codec.Reader.create: range outside the string";
    if len < 4 then corrupt "snapshot shorter than its checksum trailer";
    let payload_len = len - 4 in
    let limit = off + payload_len in
    let stored = Int32.to_int (String.get_int32_le data limit) land 0xFFFFFFFF in
    let actual =
      match checksum with
      | Some sum -> sum ~off ~len:payload_len
      | None -> adler32 ~off ~len:payload_len data
    in
    if stored <> actual then
      corrupt "checksum mismatch: stored %08x, computed %08x" stored actual;
    { data; limit; pos = off }

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

  let string_in_place t =
    let len = int t in
    if len < 0 then corrupt "negative string length";
    need t len;
    let off = t.pos in
    t.pos <- t.pos + len;
    (off, len)

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

  let count t =
    let len = int t in
    if len < 0 then corrupt "negative sequence length";
    (* Every element of every format encodes to at least one byte, so a
       count exceeding the remaining payload is forged — reject it here
       instead of letting [List.init]/[Array.init] attempt a giant
       allocation before the per-element reads run out of bytes. *)
    if len > t.limit - t.pos then
      corrupt "sequence length %d exceeds %d remaining payload bytes" len
        (t.limit - t.pos);
    len

  let list t decode = List.init (count t) (fun _ -> decode t)

  let array t decode = Array.init (count t) (fun _ -> decode t)

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

  let position t = t.pos

  let expect_end t =
    if t.pos <> t.limit then
      corrupt "trailing garbage: %d unread payload bytes" (t.limit - t.pos)
end
