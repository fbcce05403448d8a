(** A small self-describing binary codec.

    Used by {!Snapshot} to serialize node state and by the wire codecs
    ({!Wire}, {!Wire_v2}). Deliberately simple and dependency-free:
    length-prefixed strings, fixed 64-bit integers for the durable
    formats (node state is dominated by values, not integers), LEB128
    varints for wire format v2 where the integers themselves dominate,
    and an Adler-32 style checksum trailer so a truncated or corrupted
    payload is rejected instead of silently loaded. *)

val adler32 : ?off:int -> ?len:int -> string -> int
(** [adler32 ~off ~len s] is the Adler-32 (RFC 1950) of the [len]
    bytes of [s] starting at [off] (defaults: the whole string), as a
    non-negative 32-bit value. The one checksum kernel of the
    persistence layer: {!Writer.contents}' trailer, {!Wal}'s record
    frames and {!Snapshot}'s payload guard all call it, each over the
    bytes where they already lie — no caller copies a payload to
    checksum it. The sums are reduced once per 5552-byte block (zlib's
    NMAX) instead of once per byte, with the same output.
    [Invalid_argument] if the range is outside [s]. *)

module Writer : sig
  type t

  val create : unit -> t

  val with_scratch : (t -> 'a) -> 'a
  (** [with_scratch f] runs [f] with a per-domain reusable writer
      (cleared before [f] sees it) instead of allocating a fresh
      buffer — the allocation-free path for encode-heavy callers.
      The writer is only valid during [f]; take {!contents} before
      returning. Nested calls and concurrent domains each get their
      own buffer. *)

  val int : t -> int -> unit
  (** Little-endian 64-bit. *)

  val string : t -> string -> unit
  (** Length-prefixed bytes. *)

  val bool : t -> bool -> unit

  val byte : t -> int -> unit
  (** One unsigned byte; [Invalid_argument] outside [\[0, 255\]]. *)

  val varint : t -> int -> unit
  (** LEB128: 7 value bits per byte, little-endian groups, high bit as
      the continuation flag. Small non-negative ints cost one byte; a
      negative int round-trips but costs the full 9 bytes. *)

  val svarint : t -> int -> unit
  (** Zig-zag then LEB128 — for the few signed fields, where small
      magnitudes of either sign must stay short. *)

  val vstring : t -> string -> unit
  (** Varint-length-prefixed bytes (the wire-v2 string form; {!string}
      is the fixed-width form). *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  (** Count-prefixed sequence. *)

  val array : t -> (t -> 'a -> unit) -> 'a array -> unit

  val contents : t -> string
  (** The payload followed by a 4-byte {!adler32} trailer, built with
      one copy of the payload. *)
end

module Reader : sig
  type t

  exception Corrupt of string
  (** Raised on truncation, trailing garbage, or checksum mismatch. *)

  val create : ?off:int -> ?len:int -> string -> t
  (** [create data] validates the checksum trailer immediately (over
      [data] in place) and raises {!Corrupt} if it does not match.
      [~off] and [~len] (defaults: the whole string) read the blob
      where it lies inside a larger buffer, such as a journal record
      inside the file image, without copying it out;
      [Invalid_argument] if the range is outside [data]. *)

  val int : t -> int

  val string : t -> string

  val bool : t -> bool

  val byte : t -> int

  val varint : t -> int
  (** Raises {!Corrupt} on truncation or a varint longer than 9 bytes
      (more than 63 value bits). *)

  val svarint : t -> int

  val vstring : t -> string

  val list : t -> (t -> 'a) -> 'a list
  (** Raises {!Corrupt} when the count is negative or exceeds the
      remaining payload (a forged count never reaches the allocator). *)

  val array : t -> (t -> 'a) -> 'a array

  val remaining : t -> int
  (** Unread payload bytes — the bound hand-rolled decoders (e.g.
      {!Wire_v2}) use to reject forged element counts before
      allocating. *)

  val expect_end : t -> unit
  (** Raises {!Corrupt} unless every payload byte was consumed. *)
end
