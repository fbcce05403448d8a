(** The socket substrate — Unix-domain first, TCP second.

    A connection is a byte stream carrying length-prefixed records
    ({!Edb_persist.Frame.to_wire}); receive reassembles through the
    incremental {!Edb_persist.Frame.Reader}, so partial reads, short
    writes and records split at any byte boundary are invisible to
    callers. Connects send an 8-byte handshake (magic + little-endian
    node id) so the passive side learns the peer identity its per-peer
    wire negotiation state is keyed on.

    Two surfaces. One-shot clients (the harness, the cluster benchmark)
    use the blocking {!connect}/{!send}/{!recv}. Callers that multiplex
    many connections in a select loop (the daemon) use the non-blocking
    one — {!dial}, {!accept_nonblocking}, {!listen_fd}, {!fd},
    {!read_into}, {!next_record}, {!flush_output}. The session logic
    itself lives in {!Transport.Initiator}, not here.

    Writers should ignore [SIGPIPE] (the daemon and harness do) so a
    send to a dead peer surfaces as an [Error], not a process kill. *)

type addr = Unix_path of string | Tcp of { host : string; port : int }

val addr_to_string : addr -> string
(** ["unix:PATH"] or ["tcp:HOST:PORT"]. *)

val addr_of_string : string -> (addr, string) result

type t

type conn

val create :
  ?listen:addr -> id:int -> peers:(int * addr) list -> unit -> (t, string) result
(** An endpoint for node [id] that can dial every peer in [peers] and,
    when [listen] is given, accept inbound connections there (an
    existing Unix-socket path is replaced; TCP port [0] lets the
    kernel choose — read {!listen_addr} back). *)

val listen_addr : t -> addr option
(** The bound address, with the kernel-chosen port filled in. *)

val close : t -> unit
(** Close the listening socket and unlink its Unix path. Established
    connections are closed individually ({!close_conn}). *)

(** {1 Blocking surface} *)

val connect : t -> peer:int -> (conn, string) result
(** Connect to [peer] and write the handshake, blocking. *)

val send : conn -> string -> (unit, string) result
(** Send one record: written at once on a {!connect}ed connection,
    buffered for {!flush_output} on a non-blocking one. *)

val recv : ?timeout:float -> conn -> (string, string) result
(** The next whole record; [Error] on timeout, peer close, or a
    corrupt stream. *)

val peer : conn -> int
(** The node at the other end ([-1] until an accepted connection's
    handshake arrives). *)

val close_conn : conn -> unit

(** {1 Select-loop surface} *)

val listen_fd : t -> Unix.file_descr option

val fd : conn -> Unix.file_descr

val read_into : conn -> [ `Data | `Eof | `Error of string ]
(** One [read(2)] into the connection's reassembly reader — call when
    select reports the fd readable, then drain {!next_record}. The read
    lands in one 64 KiB buffer per domain and is copied into the
    connection's reader at once; connections own no read chunk. *)

val next_record : conn -> string option
(** The next complete buffered record, if any. Raises
    {!Edb_persist.Codec.Reader.Corrupt} on an unrecoverable stream. *)

val pending_input : conn -> int
(** Bytes read but not yet returned by {!next_record}. *)

(** {1 Non-blocking surface}

    The daemon's event loop never blocks on a peer: connects are
    initiated with {!dial} (handshake queued, not written), inbound
    connections arrive through {!accept_nonblocking} with the
    handshake deferred to {!read_into}, and every write goes through a
    per-connection output buffer — {!send} on such a connection only
    appends (coalescing any number of records), and {!flush_output}
    pushes bytes when select reports the fd writable, resuming
    mid-record after a partial write. *)

val dial : t -> peer:int -> (conn, string) result
(** Open a non-blocking connection to [peer]: the connect is issued
    without waiting (a connect-in-progress is success-so-far; late
    failures surface from the first {!flush_output} or {!read_into})
    and the outbound handshake is queued in the output buffer. *)

val accept_nonblocking : t -> (conn option, string) result
(** Accept one pending inbound connection without blocking ([Ok None]
    when there is none). The returned connection reports
    [{!peer} conn = -1] until its 8-byte handshake has been consumed by
    {!read_into} — check {!handshake_done} before trusting the id. *)

val handshake_done : conn -> bool
(** Whether the inbound handshake has completed (always true for dialed
    and connected connections). *)

val pending_output : conn -> int
(** Bytes buffered but not yet written. *)

val want_write : conn -> bool
(** [pending_output conn > 0] — whether the event loop should watch
    this fd for writability. *)

val flush_output : conn -> [ `Drained | `Blocked | `Error of string ]
(** Write as much pending output as the socket accepts. [`Blocked]
    means the socket would block (or the connect is still in
    progress) — retry when select reports the fd writable; the unsent
    suffix, possibly starting mid-record, is kept and written in place
    (each record is copied once, into the buffer). Sends on a
    non-blocking connection past an 8 MiB backlog fail instead of
    growing the buffer without bound. *)
