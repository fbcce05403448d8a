module Frame = Edb_persist.Frame
module Codec = Edb_persist.Codec

(* Unix-domain / TCP sockets: the socket substrate. A connection
   carries length-prefixed stream records ([Frame.to_wire]); the
   receive side reassembles them through [Frame.Reader], so partial
   reads and short writes are invisible above this module. Peer
   identity is established by an 8-byte handshake (magic +
   little-endian id) right after connect — frames do not carry a
   sender id, and the passive side needs one for per-peer negotiation
   state. *)

type addr = Unix_path of string | Tcp of { host : string; port : int }

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp { host; port } -> Printf.sprintf "tcp:%s:%d" host port

let addr_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
    Ok (Unix_path (String.sub s (i + 1) (String.length s - i - 1)))
  | Some i when String.sub s 0 i = "tcp" -> (
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "bad tcp address %S (want tcp:HOST:PORT)" s)
    | Some j -> (
      let host = String.sub rest 0 j in
      match int_of_string_opt (String.sub rest (j + 1) (String.length rest - j - 1)) with
      | Some port -> Ok (Tcp { host; port })
      | None -> Error (Printf.sprintf "bad tcp port in %S" s)))
  | _ -> Error (Printf.sprintf "bad address %S (want unix:PATH or tcp:HOST:PORT)" s)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> raise (Unix.Unix_error (Unix.EHOSTUNREACH, "gethostbyname", host)))

let sockaddr_of_addr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp { host; port } -> Unix.ADDR_INET (resolve_host host, port)

let domain_of_addr = function Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET

type t = {
  ep_id : int;
  peers : (int * addr) list;
  listen_fd : Unix.file_descr option;
  mutable listen_addr : addr option;
  mutable listen_nonblock : bool;
  mutable closed : bool;
}

type conn = {
  fd : Unix.file_descr;
  (* -1 on an accepted non-blocking connection until its inbound
     handshake completes ([hs_need] reaches 0). *)
  mutable peer_id : int;
  reader : Frame.Reader.t;
  mutable conn_closed : bool;
  mutable nonblocking : bool;
  (* Pending output is [out.[out_start, out_end)]. [send] on a
     non-blocking connection writes the length prefix and the record
     straight in at [out_end] (coalescing any number of records);
     [flush_output] writes from [out_start] in place with as few
     write(2) calls as the socket accepts, resuming mid-record across
     calls. *)
  mutable out : Bytes.t;
  mutable out_start : int;
  mutable out_end : int;
  (* Inbound handshake bytes still owed (accepted non-blocking
     connections read their 8-byte handshake through the same
     [read_into] path as records). *)
  mutable hs_need : int;
  hs_buf : Bytes.t;
}

(* A slow peer that stops reading accumulates output here; past this
   cap the connection is declared broken rather than letting one peer
   grow the buffer without bound. *)
let max_pending_output = 8 * 1024 * 1024

let chunk_size = 65536

(* One read buffer per domain, not per connection: [read_into] copies
   what it reads into the connection's reassembly reader at once, so
   the buffer is free again before the next read. A per-connection
   64 KiB chunk is a major-heap allocation per dial, and the major GC
   work it paces marks the whole replica. *)
let read_chunk = Domain.DLS.new_key (fun () -> Bytes.create chunk_size)

let magic = "EDB1"

let handshake_len = 8

(* Interrupted syscalls just retry; every other Unix error surfaces as
   [Error] with its message. *)
let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let unix_result f =
  match retry_eintr f with
  | v -> Ok v
  | exception Unix.Unix_error (e, fn, _) ->
    Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let write_all fd data =
  let len = String.length data in
  let bytes = Bytes.unsafe_of_string data in
  let rec loop off =
    if off < len then begin
      let n = retry_eintr (fun () -> Unix.write fd bytes off (len - off)) in
      if n = 0 then raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
      loop (off + n)
    end
  in
  loop 0

let encode_handshake id =
  let b = Bytes.create handshake_len in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set_int32_le b 4 (Int32.of_int id);
  Bytes.to_string b

let decode_handshake s =
  if String.length s <> handshake_len || String.sub s 0 4 <> magic then
    Error "bad handshake"
  else Ok (Int32.to_int (String.get_int32_le s 4))

let create ?listen ~id ~peers () =
  match listen with
  | None ->
    Ok
      {
        ep_id = id;
        peers;
        listen_fd = None;
        listen_addr = None;
        listen_nonblock = false;
        closed = false;
      }
  | Some addr -> (
    match
      unix_result (fun () ->
          (match addr with
          | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
          | Tcp _ -> ());
          let fd = Unix.socket (domain_of_addr addr) Unix.SOCK_STREAM 0 in
          (match addr with
          | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
          | Unix_path _ -> ());
          Unix.bind fd (sockaddr_of_addr addr);
          Unix.listen fd 64;
          (* Port 0 asks the kernel to pick: read back what it chose. *)
          let bound =
            match (addr, Unix.getsockname fd) with
            | Tcp { host; _ }, Unix.ADDR_INET (_, port) -> Tcp { host; port }
            | _ -> addr
          in
          (fd, bound))
    with
    | Error _ as e -> e
    | Ok (fd, bound) ->
      Ok
        {
          ep_id = id;
          peers;
          listen_fd = Some fd;
          listen_addr = Some bound;
          listen_nonblock = false;
          closed = false;
        })

let listen_addr t = t.listen_addr

let listen_fd t = t.listen_fd

let make_conn fd peer_id =
  {
    fd;
    peer_id;
    reader = Frame.Reader.create ();
    conn_closed = false;
    nonblocking = false;
    out = Bytes.create 256;
    out_start = 0;
    out_end = 0;
    hs_need = 0;
    hs_buf = Bytes.create handshake_len;
  }

let pending_output conn = conn.out_end - conn.out_start

let want_write conn = pending_output conn > 0

(* Make room for [need] more bytes at [out_end]. The consumed prefix
   is reclaimed in place only when it is at least as long as the live
   suffix (so each compaction copies no more than was written out
   since the last one); otherwise the buffer doubles. *)
let reserve conn need =
  let cap = Bytes.length conn.out in
  if conn.out_end + need > cap then begin
    let live = pending_output conn in
    if conn.out_start >= live && live + need <= cap then
      Bytes.blit conn.out conn.out_start conn.out 0 live
    else begin
      let bigger = Bytes.create (max (live + need) (2 * cap)) in
      Bytes.blit conn.out conn.out_start bigger 0 live;
      conn.out <- bigger
    end;
    conn.out_start <- 0;
    conn.out_end <- live
  end

let append_string conn s =
  let len = String.length s in
  reserve conn len;
  Bytes.blit_string s 0 conn.out conn.out_end len;
  conn.out_end <- conn.out_end + len

let append_record conn record =
  let len = Frame.wire_length record in
  reserve conn len;
  Frame.blit_wire record conn.out conn.out_end;
  conn.out_end <- conn.out_end + len

let connect t ~peer =
  match List.assoc_opt peer t.peers with
  | None -> Error (Printf.sprintf "no address for peer %d" peer)
  | Some addr ->
    unix_result (fun () ->
        let fd = Unix.socket (domain_of_addr addr) Unix.SOCK_STREAM 0 in
        match
          Unix.connect fd (sockaddr_of_addr addr);
          write_all fd (encode_handshake t.ep_id)
        with
        | () -> make_conn fd peer
        | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e)

(* ------------------------------------------------------------------ *)
(* Non-blocking surface: dial, deferred-handshake accept, buffered     *)
(* sends with partial-write resumption.                                *)
(* ------------------------------------------------------------------ *)

(* Dial a peer without blocking: the connect is issued non-blocking
   (EINPROGRESS is success-so-far) and the outbound handshake is queued
   in the output buffer rather than written inline, so the caller's
   event loop drives it out through [flush_output] alongside whatever
   records it coalesces behind it. A connect failure that the kernel
   can report immediately (ECONNREFUSED on a Unix socket, no listener)
   still surfaces here as [Error]; late failures surface from the first
   flush or read. *)
let dial t ~peer =
  match List.assoc_opt peer t.peers with
  | None -> Error (Printf.sprintf "no address for peer %d" peer)
  | Some addr ->
    unix_result (fun () ->
        let fd = Unix.socket (domain_of_addr addr) Unix.SOCK_STREAM 0 in
        match
          Unix.set_nonblock fd;
          (try Unix.connect fd (sockaddr_of_addr addr)
           with
           | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
           -> ());
          let conn = make_conn fd peer in
          conn.nonblocking <- true;
          append_string conn (encode_handshake t.ep_id);
          conn
        with
        | conn -> conn
        | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e)

(* Accept without blocking (the listening fd is switched to
   non-blocking on first use): [Ok None] means nothing was pending —
   including the benign race where the peer aborted between select and
   accept. The inbound handshake is *not* read here; the connection
   starts with [peer conn = -1] and learns its identity through
   [read_into] once the 8 bytes arrive, so a peer that stalls its
   handshake cannot stall the loop. *)
let accept_nonblocking t =
  match t.listen_fd with
  | None -> Error "endpoint is not listening"
  | Some lfd -> (
    if not t.listen_nonblock then begin
      Unix.set_nonblock lfd;
      t.listen_nonblock <- true
    end;
    match retry_eintr (fun () -> Unix.accept lfd) with
    | fd, _ ->
      Unix.set_nonblock fd;
      let conn = make_conn fd (-1) in
      conn.nonblocking <- true;
      conn.hs_need <- handshake_len;
      Ok (Some conn)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED), _, _)
    -> Ok None
    | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))

let handshake_done conn = conn.hs_need = 0 && conn.peer_id >= 0

(* Push buffered output out with as few write(2) calls as the socket
   accepts, straight from the buffer. [`Blocked] (EAGAIN et al.,
   including a connect still in progress) leaves the unsent suffix for
   the next call — partial writes resume at [out_start], possibly
   mid-record; the receiving Frame.Reader reassembles regardless of
   where the split landed. *)
let flush_output conn =
  let rec loop () =
    let remaining = pending_output conn in
    if remaining = 0 then begin
      conn.out_start <- 0;
      conn.out_end <- 0;
      `Drained
    end
    else
      match Unix.write conn.fd conn.out conn.out_start remaining with
      | 0 -> `Error "write: wrote 0 bytes"
      | n ->
        conn.out_start <- conn.out_start + n;
        loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | exception
          Unix.Unix_error
            ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINPROGRESS | Unix.ENOTCONN), _, _) ->
        `Blocked
      | exception Unix.Unix_error (e, fn, _) ->
        `Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  in
  loop ()

(* On a non-blocking connection [send] only buffers — no syscall — so
   records queued while a group-commit batch is open cannot reach the
   wire before the loop's WAL sync; the event loop releases them
   afterwards via [flush_output], coalesced into one write. Blocking
   connections keep the write-it-now semantics. *)
let send conn record =
  if String.length record > Frame.max_stream_record then
    Error
      (Printf.sprintf "record of %d bytes exceeds the %d-byte stream limit"
         (String.length record) Frame.max_stream_record)
  else if conn.nonblocking then begin
    if pending_output conn > max_pending_output then
      Error "output buffer overflow (slow peer)"
    else begin
      append_record conn record;
      Ok ()
    end
  end
  else
    match unix_result (fun () -> write_all conn.fd (Frame.to_wire record)) with
    | Ok () -> Ok ()
    | Error _ as e -> e

(* One read(2) into the reassembly reader. [`Data] includes reads that
   completed buffered records (poll [next_record] after) and spurious
   wakeups that fed nothing. On accepted non-blocking connections the
   first 8 bytes are the peer's handshake and are consumed here before
   any record bytes reach the reader. *)
let read_into conn =
  let chunk = Domain.DLS.get read_chunk in
  match retry_eintr (fun () -> Unix.read conn.fd chunk 0 chunk_size) with
  | 0 -> `Eof
  | n ->
    if conn.hs_need > 0 then begin
      let take = min conn.hs_need n in
      Bytes.blit chunk 0 conn.hs_buf (handshake_len - conn.hs_need) take;
      conn.hs_need <- conn.hs_need - take;
      if conn.hs_need > 0 then `Data
      else
        match decode_handshake (Bytes.to_string conn.hs_buf) with
        | Error msg -> `Error msg
        | Ok peer_id ->
          conn.peer_id <- peer_id;
          if n > take then
            Frame.Reader.feed conn.reader ~off:take ~len:(n - take)
              (Bytes.unsafe_to_string chunk);
          `Data
    end
    else begin
      Frame.Reader.feed conn.reader ~len:n (Bytes.unsafe_to_string chunk);
      `Data
    end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> `Data
  | exception Unix.Unix_error (e, fn, _) ->
    `Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let next_record conn = Frame.Reader.next conn.reader

let pending_input conn = Frame.Reader.pending conn.reader

let recv ?timeout conn =
  let deadline = Option.map (fun tmo -> Unix.gettimeofday () +. tmo) timeout in
  let rec loop () =
    match Frame.Reader.next conn.reader with
    | Some record -> Ok record
    | None -> (
      let wait =
        match deadline with
        | None -> -1.0
        | Some d ->
          let w = d -. Unix.gettimeofday () in
          if w <= 0.0 then 0.0 else w
      in
      if wait = 0.0 then Error "recv timeout"
      else
        let r, _, _ = retry_eintr (fun () -> Unix.select [ conn.fd ] [] [] wait) in
        if r = [] then Error "recv timeout"
        else
          match read_into conn with
          | `Data -> loop ()
          | `Eof -> Error "peer closed connection"
          | `Error msg -> Error msg)
  in
  try loop () with Codec.Reader.Corrupt msg -> Error ("corrupt stream: " ^ msg)

let peer conn = conn.peer_id

let fd conn = conn.fd

let close_conn conn =
  if not conn.conn_closed then begin
    conn.conn_closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    (match t.listen_fd with
    | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    match t.listen_addr with
    | Some (Unix_path p) -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
    | Some (Tcp _) | None -> ()
  end
