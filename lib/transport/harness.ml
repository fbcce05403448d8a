module Node = Edb_core.Node
module Counters = Edb_metrics.Counters
module Operation = Edb_store.Operation
module Item = Edb_store.Item
module Vv = Edb_vv.Version_vector
module Snapshot = Edb_persist.Snapshot
module Codec = Edb_persist.Codec
module T = Socket_transport

(* The multi-process harness: boot an N-daemon cluster (one `edb_cli
   serve` process per node, started with [Unix.create_process] — never
   [fork], which OCaml 5 refuses once the process has spawned a
   domain), drive it over the control protocol, kill
   and restart daemons mid-run, and decide convergence from exported
   snapshots. It deliberately lives below [lib/check]: the invariant
   battery is injected by the caller ([await_converged ~invariant]), so
   the dependency arrow keeps pointing check -> transport. *)

type kind = [ `Unix | `Tcp ]

type proc = {
  p_id : int;
  p_dir : string;
  p_addr : T.addr;
  mutable pid : int option;
}

type t = {
  n : int;
  procs : proc array;
  argv : int -> string array;  (* `edb_cli serve` command line of node i *)
  client : T.t;
  controls : (int, T.conn) Hashtbl.t;
  control_timeout : float;
}

(* Kernel-assigned free TCP ports: bind port 0, read the choice back,
   release. A tiny window exists before the daemon rebinds (with
   SO_REUSEADDR); fine for a local test harness. *)
let free_tcp_ports count =
  let fds =
    List.init count (fun _ ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        fd)
  in
  let ports =
    List.map
      (fun fd ->
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> port
        | _ -> assert false)
      fds
  in
  List.iter Unix.close fds;
  ports

let spawn t i =
  let proc = t.procs.(i) in
  assert (proc.pid = None);
  let argv = t.argv i in
  proc.pid <- Some (Unix.create_process argv.(0) argv Unix.stdin Unix.stderr Unix.stderr)

let start ~exe ?(kind = `Unix) ?(ae_period = 0.03) ?(seed = 1) ?(max_runtime = 120.0)
    ?(control_timeout = 5.0) ?max_sessions ~dir ~n () =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let addrs =
    match kind with
    | `Unix ->
      Array.init n (fun i -> T.Unix_path (Filename.concat dir (Printf.sprintf "n%d.sock" i)))
    | `Tcp ->
      let ports = Array.of_list (free_tcp_ports n) in
      Array.init n (fun i -> T.Tcp { host = "127.0.0.1"; port = ports.(i) })
  in
  let all_peers = Array.to_list (Array.mapi (fun i addr -> (i, addr)) addrs) in
  let procs =
    Array.init n (fun i ->
        {
          p_id = i;
          p_dir = Filename.concat dir (Printf.sprintf "node%d" i);
          p_addr = addrs.(i);
          pid = None;
        })
  in
  let seconds = Printf.sprintf "%.17g" in
  let argv i =
    let peers =
      List.concat_map
        (fun (j, addr) ->
          if j = i then [] else [ "--peer"; Printf.sprintf "%d=%s" j (T.addr_to_string addr) ])
        all_peers
    in
    Array.of_list
      ([ exe; "serve"; "--id"; string_of_int i; "--n"; string_of_int n; "--dir"; procs.(i).p_dir;
         "--listen"; T.addr_to_string addrs.(i); "--ae-period"; seconds ae_period;
         "--seed"; string_of_int (seed + (1000 * i)); "--max-runtime"; seconds max_runtime ]
      @ (match max_sessions with Some k -> [ "--max-sessions"; string_of_int k ] | None -> [])
      @ peers)
  in
  match T.create ~id:n ~peers:all_peers () with
  | Error msg -> failwith ("harness client endpoint: " ^ msg)
  | Ok client ->
    let t = { n; procs; argv; client; controls = Hashtbl.create 8; control_timeout } in
    for i = 0 to n - 1 do
      spawn t i
    done;
    t

let drop_control t ~node =
  match Hashtbl.find_opt t.controls node with
  | Some conn ->
    T.close_conn conn;
    Hashtbl.remove t.controls node
  | None -> ()

(* A daemon that died on its own (a crash, or a kill from outside the
   harness) is reaped here, so it reads as stopped and {!restart} can
   start it again. *)
let running t ~node =
  let proc = t.procs.(node) in
  match proc.pid with
  | None -> false
  | Some pid ->
    let rec exited () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> false
      | _, _ -> true
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> exited ()
    in
    if exited () then begin
      proc.pid <- None;
      drop_control t ~node;
      false
    end
    else true

let pid t ~node = t.procs.(node).pid

(* Dial the node's control connection, retrying while its daemon is
   still binding the listening socket. *)
let control t ~node =
  match Hashtbl.find_opt t.controls node with
  | Some conn -> Ok conn
  | None ->
    let deadline = Unix.gettimeofday () +. t.control_timeout in
    let rec dial () =
      match T.connect t.client ~peer:node with
      | Ok conn ->
        Hashtbl.replace t.controls node conn;
        Ok conn
      | Error e ->
        if Unix.gettimeofday () >= deadline then
          Error (Printf.sprintf "node %d control: %s" node e)
        else begin
          Unix.sleepf 0.01;
          dial ()
        end
    in
    dial ()

let rpc_once t conn req =
  match T.send conn (Transport.Record.control (Daemon.Control.encode_request req)) with
  | Error _ as e -> e
  | Ok () -> (
    match T.recv ~timeout:t.control_timeout conn with
    | Error _ as e -> e
    | Ok record -> (
      match Transport.Record.classify record with
      | Ok (Transport.Record.Control payload) -> (
        try Ok (Daemon.Control.decode_reply payload)
        with Codec.Reader.Corrupt msg -> Error ("corrupt control reply: " ^ msg))
      | Ok (Transport.Record.Frame _) -> Error "unexpected frame on control connection"
      | Error _ as e -> e))

let request t ~node req =
  match control t ~node with
  | Error _ as e -> e
  | Ok conn -> (
    match rpc_once t conn req with
    | Ok _ as ok -> ok
    | Error e -> (
      (* The cached connection may be stale (daemon restarted since);
         one fresh dial decides whether the node is really gone. *)
      drop_control t ~node;
      match control t ~node with
      | Error _ -> Error e
      | Ok conn -> (
        match rpc_once t conn req with Ok _ as ok -> ok | Error _ -> Error e)))

let expect_ack = function
  | Ok Daemon.Control.Ack -> Ok ()
  | Ok (Daemon.Control.Failed msg) -> Error msg
  | Ok _ -> Error "unexpected control reply"
  | Error _ as e -> e

let update t ~node ~item op =
  expect_ack (request t ~node (Daemon.Control.Update { item; op }))

let read t ~node ~item =
  match request t ~node (Daemon.Control.Read { item }) with
  | Ok (Daemon.Control.Value v) -> Ok v
  | Ok (Daemon.Control.Failed msg) -> Error msg
  | Ok _ -> Error "unexpected control reply"
  | Error _ as e -> e

let export t ~node =
  match request t ~node Daemon.Control.Export with
  | Ok (Daemon.Control.State blob) -> Snapshot.decode blob
  | Ok (Daemon.Control.Failed msg) -> Error msg
  | Ok _ -> Error "unexpected control reply"
  | Error _ as e -> e

let counters_of t ~node =
  match request t ~node Daemon.Control.Counters_req with
  | Ok (Daemon.Control.Stats fields) -> Ok fields
  | Ok (Daemon.Control.Failed msg) -> Error msg
  | Ok _ -> Error "unexpected control reply"
  | Error _ as e -> e

let journal t ~node =
  let path = Edb_persist.Durable_node.journal_path ~dir:t.procs.(node).p_dir in
  match Edb_persist.Wal.replay ~path ~f:(fun _ ~off:_ ~len:_ -> ()) with
  | Error _ as e -> e
  | Ok replay ->
    Ok (replay.records, if Sys.file_exists path then (Unix.stat path).Unix.st_size else 0)

let checkpoint t ~node = expect_ack (request t ~node Daemon.Control.Checkpoint)

let reap ?(timeout = 5.0) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () >= deadline then begin
        Unix.kill pid Sys.sigkill;
        let (_ : int * Unix.process_status) = Unix.waitpid [] pid in
        ()
      end
      else begin
        Unix.sleepf 0.005;
        wait ()
      end
    | _, _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

let kill t ~node =
  match t.procs.(node).pid with
  | None -> ()
  | Some pid ->
    (* SIGKILL: no cleanup runs in the daemon — the WAL on disk is all
       restart gets, which is exactly what the crash-recovery tests
       want to exercise. *)
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error (Unix.ESRCH, _, _) -> ());
    reap pid;
    t.procs.(node).pid <- None;
    drop_control t ~node

let stop t ~node =
  match t.procs.(node).pid with
  | None -> ()
  | Some pid ->
    let (_ : (unit, string) result) = expect_ack (request t ~node Daemon.Control.Quit) in
    drop_control t ~node;
    reap pid;
    t.procs.(node).pid <- None

let restart t ~node =
  if not (running t ~node) then begin
    drop_control t ~node;
    spawn t node
  end

(* Snapshot-level convergence, the same judgement [Cluster.converged]
   makes in process: no auxiliary copies anywhere, equal DBVVs (per
   shard), and item-for-item equal stores — where an item missing on
   one node must be indistinguishable from never-written on the other
   (empty value, zero IVV). *)
let item_matches_missing (it : Item.t) =
  String.equal it.Item.value "" && Vv.sum it.Item.ivv = 0

let agree nodes =
  match nodes with
  | [] | [ _ ] -> true
  | reference :: rest ->
    let ref_dbvv = Node.dbvv_view reference in
    let shard_dbvvs_equal a b =
      let shards = Node.shards a in
      Node.shards b = shards
      &&
      let rec loop s =
        s >= shards
        || Vv.equal (Node.shard_dbvv_view a s) (Node.shard_dbvv_view b s) && loop (s + 1)
      in
      loop 0
    in
    List.for_all (fun n -> Node.aux_count n = 0) nodes
    && List.for_all
         (fun n -> Vv.equal (Node.dbvv_view n) ref_dbvv && shard_dbvvs_equal n reference)
         rest
    && begin
      let names = Hashtbl.create 64 in
      List.iter
        (fun n -> Node.iter_items (fun it -> Hashtbl.replace names it.Item.name ()) n)
        nodes;
      Hashtbl.fold
        (fun name () acc ->
          acc
          &&
          let ref_item = Node.find_item reference name in
          List.for_all
            (fun n ->
              match (ref_item, Node.find_item n name) with
              | None, None -> true
              | Some a, Some b -> String.equal a.Item.value b.Item.value && Vv.equal a.ivv b.ivv
              | Some a, None -> item_matches_missing a
              | None, Some b -> item_matches_missing b)
            rest)
        names true
    end

let export_all t =
  let rec loop i acc =
    if i < 0 then Ok acc
    else if not (running t ~node:i) then Error (Printf.sprintf "node %d is not running" i)
    else
      match export t ~node:i with
      | Ok node -> loop (i - 1) (node :: acc)
      | Error e -> Error (Printf.sprintf "node %d export: %s" i e)
  in
  loop (t.n - 1) []

let await_converged ?(deadline = 30.0) ?(poll = 0.02) ?invariant t =
  let started = Unix.gettimeofday () in
  let until = started +. deadline in
  let check_invariant nodes =
    match invariant with
    | None -> Ok ()
    | Some check ->
      List.fold_left
        (fun acc node ->
          match acc with
          | Error _ as e -> e
          | Ok () -> (
            match check node with
            | Ok () -> Ok ()
            | Error msg -> Error (Printf.sprintf "node %d invariant: %s" (Node.id node) msg)))
        (Ok ()) nodes
  in
  let rec loop last_err =
    if Unix.gettimeofday () >= until then
      Error
        (Printf.sprintf "not converged within %.1fs%s" deadline
           (match last_err with Some e -> " (" ^ e ^ ")" | None -> ""))
    else
      match export_all t with
      | Error e ->
        Unix.sleepf poll;
        loop (Some e)
      | Ok nodes -> (
        match check_invariant nodes with
        | Error e -> Error e (* invariants must hold on every sample *)
        | Ok () ->
          if agree nodes then Ok (Unix.gettimeofday () -. started)
          else begin
            Unix.sleepf poll;
            loop last_err
          end)
  in
  loop None

let shutdown t =
  for i = 0 to t.n - 1 do
    if running t ~node:i then stop t ~node:i
  done;
  Hashtbl.iter (fun _ conn -> T.close_conn conn) t.controls;
  Hashtbl.reset t.controls;
  T.close t.client
