(* edb — command-line front end for the reproduction.

   Subcommands:
     bench      print experiment tables (all, or selected by id)
     simulate   run a workload + anti-entropy simulation for any protocol
     soak       randomized fault schedules against the lockstep oracle, in
                one of five modes (a row of [soak_table] each): check
                (invariant battery), chaos (the same over the
                message-granular transport), shard (cache equivalence +
                chaos at a fixed shard count), push (push-on runs must
                converge bit-identical to pull-only) and member
                (join/leave/retire schedules)
     member     dynamic membership: narrate a join / graceful leave /
                dead-node retirement
     wire       hex-dump and pretty-decode wire frames (v1 and v2), or
                walk a sample session showing negotiation and deltas
     scenario   run a declarative scenario (built-in or from a JSON
                file) and report its per-tick time series
     serve      run one node as a daemon over Unix/TCP sockets (WAL +
                checkpoints on disk, anti-entropy on a timer)
     cluster    boot an N-process cluster of serve daemons, drive
                updates (with an optional kill -9 / restart mid-run)
                and wait for checker-clean convergence
     demo       a tiny three-node walkthrough *)

module Cluster = Edb_core.Cluster
module Node = Edb_core.Node
module Operation = Edb_store.Operation
module Counters = Edb_metrics.Counters
module Workload = Edb_workload.Workload
module Driver = Edb_baselines.Driver
module Engine = Edb_sim.Engine
open Cmdliner

(* ------------------------------------------------------------------ *)
(* bench                                                               *)
(* ------------------------------------------------------------------ *)

let bench_cmd =
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Shrink the sweeps (for smoke runs).")
  in
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids to run (e.g. E1 E9). Default: all.")
  in
  let run quick ids =
    let wanted = List.map String.uppercase_ascii ids in
    let experiments = Edb_experiments.Experiments.all ~quick () in
    let selected =
      if wanted = [] then experiments
      else List.filter (fun (id, _) -> List.mem id wanted) experiments
    in
    if selected = [] then
      `Error
        ( false,
          "no such experiment; ids are " ^ String.concat " " (List.map fst experiments) )
    else begin
      List.iter
        (fun (id, build) ->
          Printf.printf "[%s]\n" id;
          Edb_metrics.Table.print (build ()))
        selected;
      `Ok ()
    end
  in
  let term = Term.(ret (const run $ quick $ ids)) in
  Cmd.v
    (Cmd.info "bench" ~doc:"Print experiment tables (deterministic operation counts).")
    term

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

(* Deterministic last-writer-wins style resolver: the lexicographically
   larger value survives; both sides pick the same winner. *)
let lww_resolver ~(local : Edb_core.Message.shipped_item)
    ~(remote : Edb_core.Message.shipped_item) =
  let value s = Option.value ~default:"" (Edb_core.Message.whole_value s) in
  if String.compare (value local) (value remote) >= 0 then value local
  else value remote

let make_driver protocol ~n ~items ~seed ~resolve ~oplog_depth =
  let universe = Workload.universe items in
  match protocol with
  | "dbvv" ->
    let policy = if resolve then Some (Node.Resolve lww_resolver) else None in
    let mode =
      match oplog_depth with
      | Some depth -> Some (Node.Op_log { depth })
      | None -> None
    in
    snd (Edb_baselines.Epidemic_driver.create ?policy ?mode ~seed ~n ())
  | "demers" -> Edb_baselines.Demers.driver (Edb_baselines.Demers.create ~n ~universe)
  | "lotus" -> Edb_baselines.Lotus.driver (Edb_baselines.Lotus.create ~n ~universe)
  | "oracle" -> Edb_baselines.Oracle_push.driver (Edb_baselines.Oracle_push.create ~n)
  | "wuu" -> Edb_baselines.Wuu_bernstein.driver (Edb_baselines.Wuu_bernstein.create ~n)
  | "2pg" ->
    Edb_baselines.Two_phase_gossip.driver (Edb_baselines.Two_phase_gossip.create ~n)
  | "ficus" -> Edb_baselines.Ficus.driver (Edb_baselines.Ficus.create ~n ~universe)
  | other -> invalid_arg (Printf.sprintf "unknown protocol %S" other)

let simulate_cmd =
  let protocol =
    Arg.(
      value
      & opt string "dbvv"
      & info [ "p"; "protocol" ] ~docv:"NAME"
          ~doc:"Protocol: dbvv, demers, lotus, oracle, wuu, 2pg or ficus.")
  in
  let nodes =
    Arg.(value & opt int 8 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Replica count.")
  in
  let items =
    Arg.(value & opt int 1_000 & info [ "items" ] ~docv:"K" ~doc:"Item universe size.")
  in
  let updates =
    Arg.(value & opt int 200 & info [ "u"; "updates" ] ~docv:"U" ~doc:"User updates.")
  in
  let zipf =
    Arg.(
      value & opt float 1.0
      & info [ "zipf" ] ~docv:"S" ~doc:"Zipf exponent of the item popularity (0 = uniform).")
  in
  let period =
    Arg.(
      value & opt float 1.0
      & info [ "period" ] ~docv:"T" ~doc:"Anti-entropy period in virtual time units.")
  in
  let loss =
    Arg.(
      value & opt float 0.0
      & info [ "loss" ] ~docv:"P" ~doc:"Session loss probability in [0,1].")
  in
  let duration =
    Arg.(
      value & opt float 50.0
      & info [ "duration" ] ~docv:"T"
          ~doc:"Virtual time window over which the updates arrive.")
  in
  let deadline =
    Arg.(
      value & opt float 1_000.0
      & info [ "deadline" ] ~docv:"T"
          ~doc:"Give up waiting for convergence after this much virtual time.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.") in
  let resolve =
    Arg.(
      value & flag
      & info [ "resolve" ]
          ~doc:
            "dbvv only: auto-resolve conflicts deterministically instead of the \
             paper's report-only behaviour.")
  in
  let single_writer =
    Arg.(
      value & flag
      & info [ "single-writer" ]
          ~doc:
            "Route every update for an item to one fixed owner node, so no \
             conflicts can arise.")
  in
  let oplog_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "oplog" ] ~docv:"DEPTH"
          ~doc:
            "dbvv only: ship update records (op-log transport) with a per-item \
             history of DEPTH operations instead of whole item values.")
  in
  let run protocol nodes items updates zipf period loss duration deadline seed resolve
      single_writer oplog_depth =
    match make_driver protocol ~n:nodes ~items ~seed ~resolve ~oplog_depth with
    | exception Invalid_argument msg -> `Error (false, msg)
    | driver ->
      let network = Edb_sim.Network.create ~loss_probability:loss () in
      let engine = Engine.create ~seed:(seed + 1) ~network ~driver () in
      let selector = Workload.Selector.zipfian ~n:items ~exponent:zipf in
      let steps =
        Workload.update_stream ~seed ~selector ~nodes ~count:updates ~value_size:64
      in
      let steps =
        if not single_writer then steps
        else
          (* Reassign each update to the item's fixed owner. *)
          List.map
            (fun (step : Workload.step) ->
              let rank = Scanf.sscanf step.item "item-%d" Fun.id in
              { step with node = rank mod nodes })
            steps
      in
      (* Spread the updates over the duration window, then measure how
         long full convergence takes once the workload quiesces. *)
      List.iteri
        (fun i (step : Workload.step) ->
          let at = duration *. float_of_int i /. float_of_int (max 1 updates) in
          Engine.schedule engine ~at
            (Engine.User_update { node = step.node; item = step.item; op = step.op }))
        steps;
      Engine.schedule engine ~at:(period /. 2.0)
        (Engine.Anti_entropy_round { period; policy = Engine.Random_peer });
      Engine.run_until engine duration;
      let converge_time =
        Engine.run_until_converged engine ~check_every:period ~deadline
      in
      Printf.printf "protocol:            %s\n" driver.Driver.name;
      Printf.printf "nodes/items/updates: %d / %d / %d\n" nodes items updates;
      (match converge_time with
      | Some t -> Printf.printf "converged at:        %.1f (virtual time)\n" t
      | None -> Printf.printf "converged at:        not within %.1f\n" deadline);
      Printf.printf "sessions attempted:  %d (lost: %d)\n"
        (Engine.sessions_attempted engine)
        (Engine.sessions_lost engine);
      let total = driver.Driver.total_counters () in
      Format.printf "totals:@.%a@." Counters.pp total;
      `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ protocol $ nodes $ items $ updates $ zipf $ period $ loss
       $ duration $ deadline $ seed $ resolve $ single_writer $ oplog_depth))
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run a workload under periodic anti-entropy and report cost counters.")
    term

(* ------------------------------------------------------------------ *)
(* soak                                                                *)
(* ------------------------------------------------------------------ *)

module Explorer = Edb_check.Explorer

(* What a soak run was asked for, after its mode's defaults. *)
type soak_args = {
  seed : int;
  runs : int;
  shards : int;
  topology : Explorer.topology option;
  mode : Node.propagation_mode option;
  mutate : bool;
}

(* One row per soak mode: its defaults, the optional flags it takes, its
   batteries (the success line, or the failing battery's shrunk
   counterexample) and the error it then reports. *)
type soak_row = {
  name : string;
  doc : string;
  default_runs : int;
  default_shards : int;
  flags : string list;
  battery : soak_args -> (string, string) result;
  failure : string;
}

let ( let* ) = Result.bind

let soak_table =
  let explore ?mode ?granular a =
    Explorer.run ?mode ?granular ?topology:a.topology ~mutate:a.mutate ~shards:a.shards
      ~seed:a.seed ~runs:a.runs ()
  in
  [
    {
      name = "check";
      doc = "the invariant and lockstep-oracle battery";
      default_runs = 100;
      default_shards = 1;
      flags = [ "--topology"; "--oplog"; "--mutate" ];
      battery =
        (fun a ->
          let* r = explore ?mode:a.mode a in
          Ok
            (Printf.sprintf "ok: %d schedules passed every invariant and oracle check"
               r.Explorer.schedules));
      failure = "invariant check failed (shrunk counterexample above)";
    };
    {
      name = "chaos";
      doc = "the same over the message-granular transport: per-message faults, retry on";
      default_runs = 200;
      default_shards = 1;
      flags = [ "--topology"; "--mutate" ];
      battery =
        (fun a ->
          let* r = explore ~granular:true a in
          Ok
            (Printf.sprintf
               "ok: %d message-granular schedules passed every invariant and oracle check"
               r.Explorer.schedules));
      failure = "chaos check failed (shrunk counterexample above)";
    };
    {
      name = "shard";
      doc = "peer-cache equivalence, then chaos, with $(b,--shards) shards per node";
      default_runs = 100;
      default_shards = 4;
      flags = [];
      battery =
        (fun a ->
          (* Cache equivalence doubles as a sharding-determinism check:
             the cached and uncached runs only compare equal if every
             sharded session is deterministic. *)
          let* eq = Explorer.run_equivalence ~shards:a.shards ~seed:a.seed ~runs:a.runs () in
          let* gr = explore ~granular:true a in
          Ok
            (Printf.sprintf
               "ok: shards=%d — %d cache-equivalence schedules + %d message-granular \
                schedules passed every invariant and oracle check"
               a.shards eq.Explorer.schedules gr.Explorer.schedules));
      failure = "sharded soak failed (shrunk counterexample above)";
    };
    {
      name = "push";
      doc = "push-on runs converge bit-identical to pull-only, at 1 and $(b,--shards) shards";
      default_runs = 100;
      default_shards = 4;
      flags = [];
      battery =
        (fun a ->
          let* flat = Explorer.run_push_equivalence ~shards:1 ~seed:a.seed ~runs:a.runs () in
          let* sharded =
            Explorer.run_push_equivalence ~shards:a.shards ~seed:a.seed ~runs:a.runs ()
          in
          Ok
            (Printf.sprintf
               "ok: %d push-equivalence schedules at shards=1 + %d at shards=%d — push-on \
                and pull-only runs converged bit-identical"
               flat.Explorer.schedules sharded.Explorer.schedules a.shards));
      failure = "push equivalence failed (shrunk counterexample above)";
    };
    {
      name = "member";
      doc = "join/leave/retire schedules under faults, against the stable-name oracle";
      default_runs = 200;
      default_shards = 1;
      flags = [];
      battery =
        (fun a ->
          let* r =
            Explorer.run_membership_equivalence ~shards:a.shards ~seed:a.seed ~runs:a.runs ()
          in
          Ok
            (Printf.sprintf
               "ok: %d membership schedules (join/leave/retire under faults) converged \
                oracle-identical with no retired component surviving"
               r.Explorer.schedules));
      failure = "membership soak failed (shrunk counterexample above)";
    };
  ]

let soak_cmd =
  let row =
    let doc = List.map (fun r -> Printf.sprintf "$(b,%s): %s" r.name r.doc) soak_table in
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun r -> (r.name, r)) soak_table))) None
      & info [] ~docv:"MODE" ~doc:(String.concat "; " doc ^ "."))
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.") in
  let runs =
    Arg.(
      value
      & opt (some int) None
      & info [ "runs" ] ~docv:"K"
          ~doc:"Schedules per battery (default 100; 200 for $(b,chaos) and $(b,member)).")
  in
  let shards =
    Arg.(
      value
      & opt (some int) None
      & info [ "shards" ] ~docv:"K"
          ~doc:"Per-node shard count (default 1; 4 for $(b,shard) and $(b,push)).")
  in
  let topology =
    Arg.(
      value
      & opt (some string) None
      & info [ "topology" ] ~docv:"T"
          ~doc:"$(b,check), $(b,chaos): clique, ring, star, or all (mixed, the default).")
  in
  let oplog_depth =
    Arg.(
      value
      & opt (some int) None
      & info [ "oplog" ] ~docv:"DEPTH"
          ~doc:"$(b,check): op-log transport mode with per-item history DEPTH.")
  in
  let mutate =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:
            "$(b,check), $(b,chaos): corrupt every schedule's state; the checker is \
             expected to FAIL (a smoke test of the checker itself).")
  in
  let run row seed runs shards topology oplog_depth mutate =
    let given =
      List.filter_map
        (fun (flag, set) -> if set then Some flag else None)
        [
          ("--topology", topology <> None);
          ("--oplog", oplog_depth <> None);
          ("--mutate", mutate);
        ]
    in
    let topology =
      match Option.map String.lowercase_ascii topology with
      | None | Some "all" -> Ok None
      | Some name -> (
        match Explorer.topology_of_string name with
        | Some t -> Ok (Some t)
        | None -> Error (Printf.sprintf "unknown topology %S" name))
    in
    match (List.find_opt (fun flag -> not (List.mem flag row.flags)) given, topology) with
    | Some flag, _ -> `Error (true, Printf.sprintf "soak %s takes no %s" row.name flag)
    | None, Error msg -> `Error (false, msg)
    | None, Ok topology -> (
      let runs = Option.value runs ~default:row.default_runs in
      let shards = Option.value shards ~default:row.default_shards in
      let mode = Option.map (fun depth -> Node.Op_log { depth }) oplog_depth in
      match row.battery { seed; runs; shards; topology; mode; mutate } with
      | Ok line ->
        print_endline line;
        `Ok ()
      | Error msg ->
        print_string msg;
        if not (String.length msg > 0 && msg.[String.length msg - 1] = '\n') then
          print_newline ();
        `Error (false, row.failure))
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Explore randomized fault schedules in one of five modes; a failure prints the \
          shrunk counterexample and the seed to replay it.")
    Term.(ret (const run $ row $ seed $ runs $ shards $ topology $ oplog_depth $ mutate))

(* ------------------------------------------------------------------ *)
(* member                                                              *)
(* ------------------------------------------------------------------ *)

let member_cmd =
  let module Group = Edb_membership.Group in
  let mode =
    Arg.(
      required
      & pos 0 (some (enum [ ("join", `Join); ("leave", `Leave); ("retire", `Retire) ])) None
      & info [] ~docv:"MODE"
          ~doc:
            "$(b,join), $(b,leave) or $(b,retire) walk one membership \
             operation through a small cluster, narrating the event log.")
  in
  (* Shared stage: a 3-member group with one update per member applied
     everywhere, so every vector is non-trivial before the operation
     under demonstration runs. *)
  let stage () =
    let g = Group.create ~shards:1 ~n:3 () in
    for name = 0 to 2 do
      match
        Group.update g ~name ~item:(Printf.sprintf "item-%d" name)
          (Edb_store.Operation.Set (Printf.sprintf "v%d" name))
      with
      | Ok () -> ()
      | Error msg -> failwith msg
    done;
    ignore (Group.observe g : Group.event list);
    g
  in
  let round g =
    let names =
      Array.to_list (Group.roster g)
      |> List.filter (fun name -> Group.alive g ~name
                                  && Group.status g ~name <> Group.Departed
                                  && Group.status g ~name <> Group.Retired)
    in
    let arr = Array.of_list names in
    let k = Array.length arr in
    for i = 0 to k - 1 do
      ignore
        (Group.sync g ~a:arr.(i) ~b:arr.((i + 1) mod k)
          : (unit, string) Stdlib.result)
    done;
    List.iter
      (fun ev -> Printf.printf "  event: %s\n" (Group.event_to_string ev))
      (Group.observe g)
  in
  let show g =
    Printf.printf
      "  epoch %d · live %d · mean vector length %.2f · fences pending [%s]\n"
      (Group.epoch g) (Group.live_count g)
      (Group.mean_vector_components g)
      (String.concat "; " (List.map string_of_int (Group.pending_fences g)))
  in
  let finish g =
    (match Group.check g with
    | Ok () -> print_endline "group invariants: ok"
    | Error msg -> Printf.printf "group invariants: FAILED — %s\n" msg);
    `Ok ()
  in
  let run mode =
    match mode with
    | `Join ->
      let g = stage () in
      print_endline "three members staged; a newcomer joins from donor 0:";
      let name =
        match Group.join g ~donor:0 with Ok n -> n | Error m -> failwith m
      in
      (match Group.read g ~name ~item:"item-1" with
      | Error msg -> Printf.printf "  read gate holds while Joining: %s\n" msg
      | Ok _ -> print_endline "  read gate FAILED to hold");
      show g;
      print_endline "catch-up anti-entropy until the DBVV dominates the donor watermark:";
      round g;
      Printf.printf "  member %d is now %s\n" name
        (Group.status_to_string (Group.status g ~name));
      show g;
      finish g
    | `Leave ->
      let g = stage () in
      print_endline "three members staged; member 1 leaves gracefully:";
      (match Group.leave g ~name:1 with Ok () -> () | Error m -> failwith m);
      (match Group.update g ~name:1 ~item:"item-1" (Edb_store.Operation.Set "late") with
      | Error msg -> Printf.printf "  draining member refuses updates: %s\n" msg
      | Ok () -> print_endline "  drain FAILED to refuse an update");
      show g;
      print_endline "final anti-entropy rounds drain the member out:";
      round g;
      round g;
      Printf.printf "  member 1 is now %s\n"
        (Group.status_to_string (Group.status g ~name:1));
      show g;
      finish g
    | `Retire ->
      let g = stage () in
      print_endline "three members staged; member 2 crashes and is retired:";
      Group.crash g ~name:2;
      (match Group.retire g ~name:2 with Ok () -> () | Error m -> failwith m);
      show g;
      print_endline "the fence gathers acks epidemically:";
      round g;
      round g;
      Printf.printf "  member 2 is now %s\n"
        (Group.status_to_string (Group.status g ~name:2));
      show g;
      let c = Group.counters_total g in
      Printf.printf
        "  counters: joins_completed=%d retirements_completed=%d \
         vector_components_gced=%d\n"
        c.Counters.joins_completed c.Counters.retirements_completed
        c.Counters.vector_components_gced;
      finish g
  in
  Cmd.v
    (Cmd.info "member"
       ~doc:
         "Dynamic membership: narrate a join (snapshot bootstrap + catch-up \
          gate), a graceful leave (drain then depart) or a dead-node \
          retirement (two-phase fence, then the origin's vector component is \
          garbage-collected everywhere). $(b,soak member) soaks the whole \
          subsystem.")
    Term.(ret (const run $ mode))

(* ------------------------------------------------------------------ *)
(* wire                                                                *)
(* ------------------------------------------------------------------ *)

module Frame = Edb_persist.Frame

(* xxd-style dump: offset, 16 hex bytes, printable ASCII. *)
let hex_dump data =
  let n = String.length data in
  let buf = Buffer.create (n * 4) in
  let rows = (n + 15) / 16 in
  for row = 0 to rows - 1 do
    Printf.bprintf buf "  %04x  " (row * 16);
    for i = 0 to 15 do
      let pos = (row * 16) + i in
      if pos < n then Printf.bprintf buf "%02x " (Char.code data.[pos])
      else Buffer.add_string buf "   ";
      if i = 7 then Buffer.add_char buf ' '
    done;
    Buffer.add_string buf " |";
    for i = 0 to 15 do
      let pos = (row * 16) + i in
      if pos < n then
        let c = data.[pos] in
        Buffer.add_char buf (if c >= ' ' && c < '\x7f' then c else '.')
    done;
    Buffer.add_string buf "|\n"
  done;
  Buffer.contents buf

let frame_of_hex s =
  let digits = Buffer.create (String.length s) in
  String.iter
    (function ' ' | '\t' | '\n' | '\r' -> () | c -> Buffer.add_char digits c)
    s;
  let h = Buffer.contents digits in
  if String.length h mod 2 <> 0 then invalid_arg "odd number of hex digits";
  let nibble = function
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | c -> invalid_arg (Printf.sprintf "invalid hex digit %C" c)
  in
  String.init
    (String.length h / 2)
    (fun i -> Char.chr ((nibble h.[2 * i] lsl 4) lor nibble h.[(2 * i) + 1]))

let wire_cmd =
  let hex =
    Arg.(
      value
      & opt (some string) None
      & info [ "hex" ] ~docv:"HEX"
          ~doc:
            "Decode this hex-encoded frame (whitespace ignored) instead of \
             walking the sample session.")
  in
  let nodes =
    Arg.(
      value & opt int 4
      & info [ "n"; "nodes" ] ~docv:"N"
          ~doc:
            "Replica count — the version-vector dimension, which v2 bodies \
             leave implicit and so must be supplied to decode them.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.")
  in
  let run hex nodes seed =
    let show label data =
      Printf.printf "-- %s (%d bytes)\n" label (String.length data);
      print_string (hex_dump data);
      print_string (Frame.describe ~n:nodes data);
      print_newline ()
    in
    match hex with
    | Some h -> (
      match frame_of_hex h with
      | exception Invalid_argument msg -> `Error (false, msg)
      | data -> (
        try
          show "frame" data;
          `Ok ()
        with Edb_persist.Codec.Reader.Corrupt msg ->
          `Error (false, Printf.sprintf "corrupt frame: %s" msg)))
    | None ->
      (* A sample anti-entropy exchange between two diverged nodes,
         showing the negotiation ladder: a pessimistic v1 request, a v2
         reply (the request advertised v2), a v2 absolute request, and
         finally a delta-encoded request against the acked baseline. *)
      let cluster = Cluster.create ~seed ~n:nodes () in
      Cluster.update cluster ~node:0 ~item:"alpha" (Operation.Set "from node 0");
      Cluster.update cluster ~node:1 ~item:"beta" (Operation.Set "from node 1");
      let a = Cluster.node cluster 0 and b = Cluster.node cluster 1 in
      let session label =
        let req = Frame.encode_request b ~dst:0 in
        show (label ^ ": request node1 -> node0") req;
        let reply = Frame.respond a ~src:1 req in
        show (label ^ ": reply node0 -> node1") reply;
        match Frame.decode_reply b ~src:0 reply with
        | Frame.Nak _ -> ()
        | Frame.Reply (r, _) -> ignore (Node.accept_propagation b ~source:0 r)
      in
      session "session 1 (fresh peers, pessimistic v1)";
      session "session 2 (negotiated v2, absolute DBVV)";
      Cluster.update cluster ~node:1 ~item:"beta" (Operation.Set "edited");
      session "session 3 (v2, DBVV delta against acked baseline)";
      `Ok ()
  in
  let term = Term.(ret (const run $ hex $ nodes $ seed)) in
  Cmd.v
    (Cmd.info "wire"
       ~doc:
         "Hex-dump and pretty-decode wire frames: either a caller-supplied \
          hex frame, or a generated sample session showing version \
          negotiation and delta-encoded version vectors.")
    term

(* ------------------------------------------------------------------ *)
(* scenario                                                            *)
(* ------------------------------------------------------------------ *)

module Scenario = Edb_scenario.Scenario
module Orchestrator = Edb_scenario.Orchestrator

let print_scenario_report (sc : Scenario.t) (r : Orchestrator.result) =
  Printf.printf "scenario: %s — %s\n" sc.Scenario.name sc.Scenario.description;
  Printf.printf "nodes/shards/items:  %d / %d / %d\n" sc.Scenario.nodes
    sc.Scenario.shards sc.Scenario.items;
  Printf.printf "%5s %8s %6s %7s %8s %9s %11s %10s\n" "tick" "time" "alive" "issued"
    "visible" "sessions" "bytes_sent" "staleness";
  List.iter
    (fun (t : Orchestrator.tick) ->
      let bytes =
        match List.assoc_opt "bytes_sent" t.Orchestrator.counters with
        | Some v -> v
        | None -> 0
      in
      let stale =
        match t.Orchestrator.staleness with
        | None -> "-"
        | Some s -> Printf.sprintf "%.1f" s.Orchestrator.mean
      in
      Printf.printf "%5d %8.1f %6d %7d %8d %9d %11d %10s\n" t.Orchestrator.index
        t.Orchestrator.time t.Orchestrator.alive t.Orchestrator.issued
        t.Orchestrator.visible t.Orchestrator.attempted bytes stale)
    r.Orchestrator.ticks;
  (match r.Orchestrator.converged_at with
  | Some t -> Printf.printf "converged at:        %.1f (virtual time)\n" t
  | None ->
    if sc.Scenario.until_converged then
      Printf.printf "converged at:        not within %.1f\n" sc.Scenario.deadline);
  Printf.printf "updates:             %d issued, %d globally visible\n"
    r.Orchestrator.issued r.Orchestrator.visible;
  Printf.printf "sessions attempted:  %d (lost: %d)\n" r.Orchestrator.attempted
    r.Orchestrator.lost;
  Format.printf "totals:@.%a@." Counters.pp r.Orchestrator.totals

let scenario_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME|FILE"
          ~doc:"Built-in scenario name, or path to a scenario JSON file.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Also write the per-tick time series as JSON to $(b,--out).")
  in
  let out =
    Arg.(
      value
      & opt string "BENCH_timeseries.json"
      & info [ "out" ] ~docv:"FILE" ~doc:"Output file for $(b,--json).")
  in
  let list_ =
    Arg.(value & flag & info [ "list" ] ~doc:"List built-in scenarios and exit.")
  in
  let print =
    Arg.(
      value & flag
      & info [ "print" ]
          ~doc:
            "Print the scenario itself as canonical JSON and exit without \
             running it — the committed scenarios/*.json files are exactly \
             this output.")
  in
  let run name json out list_ print =
    if list_ then begin
      List.iter
        (fun (sc : Scenario.t) ->
          Printf.printf "%-16s %s\n" sc.Scenario.name sc.Scenario.description)
        Scenario.builtins;
      `Ok ()
    end
    else
      match name with
      | None -> `Error (true, "missing scenario name or file (try --list)")
      | Some name -> (
        let load () =
          match Scenario.builtin name with
          | Some sc -> Ok sc
          | None ->
            if Sys.file_exists name then
              match In_channel.with_open_bin name In_channel.input_all with
              | contents -> (
                match Scenario.of_string contents with
                | Ok sc -> Ok sc
                | Error msg -> Error (Printf.sprintf "%s: %s" name msg))
              | exception Sys_error msg -> Error msg
            else
              Error
                (Printf.sprintf "no built-in scenario or file named %S (try --list)"
                   name)
        in
        match load () with
        | Error msg -> `Error (false, msg)
        | Ok sc when print ->
          print_string (Scenario.to_string sc);
          `Ok ()
        | Ok sc ->
          let r = Orchestrator.run sc in
          if json then begin
            (* The golden-run test pins this emission byte-for-byte,
               [generated_by] included: keep it the canonical
               invocation, independent of how the scenario was named
               on this particular command line. *)
            let generated_by =
              Printf.sprintf "edb_cli scenario %s --json" sc.Scenario.name
            in
            Out_channel.with_open_bin out (fun oc ->
                Out_channel.output_string oc (Orchestrator.to_string ~generated_by r));
            Printf.printf "wrote %s (%d ticks)\n" out
              (List.length r.Orchestrator.ticks)
          end;
          print_scenario_report sc r;
          `Ok ())
  in
  let term = Term.(ret (const run $ name_arg $ json $ out $ list_ $ print)) in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Run a declarative scenario — arrival phases or an explicit script, \
          faults, anti-entropy cadence — and sample every cost counter plus \
          update staleness per tick.")
    term

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let module Daemon = Edb_transport.Daemon in
  let module Socket_transport = Edb_transport.Socket_transport in
  let id =
    Arg.(
      required
      & opt (some int) None
      & info [ "id" ] ~docv:"I" ~doc:"This node's id, in [0, n).")
  in
  let n =
    Arg.(
      required
      & opt (some int) None
      & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let dir =
    Arg.(
      required
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Durable state directory (WAL + checkpoints; created if \
             missing). Restarting over the same directory recovers.")
  in
  let listen =
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Listen address: $(b,unix:)$(i,PATH) or \
             $(b,tcp:)$(i,HOST):$(i,PORT) (port 0 picks a free port).")
  in
  let peers =
    Arg.(
      value & opt_all string []
      & info [ "peer" ] ~docv:"ID=ADDR"
          ~doc:
            "A peer's address, e.g. $(b,--peer 1=unix:/tmp/n1.sock). \
             Repeat for every other node.")
  in
  let ae_period =
    Arg.(
      value & opt float 0.05
      & info [ "ae-period" ] ~docv:"SECS"
          ~doc:"Seconds between anti-entropy pulls from a random peer.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.") in
  let checkpoint_every =
    Arg.(
      value & opt int 0
      & info [ "checkpoint-every" ] ~docv:"K"
          ~doc:
            "Also checkpoint when the journal reaches K records (0: no such bound). \
             Without it the daemon still checkpoints at a tick once its journal is larger \
             than both its checkpoint and 1 MiB, once after a restart's catch-up round, \
             and before it binds when the journal is larger than its checkpoint.")
  in
  let max_runtime =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-runtime" ] ~docv:"SECS"
          ~doc:"Self-terminate after this many seconds.")
  in
  let max_sessions =
    Arg.(
      value & opt int 4
      & info [ "max-sessions" ] ~docv:"K"
          ~doc:
            "Peers each anti-entropy round pulls, one after another, each \
             request carrying the DBVV the previous reply advanced (clamped \
             to n-1 peers).")
  in
  let parse_peer s =
    match String.index_opt s '=' with
    | None -> Error (`Msg (Printf.sprintf "bad --peer %S: expected ID=ADDR" s))
    | Some eq -> (
      match int_of_string_opt (String.sub s 0 eq) with
      | None -> Error (`Msg (Printf.sprintf "bad --peer %S: ID not a number" s))
      | Some id -> (
        let addr = String.sub s (eq + 1) (String.length s - eq - 1) in
        match Socket_transport.addr_of_string addr with
        | Ok a -> Ok (id, a)
        | Error m ->
          Error (`Msg (Printf.sprintf "bad --peer %S: %s" s m))))
  in
  let run id n dir listen peers ae_period seed checkpoint_every max_runtime max_sessions =
    match Socket_transport.addr_of_string listen with
    | Error m -> `Error (true, "bad --listen: " ^ m)
    | Ok listen -> (
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | s :: rest -> (
          match parse_peer s with
          | Ok p -> parse (p :: acc) rest
          | Error (`Msg m) -> Error m)
      in
      match parse [] peers with
      | Error m -> `Error (true, m)
      | Ok peers -> (
        let config =
          Daemon.Config.make ~ae_period ~seed ~checkpoint_every ?max_runtime
            ~max_sessions ~id ~n ~dir ~listen ~peers ()
        in
        match Daemon.serve config with
        | Ok () -> `Ok ()
        | Error m -> `Error (false, m)))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run one protocol node as a daemon: a durable node (WAL + \
          checkpoints) served over Unix-domain or TCP sockets, answering \
          propagation requests, applying pushes, and pulling from a random \
          peer on an anti-entropy timer.")
    Term.(
      ret
        (const run $ id $ n $ dir $ listen $ peers $ ae_period $ seed
       $ checkpoint_every $ max_runtime $ max_sessions))

(* ------------------------------------------------------------------ *)
(* cluster                                                             *)
(* ------------------------------------------------------------------ *)

let cluster_cmd =
  let module Harness = Edb_transport.Harness in
  let module Invariant = Edb_check.Invariant in
  let n =
    Arg.(
      value & opt int 3
      & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Cluster size.")
  in
  let kind =
    Arg.(
      value
      & opt (enum [ ("unix", `Unix); ("tcp", `Tcp) ]) `Unix
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Socket flavor: $(b,unix) (default) or $(b,tcp).")
  in
  let dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Cluster directory (sockets + per-node state); default a fresh \
             directory under the system temp dir.")
  in
  let updates =
    Arg.(
      value & opt int 24
      & info [ "updates" ] ~docv:"K"
          ~doc:"Scripted updates, issued round-robin across the nodes.")
  in
  let kill =
    Arg.(
      value
      & opt (some int) (Some 1)
      & info [ "kill" ] ~docv:"I"
          ~doc:
            "Mid-run, SIGKILL node I (nothing flushed), keep updating the \
             others, then restart it over its WAL. $(b,--no-kill) to skip.")
  in
  let no_kill =
    Arg.(value & flag & info [ "no-kill" ] ~doc:"Skip the kill/restart leg.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed.") in
  let deadline =
    Arg.(
      value & opt float 30.0
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:"Seconds to wait for convergence before failing.")
  in
  let max_sessions =
    Arg.(
      value & opt int 4
      & info [ "max-sessions" ] ~docv:"K"
          ~doc:
            "Peers each daemon's anti-entropy round pulls, one after \
             another (clamped to n-1 peers).")
  in
  let run n kind dir updates kill no_kill seed deadline max_sessions =
    if n < 2 then `Error (true, "--n must be at least 2")
    else begin
      let dir =
        match dir with
        | Some d -> d
        | None ->
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "edb-cluster-%d" (Unix.getpid ()))
      in
      let kill = if no_kill then None else kill in
      (match kill with
      | Some k when k < 0 || k >= n ->
        invalid_arg (Printf.sprintf "--kill %d out of range [0, %d)" k n)
      | _ -> ());
      Printf.printf "booting %d daemons (%s sockets) under %s\n%!" n
        (match kind with `Unix -> "unix" | `Tcp -> "tcp")
        dir;
      let h =
        (* The daemons are this executable's own `serve`. *)
        Harness.start ~exe:Sys.executable_name ~kind ~seed ~max_runtime:(deadline +. 60.0)
          ~max_sessions ~dir ~n ()
      in
      Fun.protect
        ~finally:(fun () -> Harness.shutdown h)
        (fun () ->
          let items = [| "alpha"; "beta"; "gamma"; "delta" |] in
          let issued = ref 0 in
          let last_write = ref None in
          let update ~node =
            (* Single-writer per item (the item name carries its owner):
               cross-node updates to one item would be genuine concurrent
               writes, reported as conflicts — which, under the paper's
               report-only policy, correctly never merge. *)
            let item =
              Printf.sprintf "%s.%d" items.(!issued mod Array.length items) node
            in
            let value = Printf.sprintf "v%d from node %d" !issued node in
            (match Harness.update h ~node ~item (Operation.Set value) with
            | Ok () -> ()
            | Error m -> failwith (Printf.sprintf "update on node %d: %s" node m));
            last_write := Some (item, value);
            incr issued
          in
          (* First leg: updates spread round-robin over every node. *)
          let first = match kill with None -> updates | Some _ -> updates / 2 in
          for i = 0 to first - 1 do
            update ~node:(i mod n)
          done;
          (match kill with
          | None -> ()
          | Some victim ->
            Printf.printf "kill -9 node %d mid-run, updating the others\n%!"
              victim;
            Harness.kill h ~node:victim;
            (* Second leg lands only on survivors; the victim must catch
               up from its WAL via anti-entropy after restart. *)
            let survivors =
              Array.of_list
                (List.filter (fun i -> i <> victim) (List.init n Fun.id))
            in
            for i = 0 to updates - first - 1 do
              update ~node:survivors.(i mod Array.length survivors)
            done;
            Printf.printf "restarting node %d over its WAL\n%!" victim;
            let restarted = Unix.gettimeofday () in
            Harness.restart h ~node:victim;
            (* How long the reopened victim takes to catch up: poll it
               for the last survivor write. *)
            match !last_write with
            | Some (item, value) when updates > first ->
              let rec poll () =
                let read = Harness.read h ~node:victim ~item in
                let elapsed = Unix.gettimeofday () -. restarted in
                match read with
                | Ok (Some v) when v = value -> Some elapsed
                | _ when elapsed > deadline -> None
                | _ ->
                  Unix.sleepf 0.002;
                  poll ()
              in
              (match poll () with
              | Some elapsed ->
                Printf.printf "node %d read the last survivor write %.3fs after its restart\n%!"
                  victim elapsed
              | None ->
                Printf.printf "node %d did not read the last survivor write within %.0fs\n%!"
                  victim deadline)
            | _ -> ());
          match
            Harness.await_converged ~deadline
              ~invariant:(fun node -> Invariant.check_node node)
              h
          with
          | Error m -> `Error (false, Printf.sprintf "cluster did not converge: %s" m)
          | Ok elapsed ->
            Printf.printf "converged checker-clean in %.2fs (%d updates)\n"
              elapsed !issued;
            let total key =
              List.fold_left
                (fun acc node ->
                  match Harness.counters_of h ~node with
                  | Ok fields ->
                    acc + (try List.assoc key fields with Not_found -> 0)
                  | Error _ -> acc)
                0
                (List.init n Fun.id)
            in
            let journals =
              String.concat " "
                (List.init n (fun node ->
                     match Harness.journal h ~node with
                     | Ok (records, bytes) -> Printf.sprintf "%d/%d" records bytes
                     | Error _ -> "?"))
            in
            Printf.printf
              "totals: %d conns opened, %d conn retries, %d wire bytes, %d \
               timeouts, %d abandoned; journal records/bytes per node: %s\n"
              (total "connections_opened")
              (total "connection_retries")
              (total "wire_bytes_sent") (total "timeouts")
              (total "sessions_abandoned") journals;
            `Ok ())
    end
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Boot an N-process cluster of $(b,serve) daemons over real \
          sockets, drive scripted updates (optionally SIGKILLing and \
          restarting a daemon mid-run), and wait for every store to \
          converge checker-clean.")
    Term.(
      ret
        (const run $ n $ kind $ dir $ updates $ kill $ no_kill $ seed
       $ deadline $ max_sessions))

(* ------------------------------------------------------------------ *)
(* demo                                                                *)
(* ------------------------------------------------------------------ *)

let demo_cmd =
  let run () =
    let cluster = Cluster.create ~seed:1 ~n:3 () in
    Cluster.update cluster ~node:0 ~item:"motd" (Operation.Set "hello from node 0");
    ignore (Cluster.pull cluster ~recipient:1 ~source:0);
    ignore (Cluster.pull cluster ~recipient:2 ~source:1);
    for node = 0 to 2 do
      Printf.printf "node %d reads: %s\n" node
        (Option.value ~default:"<absent>" (Cluster.read cluster ~node ~item:"motd"))
    done;
    (match Cluster.pull cluster ~recipient:2 ~source:0 with
    | Node.Already_current ->
      print_endline "identical replicas detected in O(1) (you-are-current)"
    | Node.Pulled _ -> ());
    `Ok ()
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Three-node walkthrough of the protocol.")
    Term.(ret (const run $ const ()))

let () =
  let doc = "Scalable update propagation in epidemic replicated databases (EDBT '96)" in
  let info = Cmd.info "edb" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            bench_cmd; simulate_cmd; soak_cmd; member_cmd; wire_cmd;
            scenario_cmd; serve_cmd; cluster_cmd; demo_cmd;
          ]))
