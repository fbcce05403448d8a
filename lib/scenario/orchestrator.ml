module Json = Edb_metrics.Json
module Histogram = Edb_metrics.Histogram
module Counters = Edb_metrics.Counters
module Engine = Edb_sim.Engine
module Network = Edb_sim.Network
module Workload = Edb_workload.Workload
module Driver = Edb_baselines.Driver
module Cluster = Edb_core.Cluster
module Node = Edb_core.Node
module Vv = Edb_vv.Version_vector
module Operation = Edb_store.Operation
module Group = Edb_membership.Group

type stale = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p99 : float;
  max_ : float;
}

type membership_sample = { live : int; mean_components : float }

type tick = {
  index : int;
  time : float;
  alive : int;
  attempted : int;
  lost : int;
  in_flight : int;
  issued : int;
  visible : int;
  counters : (string * int) list;
  staleness : stale option;
  membership : membership_sample option;
}

type result = {
  scenario : Scenario.t;
  converged_at : float option;
  end_time : float;
  ticks : tick list;
  issued : int;
  visible : int;
  staleness : Histogram.t;
  totals : Counters.t;
  attempted : int;
  lost : int;
}

(* ------------------------------------------------------------------ *)
(* Arrival compilation                                                 *)
(* ------------------------------------------------------------------ *)

(* Compile the arrival plan into [(at, node, item, op)] in issue order.
   Phase timing is [from + span * i / count], evaluated in exactly that
   order: E12's table, pinned in test_experiments.ml, depends on every
   issue time bit for bit, and a regrouped expression rounds some of
   them differently. *)
let compile_arrival (sc : Scenario.t) =
  match sc.arrival with
  | Script steps ->
    List.map
      (fun (s : Scenario.scripted) ->
        let item = Workload.item_name s.item in
        let op = Operation.Set (Workload.payload ~item ~seq:s.seq ~size:sc.value_size) in
        (s.at, s.node, item, op))
      steps
  | Phases phases ->
    let counts =
      List.map
        (fun (p : Scenario.phase) ->
          int_of_float (((p.until -. p.from_) *. p.rate) +. 0.5))
        phases
    in
    let total = List.fold_left ( + ) 0 counts in
    let selector = Workload.Selector.zipfian ~n:sc.items ~exponent:sc.zipf in
    let steps =
      Workload.update_stream ~seed:sc.seeds.workload ~selector ~nodes:sc.nodes
        ~count:total ~value_size:sc.value_size
    in
    let steps =
      if not sc.single_writer then steps
      else
        List.map
          (fun (step : Workload.step) ->
            let rank = Scanf.sscanf step.item "item-%d" Fun.id in
            { step with node = rank mod sc.nodes })
          steps
    in
    let remaining = ref steps in
    let take () =
      match !remaining with
      | [] -> assert false (* counts sum to the stream length *)
      | s :: rest ->
        remaining := rest;
        s
    in
    List.concat
      (List.map2
         (fun (p : Scenario.phase) count ->
           let span = p.until -. p.from_ in
           List.init count (fun i ->
               let step = take () in
               let at =
                 p.from_ +. (span *. float_of_int i /. float_of_int count)
               in
               (at, step.Workload.node, step.Workload.item, step.Workload.op)))
         phases counts)

(* ------------------------------------------------------------------ *)
(* The membership runner                                               *)
(* ------------------------------------------------------------------ *)

(* A scenario with a churn block runs on {!Edb_membership.Group}
   instead of the simulator engine: membership is variable, so the
   fixed-dimension cluster/driver machinery does not apply. The runner
   is synchronous and fully deterministic — events execute in (time,
   class, declaration) order with the same class tie-break as the
   engine path (updates, then anti-entropy rounds, then faults, then
   membership ops), and an anti-entropy round is one ring pass over the
   current participant set followed by a controller pass. *)

type churn_ev =
  | Ev_update of int * string * Operation.t
  | Ev_round
  | Ev_crash of int
  | Ev_recover of int
  | Ev_join of int
  | Ev_leave of int
  | Ev_retire of int

let run_churn (sc : Scenario.t) (churn : Scenario.churn) =
  let g = Group.create ~shards:sc.shards ~n:sc.nodes () in
  let timeline =
    let evs = ref [] in
    let idx = ref 0 in
    let add at cls ev =
      evs := (at, cls, !idx, ev) :: !evs;
      incr idx
    in
    List.iter
      (fun (at, node, item, op) -> add at 0 (Ev_update (node, item, op)))
      (compile_arrival sc);
    let rec rounds at = if at <= sc.deadline then begin add at 1 Ev_round; rounds (at +. sc.period) end in
    rounds sc.first_at;
    List.iter
      (fun (f : Scenario.fault) ->
        match f with
        | Scenario.Crash { at; node } -> add at 2 (Ev_crash node)
        | Scenario.Recover { at; node } -> add at 2 (Ev_recover node)
        | Scenario.Partition _ | Scenario.Heal _ | Scenario.Loss _
        | Scenario.Duplication _ ->
          (* Rejected by validation for churn scenarios. *)
          assert false)
      sc.faults;
    List.iter
      (fun (op : Scenario.churn_op) ->
        match op with
        | Scenario.Join { at; donor } -> add at 3 (Ev_join donor)
        | Scenario.Leave { at; name } -> add at 3 (Ev_leave name)
        | Scenario.Retire { at; name } -> add at 3 (Ev_retire name))
      churn.ops;
    List.sort
      (fun (ta, ca, ia, _) (tb, cb, ib, _) -> compare (ta, ca, ia) (tb, cb, ib))
      !evs
  in
  let issued = ref 0 and attempted = ref 0 in
  let issued_by = Hashtbl.create 16 in
  let participants () =
    Array.to_list (Group.roster g)
    |> List.filter (fun name ->
           Group.alive g ~name
           &&
           match Group.status g ~name with
           | Group.Joining | Group.Active | Group.Draining -> true
           | Group.Departed | Group.Retiring | Group.Retired -> false)
  in
  let exec = function
    | Ev_update (node, item, op) -> (
      (* The owner routing of [compile_arrival] names a stable member;
         an update whose owner cannot accept it right now (crashed,
         draining, departed) is simply not offered — membership churn
         sheds that slice of the load. *)
      match Group.update g ~name:node ~item op with
      | Ok () ->
        incr issued;
        Hashtbl.replace issued_by node
          (1 + Option.value ~default:0 (Hashtbl.find_opt issued_by node))
      | Error _ -> ())
    | Ev_round ->
      (match participants () with
      | [] | [ _ ] -> ()
      | ps ->
        let arr = Array.of_list ps in
        let k = Array.length arr in
        for i = 0 to k - 1 do
          let a = arr.(i) and b = arr.((i + 1) mod k) in
          match Group.sync g ~a ~b with
          | Ok () -> incr attempted
          | Error _ -> ()
        done);
      ignore (Group.observe g : Group.event list)
    | Ev_crash n -> if Group.alive g ~name:n then Group.crash g ~name:n
    | Ev_recover n ->
      if not (Group.alive g ~name:n) then
        ignore (Group.recover g ~name:n : (unit, string) Stdlib.result)
    | Ev_join donor -> ignore (Group.join g ~donor : (int, string) Stdlib.result)
    | Ev_leave name -> ignore (Group.leave g ~name : (unit, string) Stdlib.result)
    | Ev_retire name -> ignore (Group.retire g ~name : (unit, string) Stdlib.result)
  in
  (* Updates globally visible: per origin, the slowest full-epoch
     participant's DBVV component bounds how many of the origin's
     issued updates every live replica holds. An origin that has been
     retired contributes all of its updates — its fence proved them
     uniformly replicated before the component was dropped.

     The instantaneous bound collapses while a freshly appended
     membership event leaves no member at the controller's epoch; the
     sampler clamps to the running maximum, since global visibility is
     monotone by definition. *)
  let visible_now () =
    let roster = Group.roster g in
    let full =
      List.filter
        (fun name -> Group.member_epoch g ~name = Group.epoch g)
        (participants ())
    in
    Hashtbl.fold
      (fun origin count acc ->
        let slot = ref None in
        Array.iteri (fun i n -> if n = origin then slot := Some i) roster;
        match (!slot, full) with
        | None, _ -> acc + count
        | Some _, [] -> acc
        | Some s, full ->
          let m =
            List.fold_left
              (fun m name ->
                min m (Vv.get (Node.dbvv_view (Group.node g ~name)) s))
              max_int full
          in
          acc + min count m)
      issued_by 0
  in
  let settled () =
    Group.pending_fences g = []
    && Array.for_all
         (fun name ->
           match Group.status g ~name with
           | Group.Active | Group.Departed | Group.Retired -> true
           | Group.Joining | Group.Draining | Group.Retiring -> false)
         (Group.roster g)
    && Group.converged g
  in
  let sampler = Sampler.create () in
  let ticks = ref [] in
  let visible = ref 0 in
  let converged_at = ref None in
  let sample ~index ~time =
    visible := max !visible (visible_now ());
    ticks :=
      {
        index;
        time;
        alive = Group.live_count g;
        attempted = !attempted;
        lost = 0;
        in_flight = 0;
        issued = !issued;
        visible = !visible;
        counters = Sampler.sample sampler (Group.counters_total g);
        staleness = None;
        membership =
          Some
            {
              live = Group.live_count g;
              mean_components = Group.mean_vector_components g;
            };
      }
      :: !ticks
  in
  sample ~index:0 ~time:0.0;
  let pending = ref timeline in
  let advance_to time =
    let rec go () =
      match !pending with
      | (at, _, _, ev) :: rest when at <= time ->
        pending := rest;
        exec ev;
        go ()
      | _ -> ()
    in
    go ()
  in
  let end_time = ref 0.0 in
  let rec loop k =
    let time = float_of_int k *. sc.tick in
    if time <= sc.deadline then begin
      advance_to time;
      end_time := time;
      sample ~index:k ~time;
      let stop =
        if sc.until_converged then
          if time > sc.duration && settled () then begin
            converged_at := Some time;
            true
          end
          else time >= sc.deadline
        else time >= sc.duration
      in
      if not stop then loop (k + 1)
    end
  in
  loop 1;
  {
    scenario = sc;
    converged_at = !converged_at;
    end_time = !end_time;
    ticks = List.rev !ticks;
    issued = !issued;
    visible = !visible;
    staleness = Histogram.create ();
    totals = Group.counters_total g;
    attempted = !attempted;
    lost = 0;
  }

(* ------------------------------------------------------------------ *)
(* Run                                                                 *)
(* ------------------------------------------------------------------ *)

let run_classic (sc : Scenario.t) =
  (* Deterministic failpoint replay for armed Probability triggers. *)
  Edb_fault.Fault.seed_prng sc.seeds.engine;
  let push_config =
    match sc.push with
    | None -> None
    | Some (p : Scenario.push) ->
      Some
        {
          Edb_push.Channel.capacity = p.capacity;
          policy =
            (match p.drop with
            | Scenario.Drop_oldest -> Edb_push.Bounded_queue.Drop_oldest
            | Scenario.Drop_newest -> Edb_push.Bounded_queue.Drop_newest);
          flush_period = p.flush_period;
        }
  in
  let cluster, driver =
    Edb_baselines.Epidemic_driver.create ~seed:sc.seeds.driver ~cache:sc.cache
      ~shards:sc.shards ?push:push_config ~n:sc.nodes ()
  in
  let network =
    Network.create ~base_latency:sc.latency ~loss_probability:sc.loss
      ~duplicate_probability:sc.duplication ()
  in
  let transport =
    match sc.transport with
    | Scenario.Session -> Engine.Session_grain
    | Scenario.Message r ->
      Engine.Message_grain
        {
          Engine.timeout = r.timeout;
          backoff_base = r.backoff_base;
          backoff_factor = r.backoff_factor;
          backoff_max = r.backoff_max;
          jitter = r.jitter;
          max_retries = r.max_retries;
        }
  in
  let engine = Engine.create ~seed:sc.seeds.engine ~network ~transport ~driver () in
  let issued = ref 0 and visible = ref 0 in
  (* Per-origin issue times, in issue order: the DBVV watermark pops
     them front-first as updates become globally visible. *)
  let queues = Array.init sc.nodes (fun _ -> Queue.create ()) in
  let seen = Array.make sc.nodes 0 in
  (* Insertion order fixes the FIFO tie-break at equal timestamps:
     updates, then anti-entropy, then faults. *)
  List.iter
    (fun (at, node, item, op) ->
      Engine.schedule engine ~at
        (Engine.Custom
           (fun eng ->
             (* Same guard as the engine's own User_update event; the
                wrapper only adds staleness bookkeeping. *)
             if Engine.alive eng node then begin
               driver.Driver.update ~node ~item ~op;
               incr issued;
               Queue.push (Engine.now eng) queues.(node)
             end)))
    (compile_arrival sc);
  let policy =
    match sc.topology with
    | Scenario.Random -> Engine.Random_peer
    | Scenario.Ring -> Engine.Ring
  in
  Engine.schedule engine ~at:sc.first_at
    (Engine.Anti_entropy_round { period = sc.period; policy });
  (match sc.push with
  | None -> ()
  | Some (p : Scenario.push) ->
    (* The flush cadence stops at the deadline; by then the workload is
       over, the queues have been drained, and anti-entropy owns the
       remaining convergence work. *)
    Engine.schedule engine ~at:p.flush_period
      (Engine.Push_flush { period = p.flush_period; until = sc.deadline }));
  List.iter
    (fun (f : Scenario.fault) ->
      match f with
      | Scenario.Crash { at; node } -> Engine.schedule engine ~at (Engine.Crash node)
      | Scenario.Recover { at; node } ->
        Engine.schedule engine ~at (Engine.Recover node)
      | Scenario.Partition { at; a; b } ->
        Engine.schedule engine ~at
          (Engine.Custom (fun _ -> Network.partition network a b))
      | Scenario.Heal { at; a; b } ->
        Engine.schedule engine ~at (Engine.Custom (fun _ -> Network.heal network a b))
      | Scenario.Loss { at; p } ->
        Engine.schedule engine ~at
          (Engine.Custom (fun _ -> Network.set_loss_probability network p))
      | Scenario.Duplication { at; p } ->
        Engine.schedule engine ~at
          (Engine.Custom (fun _ -> Network.set_duplicate_probability network p)))
    sc.faults;
  let sampler = Sampler.create () in
  let total_hist = Histogram.create () in
  let ticks = ref [] in
  let converged_at = ref None in
  let sample ~index ~time =
    let window = Histogram.create () in
    for o = 0 to sc.nodes - 1 do
      (* Global visibility watermark for origin o: the slowest node's
         per-origin knowledge. Crashed nodes hold it down — an update
         is not globally visible while a replica still lacks it. *)
      let m = ref max_int in
      for i = 0 to sc.nodes - 1 do
        let v = Vv.get (Node.dbvv_view (Cluster.node cluster i)) o in
        if v < !m then m := v
      done;
      while seen.(o) < !m && not (Queue.is_empty queues.(o)) do
        let t0 = Queue.pop queues.(o) in
        let d = time -. t0 in
        Histogram.add window d;
        Histogram.add total_hist d;
        incr visible;
        seen.(o) <- seen.(o) + 1
      done
    done;
    let alive = ref 0 in
    for i = 0 to sc.nodes - 1 do
      if Engine.alive engine i then incr alive
    done;
    let staleness =
      if Histogram.count window = 0 then None
      else
        Some
          {
            count = Histogram.count window;
            mean = Histogram.mean window;
            p50 = Histogram.percentile window 50.0;
            p90 = Histogram.percentile window 90.0;
            p99 = Histogram.percentile window 99.0;
            max_ = Histogram.max_value window;
          }
    in
    ticks :=
      {
        index;
        time;
        alive = !alive;
        attempted = Engine.sessions_attempted engine;
        lost = Engine.sessions_lost engine;
        in_flight = Engine.sessions_in_flight engine;
        issued = !issued;
        visible = !visible;
        counters = Sampler.sample sampler (driver.Driver.total_counters ());
        staleness;
        membership = None;
      }
      :: !ticks
  in
  sample ~index:0 ~time:0.0;
  let rec loop k =
    (* Multiply, not accumulate: tick times stay exact for the
       binary-representable tick widths the scenarios use. *)
    let time = float_of_int k *. sc.tick in
    if time <= sc.deadline then begin
      Engine.run_until engine time;
      sample ~index:k ~time;
      let stop =
        if sc.until_converged then
          if time > sc.duration && driver.Driver.converged () then begin
            converged_at := Some time;
            true
          end
          else time >= sc.deadline
        else time >= sc.duration
      in
      if not stop then loop (k + 1)
    end
  in
  loop 1;
  {
    scenario = sc;
    converged_at = !converged_at;
    end_time = Engine.now engine;
    ticks = List.rev !ticks;
    issued = !issued;
    visible = !visible;
    staleness = total_hist;
    totals = driver.Driver.total_counters ();
    attempted = Engine.sessions_attempted engine;
    lost = Engine.sessions_lost engine;
  }

let run (sc : Scenario.t) =
  (match Scenario.validate sc with
  | Ok () -> ()
  | Error msg -> invalid_arg (Printf.sprintf "Orchestrator.run: %s" msg));
  match sc.churn with
  | Some churn -> run_churn sc churn
  | None -> run_classic sc

(* ------------------------------------------------------------------ *)
(* JSON emission                                                       *)
(* ------------------------------------------------------------------ *)

let stale_json = function
  | None -> Json.Null
  | Some s ->
    Json.Obj
      [
        ("count", Json.Int s.count);
        ("mean", Json.Float s.mean);
        ("p50", Json.Float s.p50);
        ("p90", Json.Float s.p90);
        ("p99", Json.Float s.p99);
        ("max", Json.Float s.max_);
      ]

let hist_json h =
  if Histogram.count h = 0 then Json.Null
  else
    stale_json
      (Some
         {
           count = Histogram.count h;
           mean = Histogram.mean h;
           p50 = Histogram.percentile h 50.0;
           p90 = Histogram.percentile h 90.0;
           p99 = Histogram.percentile h 99.0;
           max_ = Histogram.max_value h;
         })

let counters_json counters =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) counters)

let tick_json t =
  Json.Obj
    [
      ("index", Json.Int t.index);
      ("time", Json.Float t.time);
      ("alive", Json.Int t.alive);
      ( "sessions",
        Json.Obj
          [
            ("attempted", Json.Int t.attempted);
            ("lost", Json.Int t.lost);
            ("in_flight", Json.Int t.in_flight);
          ] );
      ( "updates",
        Json.Obj [ ("issued", Json.Int t.issued); ("visible", Json.Int t.visible) ] );
      ("counters", counters_json t.counters);
      ("staleness", stale_json t.staleness);
      ( "membership",
        match t.membership with
        | None -> Json.Null
        | Some m ->
          Json.Obj
            [
              ("live", Json.Int m.live);
              ("mean_vector_components", Json.Float m.mean_components);
            ] );
    ]

let to_json ~generated_by r =
  let last_counters =
    match List.rev r.ticks with [] -> [] | last :: _ -> last.counters
  in
  Json.Obj
    [
      ("schema", Json.Int 1);
      ("kind", Json.String "timeseries");
      ("generated_by", Json.String generated_by);
      ("scenario", Scenario.to_json r.scenario);
      ("ticks", Json.List (List.map tick_json r.ticks));
      ( "summary",
        Json.Obj
          [
            ( "converged_at",
              match r.converged_at with Some t -> Json.Float t | None -> Json.Null );
            ("end_time", Json.Float r.end_time);
            ( "updates",
              Json.Obj
                [ ("issued", Json.Int r.issued); ("visible", Json.Int r.visible) ] );
            ( "sessions",
              Json.Obj
                [ ("attempted", Json.Int r.attempted); ("lost", Json.Int r.lost) ] );
            ("staleness", hist_json r.staleness);
            ("counters", counters_json last_counters);
          ] );
    ]

let to_string ~generated_by r = Json.to_string (to_json ~generated_by r)
