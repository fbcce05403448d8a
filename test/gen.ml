(* Shared QCheck2 generators for the whole test suite, so property
   tests across files agree on what "an arbitrary workload" means
   instead of each keeping its own ad-hoc copy. *)

module Operation = Edb_store.Operation

(* An arbitrary update operation: mostly whole-value sets, occasionally
   a byte-range splice (§4.4). *)
let operation =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun k -> Operation.Set (Printf.sprintf "v%d" k)) (int_bound 99));
        ( 1,
          map2
            (fun offset k -> Operation.Splice { offset; data = Printf.sprintf "s%d" k })
            (int_bound 8) (int_bound 9) );
      ])

(* ---------- Single-writer cluster scripts (test_convergence) ---------- *)

(* A scripted run over an in-process cluster whose items are owned by a
   single writer each (ownership = rank mod n), so no conflicts can
   arise and convergence must be exact. *)
type action =
  | Update of { owner_choice : int; item_rank : int }
  | Pull of { recipient : int; source : int }
  | Oob of { recipient : int; source : int; item_rank : int }

let actions ~nodes ~items =
  QCheck2.Gen.(
    let action =
      frequency
        [
          ( 4,
            map2
              (fun o r -> Update { owner_choice = o; item_rank = r })
              (int_bound 1000)
              (int_bound (items - 1)) );
          ( 4,
            map2
              (fun a b -> Pull { recipient = a mod nodes; source = b mod nodes })
              (int_bound 1000) (int_bound 1000) );
          ( 1,
            map3
              (fun a b r ->
                Oob { recipient = a mod nodes; source = b mod nodes; item_rank = r })
              (int_bound 1000) (int_bound 1000)
              (int_bound (items - 1)) );
        ]
    in
    list_size (int_range 0 120) action)

(* ---------- Log-structure scripts (test_log) ---------- *)

(* Steps against one log component, each with the next seq: [(kind,
   k)] adds item [k] for kind 0 or 1 and re-adds the item of the head
   (2), tail (3) or middle (4) record. *)
let component_script =
  QCheck2.Gen.(list_size (int_range 0 60) (pair (int_bound 4) (int_bound 9)))

(* Append/remove-earliest interleavings over a small item universe, for
   the auxiliary-log FIFO model. *)
let aux_script = QCheck2.Gen.(list (pair bool (int_bound 4)))

(* ---------- Whole simulation schedules (lib/check) ---------- *)

let schedule = Edb_check.Explorer.gen

(* ---------- Scenarios (test_scenario) ---------- *)

module Scenario = Edb_scenario.Scenario

(* An arbitrary {e valid} scenario, for the print/parse round-trip
   property. Floats are drawn on eighth-steps so every generated value
   is binary-exact (validity constraints like [until <= duration]
   survive the trip regardless — %.17g round-trips any float — but
   exact values keep counterexamples readable). Names exercise the JSON
   string escaper: quotes, backslashes, newlines, control bytes. *)
let scenario =
  QCheck2.Gen.(
    let eighth lo hi =
      map (fun i -> float_of_int i /. 8.0) (int_range (lo * 8) (hi * 8))
    in
    let prob = map (fun i -> float_of_int i /. 16.0) (int_range 0 16) in
    let name_char =
      frequency
        [ (8, char_range 'a' 'z'); (2, char_range '0' '9');
          (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; ' '; '-'; '\001'; '\127' ]) ]
    in
    let text = string_size ~gen:name_char (int_range 0 24) in
    (* [validate] rejects an empty name. *)
    let nonempty_text = string_size ~gen:name_char (int_range 1 24) in
    let* nodes = int_range 2 12 in
    let* shards = int_range 1 4 in
    let* items = int_range 1 64 in
    let* duration = eighth 1 20 in
    let phase =
      (* Cut [0, duration] at two grid points: a well-formed window. *)
      let* a = int_range 0 ((int_of_float (duration *. 8.0)) - 1) in
      let* b = int_range (a + 1) (int_of_float (duration *. 8.0)) in
      let* rate = eighth 0 4 in
      return { Scenario.from_ = float_of_int a /. 8.0;
               until = float_of_int b /. 8.0; rate }
    in
    let scripted =
      let* at = eighth 0 (int_of_float duration) in
      let* node = int_range 0 (nodes - 1) in
      let* item = int_range 0 (items - 1) in
      let* seq = int_range 1 9 in
      return { Scenario.at = Float.min at duration; node; item; seq }
    in
    let* arrival =
      oneof
        [
          map (fun ps -> Scenario.Phases ps) (list_size (int_range 1 3) phase);
          map (fun ss -> Scenario.Script ss) (list_size (int_range 0 8) scripted);
        ]
    in
    let fault =
      let* at = eighth 0 30 in
      let* node = int_range 0 (nodes - 1) in
      let* other = int_range 0 (nodes - 2) in
      let pair_b = if other >= node then other + 1 else other in
      let* p = prob in
      oneofl
        [
          Scenario.Crash { at; node };
          Scenario.Recover { at; node };
          Scenario.Partition { at; a = node; b = pair_b };
          Scenario.Heal { at; a = node; b = pair_b };
          Scenario.Loss { at; p };
          Scenario.Duplication { at; p };
        ]
    in
    let* faults = list_size (int_range 0 4) fault in
    let* transport =
      oneof
        [
          return Scenario.Session;
          (let* timeout = eighth 1 8 in
           let* backoff_base = eighth 0 2 in
           let* factor_step = int_range 8 24 in
           let* backoff_max = eighth 2 10 in
           let* jitter = eighth 0 2 in
           let* max_retries = int_range 0 5 in
           return
             (Scenario.Message
                {
                  Scenario.timeout;
                  backoff_base;
                  backoff_factor = float_of_int factor_step /. 8.0;
                  backoff_max = Float.max backoff_max backoff_base;
                  jitter;
                  max_retries;
                }));
        ]
    in
    let* push =
      match transport with
      | Scenario.Session -> return None
      | Scenario.Message _ ->
        oneof
          [
            return None;
            (let* capacity = int_range 1 128 in
             let* drop = oneofl [ Scenario.Drop_oldest; Scenario.Drop_newest ] in
             let* flush_period = eighth 1 8 in
             return (Some { Scenario.capacity; drop; flush_period }));
          ]
    in
    let* name = nonempty_text and* description = text in
    let* value_size = int_range 1 128 in
    let* zipf = eighth 0 2 in
    let* single_writer = bool and* cache = bool in
    let* driver = int_bound 9999 and* engine = int_bound 9999
    and* workload = int_bound 9999 in
    let* topology = oneofl [ Scenario.Random; Scenario.Ring ] in
    let* period = eighth 1 8 in
    let* first_at = eighth 0 8 in
    let* latency = eighth 0 4 in
    let* loss = prob and* duplication = prob in
    let* tick = eighth 1 8 in
    let* until_converged = bool in
    let* headroom = eighth 0 100 in
    return
      {
        Scenario.name;
        description;
        nodes;
        shards;
        items;
        value_size;
        zipf;
        single_writer;
        cache;
        seeds = { Scenario.driver; engine; workload };
        topology;
        period;
        first_at;
        latency;
        loss;
        duplication;
        transport;
        push;
        arrival;
        faults;
        churn = None;
        duration;
        tick;
        until_converged;
        deadline = duration +. headroom;
      })
