(* Validator for the bench emissions, run by the @bench-smoke and
   @scenario aliases so a bit-rotted harness (or a malformed emission)
   fails tier-1 instead of being discovered when someone needs the perf
   trajectory. Dispatches on the document's "kind": scenario time
   series ("timeseries", BENCH_timeseries.json) or the default
   micro-benchmark document (BENCH_micro.json). *)

module Json = Edb_metrics.Json
module Counters = Edb_metrics.Counters

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

let require what = function Some v -> v | None -> fail "missing or ill-typed %s" what

(* ------------------------------------------------------------------ *)
(* BENCH_micro.json                                                    *)
(* ------------------------------------------------------------------ *)

let check_micro path doc =
  let benchmarks =
    match Json.member "benchmarks" doc with
    | Some (Json.Obj fields) -> fields
    | _ -> fail "%s: missing benchmarks object" path
  in
  if benchmarks = [] then fail "%s: benchmarks object is empty" path;
  (match Option.bind (Json.member "host" doc) (Json.member "cores") with
  | Some (Json.Int cores) when cores >= 1 -> ()
  | _ -> fail "%s: missing host.cores (the core count the numbers were taken on)" path);
  List.iter
    (fun (name, entry) ->
      let field key =
        match Json.member key entry with
        | Some Json.Null -> ()
        | Some v when Json.to_float_opt v <> None ->
          let value = Option.get (Json.to_float_opt v) in
          if Float.is_nan value || value < 0.0 then
            fail "%s: benchmark %S has invalid %s" path name key
        | _ -> fail "%s: benchmark %S lacks numeric %s" path name key
      in
      field "ns_per_op";
      field "minor_words";
      field "r_square")
    benchmarks;
  let has substring =
    List.exists
      (fun (name, _) ->
        Astring.String.is_infix ~affix:substring name)
      benchmarks
  in
  (* The entries the acceptance criteria and future PR diffs key on. *)
  List.iter
    (fun probe -> if not (has probe) then fail "%s: no %S benchmark" path probe)
    [
      "e12 idle pull round-trip"; "e15 cached idle round"; "sync-all";
      "e18 sharded skip"; "e18 sync-all"; "e19 reply codec v1";
      "e19 reply codec v2"; "e21 join bootstrap"; "e21 idle pull";
      "e4 add-log-record over 16384 items"; "e23 journal replay";
      "e24 snapshot save per item"; "e24 snapshot load per item";
    ];
  (* The daemon-path instances (E22): every fan-out present with a
     finite positive rate, and four-peer rounds must not lose to
     one-peer rounds — sessions/sec at fan-out=4 at least the
     fan-out=1 rate (lower ns_per_op). The committed trajectory shows
     ~4x; >= 1x is the regression floor here so a bench_smoke.json
     generated on a loaded box doesn't flake tier-1, while four-peer
     rounds that got slower than one-peer rounds still fail. *)
  let daemon_ns metric fanout =
    let name = Printf.sprintf "edb e22 daemon %s fan-out=%d" metric fanout in
    match List.assoc_opt name benchmarks with
    | None -> fail "%s: no %S benchmark" path name
    | Some entry -> (
      match Option.bind (Json.member "ns_per_op" entry) Json.to_float_opt with
      | Some v when Float.is_finite v && v > 0.0 -> v
      | _ ->
        fail "%s: benchmark %S lacks a finite positive ns_per_op" path name)
  in
  List.iter
    (fun metric ->
      List.iter (fun fanout -> ignore (daemon_ns metric fanout)) [ 1; 4; 8 ])
    [ "sessions"; "visibility" ];
  if daemon_ns "sessions" 4 > daemon_ns "sessions" 1 then
    fail "%s: e22 daemon sessions fan-out=4 slower than fan-out=1 (%g > %g ns)"
      path (daemon_ns "sessions" 4) (daemon_ns "sessions" 1);
  let experiments =
    require "experiments list"
      (Option.bind (Json.member "experiments" doc) Json.to_list_opt)
  in
  if experiments = [] then fail "%s: experiments list is empty" path;
  List.iter
    (fun table ->
      let title =
        require "experiment title"
          (Option.bind (Json.member "title" table) Json.to_string_opt)
      in
      let columns =
        require "experiment columns"
          (Option.bind (Json.member "columns" table) Json.to_list_opt)
      in
      let rows =
        require "experiment rows"
          (Option.bind (Json.member "rows" table) Json.to_list_opt)
      in
      let width = List.length columns in
      if width = 0 then fail "%s: experiment %S has no columns" path title;
      List.iter
        (fun row ->
          match Json.to_list_opt row with
          | Some cells when List.length cells = width -> ()
          | _ -> fail "%s: experiment %S has a malformed row" path title)
        rows)
    experiments;
  let columns_of table =
    List.filter_map Json.to_string_opt
      (Option.value ~default:[]
         (Option.bind (Json.member "columns" table) Json.to_list_opt))
  in
  let find_table prefix =
    List.find_opt
      (fun table ->
        match Option.bind (Json.member "title" table) Json.to_string_opt with
        | Some title -> Astring.String.is_prefix ~affix:prefix title
        | None -> false)
      experiments
  in
  let require_columns ~what prefix wanted =
    match find_table prefix with
    | None -> fail "%s: no %s experiment table" path what
    | Some table ->
      let columns = columns_of table in
      List.iter
        (fun column ->
          if not (List.mem column columns) then
            fail "%s: %s table lacks the %S column" path what column)
        wanted
  in
  (* The loss/retry sweep must carry the transport-robustness counters:
     future PR diffs key on the timeout/retry/abandoned columns. *)
  require_columns ~what:"E17 message-loss" "E17:"
    [ "timeouts"; "retries"; "abandoned"; "conns"; "conn retries" ];
  (* The sharding experiment must carry the per-shard skipping counter:
     E18's acceptance keys on converged shards shipping zero bytes. *)
  require_columns ~what:"E18 sharded-replicas" "E18:"
    [ "shards"; "domains"; "shards skipped"; "bytes" ];
  (* The wire-codec experiment must report real bytes on the wire next
     to the size model: E19's acceptance keys on measured
     bytes-per-session, v2 vs v1. *)
  require_columns ~what:"E19 wire-codec" "E19:"
    [ "codec"; "bytes (model)"; "wire bytes"; "wire B/session" ];
  (* The push experiment must report both arms' staleness percentiles
     and the anti-entropy savings — and its lossless cell must actually
     show the headline effect: p99 at least 10x lower with push on, at
     least half the AE sessions arriving already converged. *)
  require_columns ~what:"E20 push-vs-pull" "E20:"
    [
      "loss"; "capacity"; "pull p99"; "push p99"; "p99 ratio";
      "ae skipped frac"; "ae bytes saved"; "push overflow";
    ];
  (match find_table "E20:" with
  | None -> fail "%s: no E20 push-vs-pull experiment table" path
  | Some table ->
    let columns = columns_of table in
    let index column =
      let rec go i = function
        | [] -> fail "%s: E20 table lacks the %S column" path column
        | c :: _ when String.equal c column -> i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 columns
    in
    let cell row i =
      match List.nth_opt row i with
      | Some (Json.String s) -> s
      | _ -> fail "%s: E20 row lacks a string cell at index %d" path i
    in
    let rows =
      List.filter_map Json.to_list_opt
        (Option.value ~default:[]
           (Option.bind (Json.member "rows" table) Json.to_list_opt))
    in
    let loss_i = index "loss" in
    let lossless =
      match
        List.find_opt (fun row -> String.equal (cell row loss_i) "0.00") rows
      with
      | Some row -> row
      | None -> fail "%s: E20 table has no loss = 0.00 row" path
    in
    let number column =
      let s = cell lossless (index column) in
      match float_of_string_opt s with
      | Some v when Float.is_finite v -> v
      | _ -> fail "%s: E20 lossless %s cell %S is not a number" path column s
    in
    let ratio = number "p99 ratio" in
    if ratio < 10.0 then
      fail "%s: E20 lossless p99 ratio %g below the 10x acceptance bar" path
        ratio;
    let skipped = number "ae skipped frac" in
    if skipped < 0.5 then
      fail "%s: E20 lossless ae skipped frac %g below the 0.5 acceptance bar"
        path skipped);
  (* The membership-GC experiment must show retirement actually
     reclaiming vector components: on every row, the post-retirement
     dimension is exactly [n - retired], and both the wire encoding of
     a DBVV and the idle-session bytes shrink. *)
  require_columns ~what:"E21 membership-gc" "E21:"
    [
      "n"; "retired"; "components"; "components'"; "dbvv wire B";
      "dbvv wire B'"; "idle pass B"; "idle pass B'"; "gc'd";
    ];
  (match find_table "E21:" with
  | None -> fail "%s: no E21 membership-gc experiment table" path
  | Some table ->
    let columns = columns_of table in
    let index column =
      let rec go i = function
        | [] -> fail "%s: E21 table lacks the %S column" path column
        | c :: _ when String.equal c column -> i
        | _ :: rest -> go (i + 1) rest
      in
      go 0 columns
    in
    let rows =
      List.filter_map Json.to_list_opt
        (Option.value ~default:[]
           (Option.bind (Json.member "rows" table) Json.to_list_opt))
    in
    if rows = [] then fail "%s: E21 table has no rows" path;
    let number row column =
      match List.nth_opt row (index column) with
      | Some (Json.String s) -> (
        match float_of_string_opt s with
        | Some v when Float.is_finite v -> v
        | _ -> fail "%s: E21 %s cell %S is not a number" path column s)
      | _ -> fail "%s: E21 row lacks a string cell for %S" path column
    in
    List.iter
      (fun row ->
        let n = number row "n" in
        let retired = number row "retired" in
        let before = number row "components" in
        let after = number row "components'" in
        let wire = number row "dbvv wire B" in
        let wire' = number row "dbvv wire B'" in
        let idle = number row "idle pass B" in
        let idle' = number row "idle pass B'" in
        let gced = number row "gc'd" in
        if before <> n then
          fail "%s: E21 n=%g row starts at %g components, want %g" path n
            before n;
        if after <> n -. retired then
          fail "%s: E21 n=%g row retains %g components, want %g" path n after
            (n -. retired);
        if retired > 0.0 && wire' >= wire then
          fail "%s: E21 n=%g DBVV wire bytes did not shrink (%g -> %g)" path n
            wire wire';
        if retired > 0.0 && idle' >= idle then
          fail "%s: E21 n=%g idle-pass bytes did not shrink (%g -> %g)" path n
            idle idle';
        if retired > 0.0 && gced <= 0.0 then
          fail "%s: E21 n=%g retired %g members but gc'd no components" path n
            retired)
      rows);
  Printf.printf "%s OK: %d benchmarks, %d experiment tables\n" path
    (List.length benchmarks) (List.length experiments)

(* ------------------------------------------------------------------ *)
(* BENCH_timeseries.json                                               *)
(* ------------------------------------------------------------------ *)

let get what conv v =
  match conv v with Some x -> x | None -> fail "ill-typed %s" what

let mem what doc key conv =
  get what conv (require what (Json.member key doc))

let check_stale ~path ~where stale =
  let num key =
    let v =
      mem (Printf.sprintf "%s staleness %s" where key) stale key Json.to_float_opt
    in
    if not (Float.is_finite v) || v < 0.0 then
      fail "%s: %s staleness %s = %g out of range" path where key v;
    v
  in
  let count =
    match Json.member "count" stale with
    | Some (Json.Int c) when c >= 1 -> c
    | _ -> fail "%s: %s staleness lacks a positive count" path where
  in
  let mean = num "mean" in
  let p50 = num "p50" in
  let p90 = num "p90" in
  let p99 = num "p99" in
  let max_ = num "max" in
  if p50 > p90 || p90 > p99 || p99 > max_ then
    fail
      "%s: %s staleness percentiles not ordered (p50 %g, p90 %g, p99 %g, max %g)"
      path where p50 p90 p99 max_;
  if mean > max_ then
    fail "%s: %s staleness mean %g exceeds max %g" path where mean max_;
  count

let check_timeseries path doc =
  let generated_by =
    mem "generated_by" doc "generated_by" Json.to_string_opt
  in
  if generated_by = "" then fail "%s: empty generated_by" path;
  let scenario = require "scenario object" (Json.member "scenario" doc) in
  let nodes =
    match Json.member "nodes" scenario with
    | Some (Json.Int n) when n >= 2 -> n
    | _ -> fail "%s: scenario lacks a node count >= 2" path
  in
  (* Each scheduled join can grow the live set past the initial node
     count; leaves and retirements only shrink it. *)
  let max_alive =
    let joins =
      match Json.member "churn" scenario with
      | None | Some Json.Null -> 0
      | Some churn ->
        Option.value ~default:[]
          (Option.bind (Json.member "ops" churn) Json.to_list_opt)
        |> List.filter (fun op ->
               Json.member "kind" op = Some (Json.String "join"))
        |> List.length
    in
    nodes + joins
  in
  let name = mem "scenario name" scenario "name" Json.to_string_opt in
  let ticks =
    require "ticks list" (Option.bind (Json.member "ticks" doc) Json.to_list_opt)
  in
  if List.length ticks < 2 then fail "%s: fewer than two ticks" path;
  (* Walk the series checking monotonicity tick over tick: indices
     count up by one, virtual time strictly advances, and every
     cumulative quantity — sessions, updates, each cost counter — never
     steps backwards (the sampler folds node-replacement resets into a
     preserved base, so a backward step is an emission bug). *)
  let prev_index = ref (-1) in
  let prev_time = ref neg_infinity in
  let prev_attempted = ref 0 and prev_lost = ref 0 in
  let prev_issued = ref 0 and prev_visible = ref 0 in
  let field_count = List.length Counters.field_names in
  let prev_counters = Array.make field_count 0 in
  let stale_total = ref 0 in
  let membership_ticks = ref 0 in
  List.iter
    (fun tick ->
      let index =
        match Json.member "index" tick with
        | Some (Json.Int i) -> i
        | _ -> fail "%s: tick lacks an integer index" path
      in
      let where = Printf.sprintf "tick %d" index in
      if index <> !prev_index + 1 then
        fail "%s: tick indices jump from %d to %d" path !prev_index index;
      prev_index := index;
      let time = mem (where ^ " time") tick "time" Json.to_float_opt in
      if not (Float.is_finite time) then fail "%s: %s time not finite" path where;
      if index = 0 then begin
        if time <> 0.0 then fail "%s: first tick at time %g, want 0" path time
      end
      else if time <= !prev_time then
        fail "%s: %s time %g does not advance past %g" path where time !prev_time;
      prev_time := time;
      let alive =
        match Json.member "alive" tick with
        | Some (Json.Int a) when a >= 0 && a <= max_alive -> a
        | _ -> fail "%s: %s alive count out of [0, %d]" path where max_alive
      in
      ignore alive;
      let sub obj key field =
        match Option.bind (Json.member key obj) (Json.member field) with
        | Some (Json.Int v) when v >= 0 -> v
        | _ -> fail "%s: %s lacks non-negative %s.%s" path where key field
      in
      let attempted = sub tick "sessions" "attempted" in
      let lost = sub tick "sessions" "lost" in
      let _in_flight = sub tick "sessions" "in_flight" in
      if lost > attempted then
        fail "%s: %s lost %d exceeds attempted %d" path where lost attempted;
      if attempted < !prev_attempted || lost < !prev_lost then
        fail "%s: %s session totals step backwards" path where;
      prev_attempted := attempted;
      prev_lost := lost;
      let issued = sub tick "updates" "issued" in
      let visible = sub tick "updates" "visible" in
      if visible > issued then
        fail "%s: %s visible %d exceeds issued %d" path where visible issued;
      if issued < !prev_issued || visible < !prev_visible then
        fail "%s: %s update totals step backwards" path where;
      prev_issued := issued;
      prev_visible := visible;
      let counters =
        match Json.member "counters" tick with
        | Some (Json.Obj fields) -> fields
        | _ -> fail "%s: %s lacks a counters object" path where
      in
      (* Exact ordered key agreement with Counters.fields: a counter
         added to the library but missing here is the dangling-total
         bug class this validator exists to catch. *)
      if List.map fst counters <> Counters.field_names then
        fail "%s: %s counters keys disagree with Counters.field_names" path where;
      List.iteri
        (fun i (key, v) ->
          match v with
          | Json.Int v when v >= 0 ->
            if v < prev_counters.(i) then
              fail "%s: %s counter %s steps backwards (%d -> %d)" path where key
                prev_counters.(i) v;
            prev_counters.(i) <- v
          | _ -> fail "%s: %s counter %s not a non-negative integer" path where key)
        counters;
      (match Json.member "staleness" tick with
      | Some Json.Null -> ()
      | Some stale -> stale_total := !stale_total + check_stale ~path ~where stale
      | None -> fail "%s: %s lacks a staleness field" path where);
      (match Json.member "membership" tick with
      | Some Json.Null -> ()
      | Some m ->
        incr membership_ticks;
        (match Json.member "live" m with
        | Some (Json.Int v) when v >= 0 -> ()
        | _ -> fail "%s: %s membership lacks a non-negative live count" path where);
        (match
           Option.bind (Json.member "mean_vector_components" m) Json.to_float_opt
         with
        | Some v when Float.is_finite v && v >= 0.0 -> ()
        | _ ->
          fail "%s: %s membership lacks a valid mean_vector_components" path
            where)
      | None -> fail "%s: %s lacks a membership field" path where))
    ticks;
  (* A churn scenario samples membership on every tick; a classic
     fixed-membership run on none. *)
  let churn_run =
    match Json.member "churn" scenario with
    | None | Some Json.Null -> false
    | Some _ -> true
  in
  if churn_run && !membership_ticks <> List.length ticks then
    fail "%s: churn run sampled membership on %d of %d ticks" path
      !membership_ticks (List.length ticks);
  if (not churn_run) && !membership_ticks <> 0 then
    fail "%s: fixed-membership run carries %d membership samples" path
      !membership_ticks;
  (* Every visible update contributes exactly one staleness sample —
     on the engine path. The membership runner tracks visibility as a
     per-tick bound, not per update, so churn runs carry no staleness
     samples at all. *)
  if churn_run then begin
    if !stale_total <> 0 then
      fail "%s: churn run unexpectedly carries %d staleness samples" path
        !stale_total
  end
  else if !stale_total <> !prev_visible then
    fail "%s: staleness samples (%d) disagree with visible updates (%d)" path
      !stale_total !prev_visible;
  let summary = require "summary object" (Json.member "summary" doc) in
  (match Json.member "converged_at" summary with
  | Some Json.Null -> ()
  | Some (Json.Float t) when Float.is_finite t && t >= 0.0 -> ()
  | _ -> fail "%s: summary converged_at neither null nor a finite time" path);
  let end_time = mem "summary end_time" summary "end_time" Json.to_float_opt in
  if not (Float.is_finite end_time) || end_time < 0.0 then
    fail "%s: summary end_time %g out of range" path end_time;
  let sub obj key field =
    match Option.bind (Json.member key obj) (Json.member field) with
    | Some (Json.Int v) when v >= 0 -> v
    | _ -> fail "%s: summary lacks non-negative %s.%s" path key field
  in
  if sub summary "updates" "issued" <> !prev_issued
     || sub summary "updates" "visible" <> !prev_visible
  then fail "%s: summary update totals disagree with the last tick" path;
  if sub summary "sessions" "attempted" <> !prev_attempted
     || sub summary "sessions" "lost" <> !prev_lost
  then fail "%s: summary session totals disagree with the last tick" path;
  (match Json.member "staleness" summary with
  | Some Json.Null ->
    if !prev_visible > 0 && not churn_run then
      fail "%s: summary staleness null with %d visible updates" path !prev_visible
  | Some stale ->
    let count = check_stale ~path ~where:"summary" stale in
    if count <> !prev_visible then
      fail "%s: summary staleness count %d, want %d visible" path count !prev_visible
  | None -> fail "%s: summary lacks a staleness field" path);
  (match Json.member "counters" summary with
  | Some (Json.Obj fields) ->
    List.iteri
      (fun i (key, v) ->
        match v with
        | Json.Int v when v = prev_counters.(i) -> ()
        | _ ->
          fail "%s: summary counter %s disagrees with the last tick" path key)
      fields;
    if List.map fst fields <> Counters.field_names then
      fail "%s: summary counters keys disagree with Counters.field_names" path;
    (* The membership and connection counters are probed by name: a
       library refactor that drops or renames them must fail here, not
       silently emit a series without them. *)
    List.iter
      (fun key ->
        if not (List.mem_assoc key fields) then
          fail "%s: summary counters lack %s" path key)
      [
        "joins_completed"; "retirements_completed"; "vector_components_gced";
        "connections_opened"; "connection_retries";
      ]
  | _ -> fail "%s: summary lacks a counters object" path);
  (* A scenario with the push channel on must show it actually ran:
     updates streamed to peers and at least one applied as causally
     fresh. A push block that produces zero traffic is a wiring bug. *)
  (match Json.member "push" scenario with
  | None | Some Json.Null -> ()
  | Some _ ->
    let counter key =
      match
        Option.bind (Json.member "counters" summary) (Json.member key)
      with
      | Some (Json.Int v) -> v
      | _ -> fail "%s: summary lacks integer counter %s" path key
    in
    if !prev_issued > 0 && counter "push_sent" < 1 then
      fail "%s: push scenario issued %d updates but sent no pushes" path
        !prev_issued;
    if !prev_issued > 0 && counter "push_applied" < 1 then
      fail "%s: push scenario sent pushes but none were applied" path);
  (* A churn scenario's membership operations must show up in the
     counters: a scheduled retirement that completes GCs components. *)
  (match Json.member "churn" scenario with
  | None | Some Json.Null -> ()
  | Some churn ->
    let counter key =
      match
        Option.bind (Json.member "counters" summary) (Json.member key)
      with
      | Some (Json.Int v) -> v
      | _ -> fail "%s: summary lacks integer counter %s" path key
    in
    let ops =
      Option.value ~default:[]
        (Option.bind (Json.member "ops" churn) Json.to_list_opt)
    in
    let scheduled kind =
      List.exists
        (fun op -> Json.member "kind" op = Some (Json.String kind))
        ops
    in
    if scheduled "join" && counter "joins_completed" < 1 then
      fail "%s: churn run scheduled a join but none completed" path;
    if scheduled "retire" && counter "retirements_completed" < 1 then
      fail "%s: churn run scheduled a retirement but none completed" path;
    if scheduled "retire" && counter "vector_components_gced" < 1 then
      fail "%s: churn run retired a member but gc'd no vector components" path);
  Printf.printf "%s OK: scenario %S, %d ticks, %d/%d updates visible\n" path name
    (List.length ticks) !prev_visible !prev_issued

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_micro.json" in
  let blob =
    match open_in_bin path with
    | exception Sys_error msg -> fail "cannot open %s: %s" path msg
    | ic ->
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      data
  in
  let doc =
    match Json.of_string blob with
    | Ok doc -> doc
    | Error msg -> fail "%s: parse error: %s" path msg
  in
  let schema =
    require "schema" (Option.bind (Json.member "schema" doc) Json.to_float_opt)
  in
  if schema <> 1.0 then fail "%s: unknown schema version %g" path schema;
  match Json.member "kind" doc with
  | Some (Json.String "timeseries") -> check_timeseries path doc
  | Some (Json.String other) -> fail "%s: unknown document kind %S" path other
  | _ -> check_micro path doc
