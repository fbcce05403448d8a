module Cluster = Edb_core.Cluster
module Node = Edb_core.Node
module Counters = Edb_metrics.Counters
module Snapshot = Edb_persist.Snapshot
module Codec = Edb_persist.Codec

type database = { cluster : Cluster.t; mode : Node.propagation_mode option }

type t = {
  n : int;
  seed : int;
  databases : (string, database) Hashtbl.t;
  mutable next_db_seed : int;
}

let create ?(seed = 42) ~n () =
  if n <= 0 then invalid_arg "Server_group.create: n must be positive";
  { n; seed; databases = Hashtbl.create 4; next_db_seed = seed }

let n t = t.n

let create_database ?policy ?mode ?shards t name =
  if Hashtbl.mem t.databases name then
    Error (Printf.sprintf "database %S already exists" name)
  else begin
    t.next_db_seed <- t.next_db_seed + 1;
    let cluster =
      Cluster.create ~seed:t.next_db_seed ?policy ?mode ?shards ~n:t.n ()
    in
    Hashtbl.add t.databases name { cluster; mode };
    Ok ()
  end

let drop_database t name =
  if Hashtbl.mem t.databases name then begin
    Hashtbl.remove t.databases name;
    Ok ()
  end
  else Error (Printf.sprintf "no database %S" name)

let databases t =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.databases [])

let find t name =
  match Hashtbl.find_opt t.databases name with
  | Some db -> Ok db
  | None -> Error (Printf.sprintf "no database %S" name)

let cluster t name = Result.map (fun db -> db.cluster) (find t name)

let update t ~db ~node ~item op =
  Result.map (fun c -> Cluster.update c ~node ~item op) (cluster t db)

let read t ~db ~node ~item =
  Result.map (fun c -> Cluster.read c ~node ~item) (cluster t db)

let pull t ~db ~recipient ~source =
  Result.map (fun c -> Cluster.pull c ~recipient ~source) (cluster t db)

let anti_entropy_round t ~db =
  Result.map (fun c -> Cluster.random_pull_round c) (cluster t db)

let sync_database t ~db =
  Result.map (fun c -> Cluster.sync_until_converged c) (cluster t db)

(* ------------------------------------------------------------------ *)
(* Parallel fan-out over databases                                     *)
(* ------------------------------------------------------------------ *)

(* Databases are share-nothing protocol instances — separate clusters,
   separate PRNGs (deterministically seeded at creation), separate
   counters — so fanning work out over domains cannot race and the
   result is bitwise-identical to the sequential order: tasks are
   indexed up front and each domain writes only its own slots.

   Workers are clamped to the runtime's recommended domain count: on a
   single-core container [~domains:4] must degrade to the sequential
   [Array.map] at zero overhead, not spawn three domains (~1 ms each)
   that only contend for the one CPU — that spawn cost was the whole
   `e16 sync-all domains=4` regression. *)
let parallel_map ~domains f items =
  let len = Array.length items in
  let workers =
    min (min (max 1 domains) (Domain.recommended_domain_count ())) len
  in
  if workers <= 1 then Array.map f items
  else begin
    let results = Array.make len None in
    let next = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < len then begin
          results.(i) <- Some (f items.(i));
          loop ()
        end
      in
      loop ()
    in
    let spawned = Array.init (workers - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join spawned;
    Array.map
      (function Some r -> r | None -> assert false)
      results
  end

(* Pre-resolve the clusters so domains never touch the databases
   hashtable. *)
let database_clusters t =
  List.filter_map
    (fun name ->
      Option.map (fun db -> (name, db.cluster)) (Hashtbl.find_opt t.databases name))
    (databases t)

let sync_all ?(domains = 1) t =
  let tasks = Array.of_list (database_clusters t) in
  (* Domains left over after one-per-database go to intra-pair shard
     parallelism inside each cluster: with a single fat sharded
     database, [domains = 4] means one domain driving the session and
     per-shard delta construction/acceptance fanned over all four. *)
  let per_cluster = max 1 (domains / max 1 (Array.length tasks)) in
  let sync (name, cluster) =
    match Cluster.sync_until_converged ~domains:per_cluster cluster with
    | rounds -> (name, rounds)
    | exception Failure _ -> (name, -1)
  in
  Array.to_list (parallel_map ~domains sync tasks)

let anti_entropy_all ?(domains = 1) t =
  let tasks = Array.of_list (database_clusters t) in
  let round (_, cluster) = Cluster.random_pull_round cluster in
  let (_ : unit array) = parallel_map ~domains round tasks in
  ()

let converged t =
  Hashtbl.fold (fun _ db acc -> acc && Cluster.converged db.cluster) t.databases true

let total_counters t =
  let acc = Counters.create () in
  Hashtbl.iter
    (fun _ db -> Counters.add_into acc (Cluster.total_counters db.cluster))
    t.databases;
  acc

(* ------------------------------------------------------------------ *)
(* Checkpointing one server across all databases                       *)
(* ------------------------------------------------------------------ *)

let manifest_path dir = Filename.concat dir "MANIFEST"

let snapshot_path dir index = Filename.concat dir (Printf.sprintf "db-%04d.snap" index)

let save_server t ~dir ~node =
  if node < 0 || node >= t.n then Error "node out of range"
  else begin
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let names = databases t in
    (* Manifest contents computed up front (and before the snapshot
       saves, which reuse the same per-domain scratch writer); the file
       is still written last so a crash mid-save leaves no valid
       manifest pointing at incomplete snapshots. *)
    let manifest =
      Codec.Writer.with_scratch (fun w ->
          Codec.Writer.int w node;
          Codec.Writer.list w Codec.Writer.string names;
          Codec.Writer.contents w)
    in
    List.iteri
      (fun index name ->
        match Hashtbl.find_opt t.databases name with
        | None -> ()
        | Some db ->
          Snapshot.save (Cluster.node db.cluster node) ~path:(snapshot_path dir index))
      names;
    let oc = open_out_bin (manifest_path dir ^ ".tmp") in
    output_string oc manifest;
    close_out oc;
    Sys.rename (manifest_path dir ^ ".tmp") (manifest_path dir);
    Ok ()
  end

let read_manifest dir =
  match open_in_bin (manifest_path dir) with
  | exception Sys_error msg -> Error ("cannot open manifest: " ^ msg)
  | ic ->
    let blob = really_input_string ic (in_channel_length ic) in
    close_in ic;
    (match Codec.Reader.create blob with
    | exception Codec.Reader.Corrupt msg -> Error ("corrupt manifest: " ^ msg)
    | r ->
      let node = Codec.Reader.int r in
      let names = Codec.Reader.list r Codec.Reader.string in
      Codec.Reader.expect_end r;
      Ok (node, names))

let restore_server t ~dir ~node =
  match read_manifest dir with
  | Error _ as e -> e
  | Ok (saved_node, names) ->
    if saved_node <> node then
      Error
        (Printf.sprintf "checkpoint is for server %d, not %d" saved_node node)
    else
      (* Two-phase: load and validate every snapshot before replacing
         anything, so a damaged checkpoint (bit flip, truncation,
         version skew) rejects the whole restore with a clear error and
         leaves the running group untouched — never a server restored
         for some databases but not others. *)
      let load_one index name =
        match Hashtbl.find_opt t.databases name with
        | None -> Error (Printf.sprintf "database %S no longer exists" name)
        | Some db -> (
          match Snapshot.load ?mode:db.mode ~path:(snapshot_path dir index) () with
          | Error msg -> Error (Printf.sprintf "database %S: %s" name msg)
          | Ok restored -> Ok (db, restored))
      in
      let rec load_all index acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
          match load_one index name with
          | Ok loaded -> load_all (index + 1) (loaded :: acc) rest
          | Error _ as e -> e)
      in
      (match load_all 0 [] names with
      | Error _ as e -> e
      | Ok loaded ->
        List.iter
          (fun (db, restored) -> Cluster.replace_node db.cluster node restored)
          loaded;
        Ok ())
