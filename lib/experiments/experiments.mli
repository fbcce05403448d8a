(** The reproduction's experiment suite (DESIGN.md §3, EXPERIMENTS.md).

    The paper's evaluation is an asymptotic argument (§6) plus protocol
    comparisons (§8); each function here regenerates one of those claims
    as a deterministic measured table. All tables use operation counts
    (version comparisons, items examined, log records examined, items
    copied, bytes under the explicit size model), so results are exact
    and machine-independent; wall-clock confirmation lives in
    [bench/main.ml].

    Passing [~quick:true] shrinks the sweeps for use in smoke tests. *)

val e1_cost_vs_database_size : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E1 — one propagation round's overhead as the database size [N]
    grows, with the dirty-item count fixed at [m = 64]. The paper's
    protocol is flat in [N]; Demers-style anti-entropy and Lotus grow
    linearly (§1, §6, §8.1). *)

val e2_cost_vs_items_copied : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E2 — propagation overhead as the number of items actually copied
    [m] grows at fixed [N]: linear in [m] with a constant per-item
    factor (§6). *)

val e3_identical_replicas : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E3 — cost of a session between replicas that became identical
    {e indirectly}: O(1) DBVV comparison for the paper's protocol
    vs Lotus's O(N) modified-since scan (§8.1). *)

val e4_message_bytes : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E4 — bytes shipped per propagation as [m] grows: items plus a
    constant per item (§6). *)

val e5_out_of_bound : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E5 — out-of-bound copying costs: the fetch itself is O(1) in the
    database size; intra-node propagation is linear in the number of
    deferred updates (§6). *)

val e6_failure_resilience : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E6 — originator crash mid-propagation: the epidemic protocol
    converges via forwarding; Oracle-style push stays stale until the
    originator recovers (§8.2). *)

val e7_convergence_rounds : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E7 — randomized anti-entropy rounds until full convergence as the
    node count grows: logarithmic epidemic spread ([4] in the paper). *)

val e8_log_dedup : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E8 — retained log records under a skewed update stream: bounded by
    [n·N] and far below the raw update count (§4.2). *)

val e9_conflict_detection : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E9 — the §8.1 lost-update scenario: the paper's protocol flags the
    conflict and preserves both versions; Lotus silently overrides. *)

val e10_log_based_gossip : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E10 — overhead as the {e update} count grows at a fixed dirty-item
    count: the paper's protocol depends only on items; Wuu–Bernstein
    examines every log record (§8.3 footnote 4). *)

val e11_oplog_transport : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E11 (extension) — the paper §2's two transports compared: op-log
    ("update record") shipping vs whole-item copying, as edit size
    shrinks relative to the value size. Delta shipping wins whenever
    edits are small; the bounded history falls back to whole copies
    when a recipient is too far behind. *)

val e12_timeliness_vs_period : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E12 (extension) — the epidemic timeliness/overhead trade-off the
    paper's §8 discusses qualitatively: sweeping the anti-entropy
    period trades convergence lag against session and byte overhead.
    The paper's point: because its per-session overhead is O(1) when
    idle, anti-entropy can afford to run {e often}. *)

val e13_propagation_delay : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E13 (extension) — the distribution of rounds between an update and
    its visibility on every replica under random-pull anti-entropy:
    the delay tail the epidemic literature (Demers et al. [4]) reports
    alongside traffic. *)

val e13_with_totals :
  ?quick:bool -> unit -> Edb_metrics.Table.t * Edb_metrics.Counters.t list
(** {!e13_propagation_delay}'s table plus each [n]'s cluster counter
    totals, in sweep order. *)

val e14_token_ablation : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E14 (extension) — the paper §2's two consistency regimes under a
    contended workload: optimistic (conflicts detected, manual
    resolution pending) vs token-protected (zero conflicts, at the cost
    of token transfers). *)

val e15_peer_cache_savings : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E15 (extension) — steady-state message savings from the
    peer-knowledge cache ([Edb_core.Peer_cache]): ring anti-entropy
    rounds on a converged 16-node cluster, cache-enabled vs plain. The
    paper already makes the no-op session O(1) {e work}; the cache makes
    it zero {e messages} — the cheapest no-op session is the one never
    sent (cf. Malkhi et al. on minimizing diffusion messages). *)

val e17_message_loss : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E17 (extension) — convergence rounds and message overhead under
    per-message loss rates \{0, 0.05, 0.2\} on 16 nodes, message-granular
    transport (request and reply each face the loss rate, lost attempts
    time out and retry with bounded backoff) vs the old whole-session
    loss model where a lost session silently vanishes and costs
    nothing. Shows what the session-grain abstraction hides: retries
    buy convergence at higher loss for a measured message/byte
    premium. *)

val e18_sharded_replicas : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E18 (extension) — sharded replicas (DESIGN.md §7): steady-state
    ring rounds under a hot-shard Zipf update stream, shard counts
    \{1, 4, 16\}. A propagation source consults the request's per-shard
    DBVVs and skips every shard the recipient already dominates
    ([shards_skipped]), shipping zero bytes for it, so session bytes
    stay flat as the shard count grows while [domains = 4] shows the
    intra-pair parallel speedup on the shards that do ship. *)

val e19_wire_codec : ?quick:bool -> unit -> Edb_metrics.Table.t
(** Wire codec v2 vs v1 over framed ring sessions on a 16-node cluster:
    real encoded frame lengths ([wire_bytes_sent]) next to the
    fixed-width size model, for a converged idle round and a diverged
    cluster driven to convergence. *)

val e20_push_vs_pull : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E20 (extension) — best-effort realtime push vs pull-only
    anti-entropy (DESIGN.md §10): two orchestrated arms per cell,
    identical but for the push channel, on a 16-node mesh at equal AE
    cadence, sweeping loss rate and per-peer queue capacity. Reports
    the staleness percentiles (p50/p90/p99) of update-to-visibility
    delay for both arms, the p99 ratio, the fraction of AE sessions
    the push arm turns into noops, and the AE wire bytes saved. On the
    lossless cell the push arm's p99 is >= 10x lower and >= half the
    AE sessions arrive already converged (probed by
    [check_bench_json]). *)

val e21_membership_gc : ?quick:bool -> unit -> Edb_metrics.Table.t
(** E21 (extension) — what retirement's version-vector garbage
    collection reclaims: an [n]-member group (up to 128) converges with
    every origin's component live, then the last [n/4] members crash
    and are retired behind the two-phase fence. Reports, before vs
    after, the vector dimension, the wire-v2 varint encoding of a live
    member's summary DBVV (the bytes a framed session actually pays
    per vector), and the size-model bytes of one idle ring pass — all
    three shrink proportionally once the dead components are dropped
    ([vector_components_gced] counts the drops). *)

val all : ?quick:bool -> unit -> (string * (unit -> Edb_metrics.Table.t)) list
(** Every experiment, as [(id, build)] pairs in order; [build ()] runs
    that experiment alone. *)
