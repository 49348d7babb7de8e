(** The multi-session server: N concurrent debugging sessions over one
    booted kernel, multiplexed over shared {!Target} handles.

    Sessions are interleaved, not threaded — every v-command runs to
    completion before the next — which makes exact per-session
    accounting possible: the server swaps each session's transport
    fault configuration, per-plot deadline and admission gate onto the
    shared link for the duration of its op, then captures the fault
    journal, read, cache and wire-time deltas that op produced.  The
    result is {e fault isolation}: one session's fault storm, torn-read
    burst or breaker-Open never shows up in another session's rendered
    bytes, per-session counters or recovery state, while the sessions
    still share the target's generation-validated read cache (one
    session's cold plot warms every session's refresh of the same
    structures).

    {e Admission control}: capacity, per-session read/wire budgets and
    target quarantine refuse work with a typed {!outcome.Rejected}
    rather than an exception; budget refusals mid-plot are enforced at
    the {!Transport.fetch} boundary (the read degrades to a
    [Timed_out] fault, never an abort).

    {e Degradation-fair scheduling}: when a shared target's breaker
    opens (or its link dies), the target enters quarantine — one
    elected session probes the link while the others serve [STALE]
    panes from their caches; once the probe succeeds the waiting
    sessions are re-admitted one per op (no thundering herd).

    {e Adaptive health} (this layer): the wire's fault EWMA
    ({!Transport.ewma}) drives a {e graduated} Healthy -> Degraded ->
    Quarantined state machine with hysteresis
    ({!Transport.Health.step}), so a gray-failing target is shed or
    rerouted {e before} its breaker ever opens.  On a Degraded target,
    load is shed by weighted fair credits (high-{!set_weight} sessions
    degrade last, with a [ceil(stride/weight)] starvation bound); when
    another registered target exposes the same kernel image over a
    healthy wire, ops are {e hedged} to it instead — byte-identical
    renders, asserted by the campaign bench.  Retries are governed by a
    per-session token bucket ([retry_burst]), so a sickening target
    cannot provoke a retry storm; an exhausted bucket degrades the read
    to a [Timed_out] fault, never an exception.

    {e Crash-safe fleet recovery}: the durable WAL is the fleet's one
    on-disk format.  {!fleet_image} writes every session's op journal
    as a snapshot record; {!recover_durable} replays them into a fresh
    server, reproducing each session's pane and box ids. *)

type sid = int

(* ------------------------------------------------------------------ *)
(** {1 Budgets} *)

(** Per-session, per-epoch resource limits.  All unlimited by default. *)
type budget = {
  max_reads : int option;  (** transport reads per epoch *)
  max_sim_ms : float option;  (** simulated wire ms per epoch *)
  plot_deadline_ms : float option;  (** per-plot transport deadline *)
  retry_burst : int option;
      (** retry-token bucket capacity: each op earns one token (up to
          the cap, refilled in full by {!begin_epoch}) and every retry
          of a dropped reply spends one; an empty bucket degrades the
          read to a [Timed_out] fault via
          {!Transport.error.Deadline_exceeded}.  [None] = unlimited
          retries (the pre-budget behaviour). *)
}

val unlimited : budget

val budget :
  ?max_reads:int -> ?max_sim_ms:float -> ?plot_deadline_ms:float -> ?retry_burst:int ->
  unit -> budget

(* ------------------------------------------------------------------ *)
(** {1 Admission} *)

(** Why the server refused an operation. *)
type reason =
  | Capacity of { limit : int }  (** the session table is full *)
  | Unknown_session of sid
  | Unknown_target of string
  | Reads_exhausted of { used : int; limit : int }
      (** the session spent its per-epoch read budget *)
  | Budget_exhausted of { used_ms : float; limit_ms : float }
      (** the session spent its per-epoch wire-time budget *)
  | Quarantined of { target : string; prober : sid }
      (** the target is quarantined and this session is not the elected
          prober (or not yet re-admitted from probation) *)
  | Shed of { target : string; deficit : int }
      (** the target is degraded with no healthy replica to hedge to,
          and this session's fair-share credits don't yet cover the
          stride; [deficit] is how far short — it shrinks by [weight]
          per knock, bounding refusals at [ceil(stride/weight)] *)

val reason_to_string : reason -> string

(** Every server entry point returns [Admitted]/[Rejected], never an
    admission exception. *)
type 'a outcome = Admitted of 'a | Rejected of { reason : reason }

(* ------------------------------------------------------------------ *)
(** {1 The server} *)

type server

val create : ?capacity:int -> Kstate.t -> server
(** A server over one booted kernel with a default local (transportless)
    target ["t0"].  [capacity] (default 8) bounds concurrent sessions. *)

val capacity : server -> int

val add_target : server -> ?transport:Transport.t -> string -> unit
(** Register a named shared target handle (its own link, breaker and
    read cache).  @raise Invalid_argument on duplicate names. *)

val target_names : server -> string list

(** A shared target's degradation state, as seen from outside.
    [`Degraded] is the graduated middle state: still serving, but
    shedding load (or hedging to a replica) while the fault EWMA is
    above the degrade threshold. *)
type health = [ `Healthy | `Degraded | `Quarantine of sid | `Probation of sid list ]

val target_health : server -> string -> health
(** @raise Invalid_argument on unknown targets. *)

(* ------------------------------------------------------------------ *)
(** {1 Session lifecycle} *)

val open_session :
  ?budget:budget -> ?faults:Transport.faults -> ?weight:int -> ?target:string ->
  server -> string -> sid outcome
(** Admit a named session onto [target] (default ["t0"]).  [faults] is
    the fault configuration {e this session's} traffic runs under on
    the shared link (default {!Transport.no_faults}); [weight]
    (default 1, clamped to >= 1) is its fair-admission priority —
    higher-weight sessions are shed later and less often on a degraded
    target. *)

val close_session : server -> sid -> unit
(** Idempotent; a closed prober or probation entry is dropped from its
    target's recovery bookkeeping. *)

val session_ids : server -> sid list
val session_name : server -> sid -> string option

val vis : server -> sid -> Visualinux.session option
(** The underlying per-session façade, for read-only uses (rendering,
    pane inspection).  Driving v-commands through it directly bypasses
    the server's accounting and isolation; use the wrappers below. *)

val set_budget : server -> sid -> budget -> unit
(** Also resets the retry-token bucket to the new [retry_burst]. *)

val budget_of : server -> sid -> budget option
val set_faults : server -> sid -> Transport.faults -> unit

val set_weight : server -> sid -> int -> unit
(** Clamped to >= 1. *)

val weight_of : server -> sid -> int

val retry_tokens : server -> sid -> int
(** Retry-budget tokens left (0 when unlimited or unknown). *)

val begin_epoch : server -> sid -> unit
(** Open a fresh budget/cache-stat epoch for the session: resets its
    read and wire-time spend, refills its retry-token bucket, and
    resets its [cache.*] counters, bumps the [epochs] counter.
    Cumulative counters ([plots], [faults], ...) survive. *)

(* ------------------------------------------------------------------ *)
(** {1 v-commands, isolated and accounted} *)

val vplot :
  server -> sid -> ?title:string -> string ->
  (Panel.pane * Viewcl.result * Visualinux.plot_stats) outcome
(** {!Visualinux.vplot} under the session's fault config, deadline and
    admission gate.  @raise Viewcl.Error on malformed programs (a
    program error is the caller's bug, not an admission decision). *)

val vrefresh :
  server -> sid -> pane:Panel.pane_id ->
  (Viewcl.result * Visualinux.plot_stats) option outcome
(** Incremental re-plot of one pane (see {!Visualinux.vrefresh}). *)

val vctrl : server -> sid -> Visualinux.vctrl -> Visualinux.vctrl_result outcome

val render : server -> sid -> Panel.pane_id -> string option
(** Render a pane from the session's cached graph.  Never [Rejected] —
    serving [STALE] panes without touching the link {e is} the degraded
    mode a quarantined target leaves its other sessions in.  [None] for
    unknown sessions or panes. *)

val recover_session : server -> sid -> int outcome
(** Replay this session's own journal (see {!Visualinux.recover});
    returns the number of panes that came back stale. *)

val refresh_stale : server -> sid -> Panel.pane_id list outcome
(** Re-extract the session's stale panes; returns the ids brought back
    live. *)

(* ------------------------------------------------------------------ *)
(** {1 Per-session accounting} *)

val counters : server -> sid -> (string * int) list
(** The session's private counter namespace, sorted by name: [plots],
    [refreshes], [ctrls], [reads], [faults], [cache.hits],
    [cache.misses], [rejections], [budget.refusals],
    [probes], [canaries], [hedged.ops], [retry.denied],
    [stale.renders], [epochs], [recovers].  Only this session's ops
    move them.  Mirrored as Obs counters [session.<sid>.<name>] when
    profiling is on.  Per-target health is mirrored as Obs {e gauges}:
    [health.<target>.ewma_fault_rate], [health.<target>.ewma_latency_ms],
    [health.<target>.state] (0 healthy / 1 degraded / 2 quarantine /
    3 probation) and [session.quarantined_targets]. *)

val counter : server -> sid -> string -> int
(** 0 when absent (or the session is unknown). *)

val fault_journal : server -> sid -> Target.fault list
(** The faults recorded during this session's ops, oldest first — the
    per-session view of {!Target.faults} (whose global journal the
    server drains after each op). *)

val wire_ms : server -> sid -> float
(** Simulated wire ms this session charged in the current epoch. *)

val reads_used : server -> sid -> int

(* ------------------------------------------------------------------ *)
(** {1 Durable fleet state (crash consistency)}

    Attach a {!Durable} store and every fleet lifecycle event
    (open/close/budget/quarantine) plus every checkpointed panel op is
    appended as a checksummed, generation-stamped WAL record; past the
    snapshot limit the stream compacts into a snapshot segment (every
    session's name, target, budget, fault config and op journal, the
    journals already [Jreserve]-compacted) plus a fresh tail.  {!recover_durable} is the fsck-style inverse:
    it scans whatever bytes survived a crash, replays each session's
    intact op chain, and degrades the rest to a {e typed} per-session
    outcome — never an exception, never cross-session contamination. *)

val attach_wal : server -> Durable.t -> unit
(** Start journaling into [d]: writes a snapshot of the current fleet
    as the first segment (dropping any prior store contents), then taps
    every session's panel-op stream. *)

val wal_of : server -> Durable.t option

val set_wal_snapshot_limit : server -> int -> unit
(** Tail records that trigger a snapshot compaction (default 256,
    clamped to >= 1). *)

val wal_snapshot : server -> unit
(** Force a snapshot compaction now (no-op without an attached WAL). *)

val fleet_image : server -> string
(** A one-record durable image of the fleet (a snapshot, framed and
    checksummed) — what [server save] writes to disk and
    {!recover_durable} reads back. *)

val corrupt_wal : server -> bool
(** Flip one seeded bit inside an attached WAL's op record — the
    campaign DSL's [corrupt_journal] fault.  [false] without a WAL. *)

(** How a session came through durable recovery: its op chain replayed
    whole; a damaged chain cut at the first hole (replaying past a
    missing pane-creating op would shift every later pane id) with
    [dropped] ops lost and panes marked [STALE]; or its open/snapshot
    record destroyed outright — identity lost, the session returns
    quarantined with [STALE] panes rebuilt without touching the wire. *)
type salvage = Replayed | Salvaged of { dropped : int } | Quarantined_stale

type srecovery = {
  rsid : sid;
  rname : string;
  rtarget : string;
  rsalvage : salvage;
  rops : int;  (** ops replayed into the session *)
  rstale : int;  (** panes stale after recovery *)
}

type recovery = { rreport : Durable.report; rsessions : srecovery list; rms : float }

val recover_durable : server -> string -> recovery
(** Fsck [image] and rebuild the fleet into [server] (a fresh one over
    the same kernel, same target names).  Each session is re-admitted —
    capacity applies — and its journal replayed under its own fault
    config and budget; pane ids are reproduced by replay order and box
    ids by deterministic re-extraction.  Emits a [session.recovered]
    span per session and the [recovery.*] counters; never raises on
    corrupt input — bytes that are not a WAL at all come back as a
    torn tail with no sessions recovered. *)

val fsck_image : string -> Durable.report * srecovery list
(** The dry run: fsck + the per-session plan, nothing replayed
    ([rstale] is 0).  What [server fsck] prints. *)

val salvage_label : salvage -> string
(** ["replayed"], ["salvaged (N ops dropped)"] or
    ["quarantined [STALE]"]. *)

val recovery_to_string : recovery -> string
val last_recovery : server -> recovery option

val status : server -> string
(** Human-readable multi-line server summary (targets, health,
    sessions, budgets) for the repl. *)

(* ------------------------------------------------------------------ *)
(** {1 SLOs and the vtop dashboard} *)

val register_slos : server -> unit
(** Register the fleet's standard objectives with {!Obs.Slo}: per live
    session [s<sid>.availability] (ops vs rejections, 99.5th-style
    target 0.95), [s<sid>.clean_reads] (faults per read, 0.99),
    [s<sid>.op_p95] (op latency <= 100 ms, 0.95) and [s<sid>.staleness]
    (stale renders, 0.90); per target [t.<name>.healthy] (health-state
    gauge at Healthy, 0.90).  Idempotent — safe to call again after
    opening more sessions.  The SLO engine stays read-only: burn only
    drives gauges and events, never admission. *)

val vtop : ?top:int -> server -> string
(** One render of the live fleet dashboard: a header with obs ring
    pressure, a per-target table (state, fault/latency EWMAs, wire and
    cache), a per-session table (ops, faults, retry tokens, budget
    spend, cache hit rate, worst SLO burn), the {!Obs.Slo.report}
    table, and the [top] (default 5) slowest [session.op] traces still
    in the ring with their causal links (hedge/canary/retry/probation).
    Ticks one SLO evaluation epoch ({!Obs.Slo.tick}) per call — vtop
    {e is} the fleet's heartbeat when the repl drives it.  Degrades
    gracefully to the static tables when observability is off. *)
