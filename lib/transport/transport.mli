(** The remote-target transport: a model of the debugger's link to the
    kernel (GDB over a unix socket, KGDB over serial) with the failure
    modes a real link exhibits — per-read timeouts, transient stalls,
    dropped replies, full disconnects — and the resilience policy that
    keeps extraction useful on top of them: bounded retries with
    exponential backoff + jitter, a per-plot deadline budget, and a
    circuit breaker that stops hammering a dead link.

    Everything is simulated deterministically: the fault model runs on a
    seeded LCG and all costs are charged to a simulated clock derived
    from the link {!profile}, so a seeded run is byte-for-byte
    reproducible (same constraint as {!Kmem}'s injection layer).

    The transport never performs reads itself: {!fetch} decides whether
    a read may proceed and what it costs, then runs the caller's thunk.
    When it refuses (breaker open, link down, budget exhausted, retries
    exhausted) the thunk is {e never} invoked — a tripped breaker
    really does mean zero underlying reads. *)

(** A link's cost model, per paper Table 5: every read is one remote
    round-trip plus per-byte serial cost. *)
type profile = { pname : string; rtt_ms : float; byte_ms : float }

val profile : string -> float -> profile
(** [profile name rtt_ms] with the per-byte cost pinned to [rtt/1024],
    keeping transport ratios workload-independent (Table 5 shape). *)

val qemu_local : profile
(** GDB against local QEMU over a unix socket: ~0.05 ms round-trip. *)

val kgdb_rpi : profile
(** KGDB over serial to a Raspberry Pi 3B: ~3.0 ms per RSP round-trip. *)

val kgdb_rpi400 : profile
(** KGDB over serial to a Raspberry Pi 400: ~2.5 ms per round-trip —
    the paper's headline "minutes per figure" configuration. *)

(* ------------------------------------------------------------------ *)
(** {1 Fault model} *)

(** Per-read failure probabilities, drawn independently per attempt from
    the transport's seeded LCG. All zero by default. *)
type faults = {
  stall_rate : float;  (** read completes, but only after a timeout-long stall *)
  drop_rate : float;  (** the reply is lost; the client must retry *)
  disconnect_rate : float;  (** the link dies mid-read; reads fail until {!reconnect} *)
}

val no_faults : faults

val faults_of_rate : float -> faults
(** The bench's single-knob mapping: stalls and drops at [r], full
    disconnects at [r/20]. *)

(* ------------------------------------------------------------------ *)
(** {1 Resilience policy} *)

type policy = {
  max_retries : int;  (** retry attempts per read, beyond the first *)
  backoff_base_ms : float;  (** first retry delay *)
  backoff_factor : float;  (** exponential growth per retry *)
  backoff_max_ms : float;  (** backoff cap *)
  jitter : float;  (** +- fraction applied to each backoff, in [0,1] *)
  read_timeout_ms : float;  (** cost charged for a stalled or dropped attempt *)
  breaker_threshold : int;  (** consecutive failed reads that trip the breaker *)
  breaker_cooldown_ms : float;  (** open time before a half-open probe *)
}

val default_policy : policy

val backoff_ms : policy -> seed:int -> attempt:int -> float
(** The delay before retry [attempt] (0-based): [base * factor^attempt]
    capped at [backoff_max_ms], scaled by a deterministic jitter in
    [1-jitter, 1+jitter] hashed from [(seed, attempt)]. Pure — the
    whole schedule is reproducible from the seed. *)

(* ------------------------------------------------------------------ *)
(** {1 The transport} *)

type link = Up | Down

(** Circuit-breaker state machine:
    [Closed] --N consecutive failures--> [Open] --cooldown elapses-->
    [Half_open] --probe succeeds--> [Closed]; probe fails --> [Open]. *)
type breaker = Closed | Open | Half_open

(** Why a read was refused or abandoned. *)
type error =
  | Breaker_open  (** refused without touching the link *)
  | Deadline_exceeded  (** the per-plot budget is spent *)
  | Disconnected  (** the link is down; {!reconnect} to resume *)
  | Retries_exhausted  (** every attempt's reply was dropped *)

val error_to_string : error -> string

type t

val create : ?seed:int -> ?policy:policy -> ?faults:faults -> profile -> t
(** A fresh connected transport. [faults] defaults to {!no_faults}, so a
    default transport only adds (simulated) latency accounting. *)

val profile_of : t -> profile
val link : t -> link
val breaker : t -> breaker
val set_faults : t -> faults -> unit

val faults_of : t -> faults
(** The current fault configuration (a session server swaps it per
    session while that session's traffic runs). *)

val set_base_faults : t -> faults -> unit
(** The wire's {e own} weather, composed with the per-session overlay:
    one draw per attempt decides the outcome across both configs, with
    the base rates ahead of the overlay within each fault kind, so every
    fired fault is attributed to whichever config caused it.  Only
    wire-attributed outcomes (base faults, and clean reads) move the
    health EWMA — a session's synthetic fault storm says nothing about
    the link.  Defaults to {!no_faults}, under which seeded runs replay
    exactly as before this knob existed. *)

val base_faults_of : t -> faults

val set_policy : t -> policy -> unit

val set_retry_gate : t -> (unit -> bool) option -> unit
(** Install (or clear) a retry-budget hook consulted before every retry
    of a dropped reply.  Returning [false] denies the retry: the read
    fails with {!error.Deadline_exceeded} (degrading to a [Timed_out]
    fault at the target, exactly like an exhausted deadline) with no
    breaker accounting — the {e budget} refused, not the link.  Denials
    are counted in [retry_denials].  This is where a session server
    enforces per-session token-bucket retry budgets so a sickening
    target cannot provoke a retry storm. *)

val set_gate : t -> (bytes:int -> error option) option -> unit
(** Install (or clear) an admission gate consulted by {!fetch} before
    any wire attempt. Returning [Some err] refuses the read — the
    perform thunk never runs, nothing is charged, and the breaker's
    failure streak is untouched (the {e link} is healthy; the {e
    caller's budget} is not). This is where a session server enforces
    per-session read/deadline budgets at the fetch boundary. Gate
    refusals are counted as [deadline_hits]. *)

val disconnect : t -> unit
(** Force the link down (what a crashed target or unplugged serial cable
    looks like). Subsequent reads fail with {!error.Disconnected}. *)

val reconnect : t -> unit
(** Bring the link back up and resync: charges a handshake cost, resets
    the consecutive-failure count, and moves an [Open] breaker to
    [Half_open] so the next read probes the link. *)

(* ------------------------------------------------------------------ *)
(** {1 Deadline budget} *)

val set_deadline : t -> float option -> unit
(** Per-plot budget in simulated ms; [None] (default) is unlimited. *)

val deadline : t -> float option

val begin_plot : t -> unit
(** Reset the budget spend for a new plot. *)

val budget_spent : t -> float
(** Simulated ms charged against the current plot's budget. *)

val deadline_exceeded : t -> bool
(** True once the current plot has spent its whole budget — extraction
    should truncate instead of issuing more reads. *)

(* ------------------------------------------------------------------ *)
(** {1 Reads} *)

val fetch : t -> bytes:int -> (unit -> 'a) -> ('a, error) result
(** [fetch t ~bytes perform] performs one resilient read of [bytes]
    bytes. On the success path [perform] is run exactly once and its
    cost ([rtt + bytes * byte_ms], or the read timeout for a stalled
    attempt) is charged; dropped replies are retried up to
    [max_retries] times with backoff charged between attempts. On any
    [Error _] the thunk was never run.

    Thread-safe: the whole fetch (rng draw, clock charge, breaker
    accounting, [perform]) runs under the transport's internal mutex,
    so a transport shared across domains serializes rather than
    corrupts. *)

(* ------------------------------------------------------------------ *)
(** {1 Health} *)

type snapshot = {
  reads_ok : int;  (** reads that returned data *)
  attempts : int;  (** wire attempts, including retries *)
  retries : int;
  stalls : int;
  drops : int;
  disconnects : int;  (** times the link died *)
  reconnects : int;
  breaker_trips : int;  (** transitions to [Open] *)
  short_circuits : int;  (** reads refused by an open breaker *)
  deadline_hits : int;  (** reads refused by an exhausted budget *)
  retry_denials : int;  (** retries refused by the retry-budget gate *)
  sim_ms : float;  (** total simulated wire time ever charged *)
  breaker_now : breaker;
  link_now : link;
}

val snapshot : t -> snapshot
val reset_counters : t -> unit

(* ------------------------------------------------------------------ *)
(** {1 Adaptive wire health} *)

(** Exponentially weighted per-attempt health, fed by every
    wire-attributed fetch outcome (see {!set_base_faults} for the
    attribution rule): the fault EWMA steps toward 1 on a fault and
    decays toward 0 on a clean read; the latency EWMA tracks the
    simulated ms each observed attempt charged.  This is the gray-
    failure detector: stalls and drops that never trip the breaker
    (a stalled read still {e succeeds}) still raise the fault EWMA. *)
type ewma = {
  ew_fault_rate : float;  (** in [0,1]; 0 = perfectly clean *)
  ew_latency_ms : float;
  ew_samples : int;  (** observations so far *)
}

val ewma : t -> ewma

val ewma_alpha : float
(** The smoothing factor (0.1: a half-life of ~7 observations). *)

val ewma_step : float -> ok:bool -> float
(** One pure EWMA step: [(1-alpha)*x + alpha*(if ok then 0 else 1)].
    Exposed so the decay law is unit-testable. *)

(** Graduated health grades over the fault EWMA, with hysteresis: a
    band is entered at its [_hi] threshold and only left at its lower
    [_lo] threshold, and {!Health.step} refuses any transition until
    [window] steps have passed since the last one — the grade cannot
    flap within one window however the EWMA wiggles.  The session
    server maps [Fine]/[Degraded]/[Sick] onto its
    Healthy/Degraded/Quarantined target states. *)
module Health : sig
  type grade = Fine | Degraded | Sick

  type thresholds = {
    degrade_hi : float;  (** [Fine -> Degraded] at or above this *)
    degrade_lo : float;  (** back to [Fine] at or below this *)
    sick_hi : float;  (** [Degraded -> Sick] at or above this *)
    sick_lo : float;  (** [Sick -> Degraded] at or below this *)
    window : int;  (** min steps between any two transitions *)
  }

  val default_thresholds : thresholds
  val grade_to_string : grade -> string

  val step : thresholds -> grade -> fr:float -> since:int -> grade
  (** [step th g ~fr ~since]: the next grade given the current fault
      EWMA [fr] and [since] steps elapsed since the last transition.
      Pure; returns [g] unchanged while [since < th.window]. *)
end

val health_line : t -> string
(** One-line health summary for plot output, e.g.
    ["[link kgdb-rpi400 up, breaker closed | 420 reads, 3 retries, 1 drop | 84.2 ms on the wire]"]. *)
