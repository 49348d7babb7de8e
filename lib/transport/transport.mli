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
  | Deadline_exceeded  (** a budget of the op's {!allowance} is spent *)
  | Disconnected  (** the link is down; {!reconnect} to resume *)
  | Retries_exhausted  (** every attempt's reply was dropped *)

val error_to_string : error -> string

type t

val create : ?seed:int -> ?policy:policy -> ?faults:faults -> profile -> t
(** A fresh connected transport. [faults] is the wire's weather (what
    {!set_base_faults} sets) and defaults to {!no_faults}, so a default
    transport only adds (simulated) latency accounting. *)

val profile_of : t -> profile
val link : t -> link
val breaker : t -> breaker

val set_base_faults : t -> faults -> unit
(** The wire's {e own} weather, composed with the op's overlay (the
    [faults] of the {!allowance} in force): one draw per attempt decides
    the outcome across both configs, with the base rates ahead of the
    overlay within each fault kind, so every fired fault is attributed
    to whichever config caused it.  Only wire-attributed outcomes (base
    faults, and clean reads) move the health EWMA — a session's
    synthetic fault storm says nothing about the link.  With a zero
    overlay the draw cutoffs are those of a single config. *)

(* ------------------------------------------------------------------ *)
(** {1 The op allowance} *)

(** Everything one op may spend on the link ([None]: unlimited).  A
    refusal fails the read with {!error.Deadline_exceeded} (a
    [Timed_out] fault at the target) and counts in [deadline_hits]; it
    charges nothing and leaves the breaker alone — the {e budget}
    refused, not the link. *)
type allowance = {
  faults : faults;  (** the op's fault overlay on top of the weather *)
  plot_deadline_ms : float option;  (** per-plot budget, see {!deadline_exceeded} *)
  max_fetches : int option;  (** fetches the op may still admit *)
  max_wire_ms : (float * float) option;
      (** [(used, limit)]: refuse once [used] plus the wire ms charged
          under this allowance reaches [limit] *)
  retry_tokens : int option;  (** retries the op may spend; then [retry_denials] *)
  plot_spent_ms : float;
      (** the plot spend the scope opens with: a session passes its own
          last plot's, which its panes show until its next plot begins *)
}

val open_allowance : allowance
(** No overlay, no deadline, no budgets: what is in force between ops. *)

val with_allowance : t -> allowance -> (unit -> 'a) -> 'a
(** [with_allowance t a f] puts [a] in force for [f] and restores the
    previous allowance on every path, exceptions included.  Its fetch
    count, wire spend and retries start at zero, its plot spend at
    [a.plot_spent_ms]. *)

val begin_plot : t -> unit
(** Reset the plot spend for a new plot. *)

val deadline_exceeded : t -> bool
(** True once the current plot has spent the whole [plot_deadline_ms]
    in force — extraction should truncate instead of issuing more reads. *)

val disconnect : t -> unit
(** Force the link down (what a crashed target or unplugged serial cable
    looks like). Subsequent reads fail with {!error.Disconnected}. *)

val reconnect : t -> unit
(** Bring the link back up and resync: charges a handshake cost, resets
    the consecutive-failure count, and moves an [Open] breaker to
    [Half_open] so the next read probes the link. *)

(* ------------------------------------------------------------------ *)
(** {1 Reads} *)

val fetch : t -> bytes:int -> (unit -> 'a) -> ('a, error) result
(** [fetch t ~bytes perform] performs one resilient read of [bytes]
    bytes under the allowance in force: the deadline is checked first,
    then the op's fetch and wire budget, then the breaker. On the
    success path [perform] is run exactly once and its
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
  retry_denials : int;  (** retries refused for want of a retry token *)
  sim_ms : float;  (** total simulated wire time ever charged *)
}

val snapshot : t -> snapshot

(* ------------------------------------------------------------------ *)
(** {1 Adaptive wire health} *)

(** Exponentially weighted per-attempt health, fed by every
    wire-attributed fetch outcome (see {!set_base_faults} for the
    attribution rule): the fault EWMA steps toward 1 on a fault and
    decays toward 0 on a clean read; the latency EWMA tracks the
    simulated ms each observed attempt charged.  This is the gray-
    failure detector: stalls and drops that never trip the breaker
    (a stalled read still {e succeeds}) still raise the fault EWMA,
    which the session server's target-health machine grades. *)
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

val plot_spent_ms : t -> float
(** The wire ms the plot of the allowance in force has spent so far
    (reset by {!begin_plot}). *)

val health_line : t -> string
(** One-line health summary for plot output, e.g.
    ["[link kgdb-rpi400 up, breaker closed | 420 reads, 3 retries, 1 drop | 84.2 ms on the wire]"].
    While a plot deadline is in force it also shows
    [budget <spent>/<deadline>], the {!plot_spent_ms} of the allowance in
    force: a session renders under its own, so a pane never shows a
    neighbour's spend. *)
