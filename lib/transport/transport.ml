(* See transport.mli for the contract.  Design notes:

   - One simulated clock per transport, advanced by every charge; the
     per-plot budget is a separate accumulator reset by [begin_plot], so
     breaker cooldowns (absolute clock) and deadlines (per-plot spend)
     do not interfere.
   - The fault model and the backoff jitter are both driven by
     deterministic integer arithmetic seeded at [create]; no
     [Random], no wall clock, so a seeded run replays exactly.
   - The breaker counts *reads*, not attempts: a read that eventually
     succeeds after two dropped replies resets the failure streak.
   - Between ops a transport holds only its wire's own weather; what an
     op may spend is one allowance, in force only inside [with_allowance]. *)

type profile = { pname : string; rtt_ms : float; byte_ms : float }

let profile pname rtt_ms = { pname; rtt_ms; byte_ms = rtt_ms /. 1024. }
let qemu_local = profile "gdb-qemu" 0.05
let kgdb_rpi = profile "kgdb-rpi3b" 3.0
let kgdb_rpi400 = profile "kgdb-rpi400" 2.5

type faults = { stall_rate : float; drop_rate : float; disconnect_rate : float }

let no_faults = { stall_rate = 0.; drop_rate = 0.; disconnect_rate = 0. }

let faults_of_rate r =
  { stall_rate = r; drop_rate = r; disconnect_rate = r /. 20. }

type policy = {
  max_retries : int;
  backoff_base_ms : float;
  backoff_factor : float;
  backoff_max_ms : float;
  jitter : float;
  read_timeout_ms : float;
  breaker_threshold : int;
  breaker_cooldown_ms : float;
}

(* Timeout on the order of the paper's worst observed round trips
   (10-40 ms on kgdb_rpi); backoff starts near one RTT and caps well
   under a timeout so a retried read stays cheaper than two timeouts. *)
let default_policy =
  { max_retries = 3; backoff_base_ms = 2.0; backoff_factor = 2.0; backoff_max_ms = 24.0;
    jitter = 0.25; read_timeout_ms = 40.0; breaker_threshold = 5;
    breaker_cooldown_ms = 250.0 }

(* splitmix-style integer hash: the jitter source.  Pure in (seed,
   attempt) so the whole backoff schedule is a function of the seed. *)
let mix seed attempt =
  let h = ref (seed lxor (attempt * 0x9e3779b9) land max_int) in
  h := (!h lxor (!h lsr 16)) * 0x45d9f3b land max_int;
  h := (!h lxor (!h lsr 16)) * 0x45d9f3b land max_int;
  !h lxor (!h lsr 16)

let backoff_ms p ~seed ~attempt =
  let raw = p.backoff_base_ms *. (p.backoff_factor ** float_of_int attempt) in
  let capped = Float.min raw p.backoff_max_ms in
  let frac = float_of_int (mix seed attempt land 0xFFFF) /. 65535. in
  capped *. (1. -. p.jitter +. (2. *. p.jitter *. frac))

type link = Up | Down
type breaker = Closed | Open | Half_open

let breaker_to_string = function
  | Closed -> "closed"
  | Open -> "OPEN"
  | Half_open -> "half-open"
type error = Breaker_open | Deadline_exceeded | Disconnected | Retries_exhausted

let error_to_string = function
  | Breaker_open -> "breaker-open"
  | Deadline_exceeded -> "deadline-exceeded"
  | Disconnected -> "disconnected"
  | Retries_exhausted -> "retries-exhausted"

type allowance = {
  faults : faults;
  plot_deadline_ms : float option;
  max_fetches : int option;
  max_wire_ms : (float * float) option;
  retry_tokens : int option;
  plot_spent_ms : float;
}

let open_allowance =
  { faults = no_faults; plot_deadline_ms = None; max_fetches = None; max_wire_ms = None;
    retry_tokens = None; plot_spent_ms = 0. }

(* The allowance in force, the clock and retry count when it was put in
   force, the fetches admitted under it, and the wire ms the current
   plot has spent (reset by [begin_plot]). *)
type scope = {
  allow : allowance;
  clock0 : float;
  retries0 : int;
  mutable fetched : int;
  mutable spent : float;
}

type t = {
  prof : profile;
  seed : int;
  policy : policy;
  mutable base_faults : faults;  (* the wire's own weather *)
  mutable scope : scope;  (* the op's allowance, {!open_allowance} between ops *)
  mutable rng : int;
  mutable link : link;
  mutable brk : breaker;
  mutable consec_failures : int;
  mutable half_open_at : float;  (* clock time when an Open breaker may probe *)
  mutable clock_ms : float;  (* simulated wire time, whole lifetime *)
  (* wire-health EWMAs: per-attempt fault rate and latency, moved only
     by wire-attributed outcomes (base faults and clean reads) — a
     session's own overlay faults say nothing about the link *)
  mutable ew_fault : float;
  mutable ew_lat : float;
  mutable ew_n : int;
  (* counters *)
  mutable reads_ok : int;
  mutable attempts : int;
  mutable retries : int;
  mutable stalls : int;
  mutable drops : int;
  mutable disconnects : int;
  mutable reconnects : int;
  mutable breaker_trips : int;
  mutable short_circuits : int;
  mutable deadline_hits : int;
  mutable retry_denials : int;
  (* thread-safe fetch gate: a transport's mutable state (rng, clock,
     breaker, counters) is only ever touched under this lock, so a
     transport shared across domains serializes rather than corrupts *)
  lock : Mutex.t;
}

let create ?(seed = 0x9e3779b9) ?(policy = default_policy) ?(faults = no_faults) prof =
  { prof; seed; policy; base_faults = faults;
    scope = { allow = open_allowance; clock0 = 0.; retries0 = 0; fetched = 0; spent = 0. };
    rng = seed; link = Up; brk = Closed; consec_failures = 0;
    half_open_at = 0.; clock_ms = 0.; ew_fault = 0.; ew_lat = 0.; ew_n = 0;
    reads_ok = 0;
    attempts = 0; retries = 0; stalls = 0; drops = 0; disconnects = 0; reconnects = 0;
    breaker_trips = 0; short_circuits = 0; deadline_hits = 0; retry_denials = 0;
    lock = Mutex.create () }

let profile_of t = t.prof
let link t = t.link
let breaker t = t.brk
let set_base_faults t f = t.base_faults <- f

let with_allowance t allow f =
  let saved = t.scope in
  t.scope <-
    { allow; clock0 = t.clock_ms; retries0 = t.retries; fetched = 0; spent = allow.plot_spent_ms };
  Fun.protect ~finally:(fun () -> t.scope <- saved) f

(* ------------------------------------------------------------------ *)
(* Wire-health EWMA *)

let ewma_alpha = 0.1

(* One EWMA step: decay toward 0 on a clean outcome, toward 1 on a
   fault.  Pure, so the decay law is unit-testable. *)
let ewma_step x ~ok = ((1. -. ewma_alpha) *. x) +. (if ok then 0. else ewma_alpha)

type ewma = { ew_fault_rate : float; ew_latency_ms : float; ew_samples : int }

let ewma t = { ew_fault_rate = t.ew_fault; ew_latency_ms = t.ew_lat; ew_samples = t.ew_n }

let note_wire t ~ok ~ms =
  t.ew_fault <- ewma_step t.ew_fault ~ok;
  t.ew_lat <-
    (if t.ew_n = 0 then ms else ((1. -. ewma_alpha) *. t.ew_lat) +. (ewma_alpha *. ms));
  t.ew_n <- t.ew_n + 1

let charge t ms =
  t.clock_ms <- t.clock_ms +. ms;
  t.scope.spent <- t.scope.spent +. ms

(* Java's 48-bit LCG, as in Kmem's injection layer. *)
let draw t =
  t.rng <- ((t.rng * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
  float_of_int ((t.rng lsr 24) land 0xFFFFFF) /. 16777216.

let any_faults f = f.stall_rate > 0. || f.drop_rate > 0. || f.disconnect_rate > 0.

(* ------------------------------------------------------------------ *)
(* Link and breaker state *)

(* Every breaker transition funnels through here so state changes show
   up as instant events in the trace. *)
(* The breaker state as a metrics gauge: 0 closed, 1 half-open, 2 open.
   Exported on every transition (and refreshed by [begin_plot]) so a
   degraded link is visible in any BENCH_*.json, not just in traces. *)
let breaker_gauge = function Closed -> 0. | Half_open -> 1. | Open -> 2.

let set_brk t b =
  if t.brk <> b then begin
    if Obs.enabled () then begin
      Obs.instant ~cat:"transport"
        ~attrs:
          [ ("from", breaker_to_string t.brk); ("to", breaker_to_string b);
            ("profile", t.prof.pname) ]
        "transport.breaker";
      Obs.Metrics.set_gauge "transport.breaker_state" (breaker_gauge b)
    end;
    t.brk <- b
  end

let disconnect t =
  if t.link = Up then begin
    t.link <- Down;
    t.disconnects <- t.disconnects + 1
  end

let reconnect t =
  if t.link = Down then t.reconnects <- t.reconnects + 1;
  t.link <- Up;
  t.consec_failures <- 0;
  (* resync handshake: qSupported + symbol refresh, a few round trips *)
  charge t (5. *. t.prof.rtt_ms);
  if t.brk = Open then set_brk t Half_open

let trip t =
  set_brk t Open;
  t.breaker_trips <- t.breaker_trips + 1;
  t.half_open_at <- t.clock_ms +. t.policy.breaker_cooldown_ms

let read_failed t =
  t.consec_failures <- t.consec_failures + 1;
  match t.brk with
  | Half_open -> trip t  (* the probe failed: back to Open, new cooldown *)
  | Closed -> if t.consec_failures >= t.policy.breaker_threshold then trip t
  | Open -> ()

let read_succeeded t =
  t.consec_failures <- 0;
  if t.brk = Half_open then set_brk t Closed

(* ------------------------------------------------------------------ *)
(* Budget *)

let begin_plot t =
  t.scope.spent <- 0.;
  if Obs.enabled () then
    Obs.Metrics.set_gauge "transport.breaker_state" (breaker_gauge t.brk)

let deadline_exceeded t =
  match t.scope.allow.plot_deadline_ms with Some d -> t.scope.spent >= d | None -> false

(* The op's fetch and wire budget; an admitted fetch counts against it. *)
let admit_fetch t =
  let sc = t.scope in
  let over =
    (match sc.allow.max_fetches with Some n -> sc.fetched >= n | None -> false)
    ||
    match sc.allow.max_wire_ms with
    | Some (used, limit) -> used +. (t.clock_ms -. sc.clock0) >= limit
    | None -> false
  in
  if not over then sc.fetched <- sc.fetched + 1;
  not over

(* ------------------------------------------------------------------ *)
(* The resilient read *)

let fetch_raw t ~bytes perform =
  if deadline_exceeded t || not (admit_fetch t) then begin
    (* the op's deadline, read or wire budget is spent: no wire traffic,
       no breaker accounting — the link itself is fine *)
    t.deadline_hits <- t.deadline_hits + 1;
    Error Deadline_exceeded
  end
  else begin
    (* breaker gate: Open refuses outright until the cooldown elapses,
       then lets exactly one probe through in Half_open *)
    (if t.brk = Open && t.clock_ms >= t.half_open_at then set_brk t Half_open);
    if t.brk = Open then begin
      t.short_circuits <- t.short_circuits + 1;
      Error Breaker_open
    end
    else
      let fail err =
        read_failed t;
        Error err
      in
      let rec attempt n =
        if t.link = Down then begin
          (* a dead link is detected after one timeout; retrying is
             pointless until an explicit reconnect *)
          charge t t.policy.read_timeout_ms;
          note_wire t ~ok:false ~ms:t.policy.read_timeout_ms;
          fail Disconnected
        end
        else if deadline_exceeded t then begin
          t.deadline_hits <- t.deadline_hits + 1;
          Error Deadline_exceeded
        end
        else begin
          t.attempts <- t.attempts + 1;
          (* one draw decides the attempt's fate across both fault
             configs; the segments put the wire's own (base) rates ahead
             of the session overlay within each fault kind, so each
             fired fault knows who caused it — only wire-attributed
             outcomes feed the health EWMA.  With either config zero the
             cutoffs are the other's single-config thresholds, so a run
             draws the same outcomes whichever config holds its faults. *)
          let bf = t.base_faults and sf = t.scope.allow.faults in
          let r = if any_faults bf || any_faults sf then draw t else 1. in
          let c1 = bf.disconnect_rate in
          let c2 = c1 +. sf.disconnect_rate in
          let c3 = c2 +. bf.drop_rate in
          let c4 = c3 +. sf.drop_rate in
          let c5 = c4 +. bf.stall_rate in
          let c6 = c5 +. sf.stall_rate in
          if r < c2 then begin
            t.link <- Down;
            t.disconnects <- t.disconnects + 1;
            charge t t.policy.read_timeout_ms;
            if r < c1 then note_wire t ~ok:false ~ms:t.policy.read_timeout_ms;
            fail Disconnected
          end
          else if r < c4 then begin
            t.drops <- t.drops + 1;
            charge t t.policy.read_timeout_ms;
            if r < c3 then note_wire t ~ok:false ~ms:t.policy.read_timeout_ms;
            if n >= t.policy.max_retries then fail Retries_exhausted
            else if
              match t.scope.allow.retry_tokens with
              | Some tokens -> t.retries - t.scope.retries0 >= tokens
              | None -> false
            then begin
              (* the caller's retry budget is spent: degrade exactly like
                 an exhausted deadline (a [Timed_out] fault upstairs, no
                 breaker accounting — the budget refused, not the link),
                 instead of piling more retries onto a sick wire *)
              t.retry_denials <- t.retry_denials + 1;
              t.deadline_hits <- t.deadline_hits + 1;
              Error Deadline_exceeded
            end
            else begin
              t.retries <- t.retries + 1;
              let retry () =
                charge t (backoff_ms t.policy ~seed:t.seed ~attempt:n);
                attempt (n + 1)
              in
              if Obs.enabled () then begin
                (* link the retry to the attempt it replaces: the span we
                   are currently inside (fetch, or the previous retry) *)
                let prev = Obs.Trace.current_span () in
                Obs.with_span ~cat:"transport"
                  ~attrs:[ ("attempt", string_of_int (n + 1)) ]
                  "transport.retry"
                  (fun () ->
                    Obs.Trace.link ~kind:"retry" ~from_span:prev
                      ~to_span:(Obs.Trace.current_span ());
                    retry ())
              end
              else retry ()
            end
          end
          else begin
            let stalled = r < c6 in
            if stalled then begin
              t.stalls <- t.stalls + 1;
              charge t t.policy.read_timeout_ms;
              if r < c5 then note_wire t ~ok:false ~ms:t.policy.read_timeout_ms
            end
            else begin
              let ms = t.prof.rtt_ms +. (float_of_int bytes *. t.prof.byte_ms) in
              charge t ms;
              note_wire t ~ok:true ~ms
            end;
            read_succeeded t;
            t.reads_ok <- t.reads_ok + 1;
            Ok (perform ())
          end
        end
      in
      attempt 0
  end

let c_fetches = Obs.Counter.make "transport.fetches"
let c_errors = Obs.Counter.make "transport.errors"

let fetch t ~bytes perform =
  Mutex.protect t.lock @@ fun () ->
  if not (Obs.enabled ()) then fetch_raw t ~bytes perform
  else
    Obs.with_span ~cat:"transport"
      ~attrs:[ ("profile", t.prof.pname); ("bytes", string_of_int bytes) ]
      "transport.fetch"
      (fun () ->
        Obs.Counter.incr c_fetches;
        match fetch_raw t ~bytes perform with
        | Ok _ as ok -> ok
        | Error e ->
            Obs.Counter.incr c_errors;
            Obs.instant ~cat:"transport"
              ~attrs:[ ("error", error_to_string e) ]
              "transport.error";
            Error e)

(* ------------------------------------------------------------------ *)
(* Health *)

type snapshot = {
  reads_ok : int;
  attempts : int;
  retries : int;
  stalls : int;
  drops : int;
  disconnects : int;
  reconnects : int;
  breaker_trips : int;
  short_circuits : int;
  deadline_hits : int;
  retry_denials : int;
  sim_ms : float;
}

let snapshot (t : t) =
  { reads_ok = t.reads_ok; attempts = t.attempts; retries = t.retries; stalls = t.stalls;
    drops = t.drops; disconnects = t.disconnects; reconnects = t.reconnects;
    breaker_trips = t.breaker_trips; short_circuits = t.short_circuits;
    deadline_hits = t.deadline_hits; retry_denials = t.retry_denials; sim_ms = t.clock_ms }

let plot_spent_ms t = t.scope.spent

let health_line t =
  let budget =
    match t.scope.allow.plot_deadline_ms with
    | Some d -> Printf.sprintf ", budget %.1f/%.1f ms" t.scope.spent d
    | None -> ""
  in
  Printf.sprintf
    "[link %s %s, breaker %s | %d reads, %d retries, %d drops, %d stalls, %d refused%s | %.1f ms on the wire]"
    t.prof.pname
    (match t.link with Up -> "up" | Down -> "DOWN")
    (breaker_to_string t.brk) t.reads_ok t.retries t.drops t.stalls
    (t.short_circuits + t.deadline_hits) budget t.clock_ms
