(** Obs — the observability substrate (DESIGN.md §7, extended §12).

    A dependency-free (stdlib + [Unix] only) tracing/metrics/profiling
    library threaded through every layer of the stack: hierarchical
    wall-clock spans emitted into a bounded in-memory ring buffer, a
    registry of named counters/gauges/log2-bucketed histograms with
    per-bucket trace exemplars, causal trace ids with span links, a
    declarative SLO registry with multi-window burn rates, and four
    exporters — Chrome [trace_event] JSON (loadable in
    [about:tracing] / Perfetto, with flow events for the links), a flat
    ASCII profile table (self/total time per span name), a JSON metrics
    dump (the [BENCH_*.json] artifact format) and Prometheus text
    exposition.

    Everything is gated on one global switch ({!set_enabled}); while
    disabled every recording entry point is a single branch — no
    clock reads, no allocation, no events, no counter drift — so
    instrumented hot paths cost (almost) nothing in production. *)

(** {1 Global switch} *)

val enabled : unit -> bool
val set_enabled : bool -> unit

val reset : unit -> unit
(** Drop all buffered events, span aggregates and links, zero every
    counter, clear gauges and histograms, restart every registered
    SLO's windows, and restart the trace epoch. Counter handles made
    with {!Counter.make} stay valid. *)

(** {1 Clock} *)

(** A monotonicized wall clock: readings never decrease, even across
    NTP steps (each reading is clamped to the previous maximum), so
    durations derived from it are never negative. The running maximum
    is an [Atomic.t] advanced with a CAS-max loop, so readings taken
    concurrently from several domains never regress each other
    either. *)
module Clock : sig
  val now_ms : unit -> float
  (** Milliseconds since the Unix epoch, monotonicized. *)

  val elapsed_ms : float -> float
  (** [elapsed_ms t0] = [now_ms () -. t0]; always >= 0 for a [t0]
      obtained from {!now_ms}. *)
end

(** {1 Spans and events} *)

type span = {
  sname : string;
  scat : string;  (** layer category: target, transport, viewcl, ... *)
  st0_ms : float;  (** start, relative to the trace epoch *)
  sdur_ms : float;  (** total (inclusive) duration *)
  sself_ms : float;  (** duration minus directly-nested child spans *)
  sdepth : int;  (** nesting depth at begin; 0 = top level *)
  sid : int;  (** process-unique span id; 0 never occurs on a recorded span *)
  sparent : int;  (** enclosing span's id; 0 = top level *)
  strace : int;  (** ambient trace id at begin; 0 = no trace *)
  sattrs : (string * string) list;
}

type event =
  | Span of span
  | Instant of {
      iname : string;
      icat : string;
      it_ms : float;
      iattrs : (string * string) list;
    }

val with_span : ?cat:string -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] inside a span: the span begins before
    [f], ends when [f] returns {e or raises} (the exception is
    re-raised after the span is recorded), so every recorded end
    matches a begin and nesting is structural. Disabled: tail-calls
    [f] directly. *)

val instant : ?cat:string -> ?attrs:(string * string) list -> string -> unit
(** A zero-duration point event (state changes, journal ops). *)

val current_depth : unit -> int
(** Number of currently-open spans (0 outside any {!with_span}). *)

(** {1 Traces and span links} *)

(** Causal identity that plain nesting cannot express.  A trace id is
    minted per logical operation (e.g. one admitted session op) and
    propagated ambiently: every span begun inside {!Trace.with_trace}
    records it in {!span.strace}.  Span links connect spans across the
    nesting tree — a hedged op to its canary, a retry to the attempt it
    replaces — and are exported as Chrome flow events. *)
module Trace : sig
  type link = { lkind : string; lfrom : int; lto : int }

  val mint : unit -> int
  (** A fresh nonzero trace id; 0 while disabled. *)

  val current : unit -> int
  (** The ambient trace id; 0 outside any {!with_trace}. *)

  val with_trace : int -> (unit -> 'a) -> 'a
  (** [with_trace tid f] runs [f] with [tid] ambient (restored on
      return or raise). [with_trace 0 f] is exactly [f ()]. *)

  val current_span : unit -> int
  (** The innermost open span's id; 0 outside any span (or disabled). *)

  val link : kind:string -> from_span:int -> to_span:int -> unit
  (** Record a causal edge between two spans (by id; either may still
      be open). No-op while disabled or when either id is 0. Bounded:
      the oldest link is dropped beyond 16384. *)

  val links : unit -> link list
  (** All recorded links, oldest first. *)
end

(** {1 The ring buffer} *)

val events : unit -> event list
(** Buffered events, oldest first. At most the ring capacity; once the
    ring overflows the {e oldest} events are evicted first. *)

val span_events : unit -> span list
(** The [Span _] subset of {!events}, oldest first. *)

val event_count : unit -> int
val dropped : unit -> int
(** Events evicted by overflow since the last {!reset}. *)

val spans_total : unit -> int
(** Spans ever recorded since the last {!reset} (survives eviction). *)

val ring_capacity : unit -> int

val set_ring_capacity : int -> unit
(** Resize the ring (default 32768 events), dropping buffered events.
    Bounded: the requested capacity is clamped to at most [2^20]
    events, so callers sizing the ring to a workload (e.g. [bench
    --obs] sizing it to the full suite) cannot allocate unbounded
    memory. *)

(** {1 Metrics registry} *)

module Metrics : sig
  val incr : ?by:int -> string -> unit
  val set_gauge : string -> float -> unit

  val observe : string -> float -> unit
  (** Record one sample into the named log2-bucketed histogram.
      Bucket [0] holds values below [2^-32]; bucket [i] (1..62) holds
      [2^(i-33) <= v < 2^(i-32)]; bucket [63] holds [v >= 2^30].
      When a trace is ambient ({!Trace.current} nonzero) the sample's
      bucket remembers it as that bucket's exemplar. *)

  val counter : string -> int
  (** Current value; 0 for an unknown counter. *)

  val gauge : string -> float option
  val counters : unit -> (string * int) list
  (** All counters, sorted by name. *)

  val gauges : unit -> (string * float) list
  (** All gauges, sorted by name. *)

  type summary = {
    count : int;
    sum : float;
    minv : float;
    maxv : float;
    p50 : float;
    p95 : float;
    p99 : float;
  }

  val summary : string -> summary option

  val quantile : string -> float -> float option
  (** [quantile name q] estimates the [q]-quantile ([0 <= q <= 1]) as
      the upper edge of the first bucket whose cumulative count covers
      rank [ceil (q * count)], clamped into [[minv, maxv]] — so it is
      monotone in [q] by construction. *)

  val exemplars : string -> (int * int * float) list
  (** [(bucket, trace_id, value)] for every bucket holding an exemplar,
      ascending bucket. Empty for an unknown histogram or when no
      sample was ever observed under an ambient trace. *)

  val top_exemplar : string -> (int * float) option
  (** The exemplar of the highest occupied bucket — the trace behind
      the histogram's tail (e.g. the p95 outlier a bench table names). *)

  (** Bucket geometry, exposed for tests. *)

  val bucket_of : float -> int
  val bucket_lo : int -> float
  val bucket_hi : int -> float
end

(** Pre-resolved counter handles for hot paths: one [enabled] branch
    plus an integer add, no hashtable lookup per increment. *)
module Counter : sig
  type t

  val make : string -> t
  (** Find-or-create; the same name always yields the same counter. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

(** {1 Span profile (aggregated)} *)

module Profile : sig
  type row = { pname : string; pcount : int; ptotal_ms : float; pself_ms : float }

  val rows : unit -> row list
  (** All span names ever recorded (independent of ring eviction),
      sorted by self time, highest first. *)

  val find : string -> row option

  val total_ms : string -> float
  (** Aggregate total for a span name; 0 for an unknown name. *)

  val top : int -> row list

  val breakdown : unit -> row list
  (** Per-(name + selected attrs) aggregates — rows named like
      ["transport.fetch{profile=kgdb_rpi400}"] — updated at span end
      like {!rows}, so per-target splits survive ring eviction. Only
      attrs whose key is in the breakdown key set are folded in, and
      each base name is capped at 64 distinct attr combinations (the
      overflow lands in ["name{...}"]). *)
end

(** {1 SLO engine} *)

(** Declarative service-level objectives evaluated over the metrics
    registry with multi-window burn rates (DESIGN.md §12).  Strictly
    read-only with respect to control: health/admission decisions stay
    in [lib/session]. *)
module Slo : sig
  type kind =
    | Good_bad of { good : string; bad : string }
        (** availability-style: two counters; total = good + bad *)
    | Bad_total of { bad : string; total : string }
        (** ratio-style: staleness, fault rate — two counters *)
    | Histogram_le of { histo : string; threshold_ms : float }
        (** latency-style: samples in buckets at/above the threshold
            are bad (log2-bucket granularity) *)
    | Gauge_le of { gauge : string; threshold : float }
        (** sampled at each tick: one bad sample when the gauge
            exceeds the threshold *)

  type objective = { oname : string; okind : kind; otarget : float }
  (** [otarget] is the good fraction to sustain (e.g. 0.99); the error
      budget is its complement. *)

  val register : objective -> unit
  (** Idempotent: re-registering an identical objective keeps its
      accumulated windows; a changed objective restarts them. *)

  val clear : unit -> unit

  val tick : unit -> unit
  (** Close one evaluation epoch: per objective, take the (bad, total)
      delta since the last tick, compute the burn rate over the fast
      (1-epoch) and slow (8-epoch) windows, export
      [slo.<name>.burn_rate] (min of the two — the multi-window alert
      rule), [.burn_fast], [.burn_slow] and [.budget_remaining]
      gauges, and emit a structured [slo.breach] instant (severity
      warn at burn >= 1, page at >= 6) on escalation and [slo.clear]
      on recovery. No-op while disabled. *)

  type status = {
    slo : string;
    target : float;
    burn_fast : float;
    burn_slow : float;
    burn_rate : float;
    budget_remaining : float;
    severity : string;  (** "ok" | "warn" | "page" *)
  }

  val status : unit -> status list
  (** One row per objective, registration order, as of the last tick. *)

  val report : unit -> string
  (** The {!status} rows as an aligned ASCII table. *)
end

(** {1 Exporters} *)

val chrome_trace : unit -> string
(** The buffered events as Chrome [trace_event] JSON
    ([{"traceEvents": [...]}], complete events [ph:"X"] in
    microseconds, span/trace/parent ids in [args]) — loadable in
    [about:tracing] and Perfetto. Span links are appended as flow
    events ([ph:"s"]/[ph:"f"] pairs named by link kind), so hedge /
    canary / retry / probation arrows render; links whose endpoint
    spans were evicted from the ring are skipped. *)

val metrics_json : ?extra:(string * string) list -> unit -> string
(** The whole registry as JSON: [meta] (the [extra] pairs), [counters],
    [gauges] (including [slo.*] and the ring-pressure gauges),
    [histograms] (with quantile summaries), [exemplars] (per-bucket
    trace ids), [spans] (aggregated profile rows) and [events] (ring
    statistics). This is the [BENCH_*.json] artifact format. *)

val prometheus : unit -> string
(** Prometheus text exposition: counters, gauges, and histograms as
    quantile summaries ([name{quantile="0.5"}], [_sum], [_count]).
    Names are mangled to the prometheus charset. *)

val report : unit -> string
(** Human-readable report: profile table (+ per-attribute breakdown) +
    counters + gauges + histogram summaries + SLO table + ring
    statistics (the [vprof report] text). Prints a loud warning when
    ring eviction has dropped events. *)
