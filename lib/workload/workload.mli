(** The paper's evaluation workload (§5.4): five processes, each with two
    extra threads, repeatedly performing IPC and mapping/unmapping files
    and anonymous pages — plus population of every other subsystem that
    Table 2 visualizes (IRQs, timers, workqueues, swap, devices, sockets,
    pipes, signals), so all figures have realistic content.

    Deterministic: a seeded xorshift PRNG drives all choices, so plots,
    tests and benchmarks are reproducible. *)

type t

val create : ?seed:int -> Kstate.t -> t

val step : t -> unit
(** One iteration of per-process activity: file opens + mmaps, anonymous
    mapping churn, semaphore and message-queue traffic. *)

val run : ?iters:int -> t -> unit
(** The full standard workload: {!populate_system}, {!spawn_processes},
    [iters] (default 3) {!step}s, {!populate_userspace},
    {!simulate_time}. *)

val leaders : t -> Kmem.addr list
(** The five worker group leaders, in spawn order. *)

(** Chaos harness: seeded mutators fired between target reads (via
    {!Target.set_read_hook}), simulating the live kernel changing under
    the debugger mid-plot.  Mutations are weighted toward cheap stores
    (vruntime bumps, comm scribbles) to the task the triggering read
    touched (else a random leader), with occasional timer adds and
    mmap/munmap churn — the latter frees and rebuilds maple nodes, the
    StackRot-shaped race.  All writes bypass the target (straight to
    {!Kmem}), so firing from inside a read cannot recurse; an
    independent PRNG keeps the base workload deterministic. *)
module Chaos : sig
  type chaos

  val create : ?seed:int -> t -> rate:float -> chaos
  (** [rate] — probability that one performed read fires one mutation. *)

  val arm : chaos -> Target.t -> unit
  (** Install the chaos hook on the target. *)

  val disarm : Target.t -> unit
  (** Remove any read hook from the target. *)

  val fired : chaos -> int
  (** Mutations performed so far. *)

  val mutate : chaos -> unit
  (** Perform one mutation unconditionally, its stores to a random
      leader (exposed for tests). *)
end

(** Deterministic chaos campaigns: a scripted fault timeline replacing
    {!Chaos}'s probabilistic firing.  The module is a pure parser —
    text in, script out; {e running} a campaign is the bench driver's
    job ([bench --campaign <file>]), since it owns the server and its
    targets.  Grammar, one directive per line ([#] starts a comment):

    {v
    campaign <name>
    targets <t1> [<t2> ...]          # default: t1
    sessions <n>                     # default: 2
    weights <w1> [<w2> ...]          # per-session priority, pads with 1s
    ops <n>                          # total driven ops, default 100
    at <op> phase <name>             # label ops from <op> onward
    at <op> link_down <target>
    at <op> link_up <target>
    at <op> fault_rate <target> <r>  # base wire weather at rate r
    at <op> bit_flip_storm <target>  # memory-corruption burst
    at <op> recover <target>         # clear faults/injection, reconnect
    expect <key> <float>             # availability/p95/TTR gate
    v} *)
module Campaign : sig
  type event =
    | Phase of string
    | Link_down of string
    | Link_up of string
    | Fault_rate of string * float
    | Bit_flip_storm of string
    | Recover of string
    | Crash
        (** [crash_at <op>]: kill the fleet before that op; the bench
            recovers it from the durable WAL *)
    | Corrupt_journal
        (** [corrupt_journal <op>]: flip a seeded bit in a committed
            WAL record — silent corruption the later crash must survive *)

  type t = {
    cname : string;
    ctargets : string list;
    csessions : int;
    cweights : int list;
    cops : int;
    events : (int * event) list;  (** [(op mark, event)], marks ascending *)
    expects : (string * float) list;
  }

  exception Parse_error of { line : int; msg : string }

  val parse : string -> t
  (** @raise Parse_error with the 1-based line number on bad input. *)

  val event_to_string : event -> string

  val events_at : t -> int -> event list
  (** The events scheduled exactly at (1-based) op [op] — fired by the
      driver before that op runs. *)

  val weight_at : t -> int -> int
  (** Weight for 0-based session index [i]; 1 when unspecified. *)
end
