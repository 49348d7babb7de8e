(** ViewCL — the View Construction Language (paper §2.2).

    Programs are lists of [define]d Box types, top-level bindings and
    [plot] statements:

    {v
    define Task as Box<task_struct> {
      :default [ Text pid, comm ]
      :default => :sched [ Text se.vruntime ]     // view inheritance
    } where { ... }

    root = ${&cpu_rq(0)->cfs.tasks_timeline}      // ${...}: C expression
    tree = RBTree(@root).forEach |node| {         // container + closure
      yield Task<task_struct.se.run_node>(@node)  // anchored: container_of
    }
    plot @tree
    v}

    The three simplification operators of §2.1 appear as: {e prune} — a
    Box declares exactly the items to keep; {e flatten} — dot-paths
    ([parent.pid]) chase pointers across intermediate objects; {e distill}
    — container constructors ([List], [HList], [RBTree], [Array],
    [XArray], [MapleEntries], [Range]) and the converter
    [Array.selectFrom(box, Def)] turn linked structures into ordered
    sequences. [switch ${e} { case ${v}: ... otherwise: ... }] handles
    unions and polymorphic pointers.  Text decorators (Table 1) control
    formatting; they are exactly [<string>], [<bool>], [<char>],
    [<raw_ptr>], [<fptr>], [<enum:T>] (T a registered enum),
    [<flag:id>], [<emoji:id>] (id looked up in the run's {!config}),
    and an integer kind [u8], [u16], [u32], [u64], [s8], [s16], [s32]
    or [s64], optionally with a radix: [<u64:d>], [<u64:x>], [<u64:o>],
    [<u64:b>].

    A name resolves where it is written: a definition sees [@this], its
    own [where] bindings and its [forEach] variables, never its
    caller's or the top level's; a top-level statement sees the
    top-level bindings made before it.  Definitions are visible to the
    whole program, so they may come after their use and be mutually
    recursive. *)

module Ast = Ast
module Dpool = Dpool

exception Error of string
(** Raised by {!parse} and {!run} on any lexical, syntactic or evaluation
    failure (same exception as [Ast.Error]). *)

(** Formatting configuration for the [flag:<id>] and [emoji:<id>]
    decorators. *)
type config = Interp.config = {
  flags : (string * (int * string) list) list;
  emojis : (string * (int -> string)) list;
}

val default_config : config

val parse : Ctype.registry -> string -> Ast.program
(** Parse a program, each [${...}] with it, and resolve every name
    against the program and the registry.  @raise Error on malformed
    input, at its line, and with [line N: ...] (N the line of the
    [define] or top-level statement) on: an unbound reference, or a
    binding named [this]; a name defined twice or named like a
    container; an unregistered C type; an unknown or cyclic parent
    view; a call of no definition; a wrong argument count ([Array]
    takes 1 or 2, [Range] 2, the rest 1); a method other than
    [Array.selectFrom(e, Def)]; an anchor [T<ty.path>] whose [path] is
    no embedded member of [ty]; a decorator outside the set above; a
    Text path outside a definition, or no member path of its C type
    (through structs and pointers to them). *)

type cache = Interp.plot_cache
(** The cross-run box memo behind incremental re-plots: the program it
    last ran, as source and parse, and boxes keyed by
    (definition name, address), each with the snapshot of the byte
    extents its own consistent section read ({!Target.snapshot}).  Pass
    the cache of a previous {!run} back in to re-extract only the boxes
    whose own bytes were written since, keeping the rest of the graph
    as-is. *)

type result = Interp.result = {
  graph : Vgraph.t;
  plots : Vgraph.box_id list;
  torn : int;  (** consistent sections that closed dirty (a writer raced the walk) *)
  retried : int;  (** re-extraction attempts performed (boxes and top-level bindings) *)
  repaired : int;  (** sections (a box or a top-level binding) whose retry came back clean *)
  torn_boxes : int;  (** boxes degraded to [TORN] after the retry budget *)
  cache : cache;  (** pass back to {!run} for an incremental re-plot *)
  cache_hits : int;  (** boxes kept from the previous run with zero reads *)
  cache_misses : int;  (** (definition, address) keys never built before *)
  cache_invalidated : int;  (** stale entries re-extracted in place *)
  rebuilt : Vgraph.box_id list;  (** memoized boxes extracted this run, ascending *)
}

val create_cache : unit -> cache
(** A fresh, empty cache (equivalently: omit [?cache] on the first
    {!run} and keep the one the result carries). *)

val cache_boxes : cache -> Vgraph.box_id list
(** Ids of all memoized boxes, ascending. *)

val cache_extents : cache -> Vgraph.box_id -> (int * int) list
(** The [\[lo, hi)] byte extents a memoized box's own build read — the
    exact invalidation footprint a Kmem write is tested against.  Empty
    for unknown ids and for boxes that degraded. *)

val run : ?cfg:config -> ?cache:cache -> Target.t -> string -> result
(** Parse and evaluate a program against a live target. Box
    construction is memoized per (definition, address), so shared
    objects become shared boxes and cyclic structures terminate. Every
    box builds inside a consistent section (seqlock-style), and so does
    every top-level binding; a section is retried a bounded number of
    times when a writer races it, then its box (a binding's container)
    degrades to a [TORN] box.

    With [?cache] (from a previous run), the run is an {e incremental
    re-plot}.  If the source is the one the cache last ran, its parse is
    reused: a box whose own extents no write touched since its build is
    kept with zero target reads ([cache_hits]), and only its stale
    descendants are rebuilt; a box whose bytes were written — or that
    degraded last time — is re-extracted in place under its existing id
    ([cache_invalidated]).  A different source is parsed afresh, and
    every cached box it reaches is re-extracted in place.
    Cross-run reuse disables itself while Kmem fault injection is armed,
    keeping injected runs byte-for-byte reproducible.
    @raise Error on failure. *)

val loc_of : string -> int
(** Non-blank, non-comment source lines — the paper's Table 2 LoC
    metric. *)
