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
    unions and polymorphic pointers; Text decorators (Table 1) control
    formatting ([<u64:x>], [<string>], [<enum:t>], [<flag:id>], [<fptr>],
    [<emoji:id>], ...). *)

module Ast = Ast
module Lexer = Lexer
module Parser = Parser
module Interp = Interp
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

val parse : string -> Ast.program
(** @raise Error on malformed input. *)

type cache = Interp.plot_cache
(** The cross-run box memo behind incremental re-plots: boxes keyed by
    (definition name, address), each stamped with the page stamps its
    consistent section read ({!Target.section_pages}).  Pass the cache of a
    previous {!run} back in to re-extract only the boxes whose pages
    were written since, adopting the rest of the graph as-is. *)

type result = Interp.result = {
  graph : Vgraph.t;
  plots : Vgraph.box_id list;
  torn : int;  (** consistent sections that closed dirty (a writer raced the walk) *)
  retried : int;  (** box re-extraction attempts performed *)
  repaired : int;  (** boxes whose retry produced a clean snapshot *)
  torn_boxes : int;  (** boxes degraded to [TORN] after the retry budget *)
  cache : cache;  (** pass back to {!run} for an incremental re-plot *)
  cache_hits : int;  (** boxes adopted from the previous run with zero reads *)
  cache_misses : int;  (** (definition, address) keys never built before *)
  cache_invalidated : int;  (** stale entries re-extracted in place *)
  rebuilt : Vgraph.box_id list;  (** memoized boxes extracted this run, ascending *)
}

val create_cache : unit -> cache
(** A fresh, empty cache (equivalently: omit [?cache] on the first
    {!run} and keep the one the result carries). *)

val cache_boxes : cache -> Vgraph.box_id list
(** Ids of all memoized boxes, ascending. *)

val cache_pages : cache -> Vgraph.box_id -> (int * int) list
(** The (page, generation-at-build) stamps recorded for a memoized box —
    the exact invalidation footprint a Kmem write is tested against.
    Empty for unknown ids. *)

val run :
  ?cfg:config -> ?limits:Interp.limits -> ?cache:cache -> ?prelude:Ast.program list ->
  Target.t -> string -> result
(** Evaluate a program against a live target. [prelude] supplies
    predefined Box definitions. Box construction is memoized per
    (definition, address), so shared objects become shared boxes and
    cyclic structures terminate. Every box builds inside a consistent
    section (seqlock-style) and is retried up to [limits.max_retries]
    times when a writer races it, then degrades to a [TORN] box.

    With [?cache] (from a previous run of the same program), the run is
    an {e incremental re-plot}: a box whose subtree's page stamps all
    match live memory is adopted with zero target reads ([cache_hits]);
    a box whose pages moved — or that degraded last time — is
    re-extracted in place under its existing id ([cache_invalidated]).
    Cross-run reuse disables itself while Kmem fault injection is armed,
    keeping injected runs byte-for-byte reproducible.
    @raise Error on failure. *)

val loc_of : string -> int
(** Non-blank, non-comment source lines — the paper's Table 2 LoC
    metric. *)
