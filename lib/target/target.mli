(* The GDB-target abstraction: typed access to simulated kernel memory.

   This layer plays the role GDB plays for Visualinux proper — it turns
   "read 8 bytes at 0xffff..." into "the [mm] member of this
   [task_struct]".  Values carry a C type plus a location; navigation
   (member access, indexing, dereference, casts) computes new locations
   without touching memory, while observation ([as_int], [as_string],
   [load], [truthy]) performs checked reads.

   Robustness contract: the kernel under inspection may be CORRUPTED
   (the paper's two case studies plot dangling and low-bit-tagged
   pointers).  Memory-level problems therefore never raise — every
   checked read validates the address against the allocation map and,
   on trouble, records a typed {!fault} in the target's journal and
   yields poison/zero data so extraction can continue.  Only structural
   API misuse (dereferencing an [int], naming a field that does not
   exist) raises [Invalid_argument], mirroring what GDB's expression
   evaluator would reject statically. *)

type addr = int

(** Where a value lives. *)
type location =
  | Lval of addr  (** in target memory, at this address *)
  | Rval of int  (** an immediate (debugger-side) integer *)
  | Rstr of string  (** an immediate (debugger-side) string *)

type value = { typ : Ctype.t; loc : location }

(** Typed memory faults.  Recorded in the journal instead of raised, so
    a plot of a corrupted kernel degrades to broken boxes rather than
    aborting.  *)
type fault =
  | Use_after_free of { obj : addr; tag : string; at : addr }
      (** read inside a freed allocation (its base, slab tag, address read) *)
  | Wild_access of { at : addr }
      (** read outside any allocation ever made *)
  | Null_deref of { at : addr; ctx : string }
      (** read in the null guard page, [ctx] names the operation *)
  | Misaligned of { at : addr; want : int; ctx : string }
      (** dereferenced a pointer whose value is misaligned for its
          pointee — the classic signature of a low-bit-tagged or
          garbage pointer *)
  | Bad_cast of { from_ : string; to_ : string }
      (** a cast with no sensible C meaning (e.g. string to struct) *)
  | Injected of { at : addr }
      (** a read the {!Kmem} fault-injection layer chose to corrupt *)
  | Truncated of { at : addr; ctx : string }
      (** a container traversal stopped early: cycle detected or a
          node/depth budget exhausted at [at] *)
  | Timed_out of { at : addr; ctx : string }
      (** the transport refused the read because a budget of the op's
          allowance (deadline, reads, wire ms, retries) was spent *)
  | Link_lost of { at : addr; ctx : string; detail : string }
      (** the transport could not complete the read — breaker open,
          link disconnected, or every retry's reply dropped; [detail]
          is the {!Transport.error} name *)
  | Torn of { lo : addr; hi : addr }
      (** a writer raced a consistent section: some byte of the read
          extent [\[lo, hi)] — bytes the section's reads covered,
          helper reads included — was written after the section opened
          and before its end check *)

type t

(** Helpers are debugger-side functions (the paper's "GDB Python
    extensions"), callable from C expressions. *)
type helper = t -> value list -> value

val create : Kmem.t -> Ctype.registry -> t
val mem : t -> Kmem.t
val types : t -> Ctype.registry

(* ------------------------------------------------------------------ *)
(* Transport — the (simulated) debugger link *)

val set_transport : t -> Transport.t -> unit
(** Route every checked read through [tr]: reads the transport refuses
    (breaker open, link down, budget spent, retries exhausted) record a
    {!fault.Timed_out} or {!fault.Link_lost} fault and yield zero/empty
    data instead of touching memory. Without a transport (the default)
    reads hit {!Kmem} directly, as before. *)

val transport : t -> Transport.t option

val deadline_exceeded : t -> bool
(** True when an attached transport's per-plot budget is spent — used
    by container iterators to truncate traversals early. *)

(* ------------------------------------------------------------------ *)
(* Value constructors — no memory access, no validation. *)

val obj : Ctype.t -> addr -> value
(** [obj ty a] is the lvalue of type [ty] living at [a]. *)

val ptr_to : Ctype.t -> addr -> value
(** [ptr_to ty a] is an immediate pointer of type [ty *] holding [a]. *)

val int_value : int -> value
val bool_value : bool -> value
val str_value : string -> value
val null_ptr : value

(* ------------------------------------------------------------------ *)
(* Navigation *)

val member : t -> value -> string -> value
(** [member t v f] accesses field [f].  Pointers auto-dereference
    (GDB's [->]); bitfield members are read and extracted immediately
    (an address cannot denote a bit range).  Raises [Invalid_argument]
    if [v] is not (a pointer to) a composite or has no such field. *)

val member_path : t -> value -> string list -> value
(** [member_path t v ["a"; "b"; "c"]] folds {!member} over a path. *)

val index : t -> value -> int -> value
(** Array subscript on an array lvalue or a pointer.  Out-of-bounds
    indices are computed anyway (the liveness check on the eventual
    read will record the fault), as GDB does. *)

val deref : t -> value -> value
(** [deref t p] follows pointer [p].  Raises [Invalid_argument] on
    non-pointers and [void*]/function pointers; records {!Misaligned}
    when the pointer value is not aligned for the pointee. *)

val cast : t -> Ctype.t -> value -> value
(** C-style cast: integer casts truncate/sign-extend, [_Bool]
    normalises to 0/1, pointer/composite casts reinterpret the
    location.  Meaningless casts record {!Bad_cast} and retype
    without conversion. *)

val container_of : t -> addr -> string -> string -> value
(** [container_of t a comp field]: the enclosing [comp] given the
    address [a] of its [field] (the kernel macro). *)

val addr_of : value -> addr
(** Address of an lvalue.  Raises [Invalid_argument] on immediates. *)

val load : t -> value -> value
(** Collapse a scalar lvalue to an immediate by reading memory.
    Aggregates (structs, unions, arrays) and immediates pass through
    unchanged. *)

(* ------------------------------------------------------------------ *)
(* Observation — checked reads *)

val as_int : t -> value -> int
(** Integer reading of [v]: immediates as-is; scalar lvalues read with
    the width and signedness of their type; aggregates decay to their
    address.  Raises [Invalid_argument] only for strings. *)

val as_string : t -> value -> string
(** String reading: immediate strings, in-memory [char] arrays
    (NUL-cut), and [char*] (bounded C-string read). *)

val truthy : t -> value -> bool
(** C truth value: nonzero, or a non-empty immediate string. *)

(* ------------------------------------------------------------------ *)
(* Symbols, macros, helpers *)

val add_symbol : t -> string -> value -> unit
val add_macro : t -> string -> int -> unit
val add_helper : t -> string -> helper -> unit

val lookup_symbol : t -> string -> value option
(** Resolution order: symbols, then macros, then enumeration constants
    from the type registry. *)

val lookup_helper : t -> string -> helper option

val call_helper : t -> string -> value list -> value
(** Raises [Invalid_argument] if no such helper is registered. *)

(* ------------------------------------------------------------------ *)
(* Fault journal *)

val faults : t -> fault list
(** Oldest first. *)

val fault_count : t -> int
val clear_faults : t -> unit

val record_fault : t -> fault -> unit
(** Used by traversal code (e.g. the ViewCL interpreter's cycle guards)
    to attribute {!Truncated} faults to the value being extracted. *)

val with_faults : t -> (unit -> 'a) -> 'a * fault list
(** [with_faults t f] runs [f] and returns the faults recorded during
    it.  Nests: an inner [with_faults] keeps its faults to itself, so a
    box build sees exactly the faults of its own reads.  Faults still
    land in the global journal too. *)

val fault_to_string : fault -> string

(* ------------------------------------------------------------------ *)
(* Consistent sections — seqlock-style torn-read detection *)

type section
(** An open consistent section: the write generation it opened at and
    the byte extents its reads covered. *)

val begin_consistent : t -> section
(** Open a section.  Sections nest; a checked read (or a helper's read,
    {!add_helper}) widens the extents of the {e innermost} open section
    only, so a nested section (a child box's build) owns its reads and
    a tear there does not dirty its ancestors.  With no section open,
    reads pay one list match. *)

val end_consistent : t -> section -> (addr * addr) list
(** Close [sec] and return its dirty extents [\[lo, hi)], ascending:
    the coalesced byte extents it read of which some byte was written
    since the section opened ({!Kmem.written_since}) — whether the
    write raced the walk after the read or landed before it (a mixed
    snapshot).  A write elsewhere on a page the section read is not a
    tear, except on a page whose write log overflowed, which counts any
    write ({!revalidate} asks the same question).  Each extent also records a {!fault.Torn} fault, so a box
    built under {!with_faults} sees its own tears.  Empty means the
    reads form a consistent snapshot. *)

val consistent : t -> (unit -> 'a) -> 'a * (addr * addr) list
(** [consistent t f]: run [f] inside its own section; exception-safe. *)

type snapshot
(** The validity key of a clean section: the generation its reads are
    valid at and the byte extents they covered, coalesced. *)

val snapshot : section -> snapshot
(** [snapshot sec] for a section {!end_consistent} closed clean (no
    dirty extent): the extents its reads covered, as that check sorted
    and coalesced them.  Reads refused before touching memory (null
    page, refused fetch) cover nothing; they record a fault instead. *)

val snapshot_extents : snapshot -> (addr * addr) list
(** The [\[lo, hi)] byte extents, ascending and disjoint. *)

val revalidate : t -> snapshot -> bool
(** [revalidate t snap]: no write since [snap]'s generation touched a
    byte of its extents ({!Kmem.written_since}), so the build that read
    them would read the same bytes today.  When true, the snapshot moves
    forward to the current generation, so the next check scans only
    newer writes.  Exact while the touched pages' write logs still hold
    every write since then; a page whose log overflowed answers at page
    granularity.  The one validity test for reusing a snapshot; callers
    never compare generations themselves. *)

val set_read_hook : t -> (addr -> unit) option -> unit
(** Install (or clear) a hook fired with the address of every performed
    checked read — the chaos harness's injection point for mutators
    that race the extraction.  Reentrant firing is suppressed: a hook
    whose own work reads through this target does not recurse.  The
    hook's own memory reads never join a section's extents, even while
    a helper's reads are being observed. *)

(* ------------------------------------------------------------------ *)
(* Generation-validated read cache — the only way a read skips the wire *)

type cache_stats = { hits : int; misses : int; coalesced : int }
(** Transport-avoidance accounting: [hits] = checked reads served
    without a round-trip (all pages generation-fresh), [misses] =
    checked reads that went to the wire.  All zero when no transport is
    attached — local reads bypass the cache entirely.  Monotone: callers
    take deltas.  [coalesced] is always 0: the page cache is the only
    coalescer, and the field stays only until the benchmark stops
    reading it. *)

val cache_stats : t -> cache_stats

val set_read_cache : t -> bool -> unit
(** Enable/disable the read cache (default: enabled).  Disabling also
    drops all cached page stamps, so re-enabling starts cold.  A cache
    {e hit} skips only [Transport.fetch]: the Kmem read, its counters,
    consistent-section registration, fault-injection draws and the
    chaos read hook all still happen, so cached and uncached runs issue
    the same Kmem read sequence.  A miss puts only the read's own bytes
    on the wire and stamps every page the read touched, so the next read
    of the same struct (or of a slab neighbour on that page) is a hit. *)

val clear_read_cache : t -> unit
(** Drop every cached page stamp (the next reads all miss). *)

(* ------------------------------------------------------------------ *)
(* Read accounting and latency models *)

type stats = { reads : int; bytes : int }

val stats : t -> stats
val reset_stats : t -> unit

(** A debugger transport's cost model, per paper Table 5: every read is
    one remote round-trip plus per-byte serial cost.  Owned by
    {!Transport} since the connection layer landed; re-exported here
    for existing callers. *)
type profile = Transport.profile = {
  pname : string;
  rtt_ms : float;
  byte_ms : float;
}

val qemu_local : profile
(** GDB against local QEMU over a unix socket: ~0.05 ms round-trip. *)

val kgdb_rpi : profile
(** KGDB over serial to a Raspberry Pi 3B: ~3.0 ms per RSP round-trip
    (Table 5 reports whole-figure costs 50-100x the QEMU ones). *)

val kgdb_rpi400 : profile
(** KGDB over serial to a Raspberry Pi 400: ~2.5 ms per round-trip —
    the paper's headline "minutes per figure" configuration. *)

val simulated_ms : profile -> stats -> float
(** [simulated_ms p st]: wall-clock the [st] read trace would cost over
    transport [p]. *)
