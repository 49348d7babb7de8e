(** Simulated kernel memory.

    A byte-addressable, little-endian memory in which all simulated kernel
    objects live. Substitutes for the physical/virtual memory of the
    debugged machine: the debugger side ({!Target}) only ever sees this
    memory through address-based reads, exactly as GDB sees a remote
    target.

    Freed objects are poisoned (every byte set to [0x6b], mirroring the
    kernel's [POISON_FREE]) and reads from them are recorded as
    use-after-free events rather than crashing, so that UAF bugs such as
    CVE-2023-3269 can be observed and visualized. *)

type addr = int
(** A simulated kernel virtual address. Addresses are native ints; the
    "kernel" address space starts at {!kernel_base}. *)

val kernel_base : addr
(** Base of the simulated kernel address space ([0x4000_0000_0000]). *)

val null : addr
(** The NULL pointer (0). *)

type t
(** A memory instance: byte store + allocator + event log. *)

(** Why an access was flagged. *)
type fault =
  | Use_after_free of { obj : addr; tag : string; at : addr }
      (** Read of [at] inside the freed allocation [obj] (tagged [tag]). *)
  | Wild_access of addr  (** Access to an address never allocated. *)
  | Injected of addr
      (** A read the fault-injection layer chose to corrupt (see
          {!inject_read_failures} and {!poison_range}). *)

val create : unit -> t

(** {1 Allocation} *)

val alloc : t -> ?align:int -> tag:string -> int -> addr
(** [alloc mem ~tag size] allocates [size] zeroed bytes, aligned to [align]
    (a power of two, default 16 — maple nodes need 256 so that node
    pointers can carry type tags in their low bits).
    [tag] names the object type for diagnostics (like a slab cache name). *)

val free : t -> addr -> unit
(** Free an allocation made by {!alloc}; poisons its bytes.
    @raise Invalid_argument on double free or a non-allocation address. *)

val is_live : t -> addr -> bool
(** Whether [addr] lies within a currently-live allocation. *)

val find_alloc : t -> addr -> (addr * int * string) option
(** [find_alloc mem a] is [Some (base, size, tag)] when [a] lies within an
    allocation (live or freed). *)

val live_count : t -> int
(** Number of live allocations. *)

val live_bytes : t -> int
(** Total bytes in live allocations. *)

(** {1 Typed access (little-endian)} *)

val read_u8 : t -> addr -> int
val read_u16 : t -> addr -> int
val read_u32 : t -> addr -> int
val read_u64 : t -> addr -> int

val read_i8 : t -> addr -> int
val read_i16 : t -> addr -> int
val read_i32 : t -> addr -> int

val read_bytes : t -> addr -> int -> string

val read_cstring : t -> ?max:int -> addr -> string
(** Read a NUL-terminated string (at most [max] bytes, default 256). *)

val write_u8 : t -> addr -> int -> unit
val write_u16 : t -> addr -> int -> unit
val write_u32 : t -> addr -> int -> unit
val write_u64 : t -> addr -> int -> unit
val write_bytes : t -> addr -> string -> unit

val write_cstring : t -> addr -> ?field_size:int -> string -> unit
(** Write a NUL-terminated string, truncating to [field_size - 1] bytes
    when [field_size] is given. *)

(** {1 Write generations (snapshot consistency)}

    Every mutation — typed writes, [flip_bits], and the allocation-map
    transitions of {!alloc} and {!free} — bumps a global generation
    counter and stamps it onto each 4KiB page overlapped.  A reader
    wanting seqlock-style consistency records the page stamps for the
    ranges it reads and re-checks them afterwards: any change means a
    writer raced the read (a torn snapshot), and a first-read stamp
    newer than the section start means the snapshot already mixes
    before/after state.  Pure reads never bump generations. *)

val generation : t -> int
(** Global write generation: total mutations performed so far. *)

val page_bits : int
(** log2 of the generation-tracking granule (4KiB pages). *)

val page_generation : t -> int -> int
(** [page_generation mem p] — the global generation at the most recent
    mutation touching page index [p] (addresses [a] with
    [a lsr page_bits = p]); [0] if never touched.  Monotone per page. *)


(** {1 Fault injection}

    Test hooks for exercising the fault paths of everything above the
    memory. All default-off: extraction over an uninjected memory is
    byte-for-byte deterministic. A read chosen for failure records an
    {!fault.Injected} fault and returns [POISON_FREE] ([0x6b]) bytes —
    indistinguishable from reading freed memory, which is exactly what a
    flaky or lying debug transport produces in practice. *)

val inject_read_failures : t -> ?seed:int -> float -> unit
(** [inject_read_failures mem rate] makes each subsequent read fail
    independently with probability [rate] ([0.] disables). Driven by a
    deterministic LCG seeded with [seed], so runs are reproducible. *)

val poison_range : t -> addr -> int -> unit
(** [poison_range mem a len]: any read overlapping [\[a, a+len)] fails. *)

val flip_bits : t -> addr -> mask:int -> unit
(** One-shot corruption: XOR the stored byte at [addr] with [mask].
    Subsequent reads see the flipped data with no fault recorded —
    silent corruption, the hardest case for the visualizer. *)

val clear_injection : t -> unit
(** Disable probabilistic failure and forget all poisoned ranges. *)

val injection_active : t -> bool
(** Whether any fault injection (probabilistic failure or poisoned
    ranges) is currently armed.  Read caches consult this: the
    injection LCG draws once per performed read, so skipping reads
    while injection is live would change every later fault — caching
    layers disable cross-run reuse instead. *)

(** {1 Access accounting and faults} *)

val faults : t -> fault list
(** Faults recorded so far, oldest first. *)

val fault_count : t -> int
(** [List.length (faults mem)], O(1). *)

val faults_since : t -> int -> fault list
(** [faults_since mem c] is the faults recorded after the point where
    {!fault_count} returned [c], oldest first. *)

val clear_faults : t -> unit

val read_count : t -> int
(** Number of read operations performed so far. *)

val bytes_read : t -> int
(** Number of bytes fetched by reads so far. *)

val reset_counters : t -> unit

val pp_fault : Format.formatter -> fault -> unit
