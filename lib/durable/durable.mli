(** Crash-consistent storage for fleet state: a segmented write-ahead
    journal of length-prefixed, CRC-checksummed, generation-stamped
    records, plus the fsck-style scanner that recovers whatever a
    crash, a torn write or a flipped bit left behind.

    The layer is deliberately ignorant of what it stores: a record is
    an opaque [payload] tagged with a small integer [kind]; the session
    layer defines the kinds (lifecycle events, panel ops, snapshots)
    and their JSON payloads.  What this layer owns is the framing:

    {v
      MAGIC(2) | KIND(1) | GEN(8 LE) | LEN(4 LE) | PAYLOAD | CRC32(4 LE)
    v}

    [GEN] is a strictly increasing generation stamp (one per record),
    so recovery can detect holes; [CRC32] covers KIND..PAYLOAD, so a
    single flipped bit anywhere in a record is always caught.

    {e The store is a deterministic simulator}, not a file descriptor:
    appends land in memory, [flush] moves the durability watermark, and
    a configured crash ({!set_crash}) silently drops every later append
    — exactly the discipline a real WAL lives under, minus the fsync.
    {!disk_image} then renders what a reboot would find, optionally
    mangled by an injected fault (torn final record, flipped bit, lost
    unflushed tail).  Everything is seeded and reproducible. *)

type t

(** What the injected crash does to the bytes a reboot finds.
    [Torn_tail] cuts mid-record at the end of the image (an interrupted
    write); [Bit_flip] flips one seeded bit anywhere (media corruption);
    [Lost_flush] drops everything after the last {!flush} (a volatile
    write cache that never made it). *)
type fault = Torn_tail | Bit_flip | Lost_flush

(** One record recovered by {!fsck}. *)
type record = { rgen : int; rkind : int; rpayload : string }

(** The typed fsck report: what the scan found, skipped and truncated.
    [records_skipped] counts distinct corrupt runs passed over by magic
    resync; [gen_gaps] sums the generation holes they left; [torn_bytes]
    is the unparseable tail truncated at the end of the image. *)
type report = {
  bytes_scanned : int;
  records_ok : int;
  records_skipped : int;
  torn_bytes : int;
  resyncs : int;
  gen_gaps : int;
}

val report_to_string : report -> string

(* ------------------------------------------------------------------ *)
(** {1 The store} *)

val create : ?seed:int -> unit -> t
(** A fresh in-memory store.  [seed] (default 1) drives every injected
    fault, so a given (appends, crash config) pair is reproducible. *)

val append : t -> kind:int -> payload:string -> int
(** Append one record; returns its generation stamp.  After the
    configured crash point the append is silently dropped (the process
    is dead) and the last stamped generation is returned. *)

val flush : t -> unit
(** Advance the durability watermark to everything appended so far —
    what a [Lost_flush] crash preserves. *)

val compact : t -> kind:int -> payload:string -> unit
(** Drop every stored segment and start a fresh one whose first record
    is [payload] (the caller's snapshot).  Generations keep increasing
    across the compaction, and the snapshot is treated as flushed. *)

val appended : t -> int
(** Records actually stored since creation (dropped post-crash appends
    excluded, compacted-away records included). *)

val tail_records : t -> int
(** Records currently stored, i.e. since the last {!compact} — the
    session layer's snapshot trigger. *)

val last_gen : t -> int

val contents : t -> string
(** The raw stored bytes, crash and faults {e not} applied. *)

(* ------------------------------------------------------------------ *)
(** {1 Crash & fault injection (the [Sim] side)} *)

val set_crash : ?fault:fault -> t -> after:int -> unit
(** Arm the crash: appends numbered [<= after] (counting from creation)
    are stored, all later ones dropped.  [fault] additionally mangles
    the {!disk_image}. *)

val crashed : t -> bool

val disk_image : t -> string
(** What a reboot finds: {!contents} with the armed crash's fault
    applied (seeded, deterministic).  Identity when no crash fired. *)

val corrupt : ?kind:int -> ?victim:int -> t -> bool
(** Flip one seeded bit inside a stored record's payload, in place —
    silent corruption of committed state.  [kind] restricts the victim
    to records of that kind; falls back over all records.  [victim]
    picks the n-th eligible record (oldest first, clamped) instead of a
    seeded draw; the random draw avoids the final record, whose
    corruption is indistinguishable from a torn tail.  Returns [false]
    when the store has no eligible record. *)

val record_log : t -> (int * string) list
(** Every stored record since creation as [(kind, payload)], oldest
    first — replay fodder for building twin stores. *)

val record_bytes : t -> string list
(** The same records as raw encoded bytes, oldest first.  Concatenating
    the first [k] yields the exact disk image of a clean crash after
    [k] writes — the torture bench's crash-point constructor. *)

(* ------------------------------------------------------------------ *)
(** {1 Codec & fsck} *)

val flip_bit : string -> int -> string
(** [flip_bit s i] flips bit [i mod (8 * length s)]. *)

val fsck : string -> report * record list
(** Scan an image: verify checksums, truncate the torn tail, resync on
    record magic past mid-stream corruption, drop stale/duplicate
    generations.  Never raises, never returns a record whose CRC did
    not verify; the surviving records come back oldest first. *)

(* ------------------------------------------------------------------ *)
(** {1 File round-trip (for the repl)} *)

val write_file : string -> string -> unit
val read_file : string -> string
(** @raise Sys_error on unreadable paths (the repl turns it into a
    printed error). *)
