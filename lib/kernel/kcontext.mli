(** Shared context for the simulated kernel: memory + type registry, plus
    terse field accessors used by all subsystem builders.

    Field offsets are memoized per (composite, path), since builders touch
    the same fields millions of times under the evaluation workload. *)

type addr = Kmem.addr

type t = {
  mem : Kmem.t;
  reg : Ctype.registry;
  off_cache : (string, (string, int) Hashtbl.t) Hashtbl.t;  (** composite -> path -> offset *)
  strings : (string, addr) Hashtbl.t;
}

val create : unit -> t
(** Fresh memory with all kernel types ({!Ktypes.define_all}) registered. *)

val off : t -> string -> string -> int
(** Memoized [offsetof]: [off ctx "task_struct" "se.vruntime"]. *)

val sizeof : t -> string -> int
(** [sizeof ctx "task_struct"]. *)

val alloc : ?align:int -> t -> string -> addr
(** Allocate one object of a registered composite, tagged with its name. *)

val alloc_n : t -> string -> int -> addr
(** Allocate an array of [n] objects (one allocation). *)

val alloc_raw : t -> string -> int -> addr
(** Allocate [size] raw bytes with a diagnostic tag. *)

val free : t -> addr -> unit

(** {1 Typed field accessors}

    [r64 ctx a "task_struct" "se.vruntime"] reads the field at the path's
    offset from base address [a]; [w*] are the matching writers. *)

val r8 : t -> addr -> string -> string -> int
val r32 : t -> addr -> string -> string -> int
val r64 : t -> addr -> string -> string -> int
val ri32 : t -> addr -> string -> string -> int
(** Sign-extended 32-bit read (for [int] fields like [pid]). *)

val w8 : t -> addr -> string -> string -> int -> unit
val w16 : t -> addr -> string -> string -> int -> unit
val w32 : t -> addr -> string -> string -> int -> unit
val w64 : t -> addr -> string -> string -> int -> unit

val wstr : t -> addr -> string -> string -> ?field_size:int -> string -> unit
(** Write a NUL-terminated string into a char-array field. *)

val rstr : t -> addr -> string -> string -> string
(** [rstr ctx a comp field] reads a NUL-terminated string from the
    char-array [field] of the [comp] at [a], at most the array's length.
    @raise Invalid_argument if [field] is not an array. *)

val fld : t -> addr -> string -> string -> addr
(** Address of an embedded member: [fld ctx task "task_struct" "children"]. *)

val cstring : t -> string -> addr
(** Intern a C string in target memory (for [charp] fields); repeated
    interning of the same string returns the same address. *)
