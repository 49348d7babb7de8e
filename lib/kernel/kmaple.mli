(** The maple tree ([struct maple_tree]) — the Linux 6.1 VMA container
    (paper §3.1, motivating example).

    Layout in simulated memory is faithful to the kernel: leaves are
    [maple_leaf_64]-typed [maple_range_64] nodes (16 slots / 15 pivots),
    internal nodes are [maple_arange_64] (10 slots / 9 pivots + gap
    tracking, as in the MT_FLAGS_ALLOC_RANGE trees mm uses), and node
    pointers are {e encoded}: [node | (type << 3) | 0x2].

    The {b write side} keeps a shadow sorted range list per tree and
    materializes fresh nodes on every update, releasing the previous node
    generation through a caller-supplied [free] callback — mirroring how
    readers experience mas_store + [ma_free_rcu] under RCU, which is
    exactly the behaviour CVE-2023-3269 (StackRot) exploits. The
    {b read side} ({!walk}, {!read_entries}, {!read_nodes}) only traverses
    the real in-memory nodes, as a debugger would. *)

type addr = Kmem.addr

(** {1 Node encoding (as maple_tree.h)} *)

val maple_arange_64 : int

val mt_max : int
(** Upper bound of the index space (2{^56} - 1 in this simulation). *)

val is_node : int -> bool
(** Kernel [xa_is_node]: is this root/slot value an internal node pointer
    (vs. a direct entry)? *)

val to_node : int -> addr
(** Kernel [mte_to_node]: strip the tag bits. *)

val node_type : int -> int
(** Kernel [mte_node_type]. *)

val is_leaf : int -> bool
(** Kernel [mte_is_leaf]. *)

(** {1 Trees} *)

type range = { lo : int; hi : int; entry : addr }

type tree = {
  ctx : Kcontext.t;
  mt : addr;  (** address of the [maple_tree] struct *)
  mutable ranges : range list;  (** the write-side shadow: sorted, disjoint *)
  mutable live_nodes : addr list;
}

val create : Kcontext.t -> addr -> tree
(** Initialize the [maple_tree] struct at [addr] (flags = ALLOC_RANGE). *)

val entries : tree -> (int * int * addr) list
(** Shadow view: the (lo, hi, entry) ranges, sorted. *)

val store_range : ?free:(addr -> unit) -> tree -> lo:int -> hi:int -> addr -> unit
(** Store [entry] over the inclusive range (0 erases). Overlapped ranges
    are split/replaced; the whole previous node generation is passed to
    [free] (default: immediate {!Kmem.free}; pass an RCU-deferring
    callback to reproduce StackRot).
    @raise Invalid_argument on an invalid range. *)

val erase_range : ?free:(addr -> unit) -> tree -> lo:int -> hi:int -> unit

(** {1 Read side (debugger view, real memory only)} *)

val walk : Kcontext.t -> addr -> int -> addr
(** [walk ctx mt index] — mas_walk: the entry containing [index], or 0. *)

val read_entries : Kcontext.t -> addr -> (int * int * addr) list
(** Non-NULL leaf ranges in order, from the real nodes. *)

val read_nodes : Kcontext.t -> addr -> addr list
(** Live node addresses of the current tree shape. *)

val read_height : Kcontext.t -> addr -> int
(** Node levels (0 for empty, 1 for a direct-entry root). *)

val check : Kcontext.t -> addr -> (int, string) result
(** Structural sanity of the real in-memory tree, for the sanitizer
    (Sanity): pivot monotonicity (every slot range non-empty and inside
    its parent's bound) and encoded-pointer tag validity (known node
    types, internal slots hold node pointers).  [Ok node_count], or
    [Error reason] naming the first violation.  Cycle-safe and bounded
    by 65536 nodes. *)

(** {1 Low-level node access (used by tests and helpers)} *)

val leaf_pivot : Kcontext.t -> addr -> int -> int
