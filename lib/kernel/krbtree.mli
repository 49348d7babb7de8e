(** Kernel red-black trees ([struct rb_node]) on raw simulated memory.

    As in the kernel's [rbtree.h], a node's parent pointer and color
    share one word ([__rb_parent_color], RB_RED = 0 / RB_BLACK = 1).
    Nodes are embedded in enclosing objects (e.g.
    [sched_entity.run_node]) and ordered by a caller-supplied comparison
    on node addresses. The [rb_root_cached] variants maintain the
    leftmost pointer the way CFS expects for O(1) pick-next. *)

type addr = Kmem.addr

(** {1 Raw node access} *)

val left : Kcontext.t -> addr -> addr
val root_node : Kcontext.t -> addr -> addr
(** The [rb_node] pointer of an [rb_root] struct. *)

(** {1 Operations on [rb_root]} *)

val insert : Kcontext.t -> addr -> less:(addr -> addr -> bool) -> addr -> bool
(** Insert a node into the tree at the [rb_root] address, with standard
    rebalancing. Returns [true] when the node became leftmost. *)

val erase : Kcontext.t -> addr -> addr -> unit
(** Remove a node, rebalancing. *)

val first : Kcontext.t -> addr -> addr
(** Leftmost node (0 when empty). *)

val containers : Kcontext.t -> addr -> string -> string -> addr list
(** [containers ctx root comp field] — enclosing objects of each node,
    via [container_of]. *)

(** {1 Operations on [rb_root_cached]} *)

val cached_root : Kcontext.t -> addr -> addr
(** Address of the embedded [rb_root]. *)

val leftmost : Kcontext.t -> addr -> addr
val insert_cached : Kcontext.t -> addr -> less:(addr -> addr -> bool) -> addr -> unit
val erase_cached : Kcontext.t -> addr -> addr -> unit

(** {1 Validation} *)

val validate : Kcontext.t -> addr -> int
(** Check the red-black invariants (red-red freedom, equal black heights,
    parent-pointer consistency, black root); returns the black height.
    @raise Failure on violation. Used by the property tests. *)

val check : Kcontext.t -> addr -> (int, string) result
(** Non-raising, cycle-safe {!validate} for the structural sanitizer
    (Sanity): [Ok black_height], or [Error reason] naming the first
    violated law.  Safe on arbitrarily corrupted trees — a visited set
    catches cycles and a 65536-node budget bounds the walk. *)
