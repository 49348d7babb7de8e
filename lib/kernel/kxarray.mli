(** The XArray ([struct xarray]) on raw simulated memory.

    Linux 6.1's successor of the radix tree; backs the page cache (ULK
    Fig 15-1) and the IDR used by IPC and PID namespaces. Internal node
    pointers are tagged with low bits [10b] exactly as the kernel's
    [xa_mk_node]; entries are untagged object pointers. *)

type addr = Kmem.addr

(** {1 Entry tagging (xarray.h)} *)

val is_node : int -> bool
val to_node : int -> addr
val mk_node : addr -> int

(** {1 Operations} *)

val init : Kcontext.t -> addr -> unit
(** Initialize the [xarray] struct at the given address. *)

val store : Kcontext.t -> addr -> int -> int -> unit
(** [store ctx xa index entry] — xa_store: grows the tree as needed;
    storing 0 erases. A single entry at index 0 is stored directly in
    [xa_head] without a node, as in the kernel. *)

val load : Kcontext.t -> addr -> int -> int
(** xa_load: 0 when absent. *)

val entries : Kcontext.t -> addr -> (int * int) list
(** All (index, entry) pairs in index order. *)

val count : Kcontext.t -> addr -> int

(** {1 Node access (for visualization and tests)} *)
