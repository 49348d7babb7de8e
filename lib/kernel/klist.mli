(** Kernel circular doubly-linked lists ([struct list_head]) operating on
    raw simulated memory. Nodes are embedded in enclosing objects and
    recovered with [container_of], exactly as in the kernel. *)

type addr = Kmem.addr

val next : Kcontext.t -> addr -> addr

val init : Kcontext.t -> addr -> unit
(** INIT_LIST_HEAD: a head pointing at itself. *)

val is_empty : Kcontext.t -> addr -> bool

val add : Kcontext.t -> addr -> addr -> unit
(** [add ctx head node] — push front (list_add). *)

val add_tail : Kcontext.t -> addr -> addr -> unit
(** list_add_tail. *)

val del : Kcontext.t -> addr -> unit
(** Unlink a node and poison its links (list_del). *)

val nodes : Kcontext.t -> addr -> addr list
(** Member nodes in list order, head excluded. *)

val length : Kcontext.t -> addr -> int

val containers : Kcontext.t -> addr -> string -> string -> addr list
(** [containers ctx head comp field] — the enclosing objects:
    [container_of(node, comp, field)] for each node. *)
