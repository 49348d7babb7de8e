(** Kernel hash-lists ([struct hlist_head] / [hlist_node]) on raw memory,
    used by the PID hash table and the timer wheel buckets. *)

type addr = Kmem.addr

val init_head : Kcontext.t -> addr -> unit

val add_head : Kcontext.t -> addr -> addr -> unit
(** hlist_add_head: push a node, maintaining the pprev back-links. *)

val del : Kcontext.t -> addr -> unit
(** hlist_del: unlink via pprev and clear the node's links. *)

val nodes : Kcontext.t -> addr -> addr list

val containers : Kcontext.t -> addr -> string -> string -> addr list
(** Enclosing objects of each node, via [container_of]. *)
