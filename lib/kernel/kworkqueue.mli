(** Workqueues (paper Fig 6 and Table 2 row 18): heterogeneous work lists
    built from [work_struct]s embedded in different container types,
    dispatched through their [func] pointers — the canonical
    [container_of] + polymorphism case ViewCL must handle. *)

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  funcs : Kfuncs.t;
  workqueues : addr;  (** global list of workqueue_structs *)
  pools : addr array;  (** per-CPU worker_pool *)
}

val create : Kcontext.t -> Kfuncs.t -> ncpus:int -> t

val alloc_workqueue : t -> string -> addr
(** alloc_workqueue: one pool_workqueue per CPU. *)

val queue_work : t -> cpu:int -> addr -> unit
(** Append a work_struct to a CPU pool's worklist. *)

val pending : t -> cpu:int -> addr list
(** Pending work_structs of a pool, in order. *)

(** {1 The heterogeneous mm_percpu_wq containers (paper Fig 6)} *)

val new_vmstat_work : t -> cpu:int -> interval:int -> addr
val new_lru_drain_work : t -> cpu:int -> addr
val new_compact_work : t -> zone:addr -> order:int -> addr
