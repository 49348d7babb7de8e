(** The CFS scheduler (ULK Fig 7-1): per-CPU runqueues whose
    [tasks_timeline] is a cached red-black tree of [sched_entity]s
    ordered by virtual runtime — the structure of the paper's first
    ViewCL example. *)

type addr = Kmem.addr

val init_rq : Kcontext.t -> addr -> cpu:int -> idle:addr -> unit

val enqueue_task : Kcontext.t -> addr -> addr -> vruntime:int -> unit
(** Place a task on the timeline and update nr_running/min_vruntime. *)

val dequeue_task : Kcontext.t -> addr -> addr -> unit

val task_tick : Kcontext.t -> addr -> delta:int -> addr
(** One scheduler tick: charge the running task [delta] ns of vruntime
    and preempt when it is no longer leftmost (re-enqueueing it and
    switching to the new leftmost). Returns the task now running. *)

val queued_tasks : Kcontext.t -> addr -> addr list
(** Timeline contents in vruntime order. *)
