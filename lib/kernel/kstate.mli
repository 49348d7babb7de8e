(** The booted simulated kernel: every subsystem wired together, per-CPU
    runqueues, the init task, a mounted rootfs, and the global tables a
    debugger expects to find behind symbols.

    This is the "machine being debugged". The debugger side attaches to
    it with {!Khelpers.attach}. *)

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  funcs : Kfuncs.t;
  rcu : Krcu.t;
  buddy : Kbuddy.t;
  slab : Kslab.t;
  vfs : Kvfs.t;
  mm : Kmm.t;
  pids : Kpid.t;
  swap : Kswap.t;
  wq : Kworkqueue.t;
  timers : Ktimer.t;
  irqs : Kirq.t;
  ipc : Kipc.t;
  ncpus : int;
  runqueues : addr;  (** rq[NR_CPUS] array *)
  init_task : addr;  (** swapper/0 *)
  tasks_head : addr;  (** init_task.tasks: anchor of the global task list *)
  rootfs_sb : addr;
  root_dentry : addr;
  devices_kset : addr;
  named : (string, addr) Hashtbl.t;
      (** registry of named singleton objects (binaries, consoles, ...) *)
  mutable next_pid : int;
  mutable vclock : int;  (** monotonically growing vruntime source *)
}

val boot : ?ncpus:int -> ?npages:int -> unit -> t
(** Boot: init task and per-CPU idle tasks, runqueues, rootfs + an ext4
    mount on a virtual disk, standard slab caches, RCU machinery, and the
    [mt_free_rcu] callback used for maple-node freeing. Defaults: 2 CPUs,
    2048 page frames. *)

val rq_of : t -> int -> addr
(** The [struct rq] of a CPU. *)

val alloc_pid_nr : t -> int
(** Next free pid number. *)

val next_vruntime : t -> int
(** Next virtual-runtime stamp for a freshly woken task (per-kernel, so
    booting several kernels stays deterministic). *)

val attach_pid : t -> addr -> addr
(** Register a task's pid in the hash table and namespace IDR; links
    [task->thread_pid] and returns the [struct pid]. *)

val ma_free_rcu : t -> addr -> unit
(** Deferred maple-node free through RCU — the StackRot flow: the node is
    queued on the CPU-0 callback list and only actually freed by the next
    {!Krcu.run_grace_period}. *)

val task_rq : t -> addr -> addr
(** The runqueue of a task's CPU. *)

val all_tasks : t -> addr list
(** Every task on the global list (init first). *)

val find_task : t -> int -> addr option
(** Look a task up by pid number. *)
