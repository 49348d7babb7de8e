(** Task creation and the process tree (ULK Fig 3-4).

    Builds [task_struct]s with the same linkage as the kernel: parenthood
    through [children]/[sibling] list heads, the global [tasks] list
    anchored at the init task, and thread groups sharing [mm], [files],
    [signal] and [sighand] with their leader. Higher-level lifecycle
    (pids, scheduling, VM images) is composed by {!Ksyscall}. *)

type addr = Kmem.addr

(** Creation parameters; zero address fields mean "none". *)
type spec = {
  pid : int;
  comm : string;
  parent : addr;  (** 0 for the init task *)
  group_leader : addr;  (** 0 = self (new thread-group leader) *)
  mm : addr;  (** 0 for kernel threads *)
  files : addr;
  signal : addr;
  sighand : addr;
  cpu : int;
  prio : int;
  kthread : bool;
}

val default_spec : spec

val create : Kcontext.t -> tasks_head:addr -> spec -> addr
(** Allocate and link a task_struct. [tasks_head] is the global task-list
    anchor (pass 0 for boot-time tasks kept off the list). *)

val pid : Kcontext.t -> addr -> int
val comm : Kcontext.t -> addr -> string

val children : Kcontext.t -> addr -> addr list
(** Direct children, in creation order. *)

val all_tasks : Kcontext.t -> tasks_head:addr -> addr list
(** Tasks on the global list (anchor's own task excluded). *)

val threads : Kcontext.t -> addr -> addr list
(** A thread group, leader first. *)
