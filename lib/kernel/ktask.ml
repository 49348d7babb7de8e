(** Task creation and the process tree (ULK Fig 3-4).

    Builds [task_struct]s with the same linkage as the kernel: parenthood
    through [children]/[sibling] list heads, the global [tasks] list
    anchored at the init task, thread groups sharing [mm], [files],
    [signal] and [sighand] with their leader. *)

open Kcontext

type addr = Kmem.addr

let init_lists ctx task =
  List.iter
    (fun f -> Klist.init ctx (fld ctx task "task_struct" f))
    [ "tasks"; "pushable_tasks"; "children"; "sibling"; "thread_group"; "se.group_node";
      "pending.list" ]

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

let default_spec =
  { pid = 0; comm = "task"; parent = 0; group_leader = 0; mm = 0; files = 0; signal = 0;
    sighand = 0; cpu = 0; prio = 120; kthread = false }

(** Create a task_struct; [tasks_head] is the global task list anchor
    (init_task.tasks). *)
let create ctx ~tasks_head spec =
  let task = alloc ctx "task_struct" in
  init_lists ctx task;
  w32 ctx task "task_struct" "pid" spec.pid;
  wstr ctx task "task_struct" "comm" ~field_size:Ktypes.comm_len spec.comm;
  w32 ctx task "task_struct" "__state" Ktypes.task_running;
  w32 ctx task "task_struct" "prio" spec.prio;
  w32 ctx task "task_struct" "static_prio" spec.prio;
  w32 ctx task "task_struct" "normal_prio" spec.prio;
  w32 ctx task "task_struct" "cpu" spec.cpu;
  w64 ctx task "task_struct" "mm" spec.mm;
  w64 ctx task "task_struct" "active_mm" spec.mm;
  w64 ctx task "task_struct" "files" spec.files;
  w64 ctx task "task_struct" "signal" spec.signal;
  w64 ctx task "task_struct" "sighand" spec.sighand;
  if spec.kthread then w32 ctx task "task_struct" "flags" 0x00200000 (* PF_KTHREAD *);
  let leader = if spec.group_leader = 0 then task else spec.group_leader in
  w64 ctx task "task_struct" "group_leader" leader;
  w32 ctx task "task_struct" "tgid"
    (if leader = task then spec.pid else r32 ctx leader "task_struct" "pid");
  let parent = if spec.parent = 0 then task else spec.parent in
  w64 ctx task "task_struct" "parent" parent;
  w64 ctx task "task_struct" "real_parent" parent;
  if spec.parent <> 0 then
    Klist.add_tail ctx
      (fld ctx spec.parent "task_struct" "children")
      (fld ctx task "task_struct" "sibling");
  if leader <> task then begin
    Klist.add_tail ctx
      (fld ctx leader "task_struct" "thread_group")
      (fld ctx task "task_struct" "thread_group");
    let sg = r64 ctx task "task_struct" "signal" in
    if sg <> 0 then w32 ctx sg "signal_struct" "nr_threads" (Klist.length ctx (fld ctx leader "task_struct" "thread_group") + 1)
  end;
  if tasks_head <> 0 then
    Klist.add_tail ctx tasks_head (fld ctx task "task_struct" "tasks");
  task

let pid ctx task = ri32 ctx task "task_struct" "pid"
let comm ctx task = rstr ctx task "task_struct" "comm"

(** Children in creation order. *)
let children ctx task =
  Klist.containers ctx (fld ctx task "task_struct" "children") "task_struct" "sibling"

(** Every task on the global list, init excluded. *)
let all_tasks ctx ~tasks_head =
  Klist.containers ctx tasks_head "task_struct" "tasks"

(** Threads of a group, leader first. *)
let threads ctx leader =
  leader
  :: Klist.containers ctx (fld ctx leader "task_struct" "thread_group") "task_struct"
       "thread_group"
