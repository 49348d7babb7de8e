(** The booted simulated kernel: every subsystem wired together, per-CPU
    runqueues, the init task, a mounted rootfs, and the global tables a
    debugger expects to find behind symbols. *)

open Kcontext

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
  runqueues : addr;  (** rq[NR_CPUS] *)
  init_task : addr;
  tasks_head : addr;  (** init_task.tasks: anchor of the global task list *)
  rootfs_sb : addr;
  root_dentry : addr;
  devices_kset : addr;
  named : (string, addr) Hashtbl.t;
      (** registry of named singleton objects (binaries, consoles, ...) *)
  mutable next_pid : int;
  mutable vclock : int;  (** monotonically growing vruntime source *)
}

let rq_of t cpu = t.runqueues + (cpu * sizeof t.ctx "rq")

let alloc_pid_nr t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  pid

(** Next virtual-runtime stamp for a freshly woken task. *)
let next_vruntime t =
  t.vclock <- t.vclock + 1_000_000;
  t.vclock

(** Register a task's pid number in the hash/IDR and link task.thread_pid. *)
let attach_pid t task =
  let nr = ri32 t.ctx task "task_struct" "pid" in
  let pid = Kpid.alloc_pid t.pids nr in
  w64 t.ctx task "task_struct" "thread_pid" pid;
  let sg = r64 t.ctx task "task_struct" "signal" in
  if sg <> 0 then
    Kmem.write_u64 t.ctx.mem (fld t.ctx sg "signal_struct" "pids") pid;
  pid

let boot ?(ncpus = Ktypes.nr_cpus) ?(npages = 2048) () =
  let ctx = Kcontext.create () in
  let funcs = Kfuncs.create () in
  let rcu = Krcu.create ctx funcs ~ncpus in
  let buddy = Kbuddy.create ctx ~npages in
  let slab = Kslab.create ctx buddy in
  let vfs = Kvfs.create ctx in
  let mm = Kmm.create ctx in
  let pids = Kpid.create ctx in
  let swap = Kswap.create ctx in
  let wq = Kworkqueue.create ctx funcs ~ncpus in
  let timers = Ktimer.create ctx funcs ~ncpus in
  let irqs = Kirq.create ctx funcs in
  let ipc = Kipc.create ctx in
  let runqueues = alloc_n ctx "rq" ncpus in

  (* swapper/0 is the init task: pid 0, parent of itself. *)
  let init_signal = Ksignal.new_signal ctx in
  let init_sighand = Ksignal.new_sighand ctx funcs in
  let init_task =
    Ktask.create ctx ~tasks_head:0
      { Ktask.default_spec with pid = 0; comm = "swapper/0"; signal = init_signal;
        sighand = init_sighand; kthread = true }
  in
  let tasks_head = fld ctx init_task "task_struct" "tasks" in

  (* rootfs *)
  let fstype = Kvfs.register_filesystem vfs "rootfs" in
  ignore (Kvfs.register_filesystem vfs "proc");
  ignore (Kvfs.register_filesystem vfs "sysfs");
  let ext4 = Kvfs.register_filesystem vfs "ext4" in
  let _disk, bdev = Kblock.add_disk ctx vfs ~name:"vda" ~major:254 ~minor:0 in
  let rootfs_sb = Kvfs.mount vfs ~fstype ~s_id:"rootfs" ~bdev:0 in
  let _ext4_sb = Kvfs.mount vfs ~fstype:ext4 ~s_id:"vda1" ~bdev in
  let root_dentry = r64 ctx rootfs_sb "super_block" "s_root" in

  let devices_kset = Kobj.new_kset ctx ~name:"devices" ~parent:0 in

  let t =
    { ctx; funcs; rcu; buddy; slab; vfs; mm; pids; swap; wq; timers; irqs; ipc; ncpus;
      runqueues; init_task; tasks_head; rootfs_sb; root_dentry; devices_kset;
      named = Hashtbl.create 16; next_pid = 1; vclock = 0 }
  in

  (* Per-CPU idle tasks and runqueues. *)
  for cpu = 0 to ncpus - 1 do
    let idle =
      if cpu = 0 then init_task
      else
        Ktask.create ctx ~tasks_head:0
          { Ktask.default_spec with pid = 0; comm = Printf.sprintf "swapper/%d" cpu;
            signal = init_signal; sighand = init_sighand; cpu; kthread = true }
    in
    Ksched.init_rq ctx (rq_of t cpu) ~cpu ~idle
  done;
  attach_pid t init_task |> ignore;

  (* Standard kernel caches, so slab plots have content. *)
  List.iter
    (fun (name, comp) -> ignore (Kslab.cache_create slab name ~object_size:(sizeof ctx comp)))
    [ ("task_struct", "task_struct"); ("mm_struct", "mm_struct");
      ("vm_area_struct", "vm_area_struct"); ("maple_node", "maple_node");
      ("inode_cache", "inode"); ("dentry", "dentry"); ("filp", "file");
      ("sighand_cache", "sighand_struct"); ("signal_cache", "signal_struct") ];

  (* RCU frees a maple node by address: the callback_head is the node's
     first word, as in the kernel's union with [maple_node.parent]. *)
  ignore
    (Kfuncs.register_impl funcs "mt_free_rcu" (fun head -> Kmem.free ctx.mem head));

  t

(** Deferred maple-node free through RCU (ma_free_rcu): the StackRot flow. *)
let ma_free_rcu t node = Krcu.call_rcu t.rcu node "mt_free_rcu"

(** A task's CPU runqueue. *)
let task_rq t task = rq_of t (r32 t.ctx task "task_struct" "cpu")

(** Tasks on the global list (init included). *)
let all_tasks t = t.init_task :: Ktask.all_tasks t.ctx ~tasks_head:t.tasks_head

let find_task t pid =
  List.find_opt (fun task -> Ktask.pid t.ctx task = pid) (all_tasks t)
