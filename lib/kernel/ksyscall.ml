(** Syscall-level façade over the simulated kernel: what the evaluation
    workload (and the CVE reproductions) drive. *)

open Kcontext

type addr = Kmem.addr

let page = Ktypes.page_size

(* Canonical layout for a fresh process image. *)
let code_base = 0x0000_0000_0040_0000
let data_base = 0x0000_0000_0060_0000
let heap_base = 0x0000_0000_0061_0000
let lib_base = 0x0000_7f00_0000_0000
let stack_top = 0x0000_7fff_ffff_f000
let stack_pages = 33

(** Build the standard VM image of a process: code/rodata/data from its
    executable file, heap, libc mappings and a grows-down stack. *)
let build_mm (k : Kstate.t) ~exe_file ~libc_file =
  let mm = Kmm.mm_alloc k.mm in
  let ctx = k.ctx in
  let map ~start ~npages ~flags ~file ~pgoff =
    Kmm.mmap k.mm mm ~start ~len:(npages * page) ~flags ~file ~pgoff
  in
  let ( -- ) a b = a lor b in
  let r = Ktypes.vm_read and w = Ktypes.vm_write and x = Ktypes.vm_exec in
  ignore (map ~start:code_base ~npages:1 ~flags:(r -- x) ~file:exe_file ~pgoff:0);
  ignore (map ~start:(code_base + page) ~npages:1 ~flags:r ~file:exe_file ~pgoff:1);
  ignore (map ~start:data_base ~npages:1 ~flags:(r -- w) ~file:exe_file ~pgoff:2);
  let heap = map ~start:heap_base ~npages:4 ~flags:(r -- w) ~file:0 ~pgoff:0 in
  ignore (Kanon.prepare ctx heap);
  ignore (map ~start:lib_base ~npages:4 ~flags:(r -- x) ~file:libc_file ~pgoff:0);
  ignore (map ~start:(lib_base + (4 * page)) ~npages:2 ~flags:r ~file:libc_file ~pgoff:4);
  ignore (map ~start:(lib_base + (6 * page)) ~npages:2 ~flags:(r -- w) ~file:libc_file ~pgoff:6);
  let stack =
    map ~start:(stack_top - (stack_pages * page)) ~npages:stack_pages
      ~flags:(r -- w -- Ktypes.vm_growsdown) ~file:0 ~pgoff:0
  in
  ignore (Kanon.prepare ctx stack);
  w64 ctx mm "mm_struct" "start_code" code_base;
  w64 ctx mm "mm_struct" "end_code" (code_base + page);
  w64 ctx mm "mm_struct" "start_data" data_base;
  w64 ctx mm "mm_struct" "end_data" (data_base + page);
  w64 ctx mm "mm_struct" "start_brk" heap_base;
  w64 ctx mm "mm_struct" "brk" (heap_base + (4 * page));
  w64 ctx mm "mm_struct" "start_stack" stack_top;
  mm

(* Shared binaries live in the rootfs; created on first use. *)
let binary_file (k : Kstate.t) name =
  match Hashtbl.find_opt k.named name with
  | Some f -> f
  | None ->
      let d = Kvfs.create_file k.vfs ~dir:k.root_dentry ~name ~size:(8 * page) in
      let f = Kvfs.open_dentry k.vfs d ~flags:0 in
      (* Cache a few pages so file-mapping figures have page-cache content. *)
      let mapping = Kmem.read_u64 k.ctx.mem (f + off k.ctx "file" "f_mapping") in
      ignore
        (Kpagecache.populate k.ctx k.buddy mapping ~npages:3 ~fill:(fun i ->
             Printf.sprintf "%s:page%d" name i));
      Hashtbl.replace k.named name f;
      f

(** fork + exec: a new process with its own address space, fd table,
    signal structures; enqueued on [cpu]'s CFS runqueue. *)
let spawn_process (k : Kstate.t) ~parent ~comm ~cpu =
  let ctx = k.ctx in
  let exe = binary_file k comm in
  let libc = binary_file k "libc.so.6" in
  let mm = build_mm k ~exe_file:exe ~libc_file:libc in
  let files = Kvfs.new_files_struct k.vfs in
  (* fds 0,1,2: the console file. *)
  let console = binary_file k "console" in
  for _ = 0 to 2 do
    ignore (Kvfs.install_fd k.vfs files console)
  done;
  let signal = Ksignal.new_signal ctx in
  let sighand = Ksignal.new_sighand ctx k.funcs in
  let task =
    Ktask.create ctx ~tasks_head:k.tasks_head
      { Ktask.default_spec with pid = Kstate.alloc_pid_nr k; comm; parent; mm; files; signal;
        sighand; cpu }
  in
  ignore (Kstate.attach_pid k task);
  Ksched.enqueue_task ctx (Kstate.rq_of k cpu) task ~vruntime:(Kstate.next_vruntime k);
  task

(** pthread_create: a thread sharing the leader's mm/files/signal. *)
let spawn_thread (k : Kstate.t) ~leader ~comm ~cpu =
  let ctx = k.ctx in
  let task =
    Ktask.create ctx ~tasks_head:k.tasks_head
      { Ktask.default_spec with pid = Kstate.alloc_pid_nr k; comm; parent = leader;
        group_leader = leader; mm = r64 ctx leader "task_struct" "mm";
        files = r64 ctx leader "task_struct" "files";
        signal = r64 ctx leader "task_struct" "signal";
        sighand = r64 ctx leader "task_struct" "sighand"; cpu }
  in
  ignore (Kstate.attach_pid k task);
  Ksched.enqueue_task ctx (Kstate.rq_of k cpu) task ~vruntime:(Kstate.next_vruntime k);
  task

(** kthread_create. *)
let spawn_kthread (k : Kstate.t) ~comm ~cpu =
  let ctx = k.ctx in
  let task =
    Ktask.create ctx ~tasks_head:k.tasks_head
      { Ktask.default_spec with pid = Kstate.alloc_pid_nr k; comm; parent = k.init_task;
        signal = r64 ctx k.init_task "task_struct" "signal";
        sighand = r64 ctx k.init_task "task_struct" "sighand"; cpu; kthread = true }
  in
  ignore (Kstate.attach_pid k task);
  Ksched.enqueue_task ctx (Kstate.rq_of k cpu) task ~vruntime:(Kstate.next_vruntime k);
  task

let files_of (k : Kstate.t) task = r64 k.ctx task "task_struct" "files"
let mm_of (k : Kstate.t) task = r64 k.ctx task "task_struct" "mm"

(** open(2): create the file in the rootfs if needed, with cached pages. *)
let openat (k : Kstate.t) task ~name ~size =
  let d = Kvfs.create_file k.vfs ~dir:k.root_dentry ~name ~size in
  let f = Kvfs.open_dentry k.vfs d ~flags:2 in
  let mapping = Kmem.read_u64 k.ctx.mem (f + off k.ctx "file" "f_mapping") in
  let npages = max 1 ((size + page - 1) / page) in
  ignore
    (Kpagecache.populate k.ctx k.buddy mapping ~npages ~fill:(fun i ->
         Printf.sprintf "%s:data%d" name i));
  let fd = Kvfs.install_fd k.vfs (files_of k task) f in
  (fd, f)

(** mmap(2) of an open file. *)
let mmap_file (k : Kstate.t) task ~file ~start ~npages ~writable =
  let flags = Ktypes.vm_read lor if writable then Ktypes.vm_write else 0 in
  Kmm.mmap k.mm (mm_of k task) ~start ~len:(npages * page) ~flags ~file ~pgoff:0

(** Anonymous mmap; prepares reverse mapping. *)
let mmap_anon (k : Kstate.t) task ~start ~npages ~writable =
  let flags = Ktypes.vm_read lor if writable then Ktypes.vm_write else 0 in
  let vma = Kmm.mmap k.mm (mm_of k task) ~start ~len:(npages * page) ~flags ~file:0 ~pgoff:0 in
  ignore (Kanon.prepare k.ctx vma);
  vma

let munmap (k : Kstate.t) task vma = Kmm.munmap k.mm (mm_of k task) vma

(** pipe(2): returns (pipe, read_fd, write_fd). *)
let pipe (k : Kstate.t) task =
  let p, rf, wf = Kpipe.create k.ctx k.vfs k.funcs in
  let files = files_of k task in
  let rfd = Kvfs.install_fd k.vfs files rf in
  let wfd = Kvfs.install_fd k.vfs files wf in
  (p, rfd, wfd)

let write_pipe (k : Kstate.t) pipe data = ignore (Kpipe.write k.ctx k.buddy k.funcs pipe data)

(** splice(2) file->pipe, zero copy. [buggy] reproduces CVE-2022-0847. *)
let splice (k : Kstate.t) ~file ~pipe ~index ~len ~buggy =
  let mapping = Kmem.read_u64 k.ctx.mem (file + off k.ctx "file" "f_mapping") in
  Kpipe.splice_from_mapping k.ctx k.funcs pipe ~mapping ~index ~len ~buggy

(** socket(2)+connect(2): a connected TCP socket installed in the task. *)
let socket (k : Kstate.t) task ~lport ~rport ~backlog_skbs =
  let so, sk, f =
    Knet.socket k.ctx k.vfs k.funcs ~laddr:0x7f000001 ~lport ~raddr:0x0a000002 ~rport
  in
  let fd = Kvfs.install_fd k.vfs (files_of k task) f in
  for i = 1 to backlog_skbs do
    ignore (Knet.skb_queue_tail k.ctx (fld k.ctx sk "sock" "sk_receive_queue") ~len:(i * 100))
  done;
  (so, sk, fd)

(** exit(2): the task becomes a zombie — off the runqueue, children
    reparented to init, exit code recorded — until its parent reaps it. *)
let exit_task (k : Kstate.t) task ~code =
  let ctx = k.ctx in
  if r32 ctx task "task_struct" "se.on_rq" <> 0 then
    Ksched.dequeue_task ctx (Kstate.task_rq k task) task;
  w32 ctx task "task_struct" "__state" 0;
  w32 ctx task "task_struct" "exit_state" Ktypes.exit_zombie;
  w32 ctx task "task_struct" "exit_code" code;
  w32 ctx task "task_struct" "on_cpu" 0;
  (* reparent children to init (no subreaper in this simulation) *)
  List.iter
    (fun child ->
      w64 ctx child "task_struct" "parent" k.init_task;
      w64 ctx child "task_struct" "real_parent" k.init_task;
      Klist.del ctx (fld ctx child "task_struct" "sibling");
      Klist.add_tail ctx
        (fld ctx k.init_task "task_struct" "children")
        (fld ctx child "task_struct" "sibling"))
    (Ktask.children ctx task);
  (* a thread-group member also leaves its group accounting *)
  let sg = r64 ctx task "task_struct" "signal" in
  if sg <> 0 then begin
    let live = fld ctx sg "signal_struct" "live" in
    w32 ctx live "atomic_t" "counter" (max 0 (r32 ctx live "atomic_t" "counter" - 1))
  end;
  (* notify the parent the classic way *)
  let parent = r64 ctx task "task_struct" "parent" in
  if parent <> 0 && parent <> task then
    Ksignal.send_signal ctx
      (fld ctx parent "task_struct" "pending")
      ~signo:17 (* SIGCHLD *) ~from_pid:(Ktask.pid ctx task)

let kill (k : Kstate.t) ~target ~signo ~from =
  Ksignal.send_signal k.ctx
    (fld k.ctx target "task_struct" "pending")
    ~signo ~from_pid:(Ktask.pid k.ctx from)

let sigaction (k : Kstate.t) task ~signo ~handler =
  Ksignal.set_action k.ctx k.funcs
    (r64 k.ctx task "task_struct" "sighand")
    ~signo ~handler ~flags:0
