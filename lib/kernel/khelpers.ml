(** Debugger-side bindings: creates a {!Target} over a booted kernel and
    registers the symbols, macro constants and helper functions that the
    paper's ViewCL programs call — the equivalent of Visualinux's ~500
    lines of GDB scripts exposing static-inline kernel functions
    ([cpu_rq], [mte_to_node], [task_state], ...). *)

open Kcontext


let named_ptr name a = Target.ptr_to (Ctype.Named name) a
let int_v = Target.int_value
let bool_v = Target.bool_value

let arg1 = function
  | [ v ] -> v
  | args -> invalid_arg (Printf.sprintf "helper: expected 1 argument, got %d" (List.length args))

(* Address denoted by a value: for aggregate lvalues their own address
   (GDB-style decay), for pointers/integers their contents. *)
let obj_addr tgt (v : Target.value) =
  match v.Target.loc with
  | Target.Lval a when not (Ctype.is_pointer v.Target.typ || Ctype.is_integer v.Target.typ) -> a
  | _ -> Target.as_int tgt v

let task_state_string st exit_state =
  if exit_state land Ktypes.exit_zombie <> 0 then "ZOMBIE"
  else if st = Ktypes.task_running then "RUNNING"
  else if st land Ktypes.task_interruptible <> 0 then "SLEEPING"
  else if st land Ktypes.task_uninterruptible <> 0 then "DISK-SLEEP"
  else if st land Ktypes.task_stopped <> 0 then "STOPPED"
  else "UNKNOWN"

(** Build a target attached to the kernel and register everything. *)
let attach (k : Kstate.t) =
  let tgt = Target.create k.ctx.mem k.ctx.reg in
  let reg = k.ctx.reg in

  (* ------------------------------------------------------------ *)
  (* Symbols *)
  Target.add_symbol tgt "init_task" (Target.obj (Ctype.Named "task_struct") k.init_task);
  Target.add_symbol tgt "runqueues"
    (Target.obj (Ctype.Array (Ctype.Named "rq", k.ncpus)) k.runqueues);
  Target.add_symbol tgt "pid_hash"
    (Target.obj (Ctype.Array (Ctype.Named "hlist_head", Kpid.hash_sz)) k.pids.Kpid.pid_hash);
  Target.add_symbol tgt "init_pid_ns"
    (Target.obj (Ctype.Named "pid_namespace") k.pids.Kpid.init_pid_ns);
  Target.add_symbol tgt "super_blocks"
    (Target.obj (Ctype.Named "list_head") k.vfs.Kvfs.super_blocks);
  Target.add_symbol tgt "file_systems"
    (named_ptr "file_system_type" k.vfs.Kvfs.file_systems);
  Target.add_symbol tgt "workqueues" (Target.obj (Ctype.Named "list_head") k.wq.Kworkqueue.workqueues);
  Target.add_symbol tgt "slab_caches" (Target.obj (Ctype.Named "list_head") k.slab.Kslab.slab_caches);
  Target.add_symbol tgt "node_zones" (Target.obj (Ctype.Named "zone") k.buddy.Kbuddy.zone);
  Target.add_symbol tgt "mem_map"
    (Target.obj (Ctype.Array (Ctype.Named "page", k.buddy.Kbuddy.npages)) k.buddy.Kbuddy.mem_map);
  Target.add_symbol tgt "swap_info"
    (Target.obj (Ctype.Array (Ctype.Ptr (Ctype.Named "swap_info_struct"), Ktypes.max_swapfiles))
       k.swap.Kswap.swap_info);
  Target.add_symbol tgt "irq_desc"
    (Target.obj (Ctype.Array (Ctype.Named "irq_desc", Ktypes.nr_irqs)) k.irqs.Kirq.descs);
  Target.add_symbol tgt "ipc_namespace"
    (Target.obj (Ctype.Named "ipc_namespace") k.ipc.Kipc.ns);
  Target.add_symbol tgt "rcu_state" (Target.obj (Ctype.Named "rcu_state") k.rcu.Krcu.rcu_state);
  Array.iteri
    (fun cpu rd ->
      Target.add_symbol tgt (Printf.sprintf "rcu_data_%d" cpu)
        (Target.obj (Ctype.Named "rcu_data") rd))
    k.rcu.Krcu.rcu_data;
  Target.add_symbol tgt "devices_kset" (Target.obj (Ctype.Named "kset") k.devices_kset);

  (* ------------------------------------------------------------ *)
  (* Macros *)
  List.iter (fun (name, v) -> Target.add_macro tgt name v) Ktypes.macros;

  (* ------------------------------------------------------------ *)
  (* Helpers *)
  let add name f = Target.add_helper tgt name f in

  add "cpu_rq" (fun tgt args ->
      let cpu = Target.as_int tgt (arg1 args) in
      if cpu < 0 || cpu >= k.ncpus then invalid_arg "cpu_rq: bad cpu";
      named_ptr "rq" (Kstate.rq_of k cpu));
  add "cpu_curr" (fun tgt args ->
      let cpu = Target.as_int tgt (arg1 args) in
      named_ptr "task_struct" (r64 k.ctx (Kstate.rq_of k cpu) "rq" "curr"));
  add "per_cpu_timer_base" (fun tgt args ->
      let cpu = Target.as_int tgt (arg1 args) in
      named_ptr "timer_base" k.timers.Ktimer.bases.(cpu));
  add "per_cpu_worker_pool" (fun tgt args ->
      let cpu = Target.as_int tgt (arg1 args) in
      named_ptr "worker_pool" k.wq.Kworkqueue.pools.(cpu));
  add "per_cpu_rcu_data" (fun tgt args ->
      let cpu = Target.as_int tgt (arg1 args) in
      named_ptr "rcu_data" k.rcu.Krcu.rcu_data.(cpu));

  add "task_state" (fun tgt args ->
      let task = arg1 args in
      let st = Target.as_int tgt (Target.member tgt task "__state") in
      let ex = Target.as_int tgt (Target.member tgt task "exit_state") in
      Target.str_value (task_state_string st ex));
  add "task_of_pid" (fun tgt args ->
      let nr = Target.as_int tgt (arg1 args) in
      match Kstate.find_task k nr with
      | Some task -> named_ptr "task_struct" task
      | None -> Target.null_ptr);
  add "pid_task" (fun tgt args ->
      (* struct pid -> its task, via the pid number *)
      let pid = arg1 args in
      let numbers = Target.member tgt pid "numbers" in
      let nr = Target.as_int tgt (Target.member tgt (Target.index tgt numbers 0) "nr") in
      match Kstate.find_task k nr with
      | Some task -> named_ptr "task_struct" task
      | None -> Target.null_ptr);

  (* Maple tree node decoding, as in the kernel's maple_tree.h. *)
  add "mte_to_node" (fun tgt args ->
      named_ptr "maple_node" (Kmaple.to_node (obj_addr tgt (arg1 args))));
  add "mte_node_type" (fun tgt args ->
      let v = Kmaple.node_type (obj_addr tgt (arg1 args)) in
      { Target.typ = Ctype.Named "maple_type"; loc = Target.Rval v });
  add "mte_is_leaf" (fun tgt args -> bool_v (Kmaple.is_leaf (obj_addr tgt (arg1 args))));
  add "xa_is_node" (fun tgt args -> bool_v (Kxarray.is_node (Target.as_int tgt (arg1 args))));
  add "xa_to_node" (fun tgt args ->
      named_ptr "xa_node" (Kxarray.to_node (Target.as_int tgt (arg1 args))));
  add "mt_node_max" (fun tgt args ->
      ignore (Target.as_int tgt (arg1 args));
      int_v Kmaple.mt_max);
  add "ma_is_dead" (fun tgt args ->
      (* A node whose memory has been freed (poisoned parent word). *)
      let node = obj_addr tgt (arg1 args) in
      bool_v (not (Kmem.is_live k.ctx.mem node)));
  add "mas_walk" (fun tgt args ->
      match args with
      | [ mt; idx ] ->
          let entry = Kmaple.walk k.ctx (obj_addr tgt mt) (Target.as_int tgt idx) in
          named_ptr "vm_area_struct" entry
      | _ -> invalid_arg "mas_walk(mt, index)");

  add "is_writable" (fun tgt args ->
      let vma = arg1 args in
      let f = Target.as_int tgt (Target.member tgt vma "vm_flags") in
      bool_v (f land Ktypes.vm_write <> 0));
  add "vma_name" (fun tgt args ->
      let vma = arg1 args in
      let file = Target.as_int tgt (Target.member tgt vma "vm_file") in
      if file = 0 then Target.str_value "[anon]"
      else
        let d = r64 k.ctx file "file" "f_path.dentry" in
        Target.str_value (rstr k.ctx d "dentry" "d_iname"));

  add "page_to_pfn" (fun tgt args ->
      int_v (Kbuddy.page_to_pfn k.buddy (obj_addr tgt (arg1 args))));
  add "pfn_to_page" (fun tgt args ->
      named_ptr "page" (Kbuddy.pfn_to_page k.buddy (Target.as_int tgt (arg1 args))));
  add "page_address" (fun tgt args ->
      let page = obj_addr tgt (arg1 args) in
      int_v (Kbuddy.page_address k.buddy page));
  add "page_content" (fun tgt args ->
      let page = obj_addr tgt (arg1 args) in
      Target.str_value (Kmem.read_cstring ~max:32 k.ctx.mem (Kbuddy.page_address k.buddy page)));

  add "func_name" (fun tgt args ->
      let a = Target.as_int tgt (arg1 args) in
      Target.str_value (Option.value (Kfuncs.name_of k.funcs a) ~default:(Printf.sprintf "0x%x" a)));
  add "spin_is_locked" (fun tgt args ->
      let l = arg1 args in
      bool_v (Target.as_int tgt (Target.member tgt l "locked") <> 0));

  add "fd_file" (fun tgt args ->
      match args with
      | [ files; fd ] ->
          named_ptr "file"
            (Kvfs.fd_file k.vfs (Target.addr_of (Target.deref tgt files)) (Target.as_int tgt fd))
      | _ -> invalid_arg "fd_file(files, fd)");
  add "i_pipe_of" (fun tgt args ->
      let file = arg1 args in
      let ino = Target.as_int tgt (Target.member tgt file "f_inode") in
      named_ptr "pipe_inode_info" (if ino = 0 then 0 else r64 k.ctx ino "inode" "i_pipe"));
  add "sock_of_file" (fun tgt args ->
      let file = arg1 args in
      let priv = Target.as_int tgt (Target.member tgt file "private_data") in
      named_ptr "socket" priv);

  add "container_of" (fun tgt args ->
      match args with
      | [ p; comp; field ] ->
          let a = obj_addr tgt p in
          Target.container_of tgt a (Target.as_string tgt comp) (Target.as_string tgt field)
      | _ -> invalid_arg "container_of(ptr, \"type\", \"member\")");

  add "sighand_action" (fun tgt args ->
      match args with
      | [ sighand; signo ] ->
          let sh = Target.as_int tgt sighand in
          Target.obj (Ctype.Named "k_sigaction")
            (Ksignal.action_addr k.ctx sh (Target.as_int tgt signo))
      | _ -> invalid_arg "sighand_action(sighand, signo)");

  add "data_file" (fun tgt args ->
      (* First open fd > 2 of the task that is a page-cached regular file
         (not a pipe or socket). *)
      let task = arg1 args in
      let files = Target.as_int tgt (Target.member tgt task "files") in
      if files = 0 then Target.null_ptr
      else begin
        let rec scan fd =
          if fd >= 16 then Target.null_ptr
          else
            let f = Kvfs.fd_file k.vfs files fd in
            if f = 0 then scan (fd + 1)
            else
              let ino = r64 k.ctx f "file" "f_inode" in
              let mapping = r64 k.ctx f "file" "f_mapping" in
              let is_pipe = ino <> 0 && r64 k.ctx ino "inode" "i_pipe" <> 0 in
              let nrpages = if mapping = 0 then 0 else r64 k.ctx mapping "address_space" "nrpages" in
              if (not is_pipe) && nrpages > 0 then named_ptr "file" f else scan (fd + 1)
        in
        scan 3
      end);

  ignore reg;
  tgt
