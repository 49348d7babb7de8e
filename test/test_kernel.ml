(* Unit + property tests for the simulated kernel subsystems. *)

let boot () =
  let k = Kstate.boot () in
  (k, k.Kstate.ctx)

(* ------------------------------------------------------------------ *)

let test_boot_basics () =
  let k, ctx = boot () in
  Alcotest.(check string) "init comm" "swapper/0" (Ktask.comm ctx k.Kstate.init_task);
  Alcotest.(check int) "init pid" 0 (Ktask.pid ctx k.Kstate.init_task);
  Alcotest.(check int) "two superblocks" 2 (List.length (Kvfs.superblocks k.Kstate.vfs));
  Alcotest.(check bool) "slab caches registered" true
    (List.length (Kslab.caches k.Kstate.slab) >= 9)

let test_process_tree () =
  let k, ctx = boot () in
  let p1 = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"one" ~cpu:0 in
  let p2 = Ksyscall.spawn_process k ~parent:p1 ~comm:"two" ~cpu:0 in
  let t1 = Ksyscall.spawn_thread k ~leader:p2 ~comm:"two/t" ~cpu:1 in
  Alcotest.(check (list int)) "children of p1" [ p2 ] (Ktask.children ctx p1);
  Alcotest.(check int) "ppid" (Ktask.pid ctx p1)
    (Kcontext.ri32 ctx (Kcontext.r64 ctx p2 "task_struct" "parent") "task_struct" "pid");
  Alcotest.(check int) "tgid of thread" (Ktask.pid ctx p2)
    (Kcontext.ri32 ctx t1 "task_struct" "tgid");
  Alcotest.(check (list int)) "thread group" [ p2; t1 ] (Ktask.threads ctx p2);
  Alcotest.(check bool) "shared mm" true
    (Kcontext.r64 ctx t1 "task_struct" "mm" = Kcontext.r64 ctx p2 "task_struct" "mm");
  Alcotest.(check bool) "find by pid" true (Kstate.find_task k (Ktask.pid ctx p2) = Some p2)

let test_scheduler () =
  let k, ctx = boot () in
  let rq = Kstate.rq_of k 0 in
  let before = Kcontext.r32 ctx rq "rq" "cfs.nr_running" in
  let p = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"sched" ~cpu:0 in
  Alcotest.(check int) "nr_running bumped" (before + 1) (Kcontext.r32 ctx rq "rq" "cfs.nr_running");
  (* vruntimes increase monotonically -> new task is rightmost *)
  let queued = Ksched.queued_tasks ctx rq in
  Alcotest.(check bool) "queued" true (List.mem p queued);
  Alcotest.(check int) "queue size" (before + 1) (List.length queued);
  Ksched.dequeue_task ctx rq p;
  Alcotest.(check int) "dequeued" before (Kcontext.r32 ctx rq "rq" "cfs.nr_running");
  let croot = Kcontext.fld ctx rq "rq" "cfs.tasks_timeline" in
  ignore (Krbtree.validate ctx (Krbtree.cached_root ctx croot))

let test_mm_and_vmas () =
  let k, ctx = boot () in
  let p = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"mm" ~cpu:0 in
  let mm = Ksyscall.mm_of k p in
  let n0 = List.length (Kmm.vmas k.Kstate.mm mm) in
  Alcotest.(check bool) "standard image has vmas" true (n0 >= 8);
  Alcotest.(check int) "map_count consistent" n0 (Kcontext.ri32 ctx mm "mm_struct" "map_count");
  Alcotest.(check bool) "read side = shadow" true
    (Kmm.read_vmas k.Kstate.mm mm = Kmm.vmas k.Kstate.mm mm);
  let vma = Ksyscall.mmap_anon k p ~start:0x5600_0000_0000 ~npages:2 ~writable:true in
  Alcotest.(check int) "mmap adds" (n0 + 1) (List.length (Kmm.vmas k.Kstate.mm mm));
  Alcotest.(check bool) "find_vma hits" true
    (Kmm.find_vma k.Kstate.mm mm 0x5600_0000_0fff = vma);
  Alcotest.(check bool) "writable" true
    (Kcontext.r64 ctx vma "vm_area_struct" "vm_flags" land Ktypes.vm_write <> 0);
  Ksyscall.munmap k p vma;
  Alcotest.(check int) "munmap removes" n0 (List.length (Kmm.vmas k.Kstate.mm mm));
  (* stack vma flags *)
  let stack = Kmm.find_vma k.Kstate.mm mm (Ksyscall.stack_top - 4096) in
  Alcotest.(check bool) "stack grows down" true
    (Kcontext.r64 ctx stack "vm_area_struct" "vm_flags" land Ktypes.vm_growsdown <> 0)

let test_anon_rmap () =
  let k, ctx = boot () in
  let p = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"anon" ~cpu:0 in
  let vma = Ksyscall.mmap_anon k p ~start:0x5700_0000_0000 ~npages:1 ~writable:true in
  let av = Kcontext.r64 ctx vma "vm_area_struct" "anon_vma" in
  Alcotest.(check bool) "anon_vma set" true (av <> 0);
  Alcotest.(check (list int)) "rmap finds the vma" [ vma ] (Kanon.vmas_of ctx av);
  (* clone into same anon_vma (fork-like) *)
  let vma2 = Kmm.vma_alloc k.Kstate.mm (Ksyscall.mm_of k p) ~start:0x5800_0000_0000
      ~end_:0x5800_0000_1000 ~flags:3 ~file:0 ~pgoff:0 in
  ignore (Kanon.clone_into ctx ~anon_vma:av vma2);
  Alcotest.(check int) "two vmas in rmap" 2 (List.length (Kanon.vmas_of ctx av))

let test_vfs_files () =
  let k, ctx = boot () in
  let p = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"vfs" ~cpu:0 in
  let fd, file = Ksyscall.openat k p ~name:"data.bin" ~size:8192 in
  Alcotest.(check int) "first free fd" 3 fd;
  let files = Ksyscall.files_of k p in
  Alcotest.(check int) "fd resolves" file (Kvfs.fd_file k.Kstate.vfs files fd);
  Alcotest.(check int) "open fds" 4 (List.length (Kvfs.open_fds k.Kstate.vfs files));
  let ino = Kcontext.r64 ctx file "file" "f_inode" in
  Alcotest.(check int) "size" 8192 (Kcontext.r64 ctx ino "inode" "i_size");
  let d = Kcontext.r64 ctx file "file" "f_path.dentry" in
  Alcotest.(check string) "dentry name" "data.bin" (Kcontext.rstr ctx d "dentry" "d_iname");
  (* inode is on its superblock's list *)
  let sb = Kcontext.r64 ctx ino "inode" "i_sb" in
  let inodes = Klist.containers ctx (Kcontext.fld ctx sb "super_block" "s_inodes") "inode" "i_sb_list" in
  Alcotest.(check bool) "inode listed" true (List.mem ino inodes)

let test_path_lookup () =
  let k, ctx = boot () in
  (* build /etc/ssh/sshd_config *)
  let etc =
    Kvfs.new_dentry k.Kstate.vfs ~parent:k.Kstate.root_dentry ~name:"etc"
      ~inode:(Kvfs.new_inode k.Kstate.vfs k.Kstate.rootfs_sb ~mode:0o40755 ~size:4096)
      ~sb:k.Kstate.rootfs_sb
  in
  let ssh =
    Kvfs.new_dentry k.Kstate.vfs ~parent:etc ~name:"ssh"
      ~inode:(Kvfs.new_inode k.Kstate.vfs k.Kstate.rootfs_sb ~mode:0o40755 ~size:4096)
      ~sb:k.Kstate.rootfs_sb
  in
  let conf = Kvfs.create_file k.Kstate.vfs ~dir:ssh ~name:"sshd_config" ~size:100 in
  (match Kvfs.lookup_path k.Kstate.vfs ~root:k.Kstate.root_dentry "/etc/ssh/sshd_config" with
  | Some d -> Alcotest.(check int) "resolved" conf d
  | None -> Alcotest.fail "path lookup failed");
  Alcotest.(check bool) "root resolves to itself" true
    (Kvfs.lookup_path k.Kstate.vfs ~root:k.Kstate.root_dentry "/" = Some k.Kstate.root_dentry);
  Alcotest.(check bool) "missing component" true
    (Kvfs.lookup_path k.Kstate.vfs ~root:k.Kstate.root_dentry "/etc/nope" = None);
  (* parent links hold *)
  Alcotest.(check int) "d_parent chain" etc (Kcontext.r64 ctx ssh "dentry" "d_parent")

let test_pagecache () =
  let k, ctx = boot () in
  let p = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"pgc" ~cpu:0 in
  let _, file = Ksyscall.openat k p ~name:"cached.bin" ~size:(3 * 4096) in
  let mapping = Kcontext.r64 ctx file "file" "f_mapping" in
  Alcotest.(check int) "nrpages" 3 (Kcontext.r64 ctx mapping "address_space" "nrpages");
  let pages = Kpagecache.pages ctx mapping in
  Alcotest.(check int) "three pages" 3 (List.length pages);
  let pg = Kpagecache.lookup ctx mapping 1 in
  Alcotest.(check bool) "indexed lookup" true (List.mem pg pages);
  Alcotest.(check int) "page index" 1 (Kcontext.r64 ctx pg "page" "index");
  Alcotest.(check int) "page mapping backref" mapping (Kcontext.r64 ctx pg "page" "mapping");
  let content = Kmem.read_cstring ctx.Kcontext.mem (Kbuddy.page_address k.Kstate.buddy pg) in
  Alcotest.(check string) "page contents" "cached.bin:data1" content

let test_buddy () =
  let k, _ = boot () in
  let b = k.Kstate.buddy in
  let free0 = Kbuddy.total_free_pages b in
  let p1 = Kbuddy.alloc_pages b 0 in
  let p2 = Kbuddy.alloc_pages b 3 in
  Alcotest.(check int) "accounting" (free0 - 9) (Kbuddy.total_free_pages b);
  Kbuddy.free_pages b p2 3;
  Kbuddy.free_pages b p1 0;
  Alcotest.(check int) "restored after free" free0 (Kbuddy.total_free_pages b);
  (* buddies coalesce: allocating and freeing a split block restores order counts *)
  let pfn1 = Kbuddy.page_to_pfn b p1 in
  Alcotest.(check int) "pfn roundtrip" p1 (Kbuddy.pfn_to_page b pfn1)

let prop_buddy_conservation =
  QCheck.Test.make ~name:"buddy alloc/free conserves pages" ~count:20
    QCheck.(list_of_size (Gen.int_range 1 30) (int_bound 3))
    (fun orders ->
      let k = Kstate.boot () in
      let b = k.Kstate.buddy in
      let free0 = Kbuddy.total_free_pages b in
      let blocks = List.map (fun o -> (Kbuddy.alloc_pages b o, o)) orders in
      let taken = List.fold_left (fun acc (_, o) -> acc + (1 lsl o)) 0 blocks in
      let mid_ok = Kbuddy.total_free_pages b = free0 - taken in
      List.iter (fun (p, o) -> Kbuddy.free_pages b p o) blocks;
      mid_ok && Kbuddy.total_free_pages b = free0)

let test_slab () =
  let k, ctx = boot () in
  let s = k.Kstate.slab in
  let cache = Kslab.cache_create s "test_cache" ~object_size:100 in
  let o1 = Kslab.cache_alloc s cache in
  let o2 = Kslab.cache_alloc s cache in
  Alcotest.(check bool) "distinct objects" true (o1 <> o2);
  Alcotest.(check int) "spacing >= padded size" 112 (abs (o2 - o1));
  let partial = Klist.containers ctx (Kcontext.fld ctx cache "kmem_cache" "partial") "slab" "slab_list" in
  Alcotest.(check int) "one partial slab" 1 (List.length partial);
  Alcotest.(check int) "inuse" 2 (Kslab.slab_inuse ctx (List.hd partial));
  Kslab.cache_free s cache o1;
  Alcotest.(check int) "inuse after free" 1 (Kslab.slab_inuse ctx (List.hd partial));
  let o3 = Kslab.cache_alloc s cache in
  Alcotest.(check int) "freelist reuse" o1 o3

let test_slab_full_list () =
  let k, ctx = boot () in
  let s = k.Kstate.slab in
  let cache = Kslab.cache_create s "big" ~object_size:2000 in
  (* 2 objects per 4K page -> third alloc fills a slab *)
  let _ = Kslab.cache_alloc s cache and _ = Kslab.cache_alloc s cache in
  let full = Klist.containers ctx (Kcontext.fld ctx cache "kmem_cache" "full") "slab" "slab_list" in
  Alcotest.(check int) "slab moved to full" 1 (List.length full)

let test_pipe_and_splice () =
  let k, ctx = boot () in
  let p = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"pipe" ~cpu:0 in
  let pipe, rfd, wfd = Ksyscall.pipe k p in
  Alcotest.(check bool) "fds distinct" true (rfd <> wfd);
  Ksyscall.write_pipe k pipe "hello";
  Alcotest.(check int) "one buffer" 1 (List.length (Kpipe.buffers ctx pipe));
  let buf = List.hd (Kpipe.buffers ctx pipe) in
  Alcotest.(check int) "len" 5 (Kcontext.r32 ctx buf "pipe_buffer" "len");
  let pg = Kcontext.r64 ctx buf "pipe_buffer" "page" in
  Alcotest.(check string) "payload" "hello"
    (Kmem.read_cstring ctx.Kcontext.mem (Kbuddy.page_address k.Kstate.buddy pg));
  (* non-buggy splice clears flags *)
  let _, file = Ksyscall.openat k p ~name:"s.txt" ~size:4096 in
  let sbuf = Ksyscall.splice k ~file ~pipe ~index:0 ~len:10 ~buggy:false in
  Alcotest.(check int) "flags cleared" 0 (Kcontext.r32 ctx sbuf "pipe_buffer" "flags");
  (* the spliced page IS the page-cache page: zero copy *)
  let mapping = Kcontext.r64 ctx file "file" "f_mapping" in
  Alcotest.(check int) "zero copy" (Kpagecache.lookup ctx mapping 0)
    (Kcontext.r64 ctx sbuf "pipe_buffer" "page")

let test_dirty_pipe_bug () =
  let k, ctx = boot () in
  let p = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"dp" ~cpu:0 in
  let pipe, _, _ = Ksyscall.pipe k p in
  for i = 1 to 16 do
    Ksyscall.write_pipe k pipe (Printf.sprintf "x%d" i);
    ignore (Kpipe.read ctx pipe)
  done;
  let _, file = Ksyscall.openat k p ~name:"victim.txt" ~size:4096 in
  let buf = Ksyscall.splice k ~file ~pipe ~index:0 ~len:1 ~buggy:true in
  let flags = Kcontext.r32 ctx buf "pipe_buffer" "flags" in
  Alcotest.(check bool) "stale CAN_MERGE inherited" true
    (flags land Ktypes.pipe_buf_flag_can_merge <> 0);
  (match Kpipe.write_merge ctx pipe "EVIL" with
  | Some (page, off, data) ->
      let pa = Kbuddy.page_address k.Kstate.buddy page in
      Kmem.write_bytes ctx.Kcontext.mem (pa + off) data;
      let mapping = Kcontext.r64 ctx file "file" "f_mapping" in
      let cache_page = Kpagecache.lookup ctx mapping 0 in
      Alcotest.(check int) "merge hit the page-cache page" cache_page page;
      let s = Kmem.read_cstring ctx.Kcontext.mem pa in
      Alcotest.(check string) "file content corrupted" "vEVILm.txt:data0" s
  | None -> Alcotest.fail "CAN_MERGE write should merge");
  (* with the fix, no merge happens *)
  let k2 = Kstate.boot () in
  let ctx2 = k2.Kstate.ctx in
  let p2 = Ksyscall.spawn_process k2 ~parent:k2.Kstate.init_task ~comm:"dp2" ~cpu:0 in
  let pipe2, _, _ = Ksyscall.pipe k2 p2 in
  for i = 1 to 16 do
    Ksyscall.write_pipe k2 pipe2 (Printf.sprintf "x%d" i);
    ignore (Kpipe.read ctx2 pipe2)
  done;
  let _, file2 = Ksyscall.openat k2 p2 ~name:"v2.txt" ~size:4096 in
  ignore (Ksyscall.splice k2 ~file:file2 ~pipe:pipe2 ~index:0 ~len:1 ~buggy:false);
  Alcotest.(check bool) "patched kernel refuses merge" true
    (Kpipe.write_merge ctx2 pipe2 "EVIL" = None)

let test_rcu () =
  let k, ctx = boot () in
  let rcu = k.Kstate.rcu in
  let dead = ref [] in
  ignore (Kfuncs.register_impl k.Kstate.funcs "test_cb" (fun a -> dead := a :: !dead));
  let h1 = Kcontext.alloc ctx "callback_head" in
  let h2 = Kcontext.alloc ctx "callback_head" in
  Krcu.call_rcu rcu h1 "test_cb";
  Krcu.call_rcu rcu h2 "test_cb";
  Alcotest.(check (list int)) "queued in order" [ h1; h2 ] (Krcu.pending rcu ());
  Alcotest.(check (list int)) "not yet run" [] !dead;
  Krcu.run_grace_period rcu;
  Alcotest.(check (list int)) "ran in order" [ h2; h1 ] !dead;
  Alcotest.(check (list int)) "drained" [] (Krcu.pending rcu ())

let test_irq () =
  let k, ctx = boot () in
  ignore (Kirq.set_chip k.Kstate.irqs ~irq:5 ~chip_name:"TESTCHIP");
  ignore (Kirq.request_irq k.Kstate.irqs ~irq:5 ~name:"eth0" ~handler:"eth_irq");
  ignore (Kirq.request_irq k.Kstate.irqs ~irq:5 ~name:"eth1" ~handler:"eth_irq2");
  let acts = Kirq.actions k.Kstate.irqs ~irq:5 in
  Alcotest.(check int) "shared irq chain" 2 (List.length acts);
  let names = List.map (fun a -> Kmem.read_cstring ctx.Kcontext.mem (Kcontext.r64 ctx a "irqaction" "name")) acts in
  Alcotest.(check (list string)) "chain order" [ "eth0"; "eth1" ] names

let test_timers () =
  let k, ctx = boot () in
  let tm = Ktimer.add_timer k.Kstate.timers ~cpu:0 ~delta:100 "my_timer_fn" in
  Alcotest.(check bool) "pending" true (List.mem tm (Ktimer.pending k.Kstate.timers ~cpu:0));
  Alcotest.(check int) "expires" 100 (Kcontext.r64 ctx tm "timer_list" "expires");
  let fn = Kcontext.r64 ctx tm "timer_list" "function" in
  Alcotest.(check (option string)) "function symbol" (Some "my_timer_fn")
    (Kfuncs.name_of k.Kstate.funcs fn)

let test_signals () =
  let k, ctx = boot () in
  let p = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"sig" ~cpu:0 in
  Ksyscall.sigaction k p ~signo:10 ~handler:(`Handler "usr1_handler");
  let sh = Kcontext.r64 ctx p "task_struct" "sighand" in
  Alcotest.(check bool) "handler installed" true (Ksignal.handler_of ctx sh 10 <> 0);
  Alcotest.(check int) "others default" 0 (Ksignal.handler_of ctx sh 11);
  Ksyscall.kill k ~target:p ~signo:10 ~from:k.Kstate.init_task;
  let pending = Kcontext.fld ctx p "task_struct" "pending" in
  (match Ksignal.pending_signals ctx pending with
  | [ q ] -> Alcotest.(check int) "queued signo" 10 (Kcontext.ri32 ctx q "sigqueue" "si_signo")
  | l -> Alcotest.failf "expected 1 pending, got %d" (List.length l));
  Alcotest.(check int) "sigset bit" (1 lsl 9)
    (Kcontext.r64 ctx pending "sigpending" "signal.sig")

let test_ipc () =
  let k, ctx = boot () in
  let sma = Kipc.semget k.Kstate.ipc ~key:0xbeef ~nsems:3 in
  Kipc.semop k.Kstate.ipc sma ~idx:1 ~delta:2 ~pid:42;
  let sems = Kcontext.r64 ctx sma "sem_array" "sems" in
  let s1 = sems + Kcontext.sizeof ctx "sem" in
  Alcotest.(check int) "semval" 2 (Kcontext.ri32 ctx s1 "sem" "semval");
  Alcotest.(check int) "sempid" 42 (Kcontext.ri32 ctx s1 "sem" "sempid");
  let q = Kipc.msgget k.Kstate.ipc ~key:0xcafe ~qbytes:8192 in
  ignore (Kipc.msgsnd k.Kstate.ipc q ~mtype:7 ~size:100);
  ignore (Kipc.msgsnd k.Kstate.ipc q ~mtype:8 ~size:50);
  Alcotest.(check int) "qnum" 2 (Kcontext.r64 ctx q "msg_queue" "q_qnum");
  Alcotest.(check int) "cbytes" 150 (Kcontext.r64 ctx q "msg_queue" "q_cbytes");
  Alcotest.(check (option int)) "fifo receive" (Some 100) (Kipc.msgrcv k.Kstate.ipc q);
  Alcotest.(check int) "qnum after rcv" 1 (Kcontext.r64 ctx q "msg_queue" "q_qnum");
  (* both live in the namespace IDR *)
  let ids = Kipc.ids_addr k.Kstate.ipc Kipc.ipc_sem_ids in
  Alcotest.(check int) "sem idr" sma
    (Kxarray.load ctx (Kcontext.fld ctx ids "ipc_ids" "ipcs_idr.idr_rt") 0)

let test_net () =
  let k, ctx = boot () in
  let p = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"net" ~cpu:0 in
  let so, sk, fd = Ksyscall.socket k p ~lport:1234 ~rport:80 ~backlog_skbs:3 in
  Alcotest.(check bool) "fd valid" true (fd >= 3);
  Alcotest.(check int) "lport" 1234
    (Kmem.read_u16 ctx.Kcontext.mem (sk + Kcontext.off ctx "sock" "skc_num"));
  let rq = Kcontext.fld ctx sk "sock" "sk_receive_queue" in
  Alcotest.(check int) "qlen" 3 (Kcontext.r32 ctx rq "sk_buff_head" "qlen");
  Alcotest.(check int) "skbs linked" 3 (List.length (Knet.queue_skbs ctx rq));
  Alcotest.(check int) "socket backref" so (Kcontext.r64 ctx sk "sock" "sk_socket")

let test_pid_hash () =
  let k, ctx = boot () in
  let p = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"pid" ~cpu:0 in
  let nr = Ktask.pid ctx p in
  (match Kpid.find_pid k.Kstate.pids nr with
  | Some pid ->
      Alcotest.(check int) "upid nr" nr
        (Kcontext.ri32 ctx (Kcontext.fld ctx pid "pid" "numbers") "upid" "nr");
      Alcotest.(check int) "task thread_pid" pid (Kcontext.r64 ctx p "task_struct" "thread_pid")
  | None -> Alcotest.fail "pid not in hash");
  (* also in the namespace IDR *)
  let idr = Kcontext.fld ctx k.Kstate.pids.Kpid.init_pid_ns "pid_namespace" "idr.idr_rt" in
  Alcotest.(check bool) "in idr" true (Kxarray.load ctx idr nr <> 0)

let test_swap_kobj_block () =
  let k, ctx = boot () in
  let d = Kvfs.create_file k.Kstate.vfs ~dir:k.Kstate.root_dentry ~name:"swap" ~size:4096 in
  let f = Kvfs.open_dentry k.Kstate.vfs d ~flags:2 in
  let si = Kswap.swapon k.Kstate.swap ~file:f ~bdev:0 ~pages:32 ~prio:(-1) ~used:5 in
  Alcotest.(check int) "inuse" 5 (Kcontext.r64 ctx si "swap_info_struct" "inuse_pages");
  Alcotest.(check (list int)) "listed" [ si ] (Kswap.areas k.Kstate.swap);
  (* kobject hierarchy *)
  let members = Kobj.kset_members ctx k.Kstate.devices_kset in
  Alcotest.(check bool) "boot populated devices kset later via workload" true
    (List.length members >= 0);
  let bus = Kobj.new_bus ctx ~name:"testbus" in
  let drv = Kobj.new_driver ctx k.Kstate.funcs ~name:"tdrv" ~bus in
  let dev = Kobj.new_device ctx ~name:"tdev" ~parent:0 ~bus ~driver:drv ~kset:k.Kstate.devices_kset in
  Alcotest.(check bool) "device in kset" true
    (List.mem (Kcontext.fld ctx dev "device" "kobj") (Kobj.kset_members ctx k.Kstate.devices_kset));
  (* block device *)
  let disk, bdev = Kblock.add_disk ctx k.Kstate.vfs ~name:"sda" ~major:8 ~minor:0 in
  Alcotest.(check int) "disk backref" disk (Kcontext.r64 ctx bdev "block_device" "bd_disk");
  Alcotest.(check string) "disk name" "sda" (Kcontext.rstr ctx disk "gendisk" "disk_name")

let test_workqueue () =
  let k, ctx = boot () in
  let wq = Kworkqueue.alloc_workqueue k.Kstate.wq "test_wq" in
  Alcotest.(check string) "name" "test_wq" (Kcontext.rstr ctx wq "workqueue_struct" "name");
  let vw = Kworkqueue.new_vmstat_work k.Kstate.wq ~cpu:0 ~interval:5 in
  let lw = Kworkqueue.new_lru_drain_work k.Kstate.wq ~cpu:0 in
  Kworkqueue.queue_work k.Kstate.wq ~cpu:0 (Kcontext.fld ctx vw "vmstat_work_s" "work.work");
  Kworkqueue.queue_work k.Kstate.wq ~cpu:0 (Kcontext.fld ctx lw "lru_drain_work_s" "work");
  let pending = Kworkqueue.pending k.Kstate.wq ~cpu:0 in
  Alcotest.(check int) "two pending" 2 (List.length pending);
  (* heterogeneous dispatch: recover container types via func pointers *)
  let func_names =
    List.map
      (fun w -> Option.get (Kfuncs.name_of k.Kstate.funcs (Kcontext.r64 ctx w "work_struct" "func")))
      pending
  in
  Alcotest.(check (list string)) "func dispatch" [ "vmstat_update"; "lru_add_drain_per_cpu" ]
    func_names

let test_timer_expiry () =
  let k, ctx = boot () in
  let fired_log = ref [] in
  ignore
    (Kfuncs.register_impl k.Kstate.funcs "logging_timer_fn" (fun tm -> fired_log := tm :: !fired_log));
  let t1 = Ktimer.add_timer k.Kstate.timers ~cpu:0 ~delta:10 "logging_timer_fn" in
  let t2 = Ktimer.add_timer k.Kstate.timers ~cpu:0 ~delta:5 "logging_timer_fn" in
  let t3 = Ktimer.add_timer k.Kstate.timers ~cpu:1 ~delta:100 "logging_timer_fn" in
  let fired = Ktimer.run_timers k.Kstate.timers 20 in
  (* t2 before t1 (expiry order); t3 still pending *)
  Alcotest.(check (list int)) "fired in expiry order" [ t2; t1 ] fired;
  Alcotest.(check (list int)) "impls invoked" [ t2; t1 ] (List.rev !fired_log);
  Alcotest.(check bool) "unlinked from wheel" false
    (List.mem t1 (Ktimer.pending k.Kstate.timers ~cpu:0));
  Alcotest.(check bool) "t3 still armed" true
    (List.mem t3 (Ktimer.pending k.Kstate.timers ~cpu:1));
  ignore ctx;
  let fired2 = Ktimer.run_timers k.Kstate.timers 100 in
  Alcotest.(check (list int)) "second batch" [ t3 ] fired2

let test_anon_fault_and_rmap () =
  let k, ctx = boot () in
  let p = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"fault" ~cpu:0 in
  let mm = Ksyscall.mm_of k p in
  (* fault inside the heap VMA *)
  let va = Ksyscall.heap_base + 4096 in
  let page = Kmm.handle_anon_fault k.Kstate.mm k.Kstate.buddy mm ~va in
  Alcotest.(check bool) "page allocated" true (page <> 0);
  Alcotest.(check int) "anon mapping tagged" 1
    (Kcontext.r64 ctx page "page" "mapping" land 1);
  (* rmap: page -> VMA(s) *)
  (match Kmm.rmap_walk k.Kstate.mm page with
  | [ vma ] ->
      Alcotest.(check bool) "rmap finds the heap vma" true
        (Kcontext.r64 ctx vma "vm_area_struct" "vm_start" <= va
        && va < Kcontext.r64 ctx vma "vm_area_struct" "vm_end")
  | l -> Alcotest.failf "expected 1 vma, got %d" (List.length l));
  (* a fault in unmapped space is a segfault *)
  Alcotest.(check int) "segfault" 0
    (Kmm.handle_anon_fault k.Kstate.mm k.Kstate.buddy mm ~va:0x1234_5000)

let test_task_lifecycle () =
  let k, ctx = boot () in
  let parent = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"parent" ~cpu:0 in
  let child = Ksyscall.spawn_process k ~parent ~comm:"child" ~cpu:0 in
  let orphan = Ksyscall.spawn_process k ~parent:child ~comm:"orphan" ~cpu:1 in
  let tgt = Khelpers.attach k in
  let state t =
    Target.as_string tgt
      (Target.call_helper tgt "task_state" [ Target.obj (Ctype.Named "task_struct") t ])
  in
  Alcotest.(check string) "running" "RUNNING" (state child);
  let rq = Kstate.rq_of k 0 in
  let nr_before = Kcontext.r32 ctx rq "rq" "cfs.nr_running" in
  Ksyscall.exit_task k child ~code:1;
  Alcotest.(check string) "zombie" "ZOMBIE" (state child);
  Alcotest.(check int) "off the runqueue" (nr_before - 1)
    (Kcontext.r32 ctx rq "rq" "cfs.nr_running");
  (* orphan reparented to init *)
  Alcotest.(check int) "reparented" k.Kstate.init_task
    (Kcontext.r64 ctx orphan "task_struct" "parent");
  Alcotest.(check bool) "in init's children" true
    (List.mem orphan (Ktask.children ctx k.Kstate.init_task));
  (* SIGCHLD queued to the parent *)
  let pending = Kcontext.fld ctx parent "task_struct" "pending" in
  Alcotest.(check bool) "SIGCHLD pending" true
    (List.exists
       (fun q -> Kcontext.ri32 ctx q "sigqueue" "si_signo" = 17)
       (Ksignal.pending_signals ctx pending))

let test_scheduler_tick () =
  let k, ctx = boot () in
  let rq = Kstate.rq_of k 0 in
  let a = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"tick-a" ~cpu:0 in
  let b = Ksyscall.spawn_process k ~parent:k.Kstate.init_task ~comm:"tick-b" ~cpu:0 in
  (* start running the leftmost task *)
  let first = Ksched.task_tick ctx rq ~delta:0 in
  Alcotest.(check bool) "picked a queued task" true
    (first <> k.Kstate.init_task && Kcontext.r32 ctx first "task_struct" "on_cpu" = 1);
  (* burn vruntime until preemption *)
  let rec spin n last =
    if n = 0 then last
    else
      let cur = Ksched.task_tick ctx rq ~delta:2_000_000 in
      if cur <> last then cur else spin (n - 1) cur
  in
  let second = spin 50 first in
  Alcotest.(check bool) "preemption happened" true (second <> first);
  (* the preempted task went back on the timeline *)
  Alcotest.(check bool) "old curr requeued" true
    (List.mem first (Ksched.queued_tasks ctx rq));
  (* rbtree still valid after the churn *)
  ignore
    (Krbtree.validate ctx
       (Krbtree.cached_root ctx (Kcontext.fld ctx rq "rq" "cfs.tasks_timeline")));
  ignore (a, b)

let test_workload_simulated_time () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  let ctx = k.Kstate.ctx in
  (* a zombie exists (worker-4's second thread) *)
  let zombies =
    List.filter
      (fun t -> Kcontext.r32 ctx t "task_struct" "exit_state" land Ktypes.exit_zombie <> 0)
      (Kstate.all_tasks k)
  in
  Alcotest.(check int) "one zombie" 1 (List.length zombies);
  (* something is actually running on each CPU after the ticks *)
  for cpu = 0 to k.Kstate.ncpus - 1 do
    let curr = Kcontext.r64 ctx (Kstate.rq_of k cpu) "rq" "curr" in
    Alcotest.(check bool) (Printf.sprintf "cpu %d busy" cpu) true
      (curr <> 0 && Kcontext.r32 ctx curr "task_struct" "on_cpu" = 1)
  done;
  (* vruntimes diverged: sum_exec_runtime accumulated somewhere *)
  Alcotest.(check bool) "time was charged" true
    (List.exists
       (fun t -> Kcontext.r64 ctx t "task_struct" "se.sum_exec_runtime" > 0)
       (Kstate.all_tasks k));
  (* anonymous faults left rmap-tagged pages *)
  let tagged = ref false in
  for pfn = 0 to k.Kstate.buddy.Kbuddy.npages - 1 do
    let page = Kbuddy.pfn_to_page k.Kstate.buddy pfn in
    if Kcontext.r64 ctx page "page" "mapping" land 1 = 1 then tagged := true
  done;
  Alcotest.(check bool) "anon pages mapped" true !tagged

(* Golden regression: key strings of the rendered CFS figure. *)
let test_figure_golden_fragments () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  let s = Visualinux.attach k in
  let _, res, _ = Visualinux.plot_figure s (Option.get (Scripts.find "7-1")) in
  let out = Render.ascii res.Viewcl.graph in
  let contains needle =
    let lh = String.length out and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub out i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun frag -> Alcotest.(check bool) ("fragment: " ^ frag) true (contains frag))
    [ "ULK Fig 7-1"; "Rq #"; "CfsRq #"; "RBTree #"; "min_vruntime:"; "comm: worker-";
      "lock: [unlocked]" ]

let test_workload_deterministic () =
  let run () =
    let k = Kstate.boot () in
    let w = Workload.create ~seed:7 k in
    Workload.run w;
    ( List.length (Kstate.all_tasks k),
      List.map (fun t -> Ktask.pid k.Kstate.ctx t) (Workload.leaders w),
      Kmem.live_count k.Kstate.ctx.Kcontext.mem )
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "two runs identical" true (a = b);
  let tasks, leaders, _ = a in
  Alcotest.(check int) "5 leaders" 5 (List.length leaders);
  Alcotest.(check bool) "rich population" true (tasks >= 20)

let suite =
  [ Alcotest.test_case "boot basics" `Quick test_boot_basics;
    Alcotest.test_case "process tree + threads" `Quick test_process_tree;
    Alcotest.test_case "CFS scheduler" `Quick test_scheduler;
    Alcotest.test_case "mm + maple-tree VMAs" `Quick test_mm_and_vmas;
    Alcotest.test_case "anonymous reverse map" `Quick test_anon_rmap;
    Alcotest.test_case "VFS + fd table" `Quick test_vfs_files;
    Alcotest.test_case "dentry path lookup" `Quick test_path_lookup;
    Alcotest.test_case "page cache" `Quick test_pagecache;
    Alcotest.test_case "buddy allocator" `Quick test_buddy;
    QCheck_alcotest.to_alcotest prop_buddy_conservation;
    Alcotest.test_case "slab allocator" `Quick test_slab;
    Alcotest.test_case "slab full list" `Quick test_slab_full_list;
    Alcotest.test_case "pipes + zero-copy splice" `Quick test_pipe_and_splice;
    Alcotest.test_case "CVE-2022-0847 mechanism" `Quick test_dirty_pipe_bug;
    Alcotest.test_case "RCU callbacks" `Quick test_rcu;
    Alcotest.test_case "IRQ descriptors" `Quick test_irq;
    Alcotest.test_case "timers" `Quick test_timers;
    Alcotest.test_case "signals" `Quick test_signals;
    Alcotest.test_case "SysV IPC" `Quick test_ipc;
    Alcotest.test_case "sockets" `Quick test_net;
    Alcotest.test_case "pid hash + idr" `Quick test_pid_hash;
    Alcotest.test_case "swap + kobjects + block" `Quick test_swap_kobj_block;
    Alcotest.test_case "workqueues (heterogeneous)" `Quick test_workqueue;
    Alcotest.test_case "timer expiry" `Quick test_timer_expiry;
    Alcotest.test_case "anon fault + rmap walk" `Quick test_anon_fault_and_rmap;
    Alcotest.test_case "task exit/zombie/reap" `Quick test_task_lifecycle;
    Alcotest.test_case "scheduler tick + preemption" `Quick test_scheduler_tick;
    Alcotest.test_case "workload simulated time" `Quick test_workload_simulated_time;
    Alcotest.test_case "figure golden fragments" `Quick test_figure_golden_fragments;
    Alcotest.test_case "workload determinism" `Quick test_workload_deterministic ]
