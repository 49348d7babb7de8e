(** The evaluation workload of the paper (§5.4): five processes, each with
    two extra threads, repeatedly performing IPC, mapping and unmapping
    files and anonymous pages — plus population of every other subsystem
    visualized in Table 2 (sockets, pipes, timers, IRQs, workqueues, swap
    areas, devices, slab caches), so that all figures have realistic
    content.

    Deterministic: a seeded xorshift PRNG drives all choices. *)

type t = {
  kernel : Kstate.t;
  mutable procs : (Kmem.addr * Kmem.addr list) list;  (** leader, threads *)
  mutable pipes : Kmem.addr list;
  mutable files : (int * Kmem.addr) list;
  mutable rng : int;
}

let rand t n =
  (* xorshift64* *)
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  t.rng <- x land max_int;
  t.rng mod n

let create ?(seed = 42) kernel = { kernel; procs = []; pipes = []; files = []; rng = seed + 1 }

(* Map bases spread per process so VMAs don't collide. *)
let anon_base pid slot = 0x0000_5500_0000_0000 + (pid * 0x1000_0000) + (slot * 0x10_0000)

(** Boot-time population: kernel threads, devices, IRQs, timers,
    workqueues, swap, IPC objects. *)
let populate_system t =
  let k = t.kernel in
  let ctx = k.Kstate.ctx in
  ignore ctx;
  (* Kernel threads that exist on any Linux box. *)
  List.iteri
    (fun i comm -> ignore (Ksyscall.spawn_kthread k ~comm ~cpu:(i mod k.Kstate.ncpus)))
    [ "kthreadd"; "rcu_gp"; "ksoftirqd/0"; "kworker/0:1"; "kworker/1:0"; "kswapd0" ];
  (* IRQs *)
  ignore (Kirq.set_chip k.Kstate.irqs ~irq:1 ~chip_name:"IO-APIC");
  ignore (Kirq.request_irq k.Kstate.irqs ~irq:1 ~name:"i8042" ~handler:"atkbd_interrupt");
  ignore (Kirq.set_chip k.Kstate.irqs ~irq:4 ~chip_name:"IO-APIC");
  ignore (Kirq.request_irq k.Kstate.irqs ~irq:4 ~name:"ttyS0" ~handler:"serial8250_interrupt");
  ignore (Kirq.request_irq k.Kstate.irqs ~irq:4 ~name:"serial" ~handler:"serial_shared_irq");
  ignore (Kirq.set_chip k.Kstate.irqs ~irq:11 ~chip_name:"PCI-MSI");
  ignore (Kirq.request_irq k.Kstate.irqs ~irq:11 ~name:"virtio0" ~handler:"vring_interrupt");
  (* Timers *)
  List.iter
    (fun (cpu, delta, fn) -> ignore (Ktimer.add_timer k.Kstate.timers ~cpu ~delta fn))
    [ (0, 10, "process_timeout"); (0, 250, "delayed_work_timer_fn"); (0, 999, "tcp_keepalive_timer");
      (1, 100, "process_timeout"); (1, 512, "neigh_timer_handler") ];
  (* Workqueues, incl. the paper's heterogeneous mm_percpu_wq. *)
  let mm_wq = Kworkqueue.alloc_workqueue k.Kstate.wq "mm_percpu_wq" in
  ignore (Kworkqueue.alloc_workqueue k.Kstate.wq "events");
  ignore (Kworkqueue.alloc_workqueue k.Kstate.wq "kblockd");
  ignore mm_wq;
  let vw = Kworkqueue.new_vmstat_work k.Kstate.wq ~cpu:0 ~interval:100 in
  Kworkqueue.queue_work k.Kstate.wq ~cpu:0
    (Kcontext.fld k.Kstate.ctx vw "vmstat_work_s" "work.work");
  let lw = Kworkqueue.new_lru_drain_work k.Kstate.wq ~cpu:0 in
  Kworkqueue.queue_work k.Kstate.wq ~cpu:0 (Kcontext.fld k.Kstate.ctx lw "lru_drain_work_s" "work");
  let cw = Kworkqueue.new_compact_work k.Kstate.wq ~zone:k.Kstate.buddy.Kbuddy.zone ~order:2 in
  Kworkqueue.queue_work k.Kstate.wq ~cpu:0 (Kcontext.fld k.Kstate.ctx cw "mm_compact_work_s" "work");
  (* Swap *)
  let swap_dentry = Kvfs.create_file k.Kstate.vfs ~dir:k.Kstate.root_dentry ~name:"swapfile" ~size:(64 * 4096) in
  let swap_file = Kvfs.open_dentry k.Kstate.vfs swap_dentry ~flags:2 in
  ignore (Kswap.swapon k.Kstate.swap ~file:swap_file ~bdev:0 ~pages:64 ~prio:(-2) ~used:13);
  (* Device model *)
  let bus = Kobj.new_bus ctx ~name:"virtio" in
  let drv = Kfuncs.create () |> fun _ -> Kobj.new_driver ctx k.Kstate.funcs ~name:"virtio_blk" ~bus in
  let dev0 = Kobj.new_device ctx ~name:"virtio0" ~parent:0 ~bus ~driver:drv ~kset:k.Kstate.devices_kset in
  ignore (Kobj.new_device ctx ~name:"virtio0p1" ~parent:dev0 ~bus ~driver:drv ~kset:k.Kstate.devices_kset);
  (* IPC objects shared by the worker processes. *)
  ignore (Kipc.semget k.Kstate.ipc ~key:0x5eed ~nsems:4);
  ignore (Kipc.msgget k.Kstate.ipc ~key:0x6eed ~qbytes:16384)

(** Spawn the 5 x (1+2) process/thread population. *)
let spawn_processes t =
  let k = t.kernel in
  let init = k.Kstate.init_task in
  (* pid 1: init/systemd, parent of the workers. *)
  let systemd = Ksyscall.spawn_process k ~parent:init ~comm:"systemd" ~cpu:0 in
  for i = 0 to 4 do
    let cpu = i mod k.Kstate.ncpus in
    let leader = Ksyscall.spawn_process k ~parent:systemd ~comm:(Printf.sprintf "worker-%d" i) ~cpu in
    let threads =
      List.init 2 (fun j ->
          Ksyscall.spawn_thread k ~leader ~comm:(Printf.sprintf "worker-%d/t%d" i j)
            ~cpu:((cpu + j) mod k.Kstate.ncpus))
    in
    t.procs <- (leader, threads) :: t.procs
  done;
  t.procs <- List.rev t.procs;
  systemd

(** One iteration of the per-thread activity: IPC + file/anon mappings. *)
let step t =
  let k = t.kernel in
  List.iteri
    (fun i (leader, _threads) ->
      let pid = Ktask.pid k.Kstate.ctx leader in
      (* File work: open + mmap + page cache population. *)
      if rand t 2 = 0 then begin
        let name = Printf.sprintf "data-%d-%d.bin" i (rand t 100) in
        let fd, file = Ksyscall.openat k leader ~name ~size:(2 * 4096) in
        t.files <- (fd, file) :: t.files;
        ignore
          (Ksyscall.mmap_file k leader ~file
             ~start:(anon_base pid (16 + rand t 8))
             ~npages:2 ~writable:(rand t 2 = 0))
      end;
      (* Anonymous mapping churn. *)
      let vma = Ksyscall.mmap_anon k leader ~start:(anon_base pid (rand t 8)) ~npages:(1 + rand t 4) ~writable:true in
      if rand t 3 = 0 then Ksyscall.munmap k leader vma;
      (* IPC. *)
      (match Kxarray.load k.Kstate.ctx
               (Kcontext.fld k.Kstate.ctx (Kipc.ids_addr k.Kstate.ipc Kipc.ipc_sem_ids)
                  "ipc_ids" "ipcs_idr.idr_rt")
               0
       with
      | 0 -> ()
      | sma -> Kipc.semop k.Kstate.ipc sma ~idx:(rand t 4) ~delta:(if rand t 2 = 0 then 1 else -1) ~pid);
      (match Kxarray.load k.Kstate.ctx
               (Kcontext.fld k.Kstate.ctx (Kipc.ids_addr k.Kstate.ipc Kipc.ipc_msg_ids)
                  "ipc_ids" "ipcs_idr.idr_rt")
               0
       with
      | 0 -> ()
      | q ->
          ignore (Kipc.msgsnd k.Kstate.ipc q ~mtype:(1 + rand t 3) ~size:(64 + rand t 192));
          if rand t 2 = 0 then ignore (Kipc.msgrcv k.Kstate.ipc q)))
    t.procs

(** Extra population used by specific figures: pipes, sockets, signals. *)
let populate_userspace t =
  let k = t.kernel in
  match t.procs with
  | [] -> ()
  | (p0, _) :: rest ->
      (* A page-cached data file on the first worker (deterministic, so
         figures that need one always find it). *)
      ignore (Ksyscall.openat k p0 ~name:"report.txt" ~size:(3 * 4096));
      (* Pipes on the first worker. *)
      let pipe, _, _ = Ksyscall.pipe k p0 in
      Ksyscall.write_pipe k pipe "hello-pipe";
      t.pipes <- pipe :: t.pipes;
      (* Sockets on the first two workers. *)
      ignore (Ksyscall.socket k p0 ~lport:43812 ~rport:443 ~backlog_skbs:2);
      (match rest with
      | (p1, _) :: _ ->
          ignore (Ksyscall.socket k p1 ~lport:51000 ~rport:80 ~backlog_skbs:0);
          (* Signals: p0 installs handlers; p1 signals p0. *)
          Ksyscall.sigaction k p0 ~signo:2 ~handler:(`Handler "sigint_handler");
          Ksyscall.sigaction k p0 ~signo:15 ~handler:(`Handler "sigterm_handler");
          Ksyscall.sigaction k p0 ~signo:17 ~handler:`Ignore;
          Ksyscall.kill k ~target:p0 ~signo:2 ~from:p1
      | [] -> ())

(** Let the simulated kernel "run" for a while: scheduler ticks on every
    CPU (so vruntimes diverge and preemptions happen), timer-wheel
    processing, page faults on the workers' heaps, and one worker thread
    exiting — leaving a reapable zombie so plots show varied task
    states. *)
let simulate_time t =
  let k = t.kernel in
  let ctx = k.Kstate.ctx in
  for _ = 1 to 8 do
    for cpu = 0 to k.Kstate.ncpus - 1 do
      ignore (Ksched.task_tick ctx (Kstate.rq_of k cpu) ~delta:(500_000 + rand t 1_000_000))
    done
  done;
  ignore (Ktimer.run_timers k.Kstate.timers 16);
  List.iteri
    (fun i (leader, threads) ->
      (* touch the heap: anonymous faults populate the rmap *)
      ignore
        (Kmm.handle_anon_fault k.Kstate.mm k.Kstate.buddy (Ksyscall.mm_of k leader)
           ~va:(Ksyscall.heap_base + (rand t 4 * 4096)));
      (* the last worker's second thread exits and stays a zombie *)
      if i = 4 then
        match threads with
        | _ :: t2 :: _ -> Ksyscall.exit_task k t2 ~code:0
        | _ -> ())
    t.procs

(** Run the full standard workload: boot population, processes, [iters]
    activity steps, userspace extras, then a stretch of simulated time. *)
let run ?(iters = 3) t =
  populate_system t;
  ignore (spawn_processes t);
  for _ = 1 to iters do
    step t
  done;
  populate_userspace t;
  simulate_time t

let leaders t = List.map fst t.procs

(* ------------------------------------------------------------------ *)
(* Chaos: interleaved mutators racing an extraction *)

(** Mutators fired between target reads (via {!Target.set_read_hook}) at
    a seeded rate, simulating the live kernel changing under the
    debugger mid-[vplot] — the hazard consistent sections exist to
    catch.  All writes go straight through {!Kcontext}/{!Kmem} (never
    through the target), so firing from inside a read cannot recurse;
    an independent PRNG keeps the base workload's determinism intact. *)
module Chaos = struct
  type chaos = {
    wl : t;
    rate : float;  (** probability a performed read triggers one mutation *)
    mutable crng : int;
    mutable fired : int;  (** mutations performed so far *)
  }

  let create ?(seed = 0xC4405) wl ~rate = { wl; rate; crng = (seed * 2) + 1; fired = 0 }

  let crand c n =
    let x = c.crng in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    c.crng <- x land max_int;
    c.crng mod n

  (* One small mutation of live kernel state.  Weighted toward cheap
     single-word stores (vruntime bumps, comm scribbles); occasionally a
     timer add or an mmap/munmap — the latter frees and rebuilds maple
     nodes, the StackRot-shaped race.  Must never raise. *)
  let mutate c =
    let k = c.wl.kernel in
    let ctx = k.Kstate.ctx in
    match c.wl.procs with
    | [] -> ()
    | procs -> (
        let leader, _ = List.nth procs (crand c (List.length procs)) in
        match crand c 10 with
        | 0 | 1 | 2 | 3 | 4 | 5 ->
            (* scheduler activity: bump the leader's vruntime *)
            let v = Kcontext.r64 ctx leader "task_struct" "se.vruntime" in
            Kcontext.w64 ctx leader "task_struct" "se.vruntime" (v + 1024 + crand c 4096)
        | 6 | 7 ->
            (* rename: scribble the comm field *)
            Kcontext.wstr ctx leader "task_struct" "comm" ~field_size:16
              (Printf.sprintf "chaos-%d" (crand c 1000))
        | 8 ->
            ignore
              (Ktimer.add_timer k.Kstate.timers ~cpu:(crand c k.Kstate.ncpus)
                 ~delta:(1 + crand c 1000) "chaos_timeout")
        | _ ->
            (* VMA churn: mmap (and sometimes munmap) frees + rebuilds
               the whole maple node generation under the walker *)
            let pid = Ktask.pid ctx leader in
            let vma =
              Ksyscall.mmap_anon k leader
                ~start:(anon_base pid (8 + crand c 4))
                ~npages:(1 + crand c 2) ~writable:true
            in
            if crand c 2 = 0 then Ksyscall.munmap k leader vma)

  (* The read hook itself: fire one mutation with probability [rate]. *)
  let hook c () =
    if c.rate > 0. && float_of_int (crand c 1_000_000) /. 1_000_000. < c.rate then begin
      c.fired <- c.fired + 1;
      mutate c
    end

  let arm c tgt = Target.set_read_hook tgt (Some (hook c))
  let disarm tgt = Target.set_read_hook tgt None
  let fired c = c.fired
end

(* ------------------------------------------------------------------ *)
(* Campaigns: scripted, deterministic fault timelines *)

(** A chaos {e campaign} replaces the purely probabilistic chaos above
    with a scripted timeline: named phases, and fault events fired when
    the op counter reaches their mark.  The parser is pure (text in,
    script out); execution lives in the bench driver, which owns the
    targets.  Grammar (one directive per line, [#] comments):

    {v
    campaign <name>
    targets <t1> [<t2> ...]
    sessions <n>
    weights <w1> [<w2> ...]          # per-session, pads with 1s
    ops <n>                          # total ops driven per run
    at <op> phase <name>             # label the ops from <op> on
    at <op> link_down <target>
    at <op> link_up <target>
    at <op> fault_rate <target> <r>  # base wire weather at rate r
    at <op> bit_flip_storm <target>  # memory corruption burst
    at <op> recover <target>         # clear faults + injection, reconnect
    crash_at <op>                    # kill the fleet; recover from the WAL
    corrupt_journal <op>             # flip a bit in a committed WAL record
    expect <key> <float>             # gate checked by the bench
    v} *)
module Campaign = struct
  type event =
    | Phase of string
    | Link_down of string
    | Link_up of string
    | Fault_rate of string * float
    | Bit_flip_storm of string
    | Recover of string
    | Crash  (* kill the fleet; the bench recovers it from the durable WAL *)
    | Corrupt_journal  (* flip a seeded bit in a committed WAL record *)

  type t = {
    cname : string;
    ctargets : string list;
    csessions : int;
    cweights : int list;  (* padded with 1s at use sites *)
    cops : int;
    events : (int * event) list;  (* (op mark, event), marks ascending *)
    expects : (string * float) list;
  }

  exception Parse_error of { line : int; msg : string }

  let event_to_string = function
    | Phase p -> Printf.sprintf "phase %s" p
    | Link_down t -> Printf.sprintf "link_down %s" t
    | Link_up t -> Printf.sprintf "link_up %s" t
    | Fault_rate (t, r) -> Printf.sprintf "fault_rate %s %g" t r
    | Bit_flip_storm t -> Printf.sprintf "bit_flip_storm %s" t
    | Recover t -> Printf.sprintf "recover %s" t
    | Crash -> "crash (recover from durable WAL)"
    | Corrupt_journal -> "corrupt_journal"

  let parse text =
    let err ln msg = raise (Parse_error { line = ln; msg }) in
    let flt ln s =
      match float_of_string_opt s with
      | Some f -> f
      | None -> err ln (Printf.sprintf "%S is not a number" s)
    in
    let num ln s =
      match int_of_string_opt s with
      | Some n when n >= 0 -> n
      | _ -> err ln (Printf.sprintf "%S is not a non-negative integer" s)
    in
    let name = ref "campaign" in
    let targets = ref [] in
    let sessions = ref 2 in
    let weights = ref [] in
    let ops = ref 100 in
    let events = ref [] in
    let expects = ref [] in
    String.split_on_char '\n' text
    |> List.iteri (fun i line ->
           let ln = i + 1 in
           let line =
             match String.index_opt line '#' with
             | Some j -> String.sub line 0 j
             | None -> line
           in
           let toks =
             String.split_on_char ' ' line
             |> List.concat_map (String.split_on_char '\t')
             |> List.filter (fun s -> s <> "")
           in
           match toks with
           | [] -> ()
           | [ "campaign"; n ] -> name := n
           | "targets" :: (_ :: _ as ts) -> targets := ts
           | [ "sessions"; n ] -> sessions := num ln n
           | "weights" :: (_ :: _ as ws) -> weights := List.map (num ln) ws
           | [ "ops"; n ] -> ops := num ln n
           | "at" :: mark :: rest ->
               let mark = num ln mark in
               let ev =
                 match rest with
                 | [ "phase"; p ] -> Phase p
                 | [ "link_down"; t ] -> Link_down t
                 | [ "link_up"; t ] -> Link_up t
                 | [ "fault_rate"; t; r ] -> Fault_rate (t, flt ln r)
                 | [ "bit_flip_storm"; t ] -> Bit_flip_storm t
                 | [ "recover"; t ] -> Recover t
                 | _ -> err ln "unknown event (want phase/link_down/link_up/fault_rate/bit_flip_storm/recover)"
               in
               events := (mark, ev) :: !events
           | [ "crash_at"; n ] -> events := (num ln n, Crash) :: !events
           | [ "corrupt_journal"; n ] -> events := (num ln n, Corrupt_journal) :: !events
           | [ "expect"; k; v ] -> expects := (k, flt ln v) :: !expects
           | w :: _ -> err ln (Printf.sprintf "unknown directive %S" w));
    {
      cname = !name;
      ctargets = (match !targets with [] -> [ "t1" ] | ts -> ts);
      csessions = max 1 !sessions;
      cweights = !weights;
      cops = max 1 !ops;
      events = List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.rev !events);
      expects = List.rev !expects;
    }

  (* Events whose mark is exactly [op]; the bench fires these before
     driving op number [op] (1-based). *)
  let events_at c op = List.filter_map (fun (m, e) -> if m = op then Some e else None) c.events

  (* The session weight for 0-based session index [i] (missing entries
     default to 1, matching [open_session]'s default). *)
  let weight_at c i = match List.nth_opt c.cweights i with Some w -> max 1 w | None -> 1
end
