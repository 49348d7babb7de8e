(** The CFS scheduler (ULK Fig 7-1): per-CPU runqueues whose
    [tasks_timeline] is a cached red-black tree of [sched_entity]s ordered
    by virtual runtime, exactly the structure the paper's first ViewCL
    example plots. *)

open Kcontext

type addr = Kmem.addr

let init_rq ctx rq ~cpu ~idle =
  w32 ctx rq "rq" "cpu" cpu;
  w32 ctx rq "rq" "nr_running" 0;
  w64 ctx rq "rq" "curr" idle;
  w64 ctx rq "rq" "idle" idle;
  w64 ctx rq "rq" "cfs.min_vruntime" 0;
  w64 ctx rq "rq" "cfs.tasks_timeline.rb_root.rb_node" 0;
  w64 ctx rq "rq" "cfs.tasks_timeline.rb_leftmost" 0

let se_of ctx task = fld ctx task "task_struct" "se"
let task_of ctx se = se - off ctx "task_struct" "se"

let vruntime_of_node ctx node =
  let se = node - off ctx "sched_entity" "run_node" in
  r64 ctx se "sched_entity" "vruntime"

(** Place [task] on [rq]'s CFS timeline with the given virtual runtime. *)
let enqueue_task ctx rq task ~vruntime =
  let se = se_of ctx task in
  w64 ctx se "sched_entity" "vruntime" vruntime;
  w32 ctx se "sched_entity" "on_rq" 1;
  w64 ctx se "sched_entity" "load.weight" 1024;
  let croot = fld ctx rq "rq" "cfs.tasks_timeline" in
  let less a b = vruntime_of_node ctx a < vruntime_of_node ctx b in
  Krbtree.insert_cached ctx croot ~less (fld ctx se "sched_entity" "run_node");
  w32 ctx rq "rq" "cfs.nr_running" (r32 ctx rq "rq" "cfs.nr_running" + 1);
  w32 ctx rq "rq" "cfs.h_nr_running" (r32 ctx rq "rq" "cfs.h_nr_running" + 1);
  w32 ctx rq "rq" "nr_running" (r32 ctx rq "rq" "nr_running" + 1);
  let minv = r64 ctx rq "rq" "cfs.min_vruntime" in
  if vruntime < minv || r32 ctx rq "rq" "cfs.nr_running" = 1 then
    w64 ctx rq "rq" "cfs.min_vruntime" vruntime

let dequeue_task ctx rq task =
  let se = se_of ctx task in
  w32 ctx se "sched_entity" "on_rq" 0;
  let croot = fld ctx rq "rq" "cfs.tasks_timeline" in
  Krbtree.erase_cached ctx croot (fld ctx se "sched_entity" "run_node");
  w32 ctx rq "rq" "cfs.nr_running" (r32 ctx rq "rq" "cfs.nr_running" - 1);
  w32 ctx rq "rq" "cfs.h_nr_running" (r32 ctx rq "rq" "cfs.h_nr_running" - 1);
  w32 ctx rq "rq" "nr_running" (r32 ctx rq "rq" "nr_running" - 1)

(** Make [task] the running task on [rq] (dequeues it, as CFS does). *)
let set_curr ctx rq task =
  w64 ctx rq "rq" "curr" task;
  w64 ctx rq "rq" "cfs.curr" (se_of ctx task);
  w32 ctx task "task_struct" "on_cpu" 1

(** One scheduler tick on [rq]: charge the running task [delta] ns of
    virtual runtime and preempt it when it is no longer leftmost —
    re-enqueueing it and switching to the new leftmost task. Returns the
    task now running. *)
let task_tick ctx rq ~delta =
  let curr = r64 ctx rq "rq" "curr" in
  let idle = r64 ctx rq "rq" "idle" in
  if curr = 0 || curr = idle then begin
    (* idle: just try to pick someone *)
    let lm = r64 ctx rq "rq" "cfs.tasks_timeline.rb_leftmost" in
    if lm = 0 then curr
    else begin
      let next = task_of ctx (lm - off ctx "sched_entity" "run_node") in
      dequeue_task ctx rq next;
      set_curr ctx rq next;
      next
    end
  end
  else begin
    let se = se_of ctx curr in
    let v = r64 ctx se "sched_entity" "vruntime" + delta in
    w64 ctx se "sched_entity" "vruntime" v;
    w64 ctx se "sched_entity" "sum_exec_runtime" (r64 ctx se "sched_entity" "sum_exec_runtime" + delta);
    let lm = r64 ctx rq "rq" "cfs.tasks_timeline.rb_leftmost" in
    if lm = 0 then curr
    else begin
      let leftmost_v = vruntime_of_node ctx lm in
      if leftmost_v < v then begin
        (* preempt: curr back on the timeline, leftmost becomes curr *)
        let next = task_of ctx (lm - off ctx "sched_entity" "run_node") in
        dequeue_task ctx rq next;
        w32 ctx curr "task_struct" "on_cpu" 0;
        enqueue_task ctx rq curr ~vruntime:v;
        set_curr ctx rq next;
        next
      end
      else curr
    end
  end

(** Tasks on the timeline in vruntime order. *)
let queued_tasks ctx rq =
  let croot = fld ctx rq "rq" "cfs.tasks_timeline" in
  Krbtree.containers ctx (Krbtree.cached_root ctx croot) "sched_entity" "run_node"
  |> List.map (task_of ctx)
