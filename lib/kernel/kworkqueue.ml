(** Workqueues (paper Fig. 6 and ULK row #19): heterogeneous work lists
    built from [work_struct]s embedded in different container types,
    dispatched through their [func] pointers — the canonical
    [container_of] + polymorphism case ViewCL must handle. *)

open Kcontext

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  funcs : Kfuncs.t;
  workqueues : addr;  (** global list of workqueue_structs *)
  pools : addr array;  (** per-CPU worker_pool *)
}

let create ctx funcs ~ncpus =
  let workqueues = alloc ctx "list_head" in
  Klist.init ctx workqueues;
  let pools =
    Array.init ncpus (fun cpu ->
        let p = alloc ctx "worker_pool" in
        w32 ctx p "worker_pool" "cpu" cpu;
        w32 ctx p "worker_pool" "id" cpu;
        w32 ctx p "worker_pool" "nr_workers" 2;
        Klist.init ctx (fld ctx p "worker_pool" "worklist");
        p)
  in
  { ctx; funcs; workqueues; pools }

(** alloc_workqueue: one pool_workqueue per CPU. *)
let alloc_workqueue t name =
  let ctx = t.ctx in
  let wq = alloc ctx "workqueue_struct" in
  wstr ctx wq "workqueue_struct" "name" ~field_size:24 name;
  Klist.init ctx (fld ctx wq "workqueue_struct" "pwqs");
  Array.iter
    (fun pool ->
      let pwq = alloc ctx "pool_workqueue" in
      w64 ctx pwq "pool_workqueue" "pool" pool;
      w64 ctx pwq "pool_workqueue" "wq" wq;
      w32 ctx pwq "pool_workqueue" "refcnt" 1;
      Klist.init ctx (fld ctx pwq "pool_workqueue" "inactive_works");
      Klist.add_tail ctx (fld ctx wq "workqueue_struct" "pwqs")
        (fld ctx pwq "pool_workqueue" "pwqs_node"))
    t.pools;
  Klist.add_tail ctx t.workqueues (fld ctx wq "workqueue_struct" "list");
  wq

(** Initialize the [work_struct] at [work] with a named handler. *)
let init_work t work func_name =
  let ctx = t.ctx in
  w64 ctx work "work_struct" "data" 0;
  Klist.init ctx (fld ctx work "work_struct" "entry");
  w64 ctx work "work_struct" "func" (Kfuncs.register t.funcs func_name)

(** queue_work on [cpu]'s pool. *)
let queue_work t ~cpu work =
  Klist.add_tail t.ctx (fld t.ctx t.pools.(cpu) "worker_pool" "worklist")
    (fld t.ctx work "work_struct" "entry")

(** The pending work_structs of [cpu]'s pool, in order. *)
let pending t ~cpu =
  Klist.containers t.ctx (fld t.ctx t.pools.(cpu) "worker_pool" "worklist") "work_struct" "entry"

(** Convenience constructors for the three heterogeneous work containers
    used by the mm_percpu_wq demo. *)
let new_vmstat_work t ~cpu ~interval =
  let w = alloc t.ctx "vmstat_work_s" in
  w32 t.ctx w "vmstat_work_s" "cpu" cpu;
  w32 t.ctx w "vmstat_work_s" "interval" interval;
  init_work t (fld t.ctx w "vmstat_work_s" "work.work") "vmstat_update";
  w

let new_lru_drain_work t ~cpu =
  let w = alloc t.ctx "lru_drain_work_s" in
  w32 t.ctx w "lru_drain_work_s" "cpu" cpu;
  init_work t (fld t.ctx w "lru_drain_work_s" "work") "lru_add_drain_per_cpu";
  w

let new_compact_work t ~zone ~order =
  let w = alloc t.ctx "mm_compact_work_s" in
  w64 t.ctx w "mm_compact_work_s" "zone" zone;
  w32 t.ctx w "mm_compact_work_s" "order" order;
  init_work t (fld t.ctx w "mm_compact_work_s" "work") "compact_zone_work";
  w
