(** System V IPC (ULK Fig 19-1/19-2): namespaces holding semaphore and
    message queue descriptors in IDRs (XArray-backed, as in Linux 6.1). *)

open Kcontext

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  ns : addr;  (** ipc_namespace *)
  mutable next_id : int array;  (** per-class id counters: sem, msg, shm *)
}

let ipc_sem_ids = 0
let ipc_msg_ids = 1

let create ctx =
  let ns = alloc ctx "ipc_namespace" in
  for i = 0 to 2 do
    let ids = fld ctx ns "ipc_namespace" "ids" + (i * sizeof ctx "ipc_ids") in
    Kxarray.init ctx (fld ctx ids "ipc_ids" "ipcs_idr.idr_rt");
    w32 ctx ids "ipc_ids" "max_idx" (-1)
  done;
  { ctx; ns; next_id = [| 0; 0; 0 |] }

let ids_addr t cls = fld t.ctx t.ns "ipc_namespace" "ids" + (cls * sizeof t.ctx "ipc_ids")

(* Both sem_array and msg_queue embed their kern_ipc_perm at offset 0, so
   the perm fields can be written through the kern_ipc_perm layout. *)
let register t cls obj ~key =
  let ctx = t.ctx in
  let id = t.next_id.(cls) in
  t.next_id.(cls) <- id + 1;
  w32 ctx obj "kern_ipc_perm" "id" id;
  w32 ctx obj "kern_ipc_perm" "key" key;
  w16 ctx obj "kern_ipc_perm" "mode" 0o600;
  let ids = ids_addr t cls in
  Kxarray.store ctx (fld ctx ids "ipc_ids" "ipcs_idr.idr_rt") id obj;
  w32 ctx ids "ipc_ids" "in_use" (r32 ctx ids "ipc_ids" "in_use" + 1);
  w32 ctx ids "ipc_ids" "max_idx" (max id (r32 ctx ids "ipc_ids" "max_idx"));
  id

(** semget: a semaphore set of [nsems] semaphores. *)
let semget t ~key ~nsems =
  let ctx = t.ctx in
  let sma = alloc ctx "sem_array" in
  w64 ctx sma "sem_array" "sem_nsems" nsems;
  let sems = alloc_n ctx "sem" nsems in
  for i = 0 to nsems - 1 do
    let s = sems + (i * sizeof ctx "sem") in
    Klist.init ctx (fld ctx s "sem" "pending_alter");
    Klist.init ctx (fld ctx s "sem" "pending_const")
  done;
  w64 ctx sma "sem_array" "sems" sems;
  Klist.init ctx (fld ctx sma "sem_array" "pending_alter");
  let id = register t ipc_sem_ids sma ~key in
  ignore id;
  sma

let semop t sma ~idx ~delta ~pid =
  let ctx = t.ctx in
  let sems = r64 ctx sma "sem_array" "sems" in
  let s = sems + (idx * sizeof ctx "sem") in
  w32 ctx s "sem" "semval" (max 0 (ri32 ctx s "sem" "semval" + delta));
  w32 ctx s "sem" "sempid" pid

(** msgget: a message queue. *)
let msgget t ~key ~qbytes =
  let ctx = t.ctx in
  let q = alloc ctx "msg_queue" in
  w64 ctx q "msg_queue" "q_qbytes" qbytes;
  Klist.init ctx (fld ctx q "msg_queue" "q_messages");
  Klist.init ctx (fld ctx q "msg_queue" "q_receivers");
  Klist.init ctx (fld ctx q "msg_queue" "q_senders");
  let id = register t ipc_msg_ids q ~key in
  ignore id;
  q

(** msgsnd: enqueue a message of [size] bytes and type [mtype]. *)
let msgsnd t q ~mtype ~size =
  let ctx = t.ctx in
  let m = alloc ctx "msg_msg" in
  w64 ctx m "msg_msg" "m_type" mtype;
  w64 ctx m "msg_msg" "m_ts" size;
  Klist.add_tail ctx (fld ctx q "msg_queue" "q_messages") (fld ctx m "msg_msg" "m_list");
  w64 ctx q "msg_queue" "q_qnum" (r64 ctx q "msg_queue" "q_qnum" + 1);
  w64 ctx q "msg_queue" "q_cbytes" (r64 ctx q "msg_queue" "q_cbytes" + size);
  m

let msgrcv t q =
  let ctx = t.ctx in
  match Klist.containers ctx (fld ctx q "msg_queue" "q_messages") "msg_msg" "m_list" with
  | [] -> None
  | m :: _ ->
      Klist.del ctx (fld ctx m "msg_msg" "m_list");
      w64 ctx q "msg_queue" "q_qnum" (r64 ctx q "msg_queue" "q_qnum" - 1);
      let sz = r64 ctx m "msg_msg" "m_ts" in
      w64 ctx q "msg_queue" "q_cbytes" (max 0 (r64 ctx q "msg_queue" "q_cbytes" - sz));
      free ctx m;
      Some sz
