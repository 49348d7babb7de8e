(** PID bookkeeping: the classic PID hash table (ULK Fig 3-6) plus
    [struct pid] / [upid] and the namespace IDR of modern kernels. *)

open Kcontext

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  pid_hash : addr;  (** array of hlist_head[PIDHASH_SZ] *)
  init_pid_ns : addr;
}

let hash_sz = Ktypes.pidhash_sz

(* 32-bit golden-ratio hash, as hash_32. *)
let pid_hashfn nr = (nr * 0x9e370001) lsr 16 land (hash_sz - 1)

let create ctx =
  let pid_hash = alloc_n ctx "hlist_head" hash_sz in
  for i = 0 to hash_sz - 1 do
    Khlist.init_head ctx (pid_hash + (i * sizeof ctx "hlist_head"))
  done;
  let init_pid_ns = alloc ctx "pid_namespace" in
  w32 ctx init_pid_ns "pid_namespace" "level" 0;
  Kxarray.init ctx (fld ctx init_pid_ns "pid_namespace" "idr.idr_rt");
  { ctx; pid_hash; init_pid_ns }

let bucket t i = t.pid_hash + (i * sizeof t.ctx "hlist_head")

(** Allocate a [struct pid] for number [nr]: hashes the embedded [upid]
    into the PID hash table and stores it in the namespace IDR. *)
let alloc_pid t nr =
  let ctx = t.ctx in
  let pid = alloc ctx "pid" in
  w32 ctx (fld ctx pid "pid" "count") "refcount_t" "refs.counter" 1;
  w32 ctx pid "pid" "level" 0;
  let upid = fld ctx pid "pid" "numbers" in
  w32 ctx upid "upid" "nr" nr;
  w64 ctx upid "upid" "ns" t.init_pid_ns;
  Khlist.add_head ctx (bucket t (pid_hashfn nr)) (fld ctx upid "upid" "pid_chain");
  Kxarray.store ctx (fld ctx t.init_pid_ns "pid_namespace" "idr.idr_rt") nr pid;
  let count = r32 ctx t.init_pid_ns "pid_namespace" "pid_allocated" in
  w32 ctx t.init_pid_ns "pid_namespace" "pid_allocated" (count + 1);
  pid

(** Find a [struct pid] by number through the hash table (read path). *)
let find_pid t nr =
  let ctx = t.ctx in
  let upids = Khlist.containers ctx (bucket t (pid_hashfn nr)) "upid" "pid_chain" in
  List.find_opt (fun u -> r32 ctx u "upid" "nr" = nr) upids
  |> Option.map (fun u -> u - off ctx "pid" "numbers")
