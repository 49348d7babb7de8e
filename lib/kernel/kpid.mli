(** PID bookkeeping: the classic PID hash table (ULK Fig 3-6) plus
    [struct pid]/[upid] and the namespace IDR of modern kernels. *)

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  pid_hash : addr;  (** array of hlist_head[PIDHASH_SZ] *)
  init_pid_ns : addr;
}

val hash_sz : int

val create : Kcontext.t -> t

val alloc_pid : t -> int -> addr
(** Allocate a [struct pid] for a number: hashes the embedded [upid] into
    the table and stores the pid in the namespace IDR. *)

val find_pid : t -> int -> addr option
(** Resolve a number through the hash table (the read path). *)
