(** System V IPC (ULK Fig 19-1/19-2): a namespace holding semaphore sets
    and message queues in XArray-backed IDRs, as Linux 6.1 does. *)

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  ns : addr;  (** the ipc_namespace *)
  mutable next_id : int array;
}

val ipc_sem_ids : int
val ipc_msg_ids : int

val create : Kcontext.t -> t

val ids_addr : t -> int -> addr
(** The [ipc_ids] of a class (sem/msg/shm). *)

val semget : t -> key:int -> nsems:int -> addr
(** A semaphore set registered in the IDR; returns the sem_array. *)

val semop : t -> addr -> idx:int -> delta:int -> pid:int -> unit
(** Adjust one semaphore's value (clamped at 0) and record sempid. *)

val msgget : t -> key:int -> qbytes:int -> addr

val msgsnd : t -> addr -> mtype:int -> size:int -> addr
(** Enqueue a message; updates q_qnum/q_cbytes. Returns the msg_msg. *)

val msgrcv : t -> addr -> int option
(** Dequeue FIFO; returns the message size, [None] when empty. *)
