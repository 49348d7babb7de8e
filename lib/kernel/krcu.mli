(** Read-copy-update machinery.

    Implements the deferred-free protocol at the heart of CVE-2023-3269
    (StackRot): {!call_rcu} queues a [callback_head] (embedded in the
    dying object) on a per-CPU callback list {e in simulated memory} — so
    the RCU waiting list is a real data structure a ViewCL program can
    plot — and {!run_grace_period} later invokes the callbacks, actually
    freeing the memory. A reader that held a pointer across the grace
    period then takes a use-after-free fault recorded by {!Kmem}. *)

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  funcs : Kfuncs.t;
  rcu_data : addr array;  (** per-CPU [struct rcu_data] *)
  rcu_state : addr;
  mutable gp_seq : int;
}

val create : Kcontext.t -> Kfuncs.t -> ncpus:int -> t

val call_rcu : t -> ?cpu:int -> addr -> string -> unit
(** [call_rcu rcu head func_name] queues [head] (a [callback_head]
    embedded in the dying object) to run [func_name] after the next grace
    period, appending to [cpu]'s (default 0) callback list. *)

val pending : t -> ?cpu:int -> unit -> addr list
(** Queued callback heads of a CPU, in queue order. *)

val run_grace_period : t -> unit
(** Advance one grace period: every queued callback runs (rcu_do_batch),
    on every CPU, in queue order. *)
