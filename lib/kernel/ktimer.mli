(** Dynamic timers (ULK Fig 6-1): per-CPU timer wheels whose buckets are
    hlists of [timer_list]s. *)

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  funcs : Kfuncs.t;
  bases : addr array;  (** per-CPU [timer_base] *)
  mutable jiffies : int;
}

val create : Kcontext.t -> Kfuncs.t -> ncpus:int -> t

val add_timer : t -> cpu:int -> delta:int -> string -> addr
(** Arm a timer [delta] jiffies in the future, running the named
    function; returns the timer_list. *)

val pending : t -> cpu:int -> addr list
(** Armed timers of a CPU's wheel. *)

val run_timers : t -> int -> addr list
(** Advance by [n] jiffies and fire every expired timer on every CPU in
    expiry order, invoking registered implementations; returns the fired
    timers. *)
