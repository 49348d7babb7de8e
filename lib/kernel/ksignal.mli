(** Signal delivery structures (ULK Fig 11-1): shared [signal_struct],
    [sighand_struct] action tables, and pending queues. *)

type addr = Kmem.addr

val new_sighand : Kcontext.t -> Kfuncs.t -> addr
(** A sighand_struct with all 64 actions at SIG_DFL. *)

val new_signal : Kcontext.t -> addr
(** A signal_struct for a fresh thread group (1 live thread). *)

val action_addr : Kcontext.t -> addr -> int -> addr
(** Address of the [k_sigaction] for a signal number (1-based). *)

val set_action :
  Kcontext.t -> Kfuncs.t -> addr -> signo:int ->
  handler:[ `Default | `Ignore | `Handler of string ] -> flags:int -> unit
(** Install a handler, as sigaction(2); named handlers become function
    symbols in the simulated text section. *)

val handler_of : Kcontext.t -> addr -> int -> int
(** The handler value (0 = SIG_DFL, 1 = SIG_IGN, else a text address). *)

val send_signal : Kcontext.t -> addr -> signo:int -> from_pid:int -> unit
(** Queue a signal on a [sigpending] (task-private or shared): allocates
    a sigqueue and sets the sigset bit. *)

val pending_signals : Kcontext.t -> addr -> addr list
(** The queued sigqueues of a sigpending. *)
