(** Simulated kernel text: function-pointer values.

    Kernel objects carry function pointers (work handlers, pipe buffer
    ops, signal handlers, RCU callbacks, ...). Every named kernel function
    gets a unique fake text address so that (a) function-pointer fields
    contain realistic values, (b) the [FunPtr] text decorator can resolve
    them back to names — as GDB does with symbols — and (c) RCU / timers /
    workqueues can dispatch callbacks to OCaml implementations. *)

type addr = Kmem.addr

type t

val create : unit -> t

val register : t -> string -> addr
(** Get-or-assign the text address of a function symbol. *)

val register_impl : t -> string -> (addr -> unit) -> addr
(** Register a function with an executable OCaml body; the argument passed
    at invocation time is the object address (callback_head, timer_list,
    work_struct, ...). *)

val name_of : t -> addr -> string option
val impl_of : t -> addr -> (addr -> unit) option

val invoke : t -> addr -> addr -> unit
(** Call the implementation behind a text address.
    @raise Invalid_argument when no implementation is registered. *)
