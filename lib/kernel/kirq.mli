(** IRQ descriptors (ULK Fig 4-5): the [irq_desc] table with chips and
    chained [irqaction]s (shared interrupts). *)

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  funcs : Kfuncs.t;
  descs : addr;  (** array of irq_desc[NR_IRQS] *)
}

val create : Kcontext.t -> Kfuncs.t -> t

val set_chip : t -> irq:int -> chip_name:string -> addr

val request_irq : t -> irq:int -> name:string -> handler:string -> addr
(** Append an irqaction to the descriptor's chain (shared-IRQ style);
    returns the action. *)

val actions : t -> irq:int -> addr list
(** The action chain, in registration order. *)
