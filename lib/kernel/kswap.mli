(** Swap area descriptors (ULK Fig 17-6): the [swap_info] pointer array
    and [swap_info_struct]s with their usage maps. *)

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  swap_info : addr;  (** array of MAX_SWAPFILES pointers *)
  mutable nr : int;
}

val create : Kcontext.t -> t

val swapon : t -> file:addr -> bdev:addr -> pages:int -> prio:int -> used:int -> addr
(** Activate a swap area of [pages] slots backed by [file]; [used] slots
    are pre-marked in the swap_map. @raise Failure when the table is
    full. *)

val areas : t -> addr list
