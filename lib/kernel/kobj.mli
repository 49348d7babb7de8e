(** The device model (ULK Fig 13-3): kobjects, ksets, devices, drivers
    and buses. *)

type addr = Kmem.addr

val new_kset : Kcontext.t -> name:string -> parent:addr -> addr

val new_bus : Kcontext.t -> name:string -> addr
val new_driver : Kcontext.t -> Kfuncs.t -> name:string -> bus:addr -> addr
(** Gets a [<name>_probe] function symbol. *)

val new_device :
  Kcontext.t -> name:string -> parent:addr -> bus:addr -> driver:addr -> kset:addr -> addr
(** A device whose embedded kobject parents to the parent device's
    kobject. *)

val kset_members : Kcontext.t -> addr -> addr list
