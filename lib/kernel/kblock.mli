(** Block devices (ULK Fig 14-3): [gendisk]s and their [block_device]
    descriptors. *)

type addr = Kmem.addr

val add_disk : Kcontext.t -> Kvfs.t -> name:string -> major:int -> minor:int -> addr * addr
(** A disk with a whole-disk block_device (and its bdev inode); returns
    (gendisk, block_device). *)
