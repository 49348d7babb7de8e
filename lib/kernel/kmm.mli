(** Process address spaces (ULK Fig 9-2): [mm_struct] with its maple tree
    of [vm_area_struct]s — the structure at the center of the paper's
    motivating example and both CVE case studies. *)

type addr = Kmem.addr

type t
(** Holds the write-side shadows of all maple trees, keyed by tree
    address. *)

val create : Kcontext.t -> t

val mm_alloc : t -> addr
(** A fresh mm_struct with an empty maple tree and default bases. *)

val tree_of : t -> addr -> Kmaple.tree
(** The shadow maple tree of an mm. @raise Invalid_argument if unknown. *)

val vma_alloc :
  t -> addr -> start:int -> end_:int -> flags:int -> file:addr -> pgoff:int -> addr
(** Allocate (but not insert) a VMA covering [start, end_). *)

val mmap : t -> addr -> start:int -> len:int -> flags:int -> file:addr -> pgoff:int -> addr
(** Allocate + insert; returns the VMA. *)

val munmap : t -> addr -> addr -> unit
(** Remove a VMA's whole range and free the VMA object. *)

val vmas : t -> addr -> addr list
(** VMAs in address order (write-side shadow). *)

val read_vmas : t -> addr -> addr list
(** VMAs read back from the real maple-tree nodes (debugger view). *)

val find_vma : t -> addr -> int -> addr
(** mas_walk: the VMA containing a virtual address, or 0. *)

(** {1 Faults and the reverse map} *)

val handle_anon_fault : t -> Kbuddy.t -> addr -> va:int -> addr
(** Anonymous page fault at [va]: allocates a frame, tags
    [page->mapping] with the VMA's anon_vma | PAGE_MAPPING_ANON.
    Returns 0 (segfault) when no VMA covers [va]. *)

val rmap_walk : t -> addr -> addr list
(** Reverse map: the VMAs mapping an anonymous page (ULK Fig 17-1). *)

(** {1 mmap_lock (for lock visualization)} *)

val mmap_read_lock : Kcontext.t -> addr -> cpu:int -> unit
val mmap_read_unlock : Kcontext.t -> addr -> unit
