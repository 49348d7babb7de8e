(** The slab allocator (ULK Fig 8-4): [kmem_cache]s carving objects out
    of buddy pages, with partial/full slab lists and in-page freelists
    chained through the first word of each free object (SLUB-style). *)

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  buddy : Kbuddy.t;
  slab_caches : addr;  (** global list_head of all caches *)
  slab_bases : (addr, addr) Hashtbl.t;  (** slab struct -> payload base *)
}

val create : Kcontext.t -> Kbuddy.t -> t

val cache_create : t -> string -> object_size:int -> addr
(** kmem_cache_create: registers the cache on the global list. *)

val cache_alloc : t -> addr -> addr
(** kmem_cache_alloc: pops the freelist of a partial slab, allocating a
    new slab page when none; moves filled slabs to the full list. *)

val cache_free : t -> addr -> addr -> unit
(** kmem_cache_free: pushes the object back and moves full slabs back to
    partial. @raise Invalid_argument when the object isn't from the
    cache. *)

val caches : t -> addr list
(** All registered caches, in creation order. *)

val slab_inuse : Kcontext.t -> addr -> int
(** The [inuse] bitfield of a slab (shares a u32 with objects/frozen). *)
