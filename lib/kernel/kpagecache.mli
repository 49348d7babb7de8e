(** The page cache (ULK Fig 15-1): an [address_space] whose [i_pages]
    XArray maps file page indices to [struct page]s from the buddy
    allocator. *)

type addr = Kmem.addr

val populate : Kcontext.t -> Kbuddy.t -> addr -> npages:int -> fill:(int -> string) -> addr list
(** Readahead-style population of the first [npages] pages. *)

val lookup : Kcontext.t -> addr -> int -> addr
(** find_get_page: 0 when absent. *)

val pages : Kcontext.t -> addr -> addr list
(** All cached pages of a mapping, in index order. *)
