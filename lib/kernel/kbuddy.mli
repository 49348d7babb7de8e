(** The buddy page allocator (ULK Fig 8-2).

    A [mem_map] array of [struct page] covers a simulated DRAM zone; free
    blocks sit on per-order [free_area] lists linked through [page.lru].
    Orders split on allocation and buddies coalesce on free. Page payloads
    live in a separate data region addressable via {!page_address}. *)

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  zone : addr;  (** the [struct zone] *)
  mem_map : addr;  (** base of the page-struct array *)
  data_base : addr;  (** base of page payloads *)
  npages : int;
  page_size : int;
  free_orders : (int, int) Hashtbl.t;
}

val create : Kcontext.t -> npages:int -> t
(** Carve [npages] frames into max-order free blocks. *)

val pfn_to_page : t -> int -> addr
val page_to_pfn : t -> addr -> int

val page_address : t -> addr -> addr
(** The payload address of a page (what the kernel calls page_address). *)

val alloc_pages : t -> int -> addr
(** Allocate a 2{^order} block, splitting larger blocks as needed;
    returns the head page. @raise Failure when the zone is exhausted. *)

val free_pages : t -> addr -> int -> unit
(** Free a 2{^order} block, coalescing with free buddies. *)

val alloc_page : t -> addr

val total_free_pages : t -> int
