(** The buddy page allocator (ULK Fig 8-2).

    A [mem_map] array of [struct page] covers a simulated DRAM zone; free
    pages sit on per-order [free_area] lists linked through [page.lru].
    Orders split on allocation and buddies coalesce on free, so plots of
    the zone show realistic free-list populations. Page payloads live in a
    separate data region addressable via {!page_address}. *)

open Kcontext

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  zone : addr;
  mem_map : addr;  (** base of the page array *)
  data_base : addr;  (** base of page payloads *)
  npages : int;
  page_size : int;
  (* allocation state per pfn: order if it heads a free block *)
  free_orders : (int, int) Hashtbl.t;
}

let page_struct_size ctx = sizeof ctx "page"

let pfn_to_page t pfn = t.mem_map + (pfn * page_struct_size t.ctx)
let page_to_pfn t page = (page - t.mem_map) / page_struct_size t.ctx
let page_address t page = t.data_base + (page_to_pfn t page * t.page_size)

let free_area_addr t order =
  fld t.ctx t.zone "zone" "free_area" + (order * sizeof t.ctx "free_area")

let nr_free t order = r64 t.ctx (free_area_addr t order) "free_area" "nr_free"

let set_nr_free t order v = w64 t.ctx (free_area_addr t order) "free_area" "nr_free" v

let free_list t order = fld t.ctx (free_area_addr t order) "free_area" "free_list"

let set_buddy_flag ctx page on =
  let f = r64 ctx page "page" "flags" in
  let bit = 1 lsl Ktypes.pg_buddy in
  w64 ctx page "page" "flags" (if on then f lor bit else f land lnot bit)

let add_free t page order =
  Klist.add t.ctx (free_list t order) (fld t.ctx page "page" "lru");
  w64 t.ctx page "page" "private" order;
  set_buddy_flag t.ctx page true;
  set_nr_free t order (nr_free t order + 1);
  Hashtbl.replace t.free_orders (page_to_pfn t page) order

let del_free t page order =
  Klist.del t.ctx (fld t.ctx page "page" "lru");
  set_buddy_flag t.ctx page false;
  w64 t.ctx page "page" "private" 0;
  set_nr_free t order (nr_free t order - 1);
  Hashtbl.remove t.free_orders (page_to_pfn t page)

let create ctx ~npages =
  let page_size = Ktypes.page_size in
  let zone = alloc ctx "zone" in
  w64 ctx zone "zone" "name" (cstring ctx "Normal");
  w64 ctx zone "zone" "zone_start_pfn" 0;
  w64 ctx zone "zone" "spanned_pages" npages;
  w64 ctx (fld ctx zone "zone" "managed_pages") "atomic64_t" "counter" npages;
  let mem_map = alloc_n ctx "page" npages in
  let data_base = alloc_raw ctx "page_data" (npages * page_size) in
  let t = { ctx; zone; mem_map; data_base; npages; page_size; free_orders = Hashtbl.create 64 } in
  for order = 0 to Ktypes.max_order - 1 do
    Klist.init ctx (free_list t order)
  done;
  (* Seed: carve the zone into max-order blocks. *)
  let max_block = 1 lsl (Ktypes.max_order - 1) in
  let pfn = ref 0 in
  while !pfn + max_block <= npages do
    add_free t (pfn_to_page t !pfn) (Ktypes.max_order - 1);
    pfn := !pfn + max_block
  done;
  let rec seed_rest pfn order =
    if order >= 0 then
      if pfn + (1 lsl order) <= npages then begin
        add_free t (pfn_to_page t pfn) order;
        seed_rest (pfn + (1 lsl order)) order
      end
      else seed_rest pfn (order - 1)
  in
  seed_rest !pfn (Ktypes.max_order - 2);
  t

(** Allocate a 2^order block; returns the head page. *)
let alloc_pages t order =
  let rec find o =
    if o >= Ktypes.max_order then failwith "Kbuddy.alloc_pages: out of memory"
    else if Klist.is_empty t.ctx (free_list t o) then find (o + 1)
    else o
  in
  let o = find order in
  let lru = Klist.next t.ctx (free_list t o) in
  let page = lru - off t.ctx "page" "lru" in
  del_free t page o;
  (* Split down to the requested order, putting upper halves back. *)
  let rec split o =
    if o > order then begin
      let o = o - 1 in
      let buddy = pfn_to_page t (page_to_pfn t page + (1 lsl o)) in
      add_free t buddy o;
      split o
    end
  in
  split o;
  w32 t.ctx (fld t.ctx page "page" "_refcount") "atomic_t" "counter" 1;
  page

(** Free a 2^order block, coalescing with free buddies. *)
let free_pages t page order =
  w32 t.ctx (fld t.ctx page "page" "_refcount") "atomic_t" "counter" 0;
  let rec coalesce pfn order =
    if order >= Ktypes.max_order - 1 then add_free t (pfn_to_page t pfn) order
    else begin
      let buddy_pfn = pfn lxor (1 lsl order) in
      match Hashtbl.find_opt t.free_orders buddy_pfn with
      | Some o when o = order && buddy_pfn + (1 lsl order) <= t.npages ->
          del_free t (pfn_to_page t buddy_pfn) order;
          coalesce (min pfn buddy_pfn) (order + 1)
      | _ -> add_free t (pfn_to_page t pfn) order
    end
  in
  coalesce (page_to_pfn t page) order

let alloc_page t = alloc_pages t 0

let total_free_pages t =
  let total = ref 0 in
  for o = 0 to Ktypes.max_order - 1 do
    total := !total + (nr_free t o * (1 lsl o))
  done;
  !total
