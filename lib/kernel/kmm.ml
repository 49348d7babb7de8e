(** Process address spaces (ULK Fig 9-2): [mm_struct] with its maple tree
    of [vm_area_struct]s, the structure at the center of the paper's
    motivating example and both CVE case studies. *)

open Kcontext

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  (* Shadow maple trees, keyed by the address of the mm's maple_tree. *)
  trees : (addr, Kmaple.tree) Hashtbl.t;
}

let create ctx = { ctx; trees = Hashtbl.create 16 }

let tree_of t mm =
  let mt = fld t.ctx mm "mm_struct" "mm_mt" in
  match Hashtbl.find_opt t.trees mt with
  | Some tree -> tree
  | None -> invalid_arg "Kmm: unknown mm"

let mm_alloc t =
  let ctx = t.ctx in
  let mm = alloc ctx "mm_struct" in
  let mt = fld ctx mm "mm_struct" "mm_mt" in
  Hashtbl.replace t.trees mt (Kmaple.create ctx mt);
  w32 ctx (fld ctx mm "mm_struct" "mm_users") "atomic_t" "counter" 1;
  w32 ctx (fld ctx mm "mm_struct" "mm_count") "atomic_t" "counter" 1;
  w64 ctx mm "mm_struct" "task_size" 0x7fff_ffff_f000;
  w64 ctx mm "mm_struct" "mmap_base" 0x7fff_f7ff_f000;
  mm

(** Create a VMA covering [start, end_) (end exclusive, page aligned). *)
let vma_alloc t mm ~start ~end_ ~flags ~file ~pgoff =
  let ctx = t.ctx in
  let vma = alloc ctx "vm_area_struct" in
  w64 ctx vma "vm_area_struct" "vm_start" start;
  w64 ctx vma "vm_area_struct" "vm_end" end_;
  w64 ctx vma "vm_area_struct" "vm_mm" mm;
  w64 ctx vma "vm_area_struct" "vm_flags" flags;
  w64 ctx vma "vm_area_struct" "vm_file" file;
  w64 ctx vma "vm_area_struct" "vm_pgoff" pgoff;
  Klist.init ctx (fld ctx vma "vm_area_struct" "anon_vma_chain");
  vma

(** Insert a VMA into the address space: stores it in the maple tree over
    its page range. *)
let insert_vma t mm vma =
  let ctx = t.ctx in
  let tree = tree_of t mm in
  let start = r64 ctx vma "vm_area_struct" "vm_start" in
  let end_ = r64 ctx vma "vm_area_struct" "vm_end" in
  Kmaple.store_range tree ~lo:start ~hi:(end_ - 1) vma;
  w32 ctx mm "mm_struct" "map_count" (List.length (Kmaple.entries tree));
  let tv = r64 ctx mm "mm_struct" "total_vm" in
  w64 ctx mm "mm_struct" "total_vm" (tv + ((end_ - start) / Ktypes.page_size))

(** mmap: allocate and insert. Returns the VMA. *)
let mmap t mm ~start ~len ~flags ~file ~pgoff =
  let end_ = start + len in
  let vma = vma_alloc t mm ~start ~end_ ~flags ~file ~pgoff in
  insert_vma t mm vma;
  vma

(** munmap the whole range of [vma]; the VMA object is freed. *)
let munmap t mm vma =
  let ctx = t.ctx in
  let tree = tree_of t mm in
  let start = r64 ctx vma "vm_area_struct" "vm_start" in
  let end_ = r64 ctx vma "vm_area_struct" "vm_end" in
  Kmaple.erase_range tree ~lo:start ~hi:(end_ - 1);
  w32 ctx mm "mm_struct" "map_count" (List.length (Kmaple.entries tree));
  free ctx vma

(** VMAs in address order (shadow view, write side). *)
let vmas t mm = List.map (fun (_, _, v) -> v) (Kmaple.entries (tree_of t mm))

(** VMAs read back from the real maple tree nodes (debugger view). *)
let read_vmas t mm =
  Kmaple.read_entries t.ctx (fld t.ctx mm "mm_struct" "mm_mt")
  |> List.map (fun (_, _, v) -> v)

let find_vma t mm va = Kmaple.walk t.ctx (fld t.ctx mm "mm_struct" "mm_mt") va

(** Handle an anonymous page fault at [va]: allocate a page frame, mark
    it mapped (refcount/_mapcount, page->mapping pointing at the VMA's
    anon_vma with the kernel's PAGE_MAPPING_ANON low bit), and charge the
    mm. Returns the page, or 0 when no VMA covers [va] (a "segfault"). *)
let page_mapping_anon = 0x1

let handle_anon_fault t buddy mm ~va =
  let ctx = t.ctx in
  let vma = find_vma t mm va in
  if vma = 0 then 0
  else begin
    let anon_vma = Kanon.prepare ctx vma in
    let page = Kbuddy.alloc_page buddy in
    w32 ctx (fld ctx page "page" "_refcount") "atomic_t" "counter" 1;
    w32 ctx (fld ctx page "page" "_mapcount") "atomic_t" "counter" 0;
    w64 ctx page "page" "mapping" (anon_vma lor page_mapping_anon);
    w64 ctx page "page" "index" (va / Ktypes.page_size);
    page
  end

(** Resolve an anonymous page back to its VMAs — the reverse map walk of
    ULK Fig 17-1 (folio_get_anon_vma + rmap traversal). *)
let rmap_walk t page =
  let ctx = t.ctx in
  let mapping = r64 ctx page "page" "mapping" in
  if mapping land page_mapping_anon = 0 then []
  else Kanon.vmas_of ctx (mapping land lnot page_mapping_anon)

(* Read/write-lock state of mmap_lock, for lock visualization. *)
let mmap_read_lock ctx mm ~cpu =
  w32 ctx mm "mm_struct" "mmap_lock.locked" (r32 ctx mm "mm_struct" "mmap_lock.locked" + 1);
  w32 ctx mm "mm_struct" "mmap_lock.owner_cpu" cpu

let mmap_read_unlock ctx mm =
  w32 ctx mm "mm_struct" "mmap_lock.locked" (max 0 (r32 ctx mm "mm_struct" "mmap_lock.locked" - 1))
