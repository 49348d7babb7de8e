(** Reverse mapping of anonymous pages (ULK Fig 17-1): [anon_vma] objects
    with their interval trees of [anon_vma_chain]s. *)

open Kcontext

type addr = Kmem.addr

(* Chain [vma] into [anon_vma]: a fresh anon_vma_chain on the VMA's
   same_vma list and in the anon_vma's interval tree, keyed by vm_start. *)
let link ctx ~anon_vma vma =
  let avc = alloc ctx "anon_vma_chain" in
  w64 ctx avc "anon_vma_chain" "vma" vma;
  w64 ctx avc "anon_vma_chain" "anon_vma" anon_vma;
  Klist.add_tail ctx
    (fld ctx vma "vm_area_struct" "anon_vma_chain")
    (fld ctx avc "anon_vma_chain" "same_vma");
  let less a b =
    let vma_of n = r64 ctx (n - off ctx "anon_vma_chain" "rb") "anon_vma_chain" "vma" in
    let start v = r64 ctx v "vm_area_struct" "vm_start" in
    start (vma_of a) < start (vma_of b)
  in
  Krbtree.insert_cached ctx (fld ctx anon_vma "anon_vma" "rb_root") ~less
    (fld ctx avc "anon_vma_chain" "rb");
  w64 ctx vma "vm_area_struct" "anon_vma" anon_vma;
  avc

(** Give [vma] an anon_vma (as anon_vma_prepare on first anonymous fault). *)
let prepare ctx vma =
  let existing = r64 ctx vma "vm_area_struct" "anon_vma" in
  if existing <> 0 then existing
  else begin
    let av = alloc ctx "anon_vma" in
    w64 ctx av "anon_vma" "root" av;
    w32 ctx (fld ctx av "anon_vma" "refcount") "atomic_t" "counter" 1;
    w64 ctx av "anon_vma" "num_active_vmas" 1;
    ignore (link ctx ~anon_vma:av vma);
    av
  end

(** Link a child VMA (e.g. after fork) into an existing anon_vma. *)
let clone_into ctx ~anon_vma vma =
  let avc = link ctx ~anon_vma vma in
  let n = r64 ctx anon_vma "anon_vma" "num_active_vmas" in
  w64 ctx anon_vma "anon_vma" "num_active_vmas" (n + 1);
  avc

(** All VMAs mapped under an anon_vma, via its interval tree. *)
let vmas_of ctx anon_vma =
  Krbtree.containers ctx
    (Krbtree.cached_root ctx (fld ctx anon_vma "anon_vma" "rb_root"))
    "anon_vma_chain" "rb"
  |> List.map (fun avc -> r64 ctx avc "anon_vma_chain" "vma")
