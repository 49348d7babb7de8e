(** The page cache (ULK Fig 15-1): an [address_space] whose [i_pages]
    XArray maps file page indices to [struct page]s from the buddy
    allocator. *)

open Kcontext

type addr = Kmem.addr

(** Get-or-create the cache page of [mapping] at [index]; fills it with
    [data] when given. *)
let find_or_create_page ctx buddy mapping index ?data () =
  let xa = fld ctx mapping "address_space" "i_pages" in
  match Kxarray.load ctx xa index with
  | 0 ->
      let page = Kbuddy.alloc_page buddy in
      w64 ctx page "page" "mapping" mapping;
      w64 ctx page "page" "index" index;
      let f = r64 ctx page "page" "flags" in
      w64 ctx page "page" "flags" (f lor (1 lsl Ktypes.pg_lru));
      Kxarray.store ctx xa index page;
      w64 ctx mapping "address_space" "nrpages" (r64 ctx mapping "address_space" "nrpages" + 1);
      (match data with
      | Some s -> Kmem.write_bytes ctx.mem (Kbuddy.page_address buddy page) s
      | None -> ());
      page
  | page -> page

(** Populate the first [npages] pages of a file's mapping (simulating
    readahead of file contents). *)
let populate ctx buddy mapping ~npages ~fill =
  List.init npages (fun i -> find_or_create_page ctx buddy mapping i ~data:(fill i) ())

let lookup ctx mapping index =
  Kxarray.load ctx (fld ctx mapping "address_space" "i_pages") index

let pages ctx mapping =
  List.map snd (Kxarray.entries ctx (fld ctx mapping "address_space" "i_pages"))
