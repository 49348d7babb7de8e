type addr = int

let kernel_base = 0x4000_0000_0000
let null = 0

type fault =
  | Use_after_free of { obj : addr; tag : string; at : addr }
  | Wild_access of addr
  | Injected of addr

type state = Live | Freed

type allocation = { base : addr; size : int; tag : string; mutable state : state }

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

type t = {
  chunks : (int, Bytes.t) Hashtbl.t;
  (* Allocations indexed by 4KiB-page so that point queries are O(pages
     spanned), not O(allocations). *)
  by_page : (int, allocation list ref) Hashtbl.t;
  mutable cursor : addr;
  mutable live : int;
  mutable live_bytes : int;
  (* Write-generation tracking (seqlock discipline): every store bumps a
     global counter plus one counter per 4KiB page touched, so a reader
     can record generations for the ranges it read and re-check them —
     detecting a mutation that raced the read without trapping writes. *)
  mutable gen : int;
  page_gen : (int, int) Hashtbl.t;
  mutable faults_rev : fault list;
  mutable nfaults : int;
  mutable reads : int;
  mutable bytes_read : int;
  (* fault injection (all default-off; extraction is deterministic
     unless a test opts in) *)
  mutable inj_rate : float;
  mutable inj_rng : int;
  mutable poisoned : (addr * int) list;
}

let create () =
  {
    chunks = Hashtbl.create 64;
    by_page = Hashtbl.create 256;
    cursor = kernel_base;
    live = 0;
    live_bytes = 0;
    gen = 0;
    page_gen = Hashtbl.create 256;
    faults_rev = [];
    nfaults = 0;
    reads = 0;
    bytes_read = 0;
    inj_rate = 0.;
    inj_rng = 0x9e3779b9;
    poisoned = [];
  }

(* Reads never insert: an absent chunk is all-zero by construction. *)
let chunk_for_write mem a =
  let idx = a lsr chunk_bits in
  match Hashtbl.find_opt mem.chunks idx with
  | Some b -> b
  | None ->
      let b = Bytes.make chunk_size '\000' in
      Hashtbl.add mem.chunks idx b;
      b

let page_bits = 12

let pages_of base size =
  let first = base lsr page_bits and last = (base + size - 1) lsr page_bits in
  let rec collect p acc = if p > last then List.rev acc else collect (p + 1) (p :: acc) in
  collect first []

(* ------------------------------------------------------------------ *)
(* Write generations.  [touch] is the single funnel every mutation goes
   through: it bumps the global generation and stamps that generation
   onto every 4KiB page overlapped.  Storing the *stamp* (not a count)
   lets a reader decide both "did this page change since I read it?"
   and "had it already changed since my section began before I first
   read it?" — the second is the snapshot-mixing hazard a plain
   counter cannot see (see Target consistent sections). *)

let touch mem a n =
  mem.gen <- mem.gen + 1;
  let first = a lsr page_bits and last = (a + max n 1 - 1) lsr page_bits in
  for p = first to last do
    Hashtbl.replace mem.page_gen p mem.gen
  done

let generation mem = mem.gen
let page_generation mem p = Option.value (Hashtbl.find_opt mem.page_gen p) ~default:0

let alloc mem ?(align = 16) ~tag size =
  let size = max size 1 in
  let base = (mem.cursor + align - 1) land lnot (align - 1) in
  mem.cursor <- base + size;
  let a = { base; size; tag; state = Live } in
  List.iter
    (fun p ->
      let cell =
        match Hashtbl.find_opt mem.by_page p with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.add mem.by_page p r;
            r
      in
      cell := a :: !cell)
    (pages_of base size);
  mem.live <- mem.live + 1;
  mem.live_bytes <- mem.live_bytes + size;
  (* the range transitions to live: a freed node reused mid-walk must
     dirty the generations of the pages it spans *)
  touch mem base size;
  base

let alloc_of mem a =
  match Hashtbl.find_opt mem.by_page (a lsr page_bits) with
  | None -> None
  | Some r -> List.find_opt (fun al -> a >= al.base && a < al.base + al.size) !r

let find_alloc mem a =
  match alloc_of mem a with None -> None | Some al -> Some (al.base, al.size, al.tag)

let is_live mem a =
  match alloc_of mem a with Some { state = Live; _ } -> true | _ -> false

let poison_byte = '\x6b'

let free mem a =
  match alloc_of mem a with
  | Some ({ state = Live; _ } as al) when al.base = a ->
      al.state <- Freed;
      mem.live <- mem.live - 1;
      mem.live_bytes <- mem.live_bytes - al.size;
      touch mem a al.size;
      for i = 0 to al.size - 1 do
        let p = a + i in
        Bytes.set (chunk_for_write mem p) (p land (chunk_size - 1)) poison_byte
      done
  | Some { state = Freed; _ } -> invalid_arg "Kmem.free: double free"
  | Some _ -> invalid_arg "Kmem.free: not an allocation base address"
  | None -> invalid_arg "Kmem.free: wild free"

let record_fault mem f =
  mem.nfaults <- mem.nfaults + 1;
  mem.faults_rev <- f :: mem.faults_rev

(* -------------------------------------------------------------------- *)
(* Fault injection.  Three knobs, all off by default:
   - probabilistic read failure (deterministic LCG, so a seeded run is
     reproducible);
   - address-range poisoning: reads overlapping a poisoned range fail;
   - one-shot bit flips, which corrupt the stored byte directly.
   A failing read records an [Injected] fault and returns POISON_FREE
   bytes, the same thing a read of freed memory sees. *)

let inject_read_failures mem ?(seed = 0x9e3779b9) rate =
  mem.inj_rate <- rate;
  mem.inj_rng <- seed

let poison_range mem a len = if len > 0 then mem.poisoned <- (a, len) :: mem.poisoned

let clear_injection mem =
  mem.inj_rate <- 0.;
  mem.inj_rng <- 0x9e3779b9;
  mem.poisoned <- []

(* The injection LCG advances once per performed read, so any layer that
   wants to *skip* reads (a cache) would change the fault pattern of
   every read after it.  Caches consult this to disable reuse while
   injection is live, keeping injected runs byte-for-byte reproducible. *)
let injection_active mem = mem.inj_rate > 0. || mem.poisoned <> []

let injected mem a n =
  let ranged = List.exists (fun (b, len) -> a < b + len && b < a + n) mem.poisoned in
  let random =
    mem.inj_rate > 0.
    && begin
         (* Java's 48-bit LCG: fits comfortably in OCaml's 63-bit ints *)
         mem.inj_rng <- ((mem.inj_rng * 25214903917) + 11) land 0xFFFF_FFFF_FFFF;
         float_of_int ((mem.inj_rng lsr 24) land 0xFFFFFF) /. 16777216. < mem.inj_rate
       end
  in
  if ranged || random then begin
    record_fault mem (Injected a);
    true
  end
  else false

(* 0x6b in every byte, like reading freed memory (top byte included: an
   8-byte poison read wraps negative exactly as a real poison load). *)
let rec poison_value n = if n = 0 then 0 else (poison_value (n - 1) lsl 8) lor 0x6b

(* Check an [n]-byte read starting at [a]; UAF and wild reads are recorded
   but do not stop execution — the poison (or zero) bytes are returned, as
   on real hardware. *)
let note_read mem a n =
  mem.reads <- mem.reads + 1;
  mem.bytes_read <- mem.bytes_read + n;
  if a < kernel_base then record_fault mem (Wild_access a)
  else
    match alloc_of mem a with
    | Some { state = Freed; base; tag; _ } ->
        record_fault mem (Use_after_free { obj = base; tag; at = a })
    | Some { state = Live; _ } | None -> ()

let get mem a =
  match Hashtbl.find_opt mem.chunks (a lsr chunk_bits) with
  | Some b -> Char.code (Bytes.get b (a land (chunk_size - 1)))
  | None -> 0

let set mem a v =
  Bytes.set (chunk_for_write mem a) (a land (chunk_size - 1)) (Char.chr (v land 0xff))

let read_u8 mem a =
  note_read mem a 1;
  if injected mem a 1 then poison_value 1 else get mem a

let read_le mem a n =
  note_read mem a n;
  if injected mem a n then poison_value n
  else
    let rec go i acc = if i < 0 then acc else go (i - 1) ((acc lsl 8) lor get mem (a + i)) in
    go (n - 1) 0

let read_u16 mem a = read_le mem a 2
let read_u32 mem a = read_le mem a 4

let read_u64 mem a =
  (* Native ints are 63-bit; our simulated addresses and values stay well
     below 2^62, so a 64-bit field is read as low 62 bits + sign-safe top. *)
  note_read mem a 8;
  if injected mem a 8 then poison_value 8
  else
    let rec go i acc = if i < 0 then acc else go (i - 1) ((acc lsl 8) lor get mem (a + i)) in
    go 7 0

let sign_extend v bits =
  let m = 1 lsl (bits - 1) in
  (v lxor m) - m

let read_i8 mem a = sign_extend (read_u8 mem a) 8
let read_i16 mem a = sign_extend (read_u16 mem a) 16
let read_i32 mem a = sign_extend (read_u32 mem a) 32

let read_bytes mem a n =
  note_read mem a n;
  if injected mem a n then String.make n poison_byte
  else String.init n (fun i -> Char.chr (get mem (a + i)))

let read_cstring mem ?(max = 256) a =
  note_read mem a max;
  if injected mem a max then String.make (min max 8) poison_byte
  else
  let buf = Buffer.create 16 in
  let rec go i =
    if i < max then
      let c = get mem (a + i) in
      if c <> 0 then (
        Buffer.add_char buf (Char.chr c);
        go (i + 1))
  in
  go 0;
  Buffer.contents buf

let write_u8 mem a v =
  touch mem a 1;
  set mem a v

let write_le mem a n v =
  touch mem a n;
  for i = 0 to n - 1 do
    set mem (a + i) ((v lsr (8 * i)) land 0xff)
  done

let write_u16 mem a v = write_le mem a 2 v
let write_u32 mem a v = write_le mem a 4 v
let write_u64 mem a v = write_le mem a 8 v
let write_bytes mem a s =
  touch mem a (String.length s);
  String.iteri (fun i c -> set mem (a + i) (Char.code c)) s

let write_cstring mem a ?field_size s =
  let s =
    match field_size with
    | Some n when String.length s >= n -> String.sub s 0 (max 0 (n - 1))
    | _ -> s
  in
  write_bytes mem a s;
  write_u8 mem (a + String.length s) 0

let flip_bits mem a ~mask =
  touch mem a 1;
  set mem a (get mem a lxor mask)

let faults mem = List.rev mem.faults_rev
let fault_count mem = mem.nfaults

let faults_since mem c0 =
  let rec take k l =
    if k <= 0 then [] else match l with [] -> [] | x :: tl -> x :: take (k - 1) tl
  in
  List.rev (take (mem.nfaults - c0) mem.faults_rev)

let clear_faults mem =
  mem.faults_rev <- [];
  mem.nfaults <- 0
let read_count mem = mem.reads
let bytes_read mem = mem.bytes_read

let reset_counters mem =
  mem.reads <- 0;
  mem.bytes_read <- 0

let live_count mem = mem.live
let live_bytes mem = mem.live_bytes

let pp_fault ppf = function
  | Use_after_free { obj; tag; at } ->
      Format.fprintf ppf "use-after-free: read 0x%x inside freed %s@0x%x" at tag obj
  | Wild_access a -> Format.fprintf ppf "wild access: 0x%x" a
  | Injected a -> Format.fprintf ppf "injected fault: read at 0x%x corrupted" a
