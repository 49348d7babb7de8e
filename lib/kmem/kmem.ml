type addr = int

let kernel_base = 0x4000_0000_0000

type fault =
  | Use_after_free of { obj : addr; tag : string; at : addr }
  | Wild_access of addr
  | Injected of addr

type state = Live | Freed

type allocation = { base : addr; size : int; tag : string; mutable state : state }

(* One page's write log: [len] entries [(gen, lo, hi)], flat — the
   generation of a write and the byte range [lo, hi) it covered.  Every
   write to the page newer than [floor] is in the log; older ones were
   evicted when the log filled, or came before logging started. *)
type page_log = { mutable floor : int; mutable len : int; mutable log : int array }

let chunk_bits = 16
let chunk_size = 1 lsl chunk_bits

type t = {
  chunks : (int, Bytes.t) Hashtbl.t;
  (* the last chunk found in [chunks]; index -1 (no chunk's) until then *)
  mutable last_idx : int;
  mutable last : Bytes.t;
  (* Allocations indexed by 4KiB-page so that point queries are O(pages
     spanned), not O(allocations). *)
  by_page : (int, allocation list ref) Hashtbl.t;
  mutable cursor : addr;
  mutable live : int;
  mutable live_bytes : int;
  (* Write-generation tracking (seqlock discipline): every store bumps a
     global counter plus one counter per 4KiB page touched, so a reader
     can record generations for the ranges it read and re-check them —
     detecting a mutation that raced the read without trapping writes.
     Once a reader asks, each page written also logs the byte ranges of
     its recent writes (see [written_since]). *)
  mutable gen : int;
  page_gen : (int, int) Hashtbl.t;
  logs : (int, page_log) Hashtbl.t;
  mutable logging : bool;
  mutable faults_rev : fault list;
  mutable nfaults : int;
  mutable reads : int;
  mutable bytes_read : int;
  mutable observer : (addr -> int -> unit) option;  (* see [observing] *)
  (* fault injection (all default-off; extraction is deterministic
     unless a test opts in) *)
  mutable inj_rate : float;
  mutable inj_rng : int;
  mutable poisoned : (addr * int) list;
}

(* What every absent chunk reads as.  Never written and never the
   cached chunk, so a read never materializes a chunk. *)
let zero_chunk = Bytes.make chunk_size '\000'

let create () =
  {
    chunks = Hashtbl.create 64;
    last_idx = -1;
    last = zero_chunk;
    by_page = Hashtbl.create 256;
    cursor = kernel_base;
    live = 0;
    live_bytes = 0;
    gen = 0;
    page_gen = Hashtbl.create 256;
    logs = Hashtbl.create 64;
    logging = false;
    faults_rev = [];
    nfaults = 0;
    reads = 0;
    bytes_read = 0;
    observer = None;
    inj_rate = 0.;
    inj_rng = 0x9e3779b9;
    poisoned = [];
  }

let off_mask = chunk_size - 1

(* Chunk [idx] for reading: the cached one, else the table's, else the
   zero chunk (not cached, not inserted). *)
let chunk mem idx =
  if idx = mem.last_idx then mem.last
  else
    match Hashtbl.find mem.chunks idx with
    | b ->
        mem.last_idx <- idx;
        mem.last <- b;
        b
    | exception Not_found -> zero_chunk

(* Chunk [idx] for writing: the only path that inserts one. *)
let chunk_for_write mem idx =
  let b = chunk mem idx in
  if b != zero_chunk then b
  else begin
    Hashtbl.add mem.chunks idx (Bytes.make chunk_size '\000');
    chunk mem idx
  end

(* [f idx off p len] on each piece [\[p, p+len)] of [\[a, a+n)] that
   lies in one chunk, in address order: chunk [idx] from offset [off]. *)
let rec spans a n f =
  if n > 0 then begin
    let off = a land off_mask in
    let len = Int.min n (chunk_size - off) in
    f (a lsr chunk_bits) off a len;
    spans (a + len) (n - len) f
  end

let page_bits = 12

let pages_of base size =
  let first = base lsr page_bits and last = (base + size - 1) lsr page_bits in
  let rec collect p acc = if p > last then List.rev acc else collect (p + 1) (p :: acc) in
  collect first []

(* ------------------------------------------------------------------ *)
(* Write generations.  [touch] is the single funnel every mutation goes
   through: it bumps the global generation and stamps that generation
   onto every 4KiB page overlapped.  Storing the *stamp* (not a count)
   lets a reader ask "did this page change since generation [gen]?" —
   whether that write came after its read or before it.

   Once a reader has asked for it ([log_writes]), [touch] also logs the
   written byte range on each page, so the reader can ask whether a
   write since some generation overlapped the exact bytes it read
   ([written_since]) instead of only its pages.  A page keeps at most
   [log_capacity] entries, oldest first.  A write drops the entries
   whose range it covers (it is newer and as wide), and extends the
   newest entry when that one is the write just before it and the two
   ranges abut — one sequential store split over two writes.  A full
   log evicts its older half and raises [floor] to the newest
   generation evicted.  A page's log starts at its first write after
   logging started, with [floor] at the page's generation then. *)

let log_capacity = 64

let log_writes mem = mem.logging <- true

let page_generation mem p =
  match Hashtbl.find mem.page_gen p with g -> g | exception Not_found -> 0

let log_write pg g lo hi =
  let log = pg.log in
  let kept = ref 0 in
  for i = 0 to pg.len - 1 do
    let j = 3 * i in
    if not (lo <= log.(j + 1) && log.(j + 2) <= hi) then begin
      let k = 3 * !kept in
      if k <> j then begin
        log.(k) <- log.(j);
        log.(k + 1) <- log.(j + 1);
        log.(k + 2) <- log.(j + 2)
      end;
      incr kept
    end
  done;
  pg.len <- !kept;
  let last = 3 * (pg.len - 1) in
  if pg.len > 0 && log.(last) = g - 1 && (lo = log.(last + 2) || hi = log.(last + 1)) then begin
    log.(last) <- g;
    log.(last + 1) <- min lo log.(last + 1);
    log.(last + 2) <- max hi log.(last + 2)
  end
  else begin
    if pg.len = log_capacity then begin
      let half = log_capacity / 2 in
      pg.floor <- log.(3 * (half - 1));
      Array.blit log (3 * half) log 0 (3 * (log_capacity - half));
      pg.len <- log_capacity - half
    end
    else if 3 * pg.len = Array.length log then
      pg.log <- Array.append log (Array.make (max 6 (Array.length log)) 0);
    let j = 3 * pg.len in
    pg.log.(j) <- g;
    pg.log.(j + 1) <- lo;
    pg.log.(j + 2) <- hi;
    pg.len <- pg.len + 1
  end

let touch mem a n =
  mem.gen <- mem.gen + 1;
  let g = mem.gen and hi = a + max n 1 in
  for p = a lsr page_bits to (hi - 1) lsr page_bits do
    if mem.logging then begin
      let pl =
        match Hashtbl.find mem.logs p with
        | pl -> pl
        | exception Not_found ->
            let pl = { floor = page_generation mem p; len = 0; log = [||] } in
            Hashtbl.add mem.logs p pl;
            pl
      in
      log_write pl g a hi
    end;
    Hashtbl.replace mem.page_gen p g
  done

let generation mem = mem.gen

(* Did a write after generation [gen] touch a byte of [lo, hi)?  Exact
   while each page's log still covers everything after [gen]; on a page
   that evicted a newer entry, or has no log at all, any write since
   [gen] counts — the page-granular answer. *)
let written_since mem ~gen lo hi =
  let overlaps pg =
    let rec scan i =
      i < pg.len
      &&
      let j = 3 * i in
      (pg.log.(j) > gen && lo < pg.log.(j + 2) && pg.log.(j + 1) < hi) || scan (i + 1)
    in
    scan 0
  in
  let rec page p last =
    p <= last
    &&
    if page_generation mem p <= gen then page (p + 1) last
    else
      match Hashtbl.find mem.logs p with
      | pl -> pl.floor > gen || overlaps pl || page (p + 1) last
      | exception Not_found -> true
  in
  hi > lo && page (lo lsr page_bits) ((hi - 1) lsr page_bits)

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

let rec holding a = function
  | [] -> raise_notrace Not_found
  | al :: rest -> if a >= al.base && a < al.base + al.size then al else holding a rest

(* The allocation [a] lies in.  @raise Not_found if none. *)
let alloc_of mem a = holding a !(Hashtbl.find mem.by_page (a lsr page_bits))

let find_alloc mem a =
  match alloc_of mem a with al -> Some (al.base, al.size, al.tag) | exception Not_found -> None

let is_live mem a =
  match alloc_of mem a with { state = Live; _ } -> true | _ | (exception Not_found) -> false

let poison_byte = '\x6b'

let free mem a =
  match alloc_of mem a with
  | { state = Live; _ } as al when al.base = a ->
      al.state <- Freed;
      mem.live <- mem.live - 1;
      mem.live_bytes <- mem.live_bytes - al.size;
      touch mem a al.size;
      spans a al.size (fun idx off _ len ->
          Bytes.fill (chunk_for_write mem idx) off len poison_byte)
  | { state = Freed; _ } -> invalid_arg "Kmem.free: double free"
  | _ -> invalid_arg "Kmem.free: not an allocation base address"
  | exception Not_found -> invalid_arg "Kmem.free: wild free"

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

let rec overlaps a n = function
  | [] -> false
  | (b, len) :: rest -> (a < b + len && b < a + n) || overlaps a n rest

let injected mem a n =
  let ranged = overlaps a n mem.poisoned in
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
  (match mem.observer with Some f -> f a n | None -> ());
  if a < kernel_base then record_fault mem (Wild_access a)
  else
    match alloc_of mem a with
    | { state = Freed; base; tag; _ } ->
        record_fault mem (Use_after_free { obj = base; tag; at = a })
    | { state = Live; _ } | (exception Not_found) -> ()

let get mem a = Bytes.get_uint8 (chunk mem (a lsr chunk_bits)) (a land off_mask)
let set mem a v =
  Bytes.set_uint8 (chunk_for_write mem (a lsr chunk_bits)) (a land off_mask) (v land 0xff)

(* An [n]-byte little-endian word ([n] = 1, 2, 4 or 8) in one chunk
   access; only a word that straddles a chunk edge goes byte by byte.
   Values are 63-bit native ints: a u64 load keeps the stored word's low
   63 bits (bit 63 dropped), a u64 store writes [v]'s 63 bits with bit
   63 clear, so every int round-trips. *)
let read_le mem a n =
  note_read mem a n;
  let off = a land off_mask in
  if injected mem a n then poison_value n
  else if off + n <= chunk_size then
    let b = chunk mem (a lsr chunk_bits) in
    match n with
    | 1 -> Bytes.get_uint8 b off
    | 2 -> Bytes.get_uint16_le b off
    | 4 -> Int32.to_int (Bytes.get_int32_le b off) land 0xffff_ffff
    | _ -> Int64.to_int (Bytes.get_int64_le b off)
  else
    let rec go i acc = if i < 0 then acc else go (i - 1) ((acc lsl 8) lor get mem (a + i)) in
    go (n - 1) 0

let write_le mem a n v =
  touch mem a n;
  let off = a land off_mask in
  if off + n <= chunk_size then
    let b = chunk_for_write mem (a lsr chunk_bits) in
    match n with
    | 1 -> Bytes.set_uint8 b off (v land 0xff)
    | 2 -> Bytes.set_uint16_le b off (v land 0xffff)
    | 4 -> Bytes.set_int32_le b off (Int32.of_int v)
    | _ -> Bytes.set_int64_le b off (Int64.logand (Int64.of_int v) Int64.max_int)
  else
    for i = 0 to n - 1 do
      set mem (a + i) ((v lsr (8 * i)) land 0xff)
    done

let read_u8 mem a = read_le mem a 1
let read_u16 mem a = read_le mem a 2
let read_u32 mem a = read_le mem a 4
let read_u64 mem a = read_le mem a 8

let sign_extend v bits =
  let m = 1 lsl (bits - 1) in
  (v lxor m) - m

let read_i8 mem a = sign_extend (read_u8 mem a) 8
let read_i16 mem a = sign_extend (read_u16 mem a) 16
let read_i32 mem a = sign_extend (read_u32 mem a) 32

(* The [n] bytes at [a], one blit per chunk. *)
let copy mem a n =
  let buf = Bytes.create n in
  spans a n (fun idx off p len -> Bytes.blit (chunk mem idx) off buf (p - a) len);
  Bytes.unsafe_to_string buf

let read_bytes mem a n =
  note_read mem a n;
  if injected mem a n then String.make n poison_byte else copy mem a n

(* Bytes before the first NUL in [\[a, a+max)], scanned chunk by chunk. *)
let rec strlen mem a max =
  let off = a land off_mask in
  let b = chunk mem (a lsr chunk_bits) and len = Int.min max (chunk_size - off) in
  let rec scan i = if i < len && Bytes.get b (off + i) <> '\000' then scan (i + 1) else i in
  let n = scan 0 in
  if n < len || len >= max then n else n + strlen mem (a + n) (max - n)

let read_cstring mem ?(max = 256) a =
  note_read mem a max;
  if injected mem a max then String.make (min max 8) poison_byte
  else copy mem a (strlen mem a max)

let write_u8 mem a v = write_le mem a 1 v
let write_u16 mem a v = write_le mem a 2 v
let write_u32 mem a v = write_le mem a 4 v
let write_u64 mem a v = write_le mem a 8 v

let write_bytes mem a s =
  touch mem a (String.length s);
  spans a (String.length s) (fun idx off p len ->
      Bytes.blit_string s (p - a) (chunk_for_write mem idx) off len)

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
let observing mem f g =
  let saved = mem.observer in
  mem.observer <- Some f;
  Fun.protect ~finally:(fun () -> mem.observer <- saved) g

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
