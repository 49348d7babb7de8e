(* See target.mli for the contract.  The split that matters here:

   - navigation computes locations, observation performs reads;
   - memory trouble (dangling, wild, null, tagged pointers, injected
     corruption) lands in the fault journal and the read yields
     poison/zero — it never raises;
   - structural misuse (deref of an int, unknown field) raises
     [Invalid_argument], which Cexpr turns into [Eval_error]. *)

type addr = int
type location = Lval of addr | Rval of int | Rstr of string
type value = { typ : Ctype.t; loc : location }

type fault =
  | Use_after_free of { obj : addr; tag : string; at : addr }
  | Wild_access of { at : addr }
  | Null_deref of { at : addr; ctx : string }
  | Misaligned of { at : addr; want : int; ctx : string }
  | Bad_cast of { from_ : string; to_ : string }
  | Injected of { at : addr }
  | Truncated of { at : addr; ctx : string }
  | Timed_out of { at : addr; ctx : string }
  | Link_lost of { at : addr; ctx : string; detail : string }
  | Torn of { lo : addr; hi : addr }

(* A consistent section, seqlock-style.  [sec_start] is the global
   write generation when the section opened; [sec_pages] maps each page
   touched by a checked read to the page's generation stamp at its
   *first* read.  At section end a page is dirty when its stamp moved
   since first read (a write raced the walk) or its first-read stamp
   already postdates [sec_start] (the snapshot mixes before/after
   state — the case a plain per-page counter cannot see).  Sections
   nest; a checked read registers its pages in the innermost open
   section only, giving per-box granularity to the retry layer. *)
type section = { sec_start : int; sec_pages : (int, int) Hashtbl.t }

type t = {
  kmem : Kmem.t;
  reg : Ctype.registry;
  symbols : (string, value) Hashtbl.t;
  macros : (string, int) Hashtbl.t;
  helpers : (string, helper) Hashtbl.t;
  mutable journal : fault list;  (* newest first *)
  mutable nfaults : int;
  mutable sinks : fault list ref list;  (* innermost with_faults first *)
  mutable transport : Transport.t option;  (* None: reads are local/free *)
  mutable sections : section list;  (* innermost consistent section first *)
  mutable read_hook : (unit -> unit) option;  (* chaos: fired between reads *)
  mutable in_hook : bool;  (* reentrancy guard for [read_hook] *)
  (* Generation-validated read cache (transport-avoidance only): page
     index -> Kmem page generation at fill.  A lookup is a hit when
     every page of the read still carries its fill-time generation; any
     Kmem write bumps the page's generation, invalidating lazily. *)
  rcache : (int, int) Hashtbl.t;
  mutable cache_on : bool;
  mutable ch_hits : int;
  mutable ch_misses : int;
}

and helper = t -> value list -> value

let create kmem reg =
  {
    kmem;
    reg;
    symbols = Hashtbl.create 64;
    macros = Hashtbl.create 64;
    helpers = Hashtbl.create 64;
    journal = [];
    nfaults = 0;
    sinks = [];
    transport = None;
    sections = [];
    read_hook = None;
    in_hook = false;
    rcache = Hashtbl.create 1024;
    cache_on = true;
    ch_hits = 0;
    ch_misses = 0;
  }

let mem t = t.kmem
let types t = t.reg
let set_transport t tr = t.transport <- Some tr
let transport t = t.transport

let deadline_exceeded t =
  match t.transport with Some tr -> Transport.deadline_exceeded tr | None -> false

(* ------------------------------------------------------------------ *)
(* Fault journal *)

let fault_to_string = function
  | Use_after_free { obj; tag; at } ->
      Printf.sprintf "use-after-free: %s@0x%x (read at 0x%x)" tag obj at
  | Wild_access { at } -> Printf.sprintf "wild-access: 0x%x" at
  | Null_deref { at; ctx } -> Printf.sprintf "null-deref: 0x%x in %s" at ctx
  | Misaligned { at; want; ctx } ->
      Printf.sprintf "misaligned: 0x%x (need %d-byte alignment) in %s" at want ctx
  | Bad_cast { from_; to_ } -> Printf.sprintf "bad-cast: %s -> %s" from_ to_
  | Injected { at } -> Printf.sprintf "injected-fault: 0x%x" at
  | Truncated { at; ctx } -> Printf.sprintf "truncated %s at 0x%x" ctx at
  | Timed_out { at; ctx } -> Printf.sprintf "deadline-exceeded: 0x%x in %s" at ctx
  | Link_lost { at; ctx; detail } -> Printf.sprintf "link-lost (%s): 0x%x in %s" detail at ctx
  | Torn { lo; hi } -> Printf.sprintf "torn-read: [0x%x,0x%x) mutated during extraction" lo hi

let pp_fault ppf f = Format.pp_print_string ppf (fault_to_string f)

(* Obs is the registry of record for read accounting; [stats] below
   stays as the per-target facade over Kmem's counters. *)
let c_reads = Obs.Counter.make "target.reads"
let c_bytes = Obs.Counter.make "target.bytes"
let c_faults = Obs.Counter.make "target.faults"

let record_fault t f =
  t.nfaults <- t.nfaults + 1;
  t.journal <- f :: t.journal;
  if Obs.enabled () then begin
    Obs.Counter.incr c_faults;
    Obs.instant ~cat:"target" ~attrs:[ ("fault", fault_to_string f) ] "target.fault"
  end;
  match t.sinks with s :: _ -> s := f :: !s | [] -> ()

let faults t = List.rev t.journal
let fault_count t = t.nfaults

let clear_faults t =
  t.journal <- [];
  t.nfaults <- 0

let with_faults t f =
  let sink = ref [] in
  t.sinks <- sink :: t.sinks;
  let pop () = t.sinks <- (match t.sinks with _ :: rest -> rest | [] -> []) in
  match f () with
  | x ->
      pop ();
      (x, List.rev !sink)
  | exception e ->
      pop ();
      raise e

(* ------------------------------------------------------------------ *)
(* Consistent sections and the chaos read hook *)

let begin_consistent t =
  let sec = { sec_start = Kmem.generation t.kmem; sec_pages = Hashtbl.create 16 } in
  t.sections <- sec :: t.sections;
  sec

(* Register the pages of an [n]-byte read at [a] in the innermost open
   section, stamping each page with its current generation the first
   time the section sees it.  Innermost-only gives per-box granularity:
   a nested section (a child box's build) owns its reads, so a tear in
   a child does not dirty — and needlessly re-extract — its ancestors.
   One list match when no section is open. *)
let observe_read t a n =
  match t.sections with
  | [] -> ()
  | sec :: _ ->
      let first = a lsr Kmem.page_bits and last = (a + max n 1 - 1) lsr Kmem.page_bits in
      for p = first to last do
        if not (Hashtbl.mem sec.sec_pages p) then
          Hashtbl.add sec.sec_pages p (Kmem.page_generation t.kmem p)
      done

let c_torn = Obs.Counter.make "target.torn"

let end_consistent t sec =
  t.sections <- List.filter (fun s -> s != sec) t.sections;
  let dirty =
    Hashtbl.fold
      (fun p stamp acc ->
        if stamp > sec.sec_start || Kmem.page_generation t.kmem p <> stamp then p :: acc
        else acc)
      sec.sec_pages []
  in
  (* coalesce adjacent dirty pages into [lo, hi) byte ranges *)
  let rec ranges = function
    | [] -> []
    | p :: rest ->
        let rec extend q = function
          | r :: tl when r = q + 1 -> extend r tl
          | tl -> (q, tl)
        in
        let q, rest = extend p rest in
        (p lsl Kmem.page_bits, (q + 1) lsl Kmem.page_bits) :: ranges rest
  in
  let dirty = ranges (List.sort compare dirty) in
  List.iter
    (fun (lo, hi) ->
      if Obs.enabled () then Obs.Counter.incr c_torn;
      record_fault t (Torn { lo; hi }))
    dirty;
  dirty

let consistent t f =
  let sec = begin_consistent t in
  match f () with
  | x -> (x, end_consistent t sec)
  | exception e ->
      ignore (end_consistent t sec);
      raise e

(* The (page, first-read generation stamp) pairs a section observed.  For
   a section that closed clean these are exactly the pages the build
   read, each with its still-current generation — the validity key an
   incremental re-plot needs: the snapshot is reusable until some page's
   generation moves. *)
let section_pages sec =
  Hashtbl.fold (fun p stamp acc -> (p, stamp) :: acc) sec.sec_pages []
  |> List.sort compare

let pages_current t pages =
  List.for_all (fun (p, stamp) -> Kmem.page_generation t.kmem p = stamp) pages

let set_read_hook t h = t.read_hook <- h

(* Fire the chaos hook after a performed read.  The guard stops a hook
   whose mutators themselves go through this target from recursing. *)
let fire_read_hook t =
  match t.read_hook with
  | Some h when not t.in_hook ->
      t.in_hook <- true;
      Fun.protect ~finally:(fun () -> t.in_hook <- false) h
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Checked reads *)

(* First page is the null guard: reads there are null dereferences and
   are not performed at all. *)
let null_guard = 4096

(* Copy any injection faults Kmem recorded during a read into our own
   journal, so the box being extracted sees them. *)
let mirror_injected t c0 =
  if Kmem.fault_count t.kmem > c0 then
    List.iter
      (function Kmem.Injected at -> record_fault t (Injected { at }) | _ -> ())
      (Kmem.faults_since t.kmem c0)

(* Validate [a] against the allocation map.  Returns false when the
   read must be suppressed entirely (null page); otherwise the read
   proceeds — freed memory yields its poison bytes, wild memory zeros —
   with the matching fault recorded. *)
let validate t ~ctx a =
  if a >= 0 && a < null_guard then begin
    record_fault t (Null_deref { at = a; ctx });
    false
  end
  else begin
    (match Kmem.find_alloc t.kmem a with
    | Some (base, _, tag) ->
        if not (Kmem.is_live t.kmem a) then
          record_fault t (Use_after_free { obj = base; tag; at = a })
    | None -> record_fault t (Wild_access { at = a }));
    true
  end

(* Route one read over the transport (when attached).  The Kmem thunk
   only runs if the transport lets the read through: an open breaker, a
   dead link or an exhausted deadline budget refuses the read entirely,
   records the matching typed fault, and yields [default] — extraction
   degrades to broken boxes instead of blocking on a flaky link. *)
let transported t ~ctx ~at ~bytes ~default perform =
  match t.transport with
  | None -> perform ()
  | Some tr -> (
      match Transport.fetch tr ~bytes perform with
      | Ok v -> v
      | Error err ->
          (match err with
          | Transport.Deadline_exceeded -> record_fault t (Timed_out { at; ctx })
          | err ->
              record_fault t
                (Link_lost { at; ctx; detail = Transport.error_to_string err }));
          default)

(* ------------------------------------------------------------------ *)
(* Generation-validated read cache.

   The cache avoids transport round-trips, nothing else: a hit skips
   [Transport.fetch] but still performs the Kmem read, so read counters,
   consistent-section page registration, injection draws and the chaos
   hook all behave exactly as on the uncached path — a cached run and an
   uncached run issue the same Kmem read sequence.  Without a transport
   reads are local and free, so the cache is bypassed entirely (and
   counts nothing).

   It is also the only coalescer.  A miss is charged the read's own
   bytes on the wire, and stamps every page the read touched as fetched,
   so later reads of a struct on the same page skip the wire. *)

let c_hits = Obs.Counter.make "cache.hits"
let c_misses = Obs.Counter.make "cache.misses"

let pages_fresh t a n =
  let last = (a + max n 1 - 1) lsr Kmem.page_bits in
  let rec go p =
    p > last
    || (match Hashtbl.find_opt t.rcache p with
       | Some g -> g = Kmem.page_generation t.kmem p && go (p + 1)
       | None -> false)
  in
  go (a lsr Kmem.page_bits)

let fill_pages t a n =
  for p = a lsr Kmem.page_bits to (a + max n 1 - 1) lsr Kmem.page_bits do
    Hashtbl.replace t.rcache p (Kmem.page_generation t.kmem p)
  done

type cache_stats = { hits : int; misses : int; coalesced : int }

let cache_stats t = { hits = t.ch_hits; misses = t.ch_misses; coalesced = 0 }

let set_read_cache t on =
  t.cache_on <- on;
  if not on then Hashtbl.reset t.rcache

let clear_read_cache t = Hashtbl.reset t.rcache

(* The cache only ever substitutes for fetches the transport would have
   served: while the link is down or the breaker is open, every read
   must go through (and be refused by) the transport, so that crash
   semantics — stale panes, Link_lost faults, frozen read counters —
   are identical with and without caching. *)
let cache_usable t tr =
  t.cache_on && Transport.link tr = Transport.Up && Transport.breaker tr = Transport.Closed

(* The running hit rate as a metrics gauge, refreshed on every cache
   decision while obs is on — so cache effectiveness shows up in the
   gauges registry of any BENCH_*.json, not only as raw counters. *)
let hit_rate_gauge t =
  let total = t.ch_hits + t.ch_misses in
  if total > 0 then
    Obs.Metrics.set_gauge "cache.hit_rate" (float_of_int t.ch_hits /. float_of_int total)

let cache_hit t =
  t.ch_hits <- t.ch_hits + 1;
  if Obs.enabled () then begin
    Obs.Counter.incr c_hits;
    hit_rate_gauge t
  end

let cache_miss t =
  if t.cache_on then begin
    t.ch_misses <- t.ch_misses + 1;
    if Obs.enabled () then begin
      Obs.Counter.incr c_misses;
      hit_rate_gauge t
    end
  end

(* The one checked-read body.  [read] performs the Kmem read and returns
   the value, the bytes it counts and the extent it touched.  [extent]
   is what the hit test validates and what a miss puts on the wire; a
   miss then stamps every page the read touched, so the later reads of
   the same page hit.  Refused reads (null page, refused fetch) yield
   [default]. *)
let checked_read t ~ctx a ~extent ~default read =
  if not (validate t ~ctx a) then default
  else begin
    let perform () =
      let c0 = Kmem.fault_count t.kmem in
      let v, bytes, touched = read () in
      Obs.Counter.incr c_reads;
      Obs.Counter.add c_bytes bytes;
      observe_read t a touched;
      mirror_injected t c0;
      (v, touched)
    in
    let go () =
      match t.transport with
      | None -> fst (perform ())
      | Some tr when cache_usable t tr && pages_fresh t a extent ->
          cache_hit t;
          fst (perform ())
      | Some _ ->
          cache_miss t;
          transported t ~ctx ~at:a ~bytes:extent ~default (fun () ->
              let v, touched = perform () in
              if t.cache_on then fill_pages t a touched;
              v)
    in
    let v = if Obs.enabled () then Obs.with_span ~cat:"target" "target.read" go else go () in
    fire_read_hook t;
    v
  end

let read_scalar t ~ctx a size signed =
  checked_read t ~ctx a ~extent:size ~default:0 (fun () ->
      let v =
        match (size, signed) with
        | 1, false -> Kmem.read_u8 t.kmem a
        | 1, true -> Kmem.read_i8 t.kmem a
        | 2, false -> Kmem.read_u16 t.kmem a
        | 2, true -> Kmem.read_i16 t.kmem a
        | 4, false -> Kmem.read_u32 t.kmem a
        | 4, true -> Kmem.read_i32 t.kmem a
        | _ -> Kmem.read_u64 t.kmem a
      in
      (v, size, size))

(* A string's extent is unknown before the read, so the hit test
   validates its first 8-byte granule.  Data is always re-read from
   Kmem, so a stale tail page can only mean an extra skipped round-trip,
   never stale bytes. *)
let read_str t ~ctx a reader =
  checked_read t ~ctx a ~extent:8 ~default:"" (fun () ->
      let s = reader t.kmem a in
      (s, String.length s, max 8 (String.length s + 1)))

(* A pointer about to be followed: a value misaligned for its pointee is
   the signature of a low-bit-tagged or garbage pointer (the paper's
   StackRot plot is full of them). *)
let check_align t ~ctx pointee p =
  if p < 0 || p >= null_guard then begin
    let al = try Ctype.alignof t.reg pointee with Invalid_argument _ -> 1 in
    if al > 1 && p land (al - 1) <> 0 then
      record_fault t (Misaligned { at = p; want = al; ctx })
  end

(* ------------------------------------------------------------------ *)
(* Constructors *)

let obj typ a = { typ; loc = Lval a }
let ptr_to typ a = { typ = Ctype.Ptr typ; loc = Rval a }
let int_value n = { typ = Ctype.long; loc = Rval n }
let bool_value b = { typ = Ctype.Bool; loc = Rval (if b then 1 else 0) }
let str_value s = { typ = Ctype.charp; loc = Rstr s }
let null_ptr = { typ = Ctype.voidp; loc = Rval 0 }

(* ------------------------------------------------------------------ *)
(* Observation *)

let as_int t v =
  match v.loc with
  | Rval n -> n
  | Rstr _ -> invalid_arg "Target.as_int: string value has no integer reading"
  | Lval a -> (
      match Ctype.strip t.reg v.typ with
      | Ctype.Ptr _ -> read_scalar t ~ctx:"as_int" a 8 false
      | Ctype.Bool -> read_scalar t ~ctx:"as_int" a 1 false
      | Ctype.Int ik -> read_scalar t ~ctx:"as_int" a ik.Ctype.ik_size ik.Ctype.ik_signed
      (* aggregates (and void/function symbols) decay to their address *)
      | Ctype.Array _ | Ctype.Named _ | Ctype.Func _ | Ctype.Void -> a)

let addr_of v =
  match v.loc with
  | Lval a -> a
  | Rval _ | Rstr _ -> invalid_arg "Target.addr_of: not an lvalue"

(* The integer value of a pointer-typed [v]. *)
let pointer_value t v =
  match v.loc with
  | Rval n -> n
  | Rstr _ -> invalid_arg "Target.deref: string value is not a pointer"
  | Lval a -> read_scalar t ~ctx:"pointer load" a 8 false

let truthy t v =
  match v.loc with Rstr s -> s <> "" | Rval n -> n <> 0 | Lval _ -> as_int t v <> 0

let is_charlike = function
  | Ctype.Int ik -> ik.Ctype.ik_size = 1
  | Ctype.Void -> true
  | _ -> false

let as_string t v =
  match (v.loc, v.typ) with
  | Rstr s, _ -> s
  | _, Ctype.Array (elt, n) when is_charlike elt ->
      let a = addr_of v in
      let raw = read_str t ~ctx:"string read" a (fun m x -> Kmem.read_bytes m x n) in
      (match String.index_opt raw '\000' with
      | Some i -> String.sub raw 0 i
      | None -> raw)
  | _, Ctype.Ptr elt when is_charlike elt ->
      let p = pointer_value t v in
      (* NULL string pointers are routine in kernel structs; read as "" *)
      if p = 0 then ""
      else read_str t ~ctx:"C-string read" p (fun m x -> Kmem.read_cstring m x)
  | _ ->
      invalid_arg
        (Printf.sprintf "Target.as_string: %s has no string reading" (Ctype.to_string v.typ))

let load t v =
  match v.loc with
  | Rval _ | Rstr _ -> v
  | Lval _ -> (
      match Ctype.strip t.reg v.typ with
      | Ctype.Int _ | Ctype.Bool | Ctype.Ptr _ -> { typ = v.typ; loc = Rval (as_int t v) }
      | _ -> v)

(* ------------------------------------------------------------------ *)
(* Navigation *)

let member t v fname =
  let comp, base =
    match v.typ with
    | Ctype.Named n -> (
        match v.loc with
        | Lval a -> (n, a)
        | Rval _ | Rstr _ ->
            invalid_arg
              (Printf.sprintf "Target.member: %S value is not in memory (.%s)" n fname))
    | Ctype.Ptr (Ctype.Named n) ->
        (* GDB-style auto-dereference: p->f *)
        let p = pointer_value t v in
        check_align t ~ctx:("->" ^ fname) (Ctype.Named n) p;
        (n, p)
    | ty ->
        invalid_arg
          (Printf.sprintf "Target.member: %s has no member %S" (Ctype.to_string ty) fname)
  in
  match Ctype.field_opt t.reg comp fname with
  | None -> invalid_arg (Printf.sprintf "Target.member: no field %S in %S" fname comp)
  | Some f -> (
      match f.Ctype.fbit with
      | None -> { typ = f.Ctype.ftyp; loc = Lval (base + f.Ctype.foffset) }
      | Some (bit, width) ->
          (* a bit range has no address: extract immediately *)
          let unit_sz = Ctype.sizeof t.reg f.Ctype.ftyp in
          let raw = read_scalar t ~ctx:("." ^ fname) (base + f.Ctype.foffset) unit_sz false in
          { typ = f.Ctype.ftyp; loc = Rval ((raw lsr bit) land ((1 lsl width) - 1)) })

let member_path t v path =
  List.fold_left (member t) v (String.split_on_char '.' path)

let index t v i =
  match v.typ with
  | Ctype.Array (elt, _) ->
      (* no bounds check: GDB computes the address regardless, and the
         liveness check on the eventual read flags genuine overruns *)
      let base =
        match v.loc with
        | Lval a -> a
        | Rval _ | Rstr _ -> invalid_arg "Target.index: array value is not in memory"
      in
      { typ = elt; loc = Lval (base + (i * Ctype.sizeof t.reg elt)) }
  | Ctype.Ptr ((Ctype.Void | Ctype.Func _) as e) ->
      invalid_arg (Printf.sprintf "Target.index: cannot index %s pointer" (Ctype.to_string e))
  | Ctype.Ptr elt ->
      let p = pointer_value t v in
      check_align t ~ctx:(Printf.sprintf "[%d]" i) elt p;
      { typ = elt; loc = Lval (p + (i * Ctype.sizeof t.reg elt)) }
  | ty -> invalid_arg (Printf.sprintf "Target.index: %s is not indexable" (Ctype.to_string ty))

let deref t v =
  match v.typ with
  | Ctype.Ptr (Ctype.Func _) -> invalid_arg "Target.deref: function pointer"
  | Ctype.Ptr Ctype.Void -> invalid_arg "Target.deref: void pointer"
  | Ctype.Ptr inner ->
      let p = pointer_value t v in
      check_align t ~ctx:"deref" inner p;
      { typ = inner; loc = Lval p }
  | ty -> invalid_arg (Printf.sprintf "Target.deref: %s is not a pointer" (Ctype.to_string ty))

let cast t ty v =
  let bad () =
    record_fault t (Bad_cast { from_ = Ctype.to_string v.typ; to_ = Ctype.to_string ty });
    { typ = ty; loc = v.loc }
  in
  match v.loc with
  | Rstr _ -> ( match Ctype.strip t.reg ty with Ctype.Ptr _ -> { typ = ty; loc = v.loc } | _ -> bad ())
  | Rval _ | Lval _ -> (
      match Ctype.strip t.reg ty with
      | Ctype.Bool -> { typ = ty; loc = Rval (if as_int t v <> 0 then 1 else 0) }
      | Ctype.Int ik ->
          let n = as_int t v in
          let n =
            if ik.Ctype.ik_size >= 8 then n
            else
              let bits = 8 * ik.Ctype.ik_size in
              let m = n land ((1 lsl bits) - 1) in
              if ik.Ctype.ik_signed && m land (1 lsl (bits - 1)) <> 0 then m - (1 lsl bits)
              else m
          in
          { typ = ty; loc = Rval n }
      | Ctype.Ptr _ -> { typ = ty; loc = Rval (as_int t v) }
      | Ctype.Named _ | Ctype.Array _ -> (
          (* reinterpret memory: an integer becomes the address *)
          match v.loc with
          | Lval a | Rval a -> { typ = ty; loc = Lval a }
          | Rstr _ -> bad ())
      | Ctype.Void | Ctype.Func _ -> bad ())

let container_of t a comp field =
  obj (Ctype.Named comp) (a - Ctype.offsetof t.reg comp field)

(* ------------------------------------------------------------------ *)
(* Symbols, macros, helpers *)

let add_symbol t name v = Hashtbl.replace t.symbols name v
let add_macro t name n = Hashtbl.replace t.macros name n
let add_helper t name h = Hashtbl.replace t.helpers name h

let lookup_symbol t name =
  match Hashtbl.find_opt t.symbols name with
  | Some v -> Some v
  | None -> (
      match Hashtbl.find_opt t.macros name with
      | Some n -> Some (int_value n)
      | None -> (
          match Ctype.lookup_enum_const t.reg name with
          | Some (ename, v) -> Some { typ = Ctype.Named ename; loc = Rval v }
          | None -> None))

let lookup_helper t name = Hashtbl.find_opt t.helpers name

let call_helper t name args =
  match lookup_helper t name with
  | Some h -> h t args
  | None -> invalid_arg (Printf.sprintf "Target.call_helper: unknown helper %S" name)

(* ------------------------------------------------------------------ *)
(* Read accounting and latency models *)

type stats = { reads : int; bytes : int }

let stats t = { reads = Kmem.read_count t.kmem; bytes = Kmem.bytes_read t.kmem }
let reset_stats t = Kmem.reset_counters t.kmem

(* The link cost model now lives in Transport (the connection layer owns
   its own latency profile); re-exported here so existing callers keep
   working unchanged. *)
type profile = Transport.profile = {
  pname : string;
  rtt_ms : float;
  byte_ms : float;
}

let qemu_local = Transport.qemu_local
let kgdb_rpi = Transport.kgdb_rpi
let kgdb_rpi400 = Transport.kgdb_rpi400

let simulated_ms p st =
  (float_of_int st.reads *. p.rtt_ms) +. (float_of_int st.bytes *. p.byte_ms)
