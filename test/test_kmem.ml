(* Unit + property tests for the simulated kernel memory. *)

let test_alloc_zeroed () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"obj" 64 in
  Alcotest.(check bool) "in kernel space" true (a >= Kmem.kernel_base);
  for i = 0 to 63 do
    Alcotest.(check int) "zeroed" 0 (Kmem.read_u8 m (a + i))
  done

let test_alignment () =
  let m = Kmem.create () in
  ignore (Kmem.alloc m ~tag:"pad" 3);
  let a = Kmem.alloc m ~tag:"obj" 8 in
  Alcotest.(check int) "16-aligned" 0 (a land 15);
  ignore (Kmem.alloc m ~tag:"pad" 1);
  let b = Kmem.alloc m ~align:256 ~tag:"node" 256 in
  Alcotest.(check int) "256-aligned" 0 (b land 255)

let test_rw_roundtrip () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"obj" 32 in
  Kmem.write_u8 m a 0xab;
  Kmem.write_u16 m (a + 2) 0xbeef;
  Kmem.write_u32 m (a + 4) 0xdeadbeef;
  Kmem.write_u64 m (a + 8) 0x1234_5678_9abc;
  Alcotest.(check int) "u8" 0xab (Kmem.read_u8 m a);
  Alcotest.(check int) "u16" 0xbeef (Kmem.read_u16 m (a + 2));
  Alcotest.(check int) "u32" 0xdeadbeef (Kmem.read_u32 m (a + 4));
  Alcotest.(check int) "u64" 0x1234_5678_9abc (Kmem.read_u64 m (a + 8))

let test_signed_reads () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"obj" 8 in
  Kmem.write_u8 m a 0xff;
  Kmem.write_u16 m (a + 2) 0x8000;
  Kmem.write_u32 m (a + 4) 0xffff_ffff;
  Alcotest.(check int) "i8" (-1) (Kmem.read_i8 m a);
  Alcotest.(check int) "i16" (-32768) (Kmem.read_i16 m (a + 2));
  Alcotest.(check int) "i32" (-1) (Kmem.read_i32 m (a + 4))

let test_cstring () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"str" 16 in
  Kmem.write_cstring m a ~field_size:16 "hello";
  Alcotest.(check string) "read back" "hello" (Kmem.read_cstring m a);
  Kmem.write_cstring m a ~field_size:4 "truncated";
  Alcotest.(check string) "truncated" "tru" (Kmem.read_cstring m a)

let test_free_poisons () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"obj" 16 in
  Kmem.write_u64 m a 0x1234;
  Kmem.free m a;
  Kmem.clear_faults m;
  Alcotest.(check int) "poisoned" 0x6b (Kmem.read_u8 m a);
  match Kmem.faults m with
  | [ Kmem.Use_after_free { obj; tag; _ } ] ->
      Alcotest.(check int) "fault object" a obj;
      Alcotest.(check string) "fault tag" "obj" tag
  | l -> Alcotest.failf "expected one UAF fault, got %d" (List.length l)

let test_double_free_rejected () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"obj" 16 in
  Kmem.free m a;
  Alcotest.check_raises "double free" (Invalid_argument "Kmem.free: double free") (fun () ->
      Kmem.free m a)

let test_free_non_base_rejected () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"obj" 16 in
  Alcotest.check_raises "interior free"
    (Invalid_argument "Kmem.free: not an allocation base address") (fun () -> Kmem.free m (a + 8))

let test_wild_free_rejected () =
  let m = Kmem.create () in
  Alcotest.check_raises "wild free" (Invalid_argument "Kmem.free: wild free") (fun () ->
      Kmem.free m (Kmem.kernel_base + 0x100))

let test_live_tracking () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"x" 100 in
  let b = Kmem.alloc m ~tag:"y" 50 in
  Alcotest.(check int) "live count" 2 (Kmem.live_count m);
  Alcotest.(check int) "live bytes" 150 (Kmem.live_bytes m);
  Alcotest.(check bool) "a live" true (Kmem.is_live m (a + 99));
  Kmem.free m a;
  Alcotest.(check int) "after free" 1 (Kmem.live_count m);
  Alcotest.(check bool) "a dead" false (Kmem.is_live m a);
  Alcotest.(check bool) "b live" true (Kmem.is_live m b)

let test_find_alloc () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"obj" 40 in
  (match Kmem.find_alloc m (a + 39) with
  | Some (base, size, tag) ->
      Alcotest.(check int) "base" a base;
      Alcotest.(check int) "size" 40 size;
      Alcotest.(check string) "tag" "obj" tag
  | None -> Alcotest.fail "find_alloc failed");
  Alcotest.(check bool) "outside" true (Kmem.find_alloc m (a + 4096) = None)

let test_counters () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"obj" 16 in
  Kmem.reset_counters m;
  ignore (Kmem.read_u64 m a);
  ignore (Kmem.read_u32 m a);
  Alcotest.(check int) "reads" 2 (Kmem.read_count m);
  Alcotest.(check int) "bytes" 12 (Kmem.bytes_read m);
  Kmem.reset_counters m;
  Alcotest.(check int) "reset" 0 (Kmem.read_count m)

let test_wild_access_flagged () =
  let m = Kmem.create () in
  Kmem.clear_faults m;
  ignore (Kmem.read_u64 m 0x1000);
  match Kmem.faults m with
  | [ Kmem.Wild_access a ] -> Alcotest.(check int) "addr" 0x1000 a
  | _ -> Alcotest.fail "expected wild access fault"

let test_chunk_boundary () =
  (* Memory is stored in 64 KiB chunks; multi-byte accesses that straddle
     a chunk boundary must still read back correctly. *)
  let m = Kmem.create () in
  (* allocate across the first chunk boundary *)
  let a = Kmem.alloc m ~tag:"straddle" (2 * 65536) in
  let boundary = ((a / 65536) + 1) * 65536 - 3 in
  Kmem.write_u64 m boundary 0x1122_3344_5566;
  Alcotest.(check int) "u64 across chunks" 0x1122_3344_5566 (Kmem.read_u64 m boundary);
  Kmem.write_bytes m boundary "spanning!";
  Alcotest.(check string) "bytes across chunks" "spanning!" (Kmem.read_bytes m boundary 9)

(* The write log answers per byte while it holds every write since the
   asked generation, and per page once it overflowed. *)
let test_written_since () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"two pages" 8192 in
  let a = ((a lsr Kmem.page_bits) + 1) lsl Kmem.page_bits in
  let since g lo hi = Kmem.written_since m ~gen:g lo hi in
  let g = Kmem.generation m in
  Kmem.write_u8 m (a + 512) 1;
  Alcotest.(check bool) "before logging, per page" true (since g (a + 600) (a + 601));
  Kmem.log_writes m;
  let g0 = Kmem.generation m in
  Kmem.write_u32 m (a + 64) 7;
  Alcotest.(check bool) "the written bytes" true (since g0 (a + 66) (a + 67));
  Alcotest.(check bool) "its page neighbours" false (since g0 (a + 68) (a + 76));
  Alcotest.(check bool) "another page" false (since g0 (a - 64) (a - 56));
  Alcotest.(check bool) "nothing after the write" false (since (Kmem.generation m) (a + 64) (a + 68));
  (* rewriting one field over and over covers its own entry: no overflow *)
  for _ = 1 to 10 * Kmem.log_capacity do
    Kmem.write_u64 m (a + 128) 1
  done;
  Alcotest.(check bool) "a hot field leaves the rest exact" false (since g0 (a + 200) (a + 208));
  let g1 = Kmem.generation m in
  for i = 1 to Kmem.log_capacity + 1 do
    Kmem.write_u8 m (a + 1024 + (2 * i)) 0
  done;
  Alcotest.(check bool) "an overflowed page answers per page" true (since g1 (a + 200) (a + 208));
  Alcotest.(check bool) "writes after the overflow stay exact" false
    (since (Kmem.generation m - 1) (a + 200) (a + 208))

(* Property: the log never hides a write — against an unbounded
   reference log, every overlapping write since [gen] is reported. *)
let prop_written_since_sound =
  QCheck.Test.make ~name:"write log never misses an overlapping write" ~count:100
    QCheck.(pair (list_of_size (Gen.int_range 1 80) (pair (int_bound 8191) (int_range 1 16)))
              (pair (int_bound 8191) (int_range 1 64)))
    (fun (writes, (qlo, qlen)) ->
      let m = Kmem.create () in
      let base = Kmem.alloc m ~tag:"arena" (3 * 4096) in
      let base = ((base lsr Kmem.page_bits) + 1) lsl Kmem.page_bits in
      (* the first write lands before logging starts *)
      let log = List.map (fun (off, n) ->
          Kmem.write_bytes m (base + off) (String.make n 'x');
          Kmem.log_writes m;
          (Kmem.generation m, base + off, base + off + n)) writes
      in
      let lo = base + qlo and hi = base + qlo + qlen in
      List.for_all
        (fun (g, _, _) ->
          let gen = g - 1 in
          (not (List.exists (fun (g', l, h) -> g' > gen && l < hi && lo < h) log))
          || Kmem.written_since m ~gen lo hi)
        log)

(* Property: allocations never overlap. *)
let prop_no_overlap =
  QCheck.Test.make ~name:"allocations never overlap" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 40) (int_range 1 500))
    (fun sizes ->
      let m = Kmem.create () in
      let allocs = List.map (fun sz -> (Kmem.alloc m ~tag:"o" sz, sz)) sizes in
      let rec pairwise = function
        | [] -> true
        | (a, sa) :: rest ->
            List.for_all (fun (b, sb) -> a + sa <= b || b + sb <= a) rest && pairwise rest
      in
      pairwise allocs)

(* Property: bytes written are read back unchanged while live. *)
let prop_write_read =
  QCheck.Test.make ~name:"write/read roundtrip" ~count:50
    QCheck.(pair (string_of_size (Gen.int_range 1 200)) small_int)
    (fun (data, off) ->
      let off = off mod 64 in
      let m = Kmem.create () in
      let a = Kmem.alloc m ~tag:"buf" (String.length data + off + 1) in
      Kmem.write_bytes m (a + off) data;
      Kmem.read_bytes m (a + off) (String.length data) = data)

(* Property: u64 roundtrip for every int, negatives included (a u64
   store keeps the int's 63 bits and clears bit 63). *)
let prop_u64_roundtrip =
  QCheck.Test.make ~name:"u64 write/read roundtrip" ~count:100
    QCheck.int
    (fun v ->
      let m = Kmem.create () in
      let a = Kmem.alloc m ~tag:"w" 8 in
      Kmem.write_u64 m a v;
      Kmem.read_u64 m a = v)

let chunk = 65536

(* A read of a chunk nothing wrote is all zeros and materializes no
   chunk (no 64 KiB allocation), whichever chunk the last access served;
   a write after such a read lands and reads back. *)
let test_zero_chunk () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"four chunks" (4 * chunk) in
  let c1 = ((a / chunk) + 1) * chunk in
  let c2 = c1 + chunk and c3 = c1 + (2 * chunk) in
  Alcotest.(check int) "untouched chunk reads 0" 0 (Kmem.read_u64 m (c1 + 8));
  Kmem.write_u64 m (c1 + 8) 0x1234;
  Alcotest.(check int) "a write after the read reads back" 0x1234 (Kmem.read_u64 m (c1 + 8));
  let major () =
    let _, _, w = Gc.counters () in
    w
  in
  let seen = ref 0 in
  let w0 = major () in
  for i = 0 to 999 do
    (* alternate with the written chunk so the cache serves each in turn *)
    seen := !seen lor Kmem.read_u64 m (c2 + (8 * i)) lor Kmem.read_u32 m (c3 - 2);
    ignore (Kmem.read_u64 m (c1 + 8));
    seen := !seen lor Kmem.read_u8 m (c3 + i) lor String.length (Kmem.read_cstring m (c2 + i))
  done;
  let w1 = major () in
  Alcotest.(check int) "untouched memory reads 0" 0 !seen;
  Alcotest.(check bool) "reads materialize no chunk" true (w1 -. w0 < float_of_int (chunk / 8));
  Kmem.write_u8 m c3 1;
  Alcotest.(check bool) "a write does (the probe sees one)" true
    (major () -. w1 >= float_of_int (chunk / 8));
  Alcotest.(check int) "its byte" 1 (Kmem.read_u8 m c3);
  Alcotest.(check int) "the chunk before it still reads 0" 0 (Kmem.read_u64 m (c3 - 8))

(* The allocation gate: with no observer and no injection, a word store
   allocates nothing and a word load at most 2 words. *)
let test_word_access_allocation () =
  let m = Kmem.create () in
  let a = Kmem.alloc m ~tag:"obj" 64 in
  Kmem.write_u64 m a 0;
  let sink = ref 0 in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    int_of_float (Gc.minor_words () -. w0)
  in
  let n = 10_000 in
  let w = words (fun () -> for i = 1 to n do Kmem.write_u64 m (a + (8 * (i land 7))) i done) in
  let r =
    words (fun () ->
        for i = 1 to n do
          sink := !sink + Kmem.read_u64 m (a + (8 * (i land 7)))
        done)
  in
  Alcotest.(check int) "write_u64 words per access" 0 (w / n);
  Alcotest.(check bool) (Printf.sprintf "read_u64 %d words per access <= 2" (r / n)) true
    (r <= 2 * n)

(* Booting and running the evaluation workload's 200 steps (the
   benchmark's set-up kernel) allocates at most 10M minor words. *)
let test_workload_allocation () =
  let w0 = Gc.minor_words () in
  let w = Workload.create ~seed:7 (Kstate.boot ()) in
  Workload.run ~iters:200 w;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words <= 10M" words) true (words <= 10e6)

(* Differential property: random stores, frees and loads of every width
   and kind, at addresses clustered on two 64 KiB chunk edges, against a
   plain byte array holding the byte semantics (little-endian; an
   [n]-byte store keeps [v]'s low [8n] bits of its 63; a load folds the
   bytes into an int, so a u64 drops bit 63). *)
type op =
  | Store of int * int * int  (** width, offset, value *)
  | Store_bytes of int * string
  | Store_cstring of int * int option * string
  | Free of int  (** object index *)
  | Load of int * bool * int  (** width, signed, offset *)
  | Load_bytes of int * int
  | Load_cstring of int * int  (** offset, max *)

let show_op = function
  | Store (n, o, v) -> Printf.sprintf "store%d %d %d" n o v
  | Store_bytes (o, s) -> Printf.sprintf "store_bytes %d %S" o s
  | Store_cstring (o, f, s) ->
      Printf.sprintf "store_cstring %d %s %S" o
        (match f with Some n -> string_of_int n | None -> "-")
        s
  | Free i -> Printf.sprintf "free #%d" i
  | Load (n, sg, o) -> Printf.sprintf "load%s%d %d" (if sg then "i" else "u") n o
  | Load_bytes (o, n) -> Printf.sprintf "load_bytes %d %d" o n
  | Load_cstring (o, n) -> Printf.sprintf "load_cstring %d max %d" o n

(* The arena: 32 bytes before a chunk edge to 32 past the next one,
   tiled by one 64-byte object then sixteen 4 KiB ones, so the first and
   the last object each straddle an edge. *)
let arena_objs = 64 :: List.init 16 (fun _ -> 4096)
let arena = List.fold_left ( + ) 0 arena_objs
let edges = [ 32; 32 + chunk ]

let gen_op =
  let open QCheck.Gen in
  let off width =
    let* o =
      frequency
        [ (3, map2 (fun e d -> e + d) (oneofl edges) (int_range (-12) 12));
          (1, int_bound (arena - 1)) ]
    in
    return (max 0 (min o (arena - width)))
  in
  let value = oneof [ int; small_signed_int; oneofl [ min_int; max_int; -1; 0 ] ] in
  let str = string_size ~gen:(oneofl [ 'a'; 'Z'; '\000'; '\xff' ]) (int_range 0 24) in
  frequency
    [ (4, let* n = oneofl [ 1; 2; 4; 8 ] in map2 (fun o v -> Store (n, o, v)) (off n) value);
      (1, let* s = str in map (fun o -> Store_bytes (o, s)) (off (String.length s)));
      ( 1,
        let* s = str and* f = opt (int_range 1 24) in
        map (fun o -> Store_cstring (o, f, s)) (off (String.length s + 1)) );
      (1, map (fun i -> Free i) (int_bound (List.length arena_objs - 1)));
      ( 4,
        let* n = oneofl [ 1; 2; 4; 8 ] and* sg = bool in
        map (fun o -> Load (n, sg && n < 8, o)) (off n) );
      (1, let* n = int_range 0 40 in map (fun o -> Load_bytes (o, n)) (off n));
      (1, let* n = int_range 0 40 in map (fun o -> Load_cstring (o, n)) (off n)) ]

let prop_differential =
  QCheck.Test.make ~name:"word access matches a byte-array model across chunk edges" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_op))
    (fun ops ->
      let m = Kmem.create () in
      (* pad so the arena starts 32 bytes before the first chunk edge *)
      let pad = chunk - 32 - (Kmem.kernel_base land (chunk - 1)) in
      ignore (Kmem.alloc m ~align:1 ~tag:"pad" pad);
      let objs = List.map (fun n -> (Kmem.alloc m ~align:1 ~tag:"o" n, n)) arena_objs in
      let base = fst (List.hd objs) in
      let live = Array.make (List.length objs) true in
      let r = Bytes.make arena '\000' in
      let store o n v =
        for i = 0 to n - 1 do
          Bytes.set r (o + i) (Char.chr ((v lsr (8 * i)) land 0xff))
        done
      in
      let load o n =
        let rec go i acc =
          if i < 0 then acc else go (i - 1) ((acc lsl 8) lor Char.code (Bytes.get r (o + i)))
        in
        go (n - 1) 0
      in
      let sext v n = (v lxor (1 lsl ((8 * n) - 1))) - (1 lsl ((8 * n) - 1)) in
      let cstring o max =
        let rec len i = if i < max && Bytes.get r (o + i) <> '\000' then len (i + 1) else i in
        Bytes.sub_string r o (len 0)
      in
      let check what want got =
        if want <> got then QCheck.Test.fail_reportf "%s: want %S, got %S" what want got
      in
      List.iter
        (fun op ->
          let a o = base + o in
          match op with
          | Store (n, o, v) ->
              (match n with
              | 1 -> Kmem.write_u8 m (a o) v
              | 2 -> Kmem.write_u16 m (a o) v
              | 4 -> Kmem.write_u32 m (a o) v
              | _ -> Kmem.write_u64 m (a o) v);
              store o n v
          | Store_bytes (o, s) ->
              Kmem.write_bytes m (a o) s;
              Bytes.blit_string s 0 r o (String.length s)
          | Store_cstring (o, field_size, s) ->
              Kmem.write_cstring m (a o) ?field_size s;
              let s =
                match field_size with
                | Some f when String.length s >= f -> String.sub s 0 (f - 1)
                | _ -> s
              in
              Bytes.blit_string (s ^ "\000") 0 r o (String.length s + 1)
          | Free i ->
              if live.(i) then begin
                live.(i) <- false;
                let b, n = List.nth objs i in
                Kmem.free m b;
                Bytes.fill r (b - base) n '\x6b'
              end
          | Load (n, signed, o) ->
              let got =
                match (n, signed) with
                | 1, false -> Kmem.read_u8 m (a o)
                | 2, false -> Kmem.read_u16 m (a o)
                | 4, false -> Kmem.read_u32 m (a o)
                | 1, true -> Kmem.read_i8 m (a o)
                | 2, true -> Kmem.read_i16 m (a o)
                | 4, true -> Kmem.read_i32 m (a o)
                | _ -> Kmem.read_u64 m (a o)
              in
              let want = if signed then sext (load o n) n else load o n in
              check (show_op op) (string_of_int want) (string_of_int got)
          | Load_bytes (o, n) ->
              check (show_op op) (Bytes.sub_string r o n) (Kmem.read_bytes m (a o) n)
          | Load_cstring (o, max) ->
              check (show_op op) (cstring o max) (Kmem.read_cstring m ~max (a o)))
        ops;
      check "every byte" (Bytes.to_string r) (Kmem.read_bytes m base arena);
      true)

let suite =
  [ Alcotest.test_case "alloc zeroed" `Quick test_alloc_zeroed;
    Alcotest.test_case "alignment" `Quick test_alignment;
    Alcotest.test_case "rw roundtrip" `Quick test_rw_roundtrip;
    Alcotest.test_case "signed reads" `Quick test_signed_reads;
    Alcotest.test_case "cstring" `Quick test_cstring;
    Alcotest.test_case "free poisons + UAF fault" `Quick test_free_poisons;
    Alcotest.test_case "double free rejected" `Quick test_double_free_rejected;
    Alcotest.test_case "interior free rejected" `Quick test_free_non_base_rejected;
    Alcotest.test_case "wild free rejected" `Quick test_wild_free_rejected;
    Alcotest.test_case "live tracking" `Quick test_live_tracking;
    Alcotest.test_case "find_alloc" `Quick test_find_alloc;
    Alcotest.test_case "access counters" `Quick test_counters;
    Alcotest.test_case "wild access flagged" `Quick test_wild_access_flagged;
    Alcotest.test_case "chunk boundary access" `Quick test_chunk_boundary;
    Alcotest.test_case "write log: per byte, then per page" `Quick test_written_since;
    Alcotest.test_case "zero chunk and chunk cache" `Quick test_zero_chunk;
    Alcotest.test_case "word access allocation gate" `Quick test_word_access_allocation;
    Alcotest.test_case "boot + 200 workload steps allocation gate" `Quick
      test_workload_allocation;
    QCheck_alcotest.to_alcotest prop_written_since_sound;
    QCheck_alcotest.to_alcotest prop_no_overlap;
    QCheck_alcotest.to_alcotest prop_write_read;
    QCheck_alcotest.to_alcotest prop_u64_roundtrip;
    QCheck_alcotest.to_alcotest prop_differential ]
