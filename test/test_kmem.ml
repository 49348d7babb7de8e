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

(* Property: u64 roundtrip for arbitrary non-negative ints. *)
let prop_u64_roundtrip =
  QCheck.Test.make ~name:"u64 write/read roundtrip" ~count:100
    QCheck.(int_bound max_int)
    (fun v ->
      let m = Kmem.create () in
      let a = Kmem.alloc m ~tag:"w" 8 in
      Kmem.write_u64 m a v;
      Kmem.read_u64 m a = v)

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
    QCheck_alcotest.to_alcotest prop_written_since_sound;
    QCheck_alcotest.to_alcotest prop_no_overlap;
    QCheck_alcotest.to_alcotest prop_write_read;
    QCheck_alcotest.to_alcotest prop_u64_roundtrip ]
