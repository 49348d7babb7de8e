(* Robustness of the target layer: typed faults, fault injection,
   bounded traversal, and graceful degradation of ViewCL extraction —
   the paper's case studies plot *corrupted* kernels (dangling and
   low-bit-tagged pointers), so extraction must never hang or abort. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let session () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  (k, Visualinux.attach k)

(* ------------------------------------------------------------------ *)
(* Kmem injection hooks *)

let test_injection_hooks () =
  let mem = Kmem.create () in
  let a = Kmem.alloc mem ~tag:"obj" 64 in
  Kmem.write_u64 mem a 0xdeadbeef;
  (* address-range poisoning *)
  Kmem.poison_range mem a 8;
  let v = Kmem.read_u64 mem a in
  Alcotest.(check bool) "poisoned read corrupted" true (v <> 0xdeadbeef);
  (match Kmem.faults mem with
  | [ Kmem.Injected at ] -> Alcotest.(check int) "fault names the address" a at
  | _ -> Alcotest.fail "expected exactly one Injected fault");
  Kmem.clear_injection mem;
  Kmem.clear_faults mem;
  Alcotest.(check int) "clean after clear_injection" 0xdeadbeef (Kmem.read_u64 mem a);
  (* probabilistic failure is deterministic under a fixed seed *)
  let trace () =
    Kmem.inject_read_failures mem ~seed:42 0.5;
    List.init 100 (fun i -> Kmem.read_u8 mem (a + (i mod 64)))
  in
  let c0 = Kmem.fault_count mem in
  let r1 = trace () in
  let c1 = Kmem.fault_count mem in
  let r2 = trace () in
  Alcotest.(check bool) "same seed, same corruption" true (r1 = r2);
  Alcotest.(check bool) "some reads failed" true (c1 > c0);
  Alcotest.(check int) "and deterministically many" (c1 - c0) (Kmem.fault_count mem - c1);
  Kmem.clear_injection mem;
  Kmem.clear_faults mem;
  (* bit flips corrupt silently: data changes, no fault *)
  Kmem.write_u8 mem (a + 1) 0x0f;
  Kmem.flip_bits mem (a + 1) ~mask:0xff;
  Alcotest.(check int) "bits flipped" 0xf0 (Kmem.read_u8 mem (a + 1));
  Alcotest.(check int) "silent corruption" 0 (Kmem.fault_count mem)

(* qcheck: read/write round-trips for every width at random offsets *)
let roundtrip_test =
  let mem = Kmem.create () in
  let base = Kmem.alloc mem ~tag:"roundtrip" 8192 in
  QCheck.Test.make ~name:"kmem read/write round-trips (all widths, random offsets)" ~count:500
    QCheck.(triple (int_bound 8000) (pair (int_bound 0x3FFFFFFF) (int_bound 0x3FFFFFFF))
              (oneofl [ 1; 2; 4; 8 ]))
    (fun (off, (lo, hi), w) ->
      let a = base + off in
      let v = lo lor (hi lsl 30) in
      let bits = 8 * w in
      let expect = if w = 8 then v else v land ((1 lsl bits) - 1) in
      (match w with
      | 1 -> Kmem.write_u8 mem a v
      | 2 -> Kmem.write_u16 mem a v
      | 4 -> Kmem.write_u32 mem a v
      | _ -> Kmem.write_u64 mem a v);
      let got =
        match w with
        | 1 -> Kmem.read_u8 mem a
        | 2 -> Kmem.read_u16 mem a
        | 4 -> Kmem.read_u32 mem a
        | _ -> Kmem.read_u64 mem a
      in
      let signed =
        match w with
        | 1 -> Kmem.read_i8 mem a
        | 2 -> Kmem.read_i16 mem a
        | 4 -> Kmem.read_i32 mem a
        | _ -> Kmem.read_u64 mem a
      in
      let sexpect =
        if w = 8 then expect
        else
          let m = 1 lsl (bits - 1) in
          (expect lxor m) - m
      in
      got = expect && signed = sexpect)

(* ------------------------------------------------------------------ *)
(* Typed faults in Target *)

let small_reg () =
  let reg = Ctype.create_registry () in
  Ctype.define_struct reg "cell"
    [ Ctype.F ("x", Ctype.u64); Ctype.F ("next", Ctype.Ptr (Ctype.Named "cell")) ];
  reg

let test_typed_faults () =
  let mem = Kmem.create () in
  let reg = small_reg () in
  let tgt = Target.create mem reg in
  let a = Kmem.alloc mem ~tag:"cell" 16 in
  Kmem.write_u64 mem a 7;
  (* clean read: no faults *)
  Alcotest.(check int) "clean read" 7
    (Target.as_int tgt (Target.member tgt (Target.obj (Ctype.Named "cell") a) "x"));
  Alcotest.(check int) "no faults yet" 0 (Target.fault_count tgt);
  (* null *)
  ignore (Target.as_int tgt (Target.member tgt (Target.obj (Ctype.Named "cell") 0) "x"));
  (match Target.faults tgt with
  | [ Target.Null_deref _ ] -> ()
  | fs -> Alcotest.failf "expected Null_deref, got %d faults" (List.length fs));
  Target.clear_faults tgt;
  (* wild *)
  ignore (Target.as_int tgt (Target.obj Ctype.u32 0x1234_5678));
  (match Target.faults tgt with
  | [ Target.Wild_access { at = 0x1234_5678 } ] -> ()
  | _ -> Alcotest.fail "expected Wild_access");
  Target.clear_faults tgt;
  (* use-after-free: poison comes back, fault recorded, no exception *)
  Kmem.free mem a;
  let v = Target.as_int tgt (Target.member tgt (Target.obj (Ctype.Named "cell") a) "x") in
  Alcotest.(check bool) "poison value" true (v <> 7);
  (match Target.faults tgt with
  | [ Target.Use_after_free { obj; tag = "cell"; _ } ] -> Alcotest.(check int) "base" a obj
  | _ -> Alcotest.fail "expected Use_after_free");
  Target.clear_faults tgt;
  (* misaligned: dereferencing a poison (odd) pointer is flagged *)
  let garbage = Target.ptr_to (Ctype.Named "cell") 0x6b6b6b6b6b6b in
  ignore (Target.member tgt garbage "x");
  Alcotest.(check bool) "misaligned flagged" true
    (List.exists (function Target.Misaligned _ -> true | _ -> false) (Target.faults tgt));
  Target.clear_faults tgt;
  (* bad cast *)
  ignore (Target.cast tgt Ctype.Void (Target.int_value 3));
  (match Target.faults tgt with
  | [ Target.Bad_cast _ ] -> ()
  | _ -> Alcotest.fail "expected Bad_cast");
  Target.clear_faults tgt;
  (* structural misuse still raises, as test_target pins down *)
  (match Target.deref tgt (Target.int_value 5) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deref of int must raise")

let test_with_faults_nesting () =
  let tgt = Target.create (Kmem.create ()) (small_reg ()) in
  let (), outer =
    Target.with_faults tgt (fun () ->
        Target.record_fault tgt (Target.Wild_access { at = 1 });
        let (), inner =
          Target.with_faults tgt (fun () ->
              Target.record_fault tgt (Target.Null_deref { at = 0; ctx = "t" }))
        in
        Alcotest.(check int) "inner sees its own fault" 1 (List.length inner))
  in
  Alcotest.(check int) "outer does not see nested faults" 1 (List.length outer);
  Alcotest.(check int) "journal sees both" 2 (Target.fault_count tgt)

let test_target_mirrors_injection () =
  let mem = Kmem.create () in
  let tgt = Target.create mem (small_reg ()) in
  let a = Kmem.alloc mem ~tag:"cell" 16 in
  Kmem.poison_range mem a 16;
  ignore (Target.as_int tgt (Target.member tgt (Target.obj (Ctype.Named "cell") a) "x"));
  Alcotest.(check bool) "Injected mirrored into Target journal" true
    (List.exists (function Target.Injected _ -> true | _ -> false) (Target.faults tgt))

(* qcheck: no Target operation raises while reads are being corrupted.
   The ops below are all type-correct; whatever garbage injection makes
   them read must surface as journal faults, never as exceptions. *)
let no_raise_test =
  let k, s = session () in
  ignore k;
  let tgt = s.Visualinux.target in
  let mem = Target.mem tgt in
  let init = Target.as_int tgt (Cexpr.eval_string tgt "&init_task") in
  QCheck.Test.make ~name:"no Target operation raises under fault injection" ~count:300
    QCheck.(pair (int_bound 0xFFFF) (int_bound 6))
    (fun (seed, op) ->
      Kmem.inject_read_failures mem ~seed 0.4;
      Kmem.poison_range mem (init + (seed mod 512)) 32;
      let t = Target.ptr_to (Ctype.Named "task_struct") init in
      let ok =
        match
          match op with
          | 0 -> ignore (Target.as_int tgt (Target.member_path tgt t [ "mm"; "mm_mt"; "ma_root" ]))
          | 1 -> ignore (Target.as_string tgt (Target.member tgt t "comm"))
          | 2 -> ignore (Target.as_int tgt (Target.member_path tgt t [ "parent"; "pid" ]))
          | 3 ->
              let mm = Target.member tgt t "mm" in
              ignore (Target.truthy tgt (Target.member tgt mm "mm_mt"))
          | 4 -> ignore (Target.load tgt (Target.index tgt (Target.member tgt t "comm") (seed mod 16)))
          | 5 -> ignore (Target.as_int tgt (Target.cast tgt Ctype.char (Target.member tgt t "pid")))
          | _ -> ignore (Target.as_int tgt (Target.deref tgt (Target.member tgt t "mm")))
        with
        | () -> true
        | exception _ -> false
      in
      Kmem.clear_injection mem;
      Target.clear_faults tgt;
      Kmem.clear_faults mem;
      ok)

(* ------------------------------------------------------------------ *)
(* Cycle guards: circular chains truncate instead of hanging *)

let test_cycle_guard_synthetic () =
  let mem = Kmem.create () in
  let reg = Ctype.create_registry () in
  Ctype.define_struct reg "list_head"
    [ Ctype.F ("next", Ctype.Ptr (Ctype.Named "list_head"));
      Ctype.F ("prev", Ctype.Ptr (Ctype.Named "list_head")) ];
  Ctype.define_struct reg "node"
    [ Ctype.F ("lh", Ctype.Named "list_head"); Ctype.F ("v", Ctype.u64) ];
  let tgt = Target.create mem reg in
  let head = Kmem.alloc mem ~tag:"list_head" 16 in
  let n1 = Kmem.alloc mem ~tag:"node" 24 in
  let n2 = Kmem.alloc mem ~tag:"node" 24 in
  let n3 = Kmem.alloc mem ~tag:"node" 24 in
  (* head -> n1 -> n2 -> n3 -> n2: a cycle that never returns to head *)
  Kmem.write_u64 mem head n1;
  Kmem.write_u64 mem n1 n2;
  Kmem.write_u64 mem n2 n3;
  Kmem.write_u64 mem n3 n2;
  List.iteri (fun i n -> Kmem.write_u64 mem (n + 16) (i + 1)) [ n1; n2; n3 ];
  Target.add_symbol tgt "chain" (Target.obj (Ctype.Named "list_head") head);
  let res =
    Viewcl.run tgt
      {|
define N as Box<node> [ Text<u64:x> v ]
a = List(${&chain}).forEach |n| { yield N<node.lh>(@n) }
plot @a
|}
  in
  let g = res.Viewcl.graph in
  let container = List.find (fun b -> b.Vgraph.container) (Vgraph.boxes g) in
  Alcotest.(check int) "three nodes before the cycle closes" 3
    (List.length container.Vgraph.members);
  Alcotest.(check bool) "truncation recorded as a typed fault" true
    (List.exists (function Target.Truncated _ -> true | _ -> false) (Target.faults tgt));
  Alcotest.(check bool) "graph still renders" true (String.length (Render.ascii g) > 0)

let test_cycle_guard_kernel () =
  let _, s = session () in
  let tgt = s.Visualinux.target in
  let head = Target.as_int tgt (Cexpr.eval_string tgt "&init_task.children") in
  let next a =
    Target.as_int tgt (Target.member tgt (Target.obj (Ctype.Named "list_head") a) "next")
  in
  let n1 = next head in
  let n2 = next n1 in
  Alcotest.(check bool) "init has two children" true (n1 <> head && n2 <> head);
  (* corrupt the sibling list into a cycle that skips the head *)
  Kmem.write_u64 (Target.mem tgt) n2 n1;
  let res =
    Viewcl.run ~cfg:(Visualinux.config ()) tgt
      {|
define T as Box<task_struct> [ Text pid, comm ]
a = List(${&init_task.children}).forEach |n| { yield T<task_struct.sibling>(@n) }
plot @a
|}
  in
  let g = res.Viewcl.graph in
  Alcotest.(check bool) "truncated, not hung: plot produced boxes" true (Vgraph.box_count g > 0);
  Alcotest.(check bool) "Truncated fault names the revisited node" true
    (List.exists
       (function Target.Truncated { at; _ } -> at = n1 | _ -> false)
       (Target.faults tgt))

(* ------------------------------------------------------------------ *)
(* Graceful degradation: a freed object in the plot becomes a broken
   box (the ISSUE's acceptance scenario). *)

let test_broken_box_in_plot () =
  let _, s = session () in
  let tgt = s.Visualinux.target in
  (* free the root maple node of the target's mm out from under the tree *)
  let node =
    Target.as_int tgt
      (Cexpr.eval_string tgt "mte_to_node(task_of_pid(target_pid)->mm->mm_mt.ma_root)")
  in
  Kmem.free (Target.mem tgt) node;
  Target.clear_faults tgt;
  (* the StackRot figure must still plot end-to-end *)
  let _, res, stats = Visualinux.vplot s ~title:"uaf-replot" Scripts.cve_stackrot in
  Alcotest.(check bool) "plot completed with boxes" true (stats.Visualinux.boxes > 0);
  let g = res.Viewcl.graph in
  let broken = List.filter (fun b -> Vgraph.broken b <> None) (Vgraph.boxes g) in
  Alcotest.(check bool) "a broken box is present" true (broken <> []);
  Alcotest.(check bool) "the fault is named on the box" true
    (List.exists
       (fun b ->
         match Vgraph.broken b with
         | Some reason -> contains reason "use-after-free" && contains reason "maple_node"
         | None -> false)
       broken);
  (* the degradation is visible in the rendered output *)
  let txt = Render.ascii g in
  Alcotest.(check bool) "ascii marks the box [BROKEN]" true (contains txt "[BROKEN]");
  Alcotest.(check bool) "ascii names the fault" true (contains txt "use-after-free")

let test_plot_under_injection () =
  (* whole-figure extraction survives probabilistic read corruption:
     fixed seeds, so a regression here is reproducible *)
  let _, s = session () in
  let mem = Target.mem s.Visualinux.target in
  let sc = Option.get (Scripts.find "7-1") in
  List.iter
    (fun seed ->
      Kmem.inject_read_failures mem ~seed 0.02;
      let _, _, stats = Visualinux.plot_figure s sc in
      Alcotest.(check bool)
        (Printf.sprintf "figure plots under injection (seed %d)" seed)
        true
        (stats.Visualinux.boxes > 0))
    [ 1; 2; 3; 4; 5 ];
  Kmem.clear_injection mem

let suite =
  [ Alcotest.test_case "kmem injection hooks" `Quick test_injection_hooks;
    QCheck_alcotest.to_alcotest roundtrip_test;
    Alcotest.test_case "typed faults (journal, not exceptions)" `Quick test_typed_faults;
    Alcotest.test_case "with_faults nesting" `Quick test_with_faults_nesting;
    Alcotest.test_case "Kmem injection mirrored into Target" `Quick test_target_mirrors_injection;
    QCheck_alcotest.to_alcotest no_raise_test;
    Alcotest.test_case "cycle guard: synthetic circular list" `Quick test_cycle_guard_synthetic;
    Alcotest.test_case "cycle guard: corrupted kernel sibling list" `Quick test_cycle_guard_kernel;
    Alcotest.test_case "broken box: freed maple node still plots" `Quick test_broken_box_in_plot;
    Alcotest.test_case "figures plot under read injection" `Quick test_plot_under_injection ]
