(* Unit + property tests for ISSUE 4: Kmem write generations, Target
   consistent sections, torn-extraction retry, the structural sanitizer
   and the chaos harness. *)

let ctx () = Kcontext.create ()
let target_of c = Target.create c.Kcontext.mem c.Kcontext.reg

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Kmem write generations *)

let prop_generation_monotone =
  QCheck.Test.make ~name:"write generations advance monotonically" ~count:100
    QCheck.(list (pair (int_bound 3) (int_bound 7)))
    (fun ops ->
      let m = Kmem.create () in
      let objs = Array.init 8 (fun _ -> Kmem.alloc m ~tag:"o" 64) in
      let ok = ref true in
      let last = ref (Kmem.generation m) in
      List.iter
        (fun (op, i) ->
          (match op with
          | 0 -> Kmem.write_u8 m objs.(i) 0xaa
          | 1 -> Kmem.write_u64 m (objs.(i) + 8) 42
          | 2 -> Kmem.write_bytes m objs.(i) "xyzzy"
          | _ -> ignore (Kmem.read_u64 m objs.(i)));
          let g = Kmem.generation m in
          (* never decreases; writes strictly advance; reads don't *)
          if g < !last then ok := false;
          if op <= 2 && g <= !last then ok := false;
          if op > 2 && g <> !last then ok := false;
          last := g;
          (* a page stamp never exceeds the global generation *)
          if Kmem.page_generation m (objs.(i) lsr Kmem.page_bits) > g then ok := false)
        ops;
      !ok)

(* ------------------------------------------------------------------ *)
(* Target consistent sections *)

let read_pid tgt a =
  Target.as_int tgt (Target.member tgt (Target.obj (Ctype.Named "task_struct") a) "pid")

let test_section_clean () =
  let c = ctx () in
  let tgt = target_of c in
  let a = Kcontext.alloc c "task_struct" in
  Kcontext.w32 c a "task_struct" "pid" 42;
  let (), dirty = Target.consistent tgt (fun () -> ignore (read_pid tgt a)) in
  Alcotest.(check (list (pair int int))) "no writer, no tear" [] dirty

let test_section_torn_after_read () =
  let c = ctx () in
  let tgt = target_of c in
  let a = Kcontext.alloc c "task_struct" in
  let (), dirty =
    Target.consistent tgt (fun () ->
        ignore (read_pid tgt a);
        (* a writer races the walk after our first read of the page *)
        Kcontext.w32 c a "task_struct" "pid" 7)
  in
  Alcotest.(check bool) "read page dirtied" true (dirty <> []);
  let lo, hi = List.hd dirty in
  Alcotest.(check bool) "torn range covers the object" true (lo <= a && a < hi)

let test_section_snapshot_mixing () =
  (* mutation between section open and the page's first read must still
     dirty the section (the snapshot mixes pre- and post-write state) *)
  let c = ctx () in
  let tgt = target_of c in
  let a = Kcontext.alloc c "task_struct" in
  let (), dirty =
    Target.consistent tgt (fun () ->
        Kcontext.w32 c a "task_struct" "pid" 7;
        ignore (read_pid tgt a))
  in
  Alcotest.(check bool) "pre-read mutation detected" true (dirty <> [])

let test_section_unrelated_page_clean () =
  let c = ctx () in
  let tgt = target_of c in
  let a = Kcontext.alloc ~align:4096 c "task_struct" in
  let b = Kcontext.alloc ~align:4096 c "task_struct" in
  let (), dirty =
    Target.consistent tgt (fun () ->
        ignore (read_pid tgt a);
        (* writer on a page this section never read: not a tear *)
        Kcontext.w32 c b "task_struct" "pid" 9)
  in
  Alcotest.(check (list (pair int int))) "unread page ignored" [] dirty

let test_torn_fault_recorded () =
  let c = ctx () in
  let tgt = target_of c in
  let a = Kcontext.alloc c "task_struct" in
  let _, faults =
    Target.with_faults tgt (fun () ->
        Target.consistent tgt (fun () ->
            ignore (read_pid tgt a);
            Kcontext.w32 c a "task_struct" "pid" 7))
  in
  let torn = List.filter (function Target.Torn _ -> true | _ -> false) faults in
  Alcotest.(check int) "one Torn fault" 1 (List.length torn);
  match torn with
  | [ Target.Torn { lo; hi } ] ->
      Alcotest.(check bool) "fault names the dirtied range" true (lo <= a && a < hi)
  | _ -> Alcotest.fail "expected Torn"

let prop_torn_soundness =
  QCheck.Test.make ~name:"section dirty iff a read page was mutated" ~count:100
    QCheck.(pair bool bool)
    (fun (mutate_read, mutate_other) ->
      let c = ctx () in
      let tgt = target_of c in
      let a = Kcontext.alloc ~align:4096 c "task_struct" in
      let b = Kcontext.alloc ~align:4096 c "task_struct" in
      let (), dirty =
        Target.consistent tgt (fun () ->
            ignore (read_pid tgt a);
            if mutate_read then Kcontext.w32 c a "task_struct" "pid" 1;
            if mutate_other then Kcontext.w32 c b "task_struct" "pid" 2)
      in
      dirty <> [] = mutate_read)

(* ------------------------------------------------------------------ *)
(* Torn-box retry at the ViewCL layer *)

let boot_session () =
  let kernel = Kstate.boot () in
  let w = Workload.create ~seed:7 kernel in
  Workload.run w;
  (kernel, w, Visualinux.attach kernel)

let test_torn_box_degrades () =
  (* a writer that dirties the target task on every read defeats every
     retry: the affected boxes degrade to [TORN] instead of raising *)
  let kernel, _, s = boot_session () in
  let ctx = kernel.Kstate.ctx in
  let task = Option.get (Kstate.find_task kernel s.Visualinux.target_pid) in
  let n = ref 0 in
  Target.set_read_hook s.Visualinux.target
    (Some
       (fun () ->
         incr n;
         Kcontext.w64 ctx task "task_struct" "se.vruntime" (1000 + !n)));
  let sc = Option.get (Scripts.find "7-1") in
  let pane, res, _ = Visualinux.plot_figure s sc in
  Target.set_read_hook s.Visualinux.target None;
  Alcotest.(check bool) "sections tore" true (res.Viewcl.torn > 0);
  Alcotest.(check bool) "retries happened" true (res.Viewcl.retried > 0);
  Alcotest.(check bool) "some box stayed torn" true (res.Viewcl.torn_boxes > 0);
  let out = Option.get (Visualinux.render_pane s pane.Panel.pid) in
  Alcotest.(check bool) "[TORN] rendered" true (contains out "[TORN]")

let chaos_run () =
  let kernel, w, s = boot_session () in
  let c = Workload.Chaos.create ~seed:99 w ~rate:0.1 in
  Workload.Chaos.arm c s.Visualinux.target;
  let sc = Option.get (Scripts.find "7-1") in
  let _, res, _ = Visualinux.plot_figure s sc in
  Workload.Chaos.disarm s.Visualinux.target;
  ignore kernel;
  ( Workload.Chaos.fired c,
    ((res.Viewcl.torn, res.Viewcl.retried), (res.Viewcl.repaired, res.Viewcl.torn_boxes)),
    Render.ascii res.Viewcl.graph )

let test_chaos_deterministic () =
  let f1, c1, out1 = chaos_run () in
  let f2, c2, out2 = chaos_run () in
  Alcotest.(check int) "same mutations fired" f1 f2;
  Alcotest.(check (pair (pair int int) (pair int int)))
    "same torn/retried/repaired/torn-box counts" c1 c2;
  Alcotest.(check string) "same rendered plot" out1 out2

(* ------------------------------------------------------------------ *)
(* Structural sanitizer: corrupted-structure verdicts *)

(* rbtree of sched_entity keyed by vruntime, as the CFS runqueue does *)
let insert_se c root key =
  let se = Kcontext.alloc c "sched_entity" in
  Kcontext.w64 c se "sched_entity" "vruntime" key;
  let node = Kcontext.fld c se "sched_entity" "run_node" in
  let key_of n = Kcontext.r64 c (n - Kcontext.off c "sched_entity" "run_node") "sched_entity" "vruntime" in
  let less a b = key_of a < key_of b in
  ignore (Krbtree.insert c root ~less node);
  se

let paint_red c n =
  let pc = Kcontext.r64 c n "rb_node" "__rb_parent_color" in
  Kcontext.w64 c n "rb_node" "__rb_parent_color" (pc land lnot 1)

let test_rbtree_red_red_verdict () =
  let c = ctx () in
  let root = Kcontext.alloc c "rb_root" in
  List.iter (fun k -> ignore (insert_se c root k)) [ 50; 20; 80; 10; 30; 70; 90; 25; 15 ];
  (match Krbtree.check c root with
  | Ok bh -> Alcotest.(check bool) "intact tree passes" true (bh > 0)
  | Error m -> Alcotest.fail m);
  (* a red-red edge: paint the root and its left child red *)
  let top = Krbtree.root_node c root in
  paint_red c top;
  (match Krbtree.left c top with 0 -> () | l -> paint_red c l);
  (match Krbtree.check c root with
  | Ok _ -> Alcotest.fail "red-red corruption missed"
  | Error _ -> ());
  (* and through the sanitizer registry on a graph box *)
  let g = Vgraph.create () in
  let b = Vgraph.add_box g ~btype:"rb_root" ~bdef:"" ~addr:root ~size:0 ~container:false in
  Vgraph.set_view b "default" [];
  Vgraph.set_root g b.Vgraph.id;
  (match Sanity.check_graph c g with
  | [ v ] ->
      Alcotest.(check string) "law" "rbtree" v.Sanity.law;
      Alcotest.(check int) "subject" root v.Sanity.subject
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs)));
  Alcotest.(check bool) "box marked suspect" true (Vgraph.suspects b <> []);
  Alcotest.(check bool) "tag rendered" true (contains (Render.ascii g) "[SUSPECT:rbtree]")

let test_rbtree_leftmost_cache_verdict () =
  let c = ctx () in
  let croot = Kcontext.alloc c "rb_root_cached" in
  let key_of n = Kcontext.r64 c (n - Kcontext.off c "sched_entity" "run_node") "sched_entity" "vruntime" in
  let less a b = key_of a < key_of b in
  List.iter
    (fun k ->
      let se = Kcontext.alloc c "sched_entity" in
      Kcontext.w64 c se "sched_entity" "vruntime" k;
      Krbtree.insert_cached c croot ~less (Kcontext.fld c se "sched_entity" "run_node"))
    [ 5; 3; 9; 1; 7 ];
  let g = Vgraph.create () in
  let b =
    Vgraph.add_box g ~btype:"rb_root_cached" ~bdef:"" ~addr:croot ~size:0 ~container:false
  in
  ignore b;
  Alcotest.(check int) "intact cache passes" 0 (List.length (Sanity.check_graph c g));
  (* scribble the leftmost cache: tree still legal, cache law violated *)
  Kcontext.w64 c croot "rb_root_cached" "rb_leftmost" 0xdead000;
  match Sanity.check_graph c g with
  | [ v ] ->
      Alcotest.(check string) "law" "rbtree" v.Sanity.law;
      Alcotest.(check bool) "names the cache" true (contains v.Sanity.reason "leftmost")
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs))

let test_maple_pivot_verdict () =
  let c = ctx () in
  let mt = Kcontext.alloc c "maple_tree" in
  let t = Kmaple.create c mt in
  let entry n = Kmem.kernel_base + 0x100000 + (n * 64) in
  Kmaple.store_range t ~lo:0x1000 ~hi:0x1fff (entry 1);
  Kmaple.store_range t ~lo:0x3000 ~hi:0x4fff (entry 2);
  Kmaple.store_range t ~lo:0x8000 ~hi:0x8fff (entry 3);
  (match Kmaple.check c mt with
  | Ok n -> Alcotest.(check bool) "intact tree passes" true (n > 0)
  | Error m -> Alcotest.fail m);
  (* break pivot monotonicity in the root leaf: raise pivot[0] past
     pivot[1], so slot 1 spans a negative range (pivot 0 itself is the
     end-of-node sentinel, so we corrupt upward, not to zero) *)
  let enc = Kcontext.r64 c mt "maple_tree" "ma_root" in
  Alcotest.(check bool) "root is a leaf node" true (Kmaple.is_node enc && Kmaple.is_leaf enc);
  let node = Kmaple.to_node enc in
  let pivot1 = Kmaple.leaf_pivot c node 1 in
  Alcotest.(check bool) "pivot[1] in use" true (pivot1 > 0);
  Kmem.write_u64 c.Kcontext.mem
    (Kcontext.fld c node "maple_node" "mr64" + Kcontext.off c "maple_range_64" "pivot")
    (pivot1 + 1);
  (match Kmaple.check c mt with
  | Ok _ -> Alcotest.fail "pivot corruption missed"
  | Error _ -> ());
  let g = Vgraph.create () in
  ignore (Vgraph.add_box g ~btype:"maple_tree" ~bdef:"" ~addr:mt ~size:0 ~container:false);
  match Sanity.check_graph c g with
  | [ v ] -> Alcotest.(check string) "law" "maple" v.Sanity.law
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs))

let test_list_symmetry_verdict () =
  let c = ctx () in
  let head = Kcontext.alloc c "list_head" in
  Klist.init c head;
  let n1 = Kcontext.alloc c "list_head" and n2 = Kcontext.alloc c "list_head" in
  Klist.add_tail c head n1;
  Klist.add_tail c head n2;
  let g = Vgraph.create () in
  ignore (Vgraph.add_box g ~btype:"list_head" ~bdef:"" ~addr:head ~size:0 ~container:false);
  Alcotest.(check int) "intact ring passes" 0 (List.length (Sanity.check_graph c g));
  (* break prev/next symmetry *)
  Kcontext.w64 c n2 "list_head" "prev" head;
  match Sanity.check_graph c g with
  | [ v ] ->
      Alcotest.(check string) "law" "list" v.Sanity.law;
      Alcotest.(check bool) "names the asymmetry" true (contains v.Sanity.reason "prev")
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 verdict, got %d" (List.length vs))

let test_registry_pluggable () =
  let c = ctx () in
  let g = Vgraph.create () in
  let b = Vgraph.add_box g ~btype:"widget" ~bdef:"" ~addr:0x1000 ~size:0 ~container:false in
  ignore b;
  Sanity.register
    {
      Sanity.law = "widget";
      applies = (fun b -> b.Vgraph.btype = "widget");
      run = (fun _ _ -> Error "always suspect");
    };
  let vs = Sanity.check_graph c g in
  Sanity.reset ();
  (match vs with
  | [ v ] -> Alcotest.(check string) "custom law ran" "widget" v.Sanity.law
  | _ -> Alcotest.fail "custom checker did not run");
  Alcotest.(check int) "reset restores builtins" 0 (List.length (Sanity.check_graph c g))

(* ------------------------------------------------------------------ *)
(* vverify end to end: a hand-corrupted runqueue rbtree is flagged *)

let test_vverify_flags_corrupted_rbtree () =
  let kernel, _, s = boot_session () in
  let ctx = kernel.Kstate.ctx in
  let sc = Option.get (Scripts.find "7-1") in
  let pane, res, _ = Visualinux.plot_figure s sc in
  (* the RBTree container box carries the walked rb_root_cached *)
  let cont =
    List.find
      (fun b -> b.Vgraph.container && b.Vgraph.addr <> 0)
      (Vgraph.boxes res.Viewcl.graph)
  in
  Alcotest.(check int) "clean tree: no verdicts" 0
    (List.length (Option.get (Visualinux.vverify s ~pane:pane.Panel.pid)));
  (* hand-corrupt: a red-red edge at the root of the runqueue tree *)
  let root = Krbtree.cached_root ctx cont.Vgraph.addr in
  let top = Krbtree.root_node ctx root in
  paint_red ctx top;
  (match Krbtree.left ctx top with 0 -> () | l -> paint_red ctx l);
  let verdicts = Option.get (Visualinux.vverify s ~pane:pane.Panel.pid) in
  Alcotest.(check bool) "rbtree verdict" true
    (List.exists (fun (v : Sanity.verdict) -> v.Sanity.law = "rbtree") verdicts);
  let out = Option.get (Visualinux.render_pane s pane.Panel.pid) in
  Alcotest.(check bool) "[SUSPECT:rbtree] rendered" true (contains out "[SUSPECT:rbtree]")

(* ------------------------------------------------------------------ *)

let suite =
  [ QCheck_alcotest.to_alcotest prop_generation_monotone;
    Alcotest.test_case "clean section" `Quick test_section_clean;
    Alcotest.test_case "torn after read" `Quick test_section_torn_after_read;
    Alcotest.test_case "snapshot mixing detected" `Quick test_section_snapshot_mixing;
    Alcotest.test_case "unrelated page ignored" `Quick test_section_unrelated_page_clean;
    Alcotest.test_case "Torn fault names the range" `Quick test_torn_fault_recorded;
    QCheck_alcotest.to_alcotest prop_torn_soundness;
    Alcotest.test_case "torn box degrades, never raises" `Quick test_torn_box_degrades;
    Alcotest.test_case "chaos is deterministic under a seed" `Quick test_chaos_deterministic;
    Alcotest.test_case "red-red rbtree verdict" `Quick test_rbtree_red_red_verdict;
    Alcotest.test_case "stale leftmost cache verdict" `Quick test_rbtree_leftmost_cache_verdict;
    Alcotest.test_case "maple pivot verdict" `Quick test_maple_pivot_verdict;
    Alcotest.test_case "list symmetry verdict" `Quick test_list_symmetry_verdict;
    Alcotest.test_case "registry is pluggable" `Quick test_registry_pluggable;
    Alcotest.test_case "vverify flags corrupted rbtree" `Quick test_vverify_flags_corrupted_rbtree ]
