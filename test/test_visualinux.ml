(* Integration tests: the full framework against the booted kernel,
   covering the paper's evaluation claims C1-C4. *)

let session () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  (k, w, Visualinux.attach k)

(* Every library script is syntactically valid ViewCL (no kernel needed). *)
let test_scripts_parse () =
  let types = (Kcontext.create ()).Kcontext.reg in
  List.iter
    (fun (sc : Scripts.script) ->
      match Viewcl.parse types sc.Scripts.source with
      | prog ->
          Alcotest.(check bool)
            (Printf.sprintf "fig %s has a plot statement" sc.Scripts.fig)
            true
            (List.exists (function Viewcl.Ast.Plot _ -> true | _ -> false) prog)
      | exception Viewcl.Error m ->
          Alcotest.failf "fig %s does not parse: %s" sc.Scripts.fig m)
    Scripts.table2;
  List.iter
    (fun src ->
      match Viewcl.parse types src with
      | _ -> ()
      | exception Viewcl.Error m -> Alcotest.failf "CVE script does not parse: %s" m)
    [ Scripts.cve_stackrot; Scripts.cve_dirtypipe ];
  (* LoC accounting matches the paper's order of magnitude *)
  List.iter
    (fun sc ->
      let loc = Scripts.loc sc in
      Alcotest.(check bool)
        (Printf.sprintf "fig %s LoC in range (%d)" sc.Scripts.fig loc)
        true
        (loc >= 8 && loc <= 160))
    Scripts.table2

(* C1: every Table 2 figure extracts a non-trivial plot. *)
let test_all_figures_plot () =
  let _, _, s = session () in
  List.iter
    (fun (sc : Scripts.script) ->
      let _, res, stats = Visualinux.plot_figure s sc in
      Alcotest.(check bool)
        (Printf.sprintf "fig %s yields boxes" sc.Scripts.fig)
        true
        (stats.Visualinux.boxes > 0);
      Alcotest.(check bool)
        (Printf.sprintf "fig %s reads the target" sc.Scripts.fig)
        true
        (stats.Visualinux.reads > 0);
      Alcotest.(check bool)
        (Printf.sprintf "fig %s has a root" sc.Scripts.fig)
        true
        (Vgraph.roots res.Viewcl.graph <> []))
    Scripts.table2

let expected_types =
  [ ("3-4", "task_struct"); ("3-6", "upid"); ("4-5", "irq_desc"); ("6-1", "timer_base");
    ("7-1", "cfs_rq"); ("8-2", "zone"); ("8-4", "kmem_cache"); ("9-2", "maple_node");
    ("11-1", "sighand_struct"); ("12-3", "fdtable"); ("13-3", "kobject");
    ("14-3", "super_block"); ("15-1", "xa_node"); ("16-2", "address_space");
    ("17-1", "anon_vma"); ("17-6", "swap_info_struct"); ("19-1/2", "sem_array");
    ("workqueue", "worker_pool"); ("proc2vfs", "dentry"); ("socketconn", "sock") ]

let test_figures_contain_expected_types () =
  let _, _, s = session () in
  List.iter
    (fun (fig, ty) ->
      let sc = Option.get (Scripts.find fig) in
      let _, res, _ = Visualinux.plot_figure s sc in
      Alcotest.(check bool)
        (Printf.sprintf "fig %s contains %s" fig ty)
        true
        (Vgraph.of_type res.Viewcl.graph ty <> []))
    expected_types

(* C2: all ten objectives, through vchat, have the intended effect. *)
let test_objectives_end_to_end () =
  let _, _, s = session () in
  List.iter
    (fun (o : Objectives.objective) ->
      let sc = Option.get (Scripts.find o.Objectives.fig) in
      let pane, _, _ = Visualinux.plot_figure s sc in
      let _, _updated = Visualinux.vchat s ~pane:pane.Panel.pid o.Objectives.text in
      let g = pane.Panel.graph in
      List.iter
        (fun (e : Objectives.expect) ->
          let affected =
            List.filter
              (fun b ->
                let a = b.Vgraph.attrs in
                (b.Vgraph.btype = e.Objectives.exp_type || b.Vgraph.bdef = e.Objectives.exp_type)
                && (match e.Objectives.exp_attr with
                   | "view" -> a.Vgraph.view <> "default"
                   | "collapsed" -> a.Vgraph.collapsed
                   | "trimmed" -> a.Vgraph.trimmed
                   | "direction" -> a.Vgraph.direction = Vgraph.Vertical
                   | _ -> false))
              (Vgraph.boxes g)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s on >=%d %s boxes" o.Objectives.fig e.Objectives.exp_attr
               e.Objectives.exp_min e.Objectives.exp_type)
            true
            (List.length affected >= e.Objectives.exp_min))
        o.Objectives.expects)
    Objectives.all

(* C3a: StackRot — deferred free visible on the RCU list, then UAF. *)
let test_stackrot_case_study () =
  let k, _, s = session () in
  let ctx = k.Kstate.ctx in
  let target = Option.get (Kstate.find_task k s.Visualinux.target_pid) in
  let mm = Ksyscall.mm_of k target in
  let mt = Kcontext.fld ctx mm "mm_struct" "mm_mt" in
  Kmm.mmap_read_lock ctx mm ~cpu:1;
  let stale = Kmaple.read_nodes ctx mt in
  let tree = Kmm.tree_of k.Kstate.mm mm in
  let vma = Kmm.vma_alloc k.Kstate.mm mm ~start:0x7fff_0000_0000 ~end_:0x7fff_0001_0000
      ~flags:0x103 ~file:0 ~pgoff:0 in
  Kmaple.store_range ~free:(Kstate.ma_free_rcu k) tree ~lo:0x7fff_0000_0000
    ~hi:0x7fff_0000_ffff vma;
  (* plot shows the RCU waiting list holding the dying nodes, still live *)
  let _, res, _ = Visualinux.vplot s ~title:"stackrot" Scripts.cve_stackrot in
  let heads = Vgraph.of_type res.Viewcl.graph "callback_head" in
  Alcotest.(check int) "RCU list plotted" (List.length stale) (List.length heads);
  List.iter
    (fun b ->
      match Vgraph.field b "node_dead" with
      | Some (Vgraph.Fbool dead) -> Alcotest.(check bool) "not dead yet" false dead
      | _ -> Alcotest.fail "node_dead field missing")
    heads;
  (* grace period -> free -> reader faults *)
  Krcu.run_grace_period k.Kstate.rcu;
  Kmem.clear_faults ctx.Kcontext.mem;
  ignore (Kcontext.r64 ctx (List.hd stale) "maple_node" "parent");
  (match Kmem.faults ctx.Kcontext.mem with
  | Kmem.Use_after_free { tag = "maple_node"; _ } :: _ -> ()
  | _ -> Alcotest.fail "expected a maple_node UAF");
  Kmm.mmap_read_unlock ctx mm

(* C3b: Dirty Pipe — ViewQL narrows the plot to the one shared page. *)
let test_dirtypipe_case_study () =
  let k, _, s = session () in
  let ctx = k.Kstate.ctx in
  let target = Option.get (Kstate.find_task k s.Visualinux.target_pid) in
  let _, file = Ksyscall.openat k target ~name:"test.txt" ~size:4096 in
  let pipe, _, _ = Ksyscall.pipe k target in
  for i = 1 to 16 do
    Ksyscall.write_pipe k pipe (Printf.sprintf "j%d" i);
    ignore (Kpipe.read ctx pipe)
  done;
  let buf = Ksyscall.splice k ~file ~pipe ~index:0 ~len:1 ~buggy:true in
  Alcotest.(check bool) "CAN_MERGE leaked" true
    (Kcontext.r32 ctx buf "pipe_buffer" "flags" land Ktypes.pipe_buf_flag_can_merge <> 0);
  let pane, res, _ = Visualinux.vplot s ~title:"dirtypipe" Scripts.cve_dirtypipe in
  let shared_page = Kcontext.r64 ctx buf "pipe_buffer" "page" in
  ignore
    (Panel.refine s.Visualinux.panel ~at:pane.Panel.pid
       {|file_pgc = SELECT file->pagecache FROM *
file_pgs = SELECT page FROM REACHABLE(file_pgc)
pipe_buf = SELECT pipe_inode_info->bufs FROM *
pipe_pgs = SELECT page FROM REACHABLE(pipe_buf)
UPDATE pipe_pgs \ file_pgs WITH trimmed: true|});
  (* every pipe-only page is now trimmed; the shared page survives *)
  let g = res.Viewcl.graph in
  let shared_boxes =
    List.filter (fun b -> b.Vgraph.addr = shared_page) (Vgraph.of_type g "page")
  in
  Alcotest.(check int) "shared page plotted once" 1 (List.length shared_boxes);
  Alcotest.(check bool) "shared page survives the trim" false
    (List.hd shared_boxes).Vgraph.attrs.Vgraph.trimmed;
  (* and its pipe_buffer shows the poisonous flag *)
  let bufs = Vgraph.of_type g "pipe_buffer" in
  let flagged =
    List.filter
      (fun b ->
        match Vgraph.field b "flags" with
        | Some (Vgraph.Fint f) -> f land Ktypes.pipe_buf_flag_can_merge <> 0
        | _ -> false)
      bufs
  in
  Alcotest.(check bool) "CAN_MERGE visible in plot" true (flagged <> [])

(* C4: the latency model orders the two scenarios as the paper measures. *)
let test_perf_model_shape () =
  let _, _, s = session () in
  let sc = Option.get (Scripts.find "7-1") in
  let _, _, stats = Visualinux.plot_figure s sc in
  let st = { Target.reads = stats.Visualinux.reads; bytes = stats.Visualinux.read_bytes } in
  let qemu = Target.simulated_ms Target.qemu_local st in
  let kgdb = Target.simulated_ms Target.kgdb_rpi400 st in
  Alcotest.(check bool) "QEMU in human range" true (qemu > 0.1 && qemu < 1000.);
  Alcotest.(check bool) "KGDB ~50x slower" true (kgdb /. qemu > 20. && kgdb /. qemu < 120.)

(* The paper's Fig 2 workflow: two panes + cross-pane focus. *)
let test_focus_workflow () =
  let k, _, s = session () in
  let pane1, _, _ = Visualinux.plot_figure s (Option.get (Scripts.find "3-4")) in
  (match
     Visualinux.vctrl s
       (Visualinux.Split
          { pane = pane1.Panel.pid; dir = `Horizontal;
            program = (Option.get (Scripts.find "7-1")).Scripts.source })
   with
  | Visualinux.Opened _ -> ()
  | _ -> Alcotest.fail "split failed");
  (* pick a task present in both the parent tree and the sched tree *)
  let target = Option.get (Kstate.find_task k s.Visualinux.target_pid) in
  (match Visualinux.vctrl s (Visualinux.Focus { addr = target }) with
  | Visualinux.Found hits ->
      let panes = List.sort_uniq compare (List.map fst hits) in
      Alcotest.(check int) "found in both panes" 2 (List.length panes)
  | _ -> Alcotest.fail "focus failed")

(* Rendering real figures stays consistent under ViewQL updates. *)
let test_render_real_figure () =
  let _, _, s = session () in
  let pane, res, _ = Visualinux.plot_figure s (Option.get (Scripts.find "9-2")) in
  (* expose the maple tree view first, then trim inside it *)
  ignore
    (Panel.refine s.Visualinux.panel ~at:pane.Panel.pid
       "m = SELECT mm_struct FROM *\nUPDATE m WITH view: show_mt");
  let before = List.length (Vgraph.visible res.Viewcl.graph) in
  ignore
    (Panel.refine s.Visualinux.panel ~at:pane.Panel.pid
       "w = SELECT vm_area_struct FROM * WHERE is_writable == true\nUPDATE w WITH trimmed: true");
  let after = List.length (Vgraph.visible res.Viewcl.graph) in
  Alcotest.(check bool) "trim reduces visible set" true (after < before);
  let out = Render.ascii res.Viewcl.graph in
  Alcotest.(check bool) "renders" true (String.length out > 200)

(* vplot's naive ViewCL synthesis (paper §4). *)
let test_vplot_auto () =
  let _, _, s = session () in
  (* every composite's synthesis parses: its bare field paths and
     [<enum:T>] decorators name members and enums of the registry *)
  let reg = Target.types s.Visualinux.target in
  List.iter
    (fun typ ->
      match Viewcl.parse reg (Visualinux.synthesize_viewcl reg ~typ ~expr:"0") with
      | _ -> ()
      | exception Viewcl.Error m -> Alcotest.failf "synthesis for %s does not parse: %s" typ m)
    (Ctype.composite_names reg);
  let vplot_auto ~typ ~expr =
    Visualinux.vplot s
      (Visualinux.synthesize_viewcl (Target.types s.Visualinux.target) ~typ ~expr)
  in
  let _, res, _ = vplot_auto ~typ:"rq" ~expr:"cpu_rq(0)" in
  (match Vgraph.boxes res.Viewcl.graph with
  | [ b ] ->
      Alcotest.(check string) "typed" "rq" b.Vgraph.btype;
      Alcotest.(check bool) "scalar fields shown" true
        (Vgraph.field b "nr_running" <> None && Vgraph.field b "cpu" <> None)
  | l -> Alcotest.failf "expected 1 box, got %d" (List.length l));
  (* unknown type rejected *)
  match vplot_auto ~typ:"nope" ~expr:"0" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure"

(* Session persistence: programs + ViewQL history replay on a fresh boot. *)
let test_session_replay () =
  let _, _, s1 = session () in
  let sc = Option.get (Scripts.find "7-1") in
  let pane, _, _ = Visualinux.plot_figure s1 sc in
  let ql = "a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: true" in
  ignore (Panel.refine s1.Visualinux.panel ~at:pane.Panel.pid ql);
  let collapsed_tasks g =
    let tasks = Vgraph.of_type g "task_struct" in
    tasks <> [] && List.for_all (fun b -> b.Vgraph.attrs.Vgraph.collapsed) tasks
  in
  (* replay the program + history on a brand-new kernel *)
  let _, _, s2 = session () in
  (match Visualinux.replay s2 [ (sc.Scripts.source, [ ql ]) ] with
  | [ (_, res) ] ->
      let tasks = Vgraph.of_type res.Viewcl.graph "task_struct" in
      Alcotest.(check bool) "plot re-extracted" true (tasks <> []);
      Alcotest.(check bool) "history re-applied" true (collapsed_tasks res.Viewcl.graph)
  | _ -> Alcotest.fail "replay failed");
  (* the journal is the persisted session: recover it on a fresh boot *)
  let journal = Panel.journal s1.Visualinux.panel in
  Alcotest.(check int) "journal holds the plot and its refinement" 2 (List.length journal);
  let _, _, s3 = session () in
  Alcotest.(check int) "no stale panes" 0 (Visualinux.recover ~ops:journal s3);
  let p3 = Panel.pane s3.Visualinux.panel pane.Panel.pid in
  Alcotest.(check (list string)) "history recovered" [ ql ] p3.Panel.history;
  Alcotest.(check bool) "recovered plot refined" true (collapsed_tasks p3.Panel.graph)

(* Extraction is deterministic: same seed, same kernel, same rendered
   figure — byte for byte (addresses included). *)
let test_extraction_deterministic () =
  let render_all () =
    let _, _, s = session () in
    String.concat "\n---\n"
      (List.map
         (fun sc ->
           let _, res, _ = Visualinux.plot_figure s sc in
           Render.ascii res.Viewcl.graph)
         Scripts.table2)
  in
  let a = render_all () and b = render_all () in
  Alcotest.(check bool) "identical output across boots" true (a = b)

(* Re-plotting the same program in one session reuses nothing (fresh
   graph) but produces an isomorphic plot. *)
let test_replot_isomorphic () =
  let _, _, s = session () in
  let sc = Option.get (Scripts.find "7-1") in
  let _, r1, _ = Visualinux.plot_figure s sc in
  let _, r2, _ = Visualinux.plot_figure s sc in
  Alcotest.(check bool) "distinct graphs" true (r1.Viewcl.graph != r2.Viewcl.graph);
  Alcotest.(check string) "same rendering" (Render.ascii r1.Viewcl.graph)
    (Render.ascii r2.Viewcl.graph)

let test_plot_stats_sane () =
  let _, _, s = session () in
  let sc = Option.get (Scripts.find "8-4") in
  let _, res, stats = Visualinux.plot_figure s sc in
  Alcotest.(check int) "box count matches graph" (Vgraph.box_count res.Viewcl.graph)
    stats.Visualinux.boxes;
  Alcotest.(check int) "bytes match sizeof sum" (Vgraph.total_bytes res.Viewcl.graph)
    stats.Visualinux.bytes;
  Alcotest.(check bool) "wall time measured" true (stats.Visualinux.wall_ms >= 0.)

(* The pane-extraction contract of every entry point that runs a pane's
   program against the target (vplot, Split, vrefresh, refresh_stale,
   recover), each on a dead link and with a program that raises
   Viewcl.Error: the value returned, the pane's [STALE] flag, and whether
   the pane's plot cache survived. *)
let test_extraction_contract () =
  let kernel = Kstate.boot () in
  Workload.run (Workload.create kernel);
  let good = (Option.get (Scripts.find "7-1")).Scripts.source in
  let bad = "define" in
  let fresh () =
    let tr = Transport.create Transport.qemu_local in
    (tr, Visualinux.attach ~transport:tr kernel)
  in
  let stale s id = (Panel.pane s.Visualinux.panel id).Panel.stale in
  let cached s id = Hashtbl.mem s.Visualinux.caches id in
  (* a primary pane holding [bad], with a plot cache the failure must drop *)
  let bad_pane ?stale s =
    let p = Panel.open_primary ?stale s.Visualinux.panel ~program:bad (Vgraph.create ()) in
    Hashtbl.replace s.Visualinux.caches p.Panel.pid (Viewcl.create_cache ());
    p.Panel.pid
  in
  let raises_error f =
    match f () with _ -> false | exception Viewcl.Error _ -> true
  in
  let check_bool = Alcotest.(check bool) in
  (* vplot *)
  let tr, s = fresh () in
  Transport.disconnect tr;
  let p, _, stats = Visualinux.vplot s good in
  check_bool "vplot down: pane opened live" false (stale s p.Panel.pid);
  check_bool "vplot down: cache kept" true (cached s p.Panel.pid);
  check_bool "vplot down: degraded plot" true (stats.Visualinux.boxes < 5);
  let _, s = fresh () in
  check_bool "vplot error: raises" true (raises_error (fun () -> Visualinux.vplot s bad));
  Alcotest.(check (list int)) "vplot error: no pane" [] (Panel.pane_ids s.Visualinux.panel);
  check_bool "vplot error: no cache" true (Hashtbl.length s.Visualinux.caches = 0);
  (* vctrl Split *)
  let split s program =
    Visualinux.vctrl s (Visualinux.Split { pane = 1; dir = `Vertical; program })
  in
  let tr, s = fresh () in
  ignore (Visualinux.vplot s good);
  Transport.disconnect tr;
  (match split s good with
  | Visualinux.Opened id ->
      Alcotest.(check int) "split down: new pane" 2 id;
      check_bool "split down: pane live" false (stale s id);
      check_bool "split down: cache kept" true (cached s id)
  | _ -> Alcotest.fail "split down: expected Opened");
  let _, s = fresh () in
  ignore (Visualinux.vplot s good);
  check_bool "split error: raises" true (raises_error (fun () -> split s bad));
  Alcotest.(check (list int)) "split error: no new pane" [ 1 ]
    (Panel.pane_ids s.Visualinux.panel);
  check_bool "split error: no new cache" false (cached s 2);
  (* vrefresh *)
  let tr, s = fresh () in
  let p, _, _ = Visualinux.vplot s good in
  Transport.disconnect tr;
  check_bool "vrefresh down: None" true (Visualinux.vrefresh s ~pane:p.Panel.pid = None);
  check_bool "vrefresh down: stale" true (stale s p.Panel.pid);
  check_bool "vrefresh down: cache kept" true (cached s p.Panel.pid);
  let _, s = fresh () in
  let id = bad_pane s in
  check_bool "vrefresh error: None" true (Visualinux.vrefresh s ~pane:id = None);
  check_bool "vrefresh error: stale" true (stale s id);
  check_bool "vrefresh error: cache dropped" false (cached s id);
  (* refresh_stale *)
  let tr, s = fresh () in
  let p, _, _ = Visualinux.vplot s good in
  Panel.mark_all_stale s.Visualinux.panel;
  Transport.disconnect tr;
  Alcotest.(check (list int)) "refresh_stale down: nothing live" []
    (Visualinux.refresh_stale s);
  check_bool "refresh_stale down: stale" true (stale s p.Panel.pid);
  check_bool "refresh_stale down: cache kept" true (cached s p.Panel.pid);
  let _, s = fresh () in
  let id = bad_pane ~stale:true s in
  Alcotest.(check (list int)) "refresh_stale error: nothing live" []
    (Visualinux.refresh_stale s);
  check_bool "refresh_stale error: stale" true (stale s id);
  check_bool "refresh_stale error: cache dropped" false (cached s id);
  (* recover *)
  let tr, s = fresh () in
  let p, _, _ = Visualinux.vplot s good in
  let before = Hashtbl.find s.Visualinux.caches p.Panel.pid in
  Transport.disconnect tr;
  Alcotest.(check int) "recover down: reconnects, nothing stale" 0 (Visualinux.recover s);
  check_bool "recover down: link up" true (Transport.link tr = Transport.Up);
  check_bool "recover down: pane live" false (stale s p.Panel.pid);
  (* the pre-crash cache is gone; the pane holds the replay's own *)
  check_bool "recover down: caches reset to the replay's" true
    (Hashtbl.length s.Visualinux.caches = 1
    && Hashtbl.find s.Visualinux.caches p.Panel.pid != before);
  (match Visualinux.vrefresh s ~pane:p.Panel.pid with
  | Some (res, _) -> Alcotest.(check int) "recover down: next refresh warm" 0 res.Viewcl.cache_misses
  | None -> Alcotest.fail "recover down: refresh refused");
  let _, s = fresh () in
  let id = bad_pane s in
  Alcotest.(check int) "recover error: one stale pane" 1 (Visualinux.recover s);
  check_bool "recover error: stale" true (stale s id);
  check_bool "recover error: caches reset" true (Hashtbl.length s.Visualinux.caches = 0)

let suite =
  [ Alcotest.test_case "script library parses" `Quick test_scripts_parse;
    Alcotest.test_case "C1: all Table-2 figures plot" `Slow test_all_figures_plot;
    Alcotest.test_case "C1: figures contain expected types" `Slow test_figures_contain_expected_types;
    Alcotest.test_case "C2: objectives via vchat" `Slow test_objectives_end_to_end;
    Alcotest.test_case "C3: StackRot case study" `Quick test_stackrot_case_study;
    Alcotest.test_case "C3: Dirty Pipe case study" `Quick test_dirtypipe_case_study;
    Alcotest.test_case "C4: latency model shape" `Quick test_perf_model_shape;
    Alcotest.test_case "Fig 2: cross-pane focus workflow" `Quick test_focus_workflow;
    Alcotest.test_case "render real figure + refine" `Quick test_render_real_figure;
    Alcotest.test_case "vplot auto-synthesis" `Quick test_vplot_auto;
    Alcotest.test_case "session save + replay" `Quick test_session_replay;
    Alcotest.test_case "extraction determinism" `Slow test_extraction_deterministic;
    Alcotest.test_case "replot isomorphism" `Quick test_replot_isomorphic;
    Alcotest.test_case "plot statistics" `Quick test_plot_stats_sane;
    Alcotest.test_case "pane extraction contract" `Quick test_extraction_contract ]
