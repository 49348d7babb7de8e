(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) against the simulated kernel.

   - Table 2: ULK figures ported, LoC per ViewCL program, Δ change class
   - Table 3: the ten ViewQL usability objectives, through vchat
   - Table 4: per-figure plotting cost under the GDB-QEMU and KGDB-rpi400
     latency profiles (total ms | ms/object | ms/KB, as in the paper)
   - Figure 4: the maple tree plot after the §3.1 ViewQL refinement
   - Figure 5: the StackRot trace (state transitions narrated)
   - Figure 7: the Dirty Pipe object graph after the §5.3 ViewQL
   - Bechamel micro-benchmarks: one Test.make per table/figure, plus the
     ablations called out in DESIGN.md.

   Absolute numbers differ from the paper (their substrate is a live
   kernel on real hardware; ours is a simulator), but the *shape* — which
   configuration wins and by roughly what factor — is asserted at the end. *)

let line = String.make 78 '-'

let section title =
  Printf.printf "\n%s\n== %s\n%s\n" line title line

(* Every bench gate goes through here: print the value the mode computed
   against its bound, and fail the run when the bound does not hold. *)
type need = Ge of float | Le of float | Lt of float

let gate name got need =
  let op, bound, ok =
    match need with
    | Ge b -> (">=", b, got >= b)
    | Le b -> ("<=", b, got <= b)
    | Lt b -> ("<", b, got < b)
  in
  Printf.printf "gate %-36s got %-9.4g need %-2s %-7.4g %s\n%!" name got op bound
    (if ok then "ok" else "FAIL");
  if not ok then exit 1

(* what the gates read from the metrics registry; an absent gauge reads
   nan, which fails every bound *)
let gauge g = Option.value (Obs.Metrics.gauge g) ~default:nan

let sample_count h =
  float_of_int (match Obs.Metrics.summary h with Some s -> s.Obs.Metrics.count | None -> 0)

let traced_exemplars h =
  float_of_int (List.length (List.filter (fun (_, tid, _) -> tid > 0) (Obs.Metrics.exemplars h)))

let boot ?iters () =
  let kernel = Kstate.boot () in
  let w = Workload.create kernel in
  Workload.run ?iters w;
  (kernel, w)

let fresh_session () =
  let kernel, _ = boot () in
  (kernel, Visualinux.attach kernel)

(* ------------------------------------------------------------------ *)
(* Table 2 *)

let table2 () =
  section "Table 2: representative ULK figures ported to the simulated Linux 6.1";
  let _, s = fresh_session () in
  Printf.printf "%-3s %-12s %-42s %5s %5s %6s %s\n" "#" "Figure" "Description" "LOC" "boxes"
    "reads" "Delta";
  let total_loc = ref 0 in
  List.iter
    (fun (sc : Scripts.script) ->
      let _, _, stats = Visualinux.plot_figure s sc in
      total_loc := !total_loc + Scripts.loc sc;
      Printf.printf "%-3d %-12s %-42s %5d %5d %6d %s\n" sc.Scripts.id
        (if String.length sc.Scripts.fig <= 5 then "Fig " ^ sc.Scripts.fig else sc.Scripts.fig)
        sc.Scripts.descr (Scripts.loc sc) stats.Visualinux.boxes stats.Visualinux.reads
        (Scripts.delta_glyph sc.Scripts.delta);
      assert (stats.Visualinux.boxes > 0))
    Scripts.table2;
  let changed =
    List.filter (fun sc -> sc.Scripts.delta <> Scripts.Negligible) Scripts.table2
  in
  let significant =
    List.filter (fun sc -> sc.Scripts.delta = Scripts.Significant) Scripts.table2
  in
  Printf.printf
    "\n%d figures, %d total LoC; %d/%d changed since 2.6.11, %d with replaced structures\n"
    (List.length Scripts.table2) !total_loc (List.length changed) (List.length Scripts.table2)
    (List.length significant)

(* ------------------------------------------------------------------ *)
(* Table 3 *)

let table3 () =
  section "Table 3: debugging objectives via vchat (NL -> ViewQL)";
  let _, s = fresh_session () in
  Printf.printf "%-10s %-66s %3s %7s %s\n" "Fig." "Objective" "QL" "updated" "ok";
  let all_ok = ref true in
  List.iter
    (fun (o : Objectives.objective) ->
      let sc = Option.get (Scripts.find o.Objectives.fig) in
      let pane, _, _ = Visualinux.plot_figure s sc in
      let prog, updated = Visualinux.vchat s ~pane:pane.Panel.pid o.Objectives.text in
      let loc = List.length (String.split_on_char '\n' prog) in
      let ok =
        List.for_all
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
                (Vgraph.boxes pane.Panel.graph)
            in
            List.length affected >= e.Objectives.exp_min)
          o.Objectives.expects
      in
      all_ok := !all_ok && ok;
      let text =
        if String.length o.Objectives.text > 64 then String.sub o.Objectives.text 0 63 ^ "..."
        else o.Objectives.text
      in
      Printf.printf "%-10s %-66s %3d %7d %s\n" o.Objectives.fig text loc updated
        (if ok then "yes" else "NO"))
    Objectives.all;
  Printf.printf "\nall %d objectives synthesized correctly: %b (paper: 10/10 with DeepSeek-V2)\n"
    (List.length Objectives.all) !all_ok;
  assert !all_ok

(* ------------------------------------------------------------------ *)
(* Table 4 *)

type t4row = {
  t4fig : string;
  qemu : float * float * float;  (** total ms | ms/object | ms/KB *)
  kgdb : float * float * float;
  viewql_ms : float;
}

let table4_rows () =
  let _, s = fresh_session () in
  List.map
    (fun (sc : Scripts.script) ->
      let pane, _, stats = Visualinux.plot_figure s sc in
      let st = { Target.reads = stats.Visualinux.reads; bytes = stats.Visualinux.read_bytes } in
      (* wire latency (simulated) + local interpretation work (measured) *)
      let cost profile = Target.simulated_ms profile st +. stats.Visualinux.wall_ms in
      let per_row total =
        ( total,
          total /. float_of_int (max 1 stats.Visualinux.boxes),
          total /. (float_of_int (max 1 stats.Visualinux.bytes) /. 1024.) )
      in
      (* ViewQL cost on the same plot (footnote 2: negligible) *)
      let t0 = Obs.Clock.now_ms () in
      ignore
        (Panel.refine s.Visualinux.panel ~at:pane.Panel.pid
           "a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: true");
      let viewql_ms = Obs.Clock.elapsed_ms t0 in
      { t4fig = sc.Scripts.fig; qemu = per_row (cost Target.qemu_local);
        kgdb = per_row (cost Target.kgdb_rpi400); viewql_ms })
    Scripts.table2

let table4 () =
  section "Table 4: plotting cost under GDB-QEMU vs KGDB-rpi400 link profiles";
  Printf.printf "(x | y | z) = total ms | ms per object | ms per KB of data structure\n\n";
  Printf.printf "%-12s | %8s %6s %7s | %9s %7s %8s\n" "Figure" "QEMU-x" "y" "z" "KGDB-x" "y" "z";
  let rows = table4_rows () in
  List.iter
    (fun r ->
      let qx, qy, qz = r.qemu and kx, ky, kz = r.kgdb in
      Printf.printf "%-12s | %8.1f %6.2f %7.1f | %9.1f %7.2f %8.1f\n" r.t4fig qx qy qz kx ky kz)
    rows;
  (* Shape assertions vs. the paper *)
  let ratios = List.map (fun r -> let qx, _, _ = r.qemu and kx, _, _ = r.kgdb in kx /. qx) rows in
  let avg l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let avg_ratio = avg ratios in
  let avg_viewql = avg (List.map (fun r -> r.viewql_ms) rows) in
  let avg_qemu = avg (List.map (fun r -> let x, _, _ = r.qemu in x) rows) in
  Printf.printf "\nKGDB/QEMU mean slowdown: %.0fx (paper: ~50x per object)\n" avg_ratio;
  Printf.printf "mean ViewQL refinement cost: %.3f ms vs %.1f ms extraction " avg_viewql avg_qemu;
  Printf.printf "(paper footnote 2: ViewQL overhead negligible)\n";
  assert (avg_ratio > 15. && avg_ratio < 150.);
  assert (avg_viewql < avg_qemu)

(* ------------------------------------------------------------------ *)
(* Figure 4: the maple tree after the §3.1 ViewQL *)

let figure4 () =
  section "Figure 4: maple tree of a process address space (after ViewQL)";
  let _, s = fresh_session () in
  let sc = Option.get (Scripts.find "9-2") in
  let pane, res, _ = Visualinux.plot_figure s sc in
  ignore
    (Panel.refine s.Visualinux.panel ~at:pane.Panel.pid
       {|m = SELECT mm_struct FROM *
UPDATE m WITH view: show_mt
slots = SELECT maple_node.slots FROM *
UPDATE slots WITH collapsed: true
writable_vmas = SELECT vm_area_struct FROM * WHERE is_writable == true
UPDATE writable_vmas WITH trimmed: true|});
  print_string (Render.ascii res.Viewcl.graph);
  (* the read-only segments survive; writable ones are gone *)
  let vmas = Vgraph.of_type res.Viewcl.graph "vm_area_struct" in
  let visible = List.filter (fun b -> not b.Vgraph.attrs.Vgraph.trimmed) vmas in
  Printf.printf "\nVMAs plotted: %d, read-only survivors: %d\n" (List.length vmas)
    (List.length visible);
  assert (List.length visible < List.length vmas);
  List.iter
    (fun b ->
      match Vgraph.field b "is_writable" with
      | Some (Vgraph.Fbool w) -> assert (not w)
      | _ -> ())
    visible

(* ------------------------------------------------------------------ *)
(* Figure 5: the StackRot kernel trace *)

let figure5 () =
  section "Figure 5: CVE-2023-3269 (StackRot) trace on the simulated kernel";
  let kernel, s = fresh_session () in
  let ctx = kernel.Kstate.ctx in
  let target = Option.get (Kstate.find_task kernel s.Visualinux.target_pid) in
  let mm = Ksyscall.mm_of kernel target in
  let mt = Kcontext.fld ctx mm "mm_struct" "mm_mt" in
  Printf.printf "// CPU #0                         | // CPU #1\n";
  Printf.printf "mm_read_lock(&mm->mmap_lock)      | mm_read_lock(&mm->mmap_lock)\n";
  Kmm.mmap_read_lock ctx mm ~cpu:0;
  Kmm.mmap_read_lock ctx mm ~cpu:1;
  Printf.printf "                                  | find_vma_prev() -> mas_walk()\n";
  let stale = Kmaple.read_nodes ctx mt in
  Printf.printf "                                  |   node pointers fetched (%d nodes)\n"
    (List.length stale);
  Printf.printf "expand_stack()                    |\n";
  Printf.printf "  mas_store_prealloc() -> mas_free|\n";
  let vma = Kmm.vma_alloc kernel.Kstate.mm mm ~start:0x7ffd_0000_0000 ~end_:0x7ffd_0001_0000
      ~flags:0x103 ~file:0 ~pgoff:0 in
  Kmaple.store_range ~free:(Kstate.ma_free_rcu kernel) (Kmm.tree_of kernel.Kstate.mm mm)
    ~lo:0x7ffd_0000_0000 ~hi:0x7ffd_0000_ffff vma;
  Printf.printf "    ma_free_rcu -> call_rcu (%d cb)|  // node is dead\n"
    (List.length (Krcu.pending kernel.Kstate.rcu ()));
  Kmm.mmap_read_unlock ctx mm;
  Printf.printf "mm_read_unlock(&mm->mmap_lock)    |\n";
  Printf.printf "... wait for RCU period ...       |\n";
  Krcu.run_grace_period kernel.Kstate.rcu;
  Printf.printf "rcu_do_batch() -> mt_free_rcu()   |\n";
  Printf.printf "  kmem_cache_free() // node freed | mas_prev()\n";
  Kmem.clear_faults ctx.Kcontext.mem;
  ignore (Kcontext.r64 ctx (List.hd stale) "maple_node" "parent");
  let faults = Kmem.faults ctx.Kcontext.mem in
  Printf.printf "                                  |   rcu_deref_check(node..)\n";
  List.iter (fun f -> Format.printf "                                  |   // %a@." Kmem.pp_fault f) faults;
  Kmm.mmap_read_unlock ctx mm;
  Printf.printf "                                  | mm_read_unlock(&mm->mmaplock)\n";
  assert (faults <> [])

(* ------------------------------------------------------------------ *)
(* Figure 7: Dirty Pipe *)

let figure7 () =
  section "Figure 7: CVE-2022-0847 (Dirty Pipe) object graph (after ViewQL)";
  let kernel, s = fresh_session () in
  let ctx = kernel.Kstate.ctx in
  let task = Option.get (Kstate.find_task kernel s.Visualinux.target_pid) in
  let _, file = Ksyscall.openat kernel task ~name:"test.txt" ~size:4096 in
  let pipe, _, _ = Ksyscall.pipe kernel task in
  for i = 1 to 16 do
    Ksyscall.write_pipe kernel pipe (Printf.sprintf "f%d" i);
    ignore (Kpipe.read ctx pipe)
  done;
  let buf = Ksyscall.splice kernel ~file ~pipe ~index:0 ~len:1 ~buggy:true in
  let shared_page = Kcontext.r64 ctx buf "pipe_buffer" "page" in
  let pane, res, _ = Visualinux.vplot s ~title:"Dirty Pipe" Scripts.cve_dirtypipe in
  let pages = Vgraph.of_type res.Viewcl.graph "page" in
  ignore
    (Panel.refine s.Visualinux.panel ~at:pane.Panel.pid
       {|file_pgc = SELECT file->pagecache FROM *
file_pgs = SELECT page FROM REACHABLE(file_pgc)
pipe_buf = SELECT pipe_inode_info->bufs FROM *
pipe_pgs = SELECT page FROM REACHABLE(pipe_buf)
UPDATE pipe_pgs \ file_pgs WITH trimmed: true
junk = SELECT pipe_buffer FROM * WHERE flags == 0
UPDATE junk WITH collapsed: true
boring = SELECT file FROM *
UPDATE boring WITH collapsed: true|});
  print_string (Render.ascii res.Viewcl.graph);
  let shared =
    List.filter
      (fun (b : Vgraph.box) -> (not b.Vgraph.attrs.Vgraph.trimmed) && b.Vgraph.addr = shared_page)
      pages
  in
  Printf.printf
    "\npages plotted: %d; the single page shared between test.txt and the pipe survives: %b\n"
    (List.length pages) (shared <> []);
  (* the buggy flag is visible on its pipe buffer *)
  let flagged =
    List.exists
      (fun b ->
        match Vgraph.field b "flags" with
        | Some (Vgraph.Fint f) -> f land Ktypes.pipe_buf_flag_can_merge <> 0
        | _ -> false)
      (Vgraph.of_type res.Viewcl.graph "pipe_buffer")
  in
  Printf.printf "erroneous PIPE_BUF_FLAG_CAN_MERGE visible in the plot: %b\n" flagged;
  assert (shared <> [] && flagged)

(* ------------------------------------------------------------------ *)
(* Scaling sweep: plot cost vs. kernel-state size. Supports the paper's
   observation that "plotting large data structures that frequently
   invoke C-expression evaluation" is what makes KGDB painful: cost
   grows with the object population, dominated by read count. *)

let scaling_sweep () =
  section "Scaling: extraction cost vs. workload size (Fig 16-2, file mappings)";
  Printf.printf "%-6s %6s %6s %7s | %9s %9s\n" "iters" "boxes" "reads" "bytes" "QEMU ms" "KGDB ms";
  let prev_reads = ref 0 in
  List.iter
    (fun iters ->
      let s = Visualinux.attach (fst (boot ~iters ())) in
      let sc = Option.get (Scripts.find "16-2") in
      let _, _, stats = Visualinux.plot_figure s sc in
      let st = { Target.reads = stats.Visualinux.reads; bytes = stats.Visualinux.read_bytes } in
      Printf.printf "%-6d %6d %6d %7d | %9.2f %9.1f\n" iters stats.Visualinux.boxes
        stats.Visualinux.reads stats.Visualinux.bytes
        (Target.simulated_ms Target.qemu_local st +. stats.Visualinux.wall_ms)
        (Target.simulated_ms Target.kgdb_rpi400 st +. stats.Visualinux.wall_ms);
      assert (stats.Visualinux.reads >= !prev_reads);
      prev_reads := stats.Visualinux.reads)
    [ 1; 2; 4; 8; 12 ];
  print_endline "\n(read volume grows monotonically with state size; KGDB cost scales with it)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)

let run_bechamel tests =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~stabilize:false () in
  let raw = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"visualinux" tests) in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |] in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> Printf.printf "%-52s %14.1f ns/run (%10.4f ms)\n" name ns (ns /. 1e6)
      | _ -> Printf.printf "%-52s (no estimate)\n" name)
    (List.sort compare rows)

let microbench () =
  section "Bechamel micro-benchmarks (one per table/figure + ablations)";
  let kernel, s = fresh_session () in
  let ctx = kernel.Kstate.ctx in
  let tgt = s.Visualinux.target in
  let fig34 = Option.get (Scripts.find "3-4") in
  let fig71 = Option.get (Scripts.find "7-1") in
  let fig92 = Option.get (Scripts.find "9-2") in
  let target = Option.get (Kstate.find_task kernel s.Visualinux.target_pid) in
  let mm = Ksyscall.mm_of kernel target in
  let mt = Kcontext.fld ctx mm "mm_struct" "mm_mt" in
  (* pre-extract a graph for the ViewQL benches *)
  let res = Viewcl.run ~cfg:(Visualinux.config ()) tgt fig34.Scripts.source in
  let open Bechamel in
  let t name f = Test.make ~name (Staged.stage f) in
  let tests =
    [ (* Table 2: full extraction of a figure *)
      t "table2/extract-fig3-4" (fun () ->
          ignore (Viewcl.run ~cfg:(Visualinux.config ()) tgt fig34.Scripts.source));
      t "table2/extract-fig7-1" (fun () ->
          ignore (Viewcl.run ~cfg:(Visualinux.config ()) tgt fig71.Scripts.source));
      (* Table 3: NL synthesis and ViewQL application *)
      t "table3/vchat-synthesize" (fun () ->
          ignore (Vchat.synthesize "shrink tasks that have no address space"));
      t "table3/viewql-select-update" (fun () ->
          let sess = Viewql.make_session res.Viewcl.graph in
          ignore
            (Viewql.exec sess
               "a = SELECT task_struct FROM * WHERE mm == NULL\nUPDATE a WITH collapsed: true"));
      (* Table 4: the heavy figure, i.e. the cost driver *)
      t "table4/extract-fig9-2-mapletree" (fun () ->
          ignore (Viewcl.run ~cfg:(Visualinux.config ()) tgt fig92.Scripts.source));
      (* Figure 4/7 pipeline pieces *)
      t "fig4/viewql-trim" (fun () ->
          let sess = Viewql.make_session res.Viewcl.graph in
          ignore
            (Viewql.exec sess
               "a = SELECT task_struct FROM * WHERE pid > 5\nUPDATE a WITH trimmed: true"));
      t "fig7/render-ascii" (fun () -> ignore (Render.ascii res.Viewcl.graph));
      (* Ablation 1 (DESIGN.md #1): typed debugger-side reads vs. the
         write-side shadow — the interpreter overhead the paper attributes
         to C-expression evaluation. *)
      t "ablation/maple-read-side-walk" (fun () -> ignore (Kmaple.read_entries ctx mt));
      t "ablation/maple-shadow-walk" (fun () ->
          ignore (Kmaple.entries (Kmm.tree_of kernel.Kstate.mm mm)));
      (* cexpr evaluation cost, the paper's claimed bottleneck *)
      t "ablation/cexpr-eval" (fun () ->
          ignore (Cexpr.eval_string tgt "cpu_rq(0)->cfs.tasks_timeline.rb_leftmost != NULL")) ]
  in
  run_bechamel tests

(* ------------------------------------------------------------------ *)
(* Degradation table: the whole Table 2 workload over a faulty link.
   Enabled by --fault-rate; the robustness/latency tradeoff in one
   table per rate (see ISSUE 2 / DESIGN.md §6). *)

let profile_of_name = function
  | "qemu" | "qemu_local" -> Target.qemu_local
  | "kgdb_rpi" -> Target.kgdb_rpi
  | "kgdb_rpi400" -> Target.kgdb_rpi400
  | p -> failwith (Printf.sprintf "unknown profile %S (qemu_local|kgdb_rpi|kgdb_rpi400)" p)

let degradation ~rates ~profile ~deadline_ms ~seed =
  section
    (Printf.sprintf "Degradation: Table 2 figures over a faulty %s link%s (seed %d)"
       profile.Target.pname
       (match deadline_ms with
       | Some d -> Printf.sprintf ", %.0f ms budget/plot" d
       | None -> "")
       seed);
  Printf.printf "%-6s %5s %6s %7s %7s %6s %7s %5s %6s %8s %8s %7s %10s\n" "rate" "plots"
    "boxes" "broken" "retries" "drops" "stalls" "disc" "trips" "refused" "dl-hits" "suspect"
    "sim-ms";
  List.iter
    (fun rate ->
      let kernel, _ = boot () in
      let tr =
        Transport.create ~seed ~faults:(Transport.faults_of_rate rate) profile
      in
      Transport.set_deadline tr deadline_ms;
      let s = Visualinux.attach ~transport:tr kernel in
      let plots = ref 0 and failed = ref 0 and boxes = ref 0 and broken = ref 0 in
      let suspects = ref 0 in
      let fetch_ms = ref 0. and interp_ms = ref 0. and render_ms = ref 0. in
      List.iter
        (fun (sc : Scripts.script) ->
          (* per-phase attribution from the obs registry: fetch = target
             read time, interp = ViewCL run minus fetch, render = ascii *)
          let fetch0 = Obs.Profile.total_ms "target.read" in
          let run0 = Obs.Profile.total_ms "viewcl.run" in
          let render0 = Obs.Profile.total_ms "render.ascii" in
          (match Visualinux.plot_figure s sc with
          | _, res, stats ->
              incr plots;
              ignore (Render.ascii res.Viewcl.graph);
              boxes := !boxes + Vgraph.box_count res.Viewcl.graph;
              broken :=
                !broken
                + List.length
                    (List.filter (fun b -> Vgraph.broken b <> None)
                       (Vgraph.boxes res.Viewcl.graph));
              (* every degraded graph goes through the structural
                 sanitizer too, so sanity.checked is never vacuously 0
                 in the smoke metrics *)
              suspects :=
                !suspects
                + List.length (Sanity.check_graph kernel.Kstate.ctx res.Viewcl.graph);
              if Obs.enabled () then begin
                let fetch = Obs.Profile.total_ms "target.read" -. fetch0 in
                let interp =
                  Float.max 0. (Obs.Profile.total_ms "viewcl.run" -. run0 -. fetch)
                in
                let render = Obs.Profile.total_ms "render.ascii" -. render0 in
                fetch_ms := !fetch_ms +. fetch;
                interp_ms := !interp_ms +. interp;
                render_ms := !render_ms +. render;
                Obs.Metrics.observe "phase.fetch_ms" fetch;
                Obs.Metrics.observe "phase.interp_ms" interp;
                Obs.Metrics.observe "phase.render_ms" render;
                Obs.Metrics.observe "bench.plot_ms" stats.Visualinux.wall_ms
              end
          | exception _ -> incr failed);
          (* a dead link stays dead until resynced: reconnect between
             figures, as the interactive session's `recover` would *)
          if Transport.link tr = Transport.Down then Transport.reconnect tr)
        Scripts.table2;
      let sn = Transport.snapshot tr in
      Printf.printf "%-6.3f %5d %6d %7d %7d %6d %7d %5d %6d %8d %8d %7d %10.1f\n" rate !plots
        !boxes !broken sn.Transport.retries sn.Transport.drops sn.Transport.stalls
        sn.Transport.disconnects sn.Transport.breaker_trips sn.Transport.short_circuits
        sn.Transport.deadline_hits !suspects sn.Transport.sim_ms;
      Printf.printf "       %s\n" (Render.transport_line tr);
      if Obs.enabled () then
        Printf.printf
          "       phases (wall): fetch %.2f ms, interp %.2f ms, render %.2f ms\n"
          !fetch_ms !interp_ms !render_ms;
      (* resilience contract: every plot completes, whatever the link does *)
      assert (!failed = 0 && !plots = List.length Scripts.table2))
    rates;
  (* the read and box caches cannot be silently compiled out *)
  if Obs.enabled () then
    gate "cache counters present"
      (float_of_int
         (List.length
            (List.filter
               (fun c -> List.mem_assoc c (Obs.Metrics.counters ()))
               [ "cache.hits"; "cache.misses"; "cache.box_hits" ])))
      (Ge 3.);
  print_endline
    "\n(plots always complete: link trouble degrades to broken boxes / truncated\n\
    \ traversals, never an exception; refused = breaker short-circuits,\n\
    \ dl-hits = reads refused by the per-plot deadline budget)"

(* ------------------------------------------------------------------ *)
(* Chaos table: the Table 2 figures extracted while seeded mutators fire
   between target reads (ISSUE 4 / DESIGN.md §8).  Snapshot consistency
   degrades gracefully under concurrent mutation: torn sections are
   retried per box, residual tears become [TORN] boxes, and the
   structural sanitizer sweeps every extracted graph for structures the
   mutators left mid-surgery. *)

(* Canonical render for warm-vs-cold identity: box ids renumbered 1..n
   in preorder from the roots, so an in-place warm refresh (old ids) and
   a cold plot (fresh ids) of the same state print the same text.  The
   obs timing footer is wall-clock noise, not plot content — drop it. *)
let canonical g =
  let g' = Vgraph.renumber g in
  Vgraph.set_title g' "identity";
  Render.ascii g'
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.length l >= 5 && String.sub l 0 5 = "[obs:"))
  |> String.concat "\n"

let chaos ~rates ~seed =
  section (Printf.sprintf "Chaos: Table 2 figures under concurrent mutation (seed %d)" seed);
  Printf.printf "%-6s %5s %6s %6s %5s %7s %8s %6s %7s %8s\n" "rate" "plots" "boxes" "fired"
    "torn" "retried" "repaired" "[TORN]" "suspect" "wall-ms";
  List.iter
    (fun rate ->
      let kernel, w = boot () in
      let s = Visualinux.attach kernel in
      (* a cached pane plotted before the storm; re-validated after it *)
      let id_sc = Option.get (Scripts.find "3-4") in
      let id_pane, _, _ = Visualinux.plot_figure s id_sc in
      let c = Workload.Chaos.create ~seed w ~rate in
      Workload.Chaos.arm c s.Visualinux.target;
      let plots = ref 0 and failed = ref 0 and boxes = ref 0 in
      let torn = ref 0 and retried = ref 0 and repaired = ref 0 and torn_boxes = ref 0 in
      let suspects = ref 0 and wall = ref 0. in
      List.iter
        (fun (sc : Scripts.script) ->
          match Visualinux.plot_figure s sc with
          | _, res, stats ->
              incr plots;
              ignore (Render.ascii res.Viewcl.graph);
              boxes := !boxes + Vgraph.box_count res.Viewcl.graph;
              torn := !torn + res.Viewcl.torn;
              retried := !retried + res.Viewcl.retried;
              repaired := !repaired + res.Viewcl.repaired;
              torn_boxes := !torn_boxes + res.Viewcl.torn_boxes;
              suspects :=
                !suspects
                + List.length (Sanity.check_graph kernel.Kstate.ctx res.Viewcl.graph);
              wall := !wall +. stats.Visualinux.wall_ms;
              if Obs.enabled () then Obs.Metrics.observe "bench.plot_ms" stats.Visualinux.wall_ms
          | exception _ -> incr failed)
        Scripts.table2;
      Workload.Chaos.disarm s.Visualinux.target;
      Printf.printf "%-6.3f %5d %6d %6d %5d %7d %8d %6d %7d %8.1f\n" rate !plots !boxes
        (Workload.Chaos.fired c) !torn !retried !repaired !torn_boxes !suspects !wall;
      (* chaos contract: concurrent mutation degrades to [TORN] and
         [SUSPECT] boxes, never an exception escaping a plot; and every
         nonzero rate really tears, or the harness is vacuous *)
      assert (!failed = 0 && !plots = List.length Scripts.table2);
      if rate > 0. then gate (Printf.sprintf "chaos.torn@%.3f" rate) (float_of_int !torn) (Ge 1.);
      (* cache contract: now that the mutators are quiet, a warm refresh
         of the pre-storm pane (adopting what survived, rebuilding what
         the storm's writes invalidated) must render bit-identically to
         a cold uncached plot of the same state *)
      let warm =
        match Visualinux.vrefresh s ~pane:id_pane.Panel.pid with
        | Some (res, _) -> canonical res.Viewcl.graph
        | None -> assert false
      in
      let cold_s = Visualinux.attach kernel in
      Target.set_read_cache cold_s.Visualinux.target false;
      let cold_res =
        Viewcl.run ~cfg:cold_s.Visualinux.cfg cold_s.Visualinux.target id_sc.Scripts.source
      in
      assert (warm = canonical cold_res.Viewcl.graph);
      Printf.printf "       cached-vs-cold identity after the storm: ok\n")
    rates;
  (* the structural sanitizer saw the graphs, so suspect = 0 means clean *)
  if Obs.enabled () then
    gate "sanity.checked" (float_of_int (Obs.Metrics.counter "sanity.checked")) (Ge 1.);
  print_endline
    "\n(plots always complete: a racing writer tears the box's consistent\n\
    \ section, the box is re-extracted, and residual tears degrade to [TORN]\n\
    \ tags; suspect = structures the sanitizer found violating their laws)"

(* ------------------------------------------------------------------ *)
(* Repeat-plot table: the ISSUE 5 fast path under its target workload —
   plot a figure once cold, then refresh it over and over against an
   unchanged kernel.  The generation-validated caches should turn the
   warm refreshes into near-zero-fetch adoptions; an uncached control
   session re-extracting the same program measures what each refresh
   would have cost before ISSUE 5.  The assertions at the bottom are the
   perf-smoke CI gate. *)

let median l =
  match List.sort compare l with
  | [] -> 0.
  | sorted -> List.nth sorted (List.length sorted / 2)

let repeat_plot ~iters ~seed =
  section
    (Printf.sprintf
       "Repeat-plot: cold plot + %d warm refreshes per figure, kgdb_rpi400 link (seed %d)"
       iters seed);
  Printf.printf "%-12s %9s %9s %7s %7s %8s %7s\n" "Figure" "cold-ms" "warm-p50" "cold-f"
    "warm-f" "uncach-f" "hit%";
  let kernel, _ = boot () in
  let tr = Transport.create ~seed Target.kgdb_rpi400 in
  let s = Visualinux.attach ~transport:tr kernel in
  (* the pre-ISSUE-5 control: same kernel, own link, caches off *)
  let tr0 = Transport.create ~seed Target.kgdb_rpi400 in
  let s0 = Visualinux.attach ~transport:tr0 kernel in
  Target.set_read_cache s0.Visualinux.target false;
  let fetches tr = (Transport.snapshot tr).Transport.reads_ok in
  let sim tr = (Transport.snapshot tr).Transport.sim_ms in
  let cold_all = ref [] and warm_all = ref [] in
  let warm_fetches = ref 0 and uncached_fetches = ref 0 in
  let hits = ref 0 and misses = ref 0 and inval = ref 0 in
  List.iter
    (fun (sc : Scripts.script) ->
      let f0 = fetches tr and s0ms = sim tr in
      let pane, _, stats = Visualinux.plot_figure s sc in
      (* cost = local wall + simulated wire latency, as in Table 4 *)
      let cold_ms = stats.Visualinux.wall_ms +. (sim tr -. s0ms) in
      let cold_f = fetches tr - f0 in
      cold_all := cold_ms :: !cold_all;
      if Obs.enabled () then Obs.Metrics.observe "bench.cold_plot_ms" cold_ms;
      let wf0 = fetches tr in
      let warm_ms = ref [] in
      let fig_hits = ref 0 and fig_misses = ref 0 in
      for _ = 1 to iters do
        let w0ms = sim tr in
        match Visualinux.vrefresh s ~pane:pane.Panel.pid with
        | None -> assert false
        | Some (_, st) ->
            let ms = st.Visualinux.wall_ms +. (sim tr -. w0ms) in
            warm_ms := ms :: !warm_ms;
            fig_hits := !fig_hits + st.Visualinux.cache_hits;
            fig_misses := !fig_misses + st.Visualinux.cache_misses;
            inval := !inval + st.Visualinux.cache_invalidated;
            if Obs.enabled () then Obs.Metrics.observe "bench.warm_refresh_ms" ms
      done;
      let warm_f = (fetches tr - wf0) / iters in
      warm_fetches := !warm_fetches + warm_f;
      hits := !hits + !fig_hits;
      misses := !misses + !fig_misses;
      warm_all := !warm_all @ !warm_ms;
      (* what one refresh costs without the caches: a fresh extraction
         of the same program through the uncached control session *)
      let u0 = fetches tr0 in
      ignore (Viewcl.run ~cfg:s0.Visualinux.cfg s0.Visualinux.target sc.Scripts.source);
      let un_f = fetches tr0 - u0 in
      uncached_fetches := !uncached_fetches + un_f;
      let denom = max 1 (!fig_hits + !fig_misses) in
      Printf.printf "%-12s %9.1f %9.1f %7d %7d %8d %6.0f%%\n" sc.Scripts.fig cold_ms
        (median !warm_ms) cold_f warm_f un_f
        (100. *. float_of_int !fig_hits /. float_of_int denom))
    Scripts.table2;
  let cold_p50 = median !cold_all and warm_p50 = median !warm_all in
  let hit_rate =
    float_of_int !hits /. float_of_int (max 1 (!hits + !misses + !inval))
  in
  Printf.printf
    "\ncold p50 %.1f ms, warm p50 %.1f ms (%.0fx); uncached %d fetches/refresh vs %d cached \
     (%.0fx); box hit-rate %.0f%%\n"
    cold_p50 warm_p50
    (cold_p50 /. Float.max 0.001 warm_p50)
    !uncached_fetches !warm_fetches
    (float_of_int !uncached_fetches /. float_of_int (max 1 !warm_fetches))
    (100. *. hit_rate);
  (* the perf-smoke gate (ISSUE 5 acceptance): the caches must actually
     bite — adopted boxes dominate, the wire goes at least 5x quieter,
     and a warm refresh is at least 3x faster than its cold plot *)
  gate "repeat.box_hit_rate" hit_rate (Ge 0.5);
  gate "repeat.uncached_fetches" (float_of_int !uncached_fetches)
    (Ge (float_of_int (5 * max 1 !warm_fetches)));
  gate "repeat.warm_p50_ms" warm_p50 (Le (cold_p50 /. 3.));
  print_endline
    "\n(warm-f = wire fetches per refresh with the caches on; uncach-f = the same\n\
    \ refresh through a cache-off control session; all three gates asserted)"

(* ------------------------------------------------------------------ *)
(* Multi-session server (ISSUE 6): N sessions multiplexed over one shared
   kgdb link.  Two fleets run on identically-seeded twin kernels with the
   same workload-step schedule and the same link seed — the storm fleet
   differs from the all-healthy baseline only in session 1's fault
   config — so any drift in the *other* sessions' op costs is, by
   construction, cross-session interference.  The assertions at the
   bottom are the session-smoke CI gate. *)

let percentile q l =
  match List.sort compare l with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      let rank = int_of_float (ceil (q *. float_of_int n)) - 1 in
      List.nth sorted (min (n - 1) (max 0 rank))

let pane_state vis =
  List.map
    (fun id ->
      let p = Panel.pane vis.Visualinux.panel id in
      (id, List.map (fun b -> b.Vgraph.id) (Vgraph.boxes p.Panel.graph), canonical p.Panel.graph))
    (Panel.pane_ids vis.Visualinux.panel)

(* one figure per session, each one the workload mutates every step *)
let own_figs = List.filter_map Scripts.find [ "3-6"; "7-1"; "11-1"; "16-2"; "proc2vfs"; "8-2" ]
let own_fig i = List.nth own_figs (i mod List.length own_figs)

(* op cost = local wall + the simulated wire ms the op charged the
   session, as in Table 4 *)
let timed srv sid f =
  let w0 = Session.wire_ms srv sid in
  let t0 = Unix.gettimeofday () in
  let out = f () in
  (out, ((Unix.gettimeofday () -. t0) *. 1000.) +. (Session.wire_ms srv sid -. w0))

(* The identity oracle for a session's pane: the canonical render of a
   cache-off solo extraction of the same program on the same kernel. *)
let solo_txt kernel =
  let solo =
    lazy
      (let s = Visualinux.attach kernel in
       Target.set_read_cache s.Visualinux.target false;
       s)
  in
  fun (sc : Scripts.script) ->
    let s = Lazy.force solo in
    canonical (Viewcl.run ~cfg:s.Visualinux.cfg s.Visualinux.target sc.Scripts.source).Viewcl.graph

let sessions_bench ~n ~rate ~rounds ~seed =
  section
    (Printf.sprintf
       "Multi-session server: %d sessions on one shared kgdb_rpi400 link (fault-rate %.2f \
        on s1, %d rounds, seed %d)"
       n rate rounds seed);
  let shared_fig = Option.get (Scripts.find "3-4") in
  (* every session refreshes a figure the workload actually mutates each
     step (runqueues, slab, pagecache, ...), so each round is real wire
     work — a session stuck with an immutable figure would measure pure
     wall noise *)
  let own_figs = own_figs @ List.filter_map Scripts.find [ "9-2"; "17-1" ] in
  let own_fig i = List.nth own_figs (i mod List.length own_figs) in
  let storm_round = 3 in
  let drop_everything =
    { Transport.stall_rate = 0.; drop_rate = 1.; disconnect_rate = 0. }
  in
  (* One fleet: n sessions on one shared link.  Round 0 is identical in
     both fleets (the sick session's faults only arm from round 1): every
     session cold-plots the shared figure — the followers riding the
     first plot's warmed read cache is the cross-session hit rate — then
     its own private figure.  Rounds 1.. mutate the kernel, then every
     session refreshes its own pane; the healthy sessions go first so the
     sick one can never warm the read cache for them, and a refused
     refresh degrades to serving the pane [STALE] from the cache. *)
  let run ~sick =
    let kernel, w = boot () in
    let srv = Session.create ~capacity:n kernel in
    Session.add_target srv ~transport:(Transport.create ~seed Target.kgdb_rpi400) "wire";
    let sids =
      List.init n (fun i ->
          match Session.open_session ~target:"wire" srv (Printf.sprintf "s%d" (i + 1)) with
          | Session.Admitted sid -> sid
          | Session.Rejected { reason } -> failwith (Session.reason_to_string reason))
    in
    (* admission beyond capacity: a typed refusal, never an exception *)
    (match Session.open_session srv "overflow" with
    | Session.Rejected { reason = Session.Capacity { limit } } -> assert (limit = n)
    | _ -> assert false);
    (* fresh SLO windows per fleet: the session counters are global and
       cumulative across the twin runs, and registration snapshots them,
       so each run's burn rates are computed from its own deltas only *)
    if Obs.enabled () then begin
      Obs.Slo.clear ();
      Session.register_slos srv
    end;
    let sick_sid = List.hd sids in
    let costs = Hashtbl.create 8 in
    let record sid ms =
      let r =
        match Hashtbl.find_opt costs sid with
        | Some r -> r
        | None ->
            let r = ref [] in
            Hashtbl.add costs sid r;
            r
      in
      r := ms :: !r
    in
    let panes = Hashtbl.create 8 in
    let stale_serves = ref 0 and saw_quarantine = ref false in
    let cross_hits = ref 0 and cross_reads = ref 0 in
    let poll () =
      if Session.target_health srv "wire" <> `Healthy then saw_quarantine := true
    in
    List.iteri
      (fun i sid ->
        let h0 = Session.counter srv sid "cache.hits" in
        let m0 = Session.counter srv sid "cache.misses" in
        let shared_pane =
          match timed srv sid (fun () -> Session.vplot srv sid shared_fig.Scripts.source) with
          | Session.Admitted (p, _, _), ms ->
              record sid ms;
              p.Panel.pid
          | Session.Rejected { reason }, _ -> failwith (Session.reason_to_string reason)
        in
        if i > 0 then begin
          let dh = Session.counter srv sid "cache.hits" - h0 in
          let dm = Session.counter srv sid "cache.misses" - m0 in
          cross_hits := !cross_hits + dh;
          cross_reads := !cross_reads + dh + dm
        end;
        let own_pane =
          match timed srv sid (fun () -> Session.vplot srv sid (own_fig i).Scripts.source) with
          | Session.Admitted (p, _, _), ms ->
              record sid ms;
              p.Panel.pid
          | Session.Rejected { reason }, _ -> failwith (Session.reason_to_string reason)
        in
        Hashtbl.replace panes sid (shared_pane, own_pane))
      sids;
    (* the cross-hit measurement above needed the shared read cache; the
       rounds below run with it off so every refresh does real wire work
       — the storm has a wire to storm, and a session that missed a
       round pays exactly one re-extraction to catch up, same as any
       other round *)
    Target.set_read_cache
      (Option.get (Session.vis srv (List.hd sids))).Visualinux.target
      false;
    let healthy_first = List.tl sids @ [ sick_sid ] in
    for r = 1 to rounds do
      Workload.step w;
      List.iter
        (fun sid ->
          let _, own = Hashtbl.find panes sid in
          if sick && sid = sick_sid then begin
            (* the storm: at storm_round everything drops, forcing the
               breaker open; otherwise the configured fault rate *)
            Session.set_faults srv sid
              (if r = storm_round then drop_everything else Transport.faults_of_rate rate);
            ignore (Session.vrefresh srv sid ~pane:own)
          end
          else begin
            match timed srv sid (fun () -> Session.vrefresh srv sid ~pane:own) with
            | Session.Admitted _, ms -> record sid ms
            | Session.Rejected _, _ ->
                ignore (Session.render srv sid own);
                incr stale_serves
          end;
          poll ())
        healthy_first;
      (* one SLO evaluation epoch per round: the fast window is exactly
         one round of ops, the slow window the last eight *)
      Obs.Slo.tick ()
    done;
    let cross =
      float_of_int !cross_hits /. float_of_int (max 1 !cross_reads)
    in
    (kernel, srv, sids, costs, panes, !stale_serves, !saw_quarantine, cross)
  in
  let _, srv_a, sids_a, costs_a, _, stales_a, sawq_a, _ = run ~sick:false in
  let kernel, srv, sids, costs, panes, stales, sawq, cross = run ~sick:true in
  let sick_sid = List.hd sids in
  (* the storm is over: heal s1 and let the probation queue drain — the
     elected prober re-opens the link, then each admitted op re-admits
     one waiter (fair, no thundering herd) *)
  Session.set_faults srv sick_sid Transport.no_faults;
  let tries = ref 0 in
  while Session.target_health srv "wire" <> `Healthy && !tries < 8 * n do
    List.iter
      (fun sid ->
        let _, own = Hashtbl.find panes sid in
        ignore (Session.vrefresh srv sid ~pane:own))
      sids;
    incr tries
  done;
  assert (Session.target_health srv "wire" = `Healthy);
  (* fault isolation, the render half: once re-admitted, every healthy
     session's panes must render byte-identically to a cache-off solo
     extraction of the same programs against the same kernel state —
     zero residue (torn boxes, stale bytes) from s1's storm *)
  let solo_txt = solo_txt kernel in
  List.iteri
    (fun i sid ->
      (* the sick session is healed by now, so the identity holds for it
         too: its torn storm-era panes re-extract clean *)
      (match Session.refresh_stale srv sid with
      | Session.Admitted _ -> ()
      | Session.Rejected { reason } -> failwith (Session.reason_to_string reason));
      let check pane sc =
        match Session.vrefresh srv sid ~pane with
        | Session.Admitted (Some (res, _)) ->
            assert (canonical res.Viewcl.graph = solo_txt sc)
        | _ -> assert false
      in
      let shared_pane, own_pane = Hashtbl.find panes sid in
      check shared_pane shared_fig;
      check own_pane (own_fig i))
    sids;
  (* crash-safe fleet recovery: kill the server, replay every session's
     journal from its durable image into a fresh one over the same
     kernel — pane and box ids come back *)
  let image = Session.fleet_image srv in
  let recover_into () =
    let srv' = Session.create ~capacity:n kernel in
    Session.add_target srv' ~transport:(Transport.create ~seed Target.kgdb_rpi400) "wire";
    let back = (Session.recover_durable srv' image).Session.rsessions in
    assert (List.length back = n);
    assert (List.for_all (fun r -> r.Session.rsalvage = Session.Replayed) back);
    (srv', List.map (fun r -> r.Session.rsid) back)
  in
  let srv2, sids2 = recover_into () in
  (* the live fleet's boxes carry ids from months of in-place adoption,
     so a replay can only promise the same panes and the same rendered
     bytes; the id claim is replay determinism — two independent
     recoveries of the snapshot must agree on every pane AND box id *)
  List.iter2
    (fun sid sid' ->
      let v = Option.get (Session.vis srv sid) in
      let v' = Option.get (Session.vis srv2 sid') in
      let strip st = List.map (fun (id, _, txt) -> (id, txt)) st in
      assert (strip (pane_state v) = strip (pane_state v')))
    sids sids2;
  let srv3, sids3 = recover_into () in
  List.iter2
    (fun sid' sid'' ->
      let v' = Option.get (Session.vis srv2 sid') in
      let v'' = Option.get (Session.vis srv3 sid'') in
      assert (pane_state v' = pane_state v''))
    sids2 sids3;
  (* per-session latency table; the pool for the isolation gate is the
     healthy sessions (everyone but s1) in both fleets *)
  let samples tbl sid = match Hashtbl.find_opt tbl sid with Some r -> !r | None -> [] in
  let pool tbl sids = List.concat_map (samples tbl) sids in
  let base_pool = pool costs_a (List.tl sids_a) in
  let storm_pool = pool costs (List.tl sids) in
  let base_p95 = percentile 0.95 base_pool in
  let storm_p95 = percentile 0.95 storm_pool in
  Printf.printf "%-5s %-8s %5s %8s %8s %6s %6s %7s %7s\n" "sess" "role" "ops" "p50-ms"
    "p95-ms" "rejec" "stale" "faults" "reads";
  List.iteri
    (fun i sid ->
      let l = samples costs sid in
      Printf.printf "%-5s %-8s %5d %8.1f %8.1f %6d %6d %7d %7d\n"
        (Printf.sprintf "s%d" (i + 1))
        (if sid = sick_sid then "sick" else "healthy")
        (List.length l) (percentile 0.5 l) (percentile 0.95 l)
        (Session.counter srv sid "rejections")
        (Session.counter srv sid "stale.renders")
        (Session.counter srv sid "faults")
        (Session.counter srv sid "reads"))
    sids;
  let rejections =
    List.fold_left (fun a sid -> a + Session.counter srv sid "rejections") 0 sids
  in
  Printf.printf
    "\nhealthy-pool p95: baseline %.1f ms, under storm %.1f ms (%.2fx); cross-session \
     cold-plot hit rate %.0f%%\n"
    base_p95 storm_p95
    (storm_p95 /. Float.max 0.001 base_p95)
    (100. *. cross);
  Printf.printf
    "storm fleet: %d typed rejections, %d [STALE] serves, quarantine %s; baseline: %d \
     rejections, %d stale serves\n"
    rejections stales
    (if sawq then "entered and drained" else "never entered")
    (List.fold_left (fun a sid -> a + Session.counter srv_a sid "rejections") 0 sids_a)
    stales_a;
  Printf.printf "fleet recovery: %d/%d sessions replayed, pane/box ids reproduced\n"
    (List.length sids2) n;
  if Obs.enabled () then begin
    Obs.Metrics.set_gauge "sessions.count" (float_of_int n);
    Obs.Metrics.set_gauge "sessions.base_p95_ms" base_p95;
    Obs.Metrics.set_gauge "sessions.storm_p95_ms" storm_p95;
    Obs.Metrics.set_gauge "sessions.p95_ratio" (storm_p95 /. Float.max 0.001 base_p95);
    Obs.Metrics.set_gauge "sessions.cross_hit_rate" cross;
    Obs.Metrics.set_gauge "sessions.fleet_recovered" (float_of_int (List.length sids2));
    print_newline ();
    print_string (Obs.Slo.report ());
    List.iter
      (fun sid ->
        match Obs.Metrics.top_exemplar (Printf.sprintf "session.%d.op_ms" sid) with
        | Some (tid, v) ->
            Printf.printf "exemplar: s%d slowest-bucket op %.1f ms <- trace %d%s\n" sid v
              tid
              (if sid = sick_sid then " (sick)" else "")
        | None -> ())
      sids;
    (* the storm fleet's SLO burn, as of its last evaluation epoch: the
       sick session's clean_reads budget torches, the healthy ones stay
       quiet; every session's op latencies are recorded, and some of
       them name the trace behind them *)
    List.iter
      (fun sid ->
        let h = Printf.sprintf "session.%d.op_ms" sid in
        gate (h ^ " samples") (sample_count h) (Ge 1.);
        gate (h ^ " traced exemplars") (traced_exemplars h) (Ge 1.);
        gate
          (Printf.sprintf "slo.s%d.clean_reads.burn_rate" sid)
          (gauge (Printf.sprintf "slo.s%d.clean_reads.burn_rate" sid))
          (if sid = sick_sid then Ge 1. else Lt 1.))
      sids;
    gate "slo.s1.clean_reads.budget_remaining" (gauge "slo.s1.clean_reads.budget_remaining")
      (Le 1.)
  end;
  (* the session-smoke gate (ISSUE 6 acceptance): the baseline fleet is
     storm-free; the storm actually tripped the breaker and was refused
     with typed rejections, not exceptions; the healthy sessions' p95
     stayed within 25% of the all-healthy baseline (plus 0.5 ms) and
     within 30% outright; the followers really did ride the shared
     cache; and no fleet's per-session counter ever went negative *)
  assert ((not sawq_a) && stales_a = 0);
  assert (sawq && rejections > 0 && stales > 0);
  gate "sessions.storm_p95_ms" storm_p95 (Le ((1.25 *. base_p95) +. 0.5));
  gate "sessions.p95_ratio" (storm_p95 /. Float.max 0.001 base_p95) (Le 1.30);
  gate "sessions.cross_hit_rate" cross (Ge 0.3);
  let min_counter srv sids =
    List.fold_left
      (fun m sid -> List.fold_left (fun m (_, v) -> min m v) m (Session.counters srv sid))
      max_int sids
  in
  gate "session counters min"
    (float_of_int
       (List.fold_left min max_int
          [ min_counter srv_a sids_a; min_counter srv sids; min_counter srv2 sids2;
            min_counter srv3 sids3 ]))
    (Ge 0.);
  print_endline
    "\n(isolation gate: one session storming at the given fault rate — plus one\n\
    \ forced breaker-Open round — left the other sessions' p95 within 25% of the\n\
    \ all-healthy twin fleet, their renders byte-identical to solo extractions,\n\
    \ and every refusal a typed Rejected; all gates asserted)"

(* ------------------------------------------------------------------ *)
(* Chaos campaigns (ISSUE 7): a scripted fault timeline from a committed
   .campaign file, run twice on identically-seeded twin fleets — live
   (wire events armed) and control (all-healthy wires; kernel-level
   events like bit-flip storms fire in both so the kernels stay twins).
   Per phase we record availability, op latency and [STALE]/[BROKEN]/
   [TORN] box counts; after the last `recover` we record time-to-
   recovery; the script's `expect` lines are asserted at the end — the
   campaign-smoke CI gate. *)

let count_sub text sub =
  let nt = String.length text and ns = String.length sub in
  let c = ref 0 in
  for i = 0 to nt - ns do
    if String.sub text i ns = sub then incr c
  done;
  !c

type phase_stats = {
  mutable att : int;  (* ops attempted *)
  mutable adm : int;  (* ops admitted *)
  mutable pms : float list;  (* admitted op costs *)
  mutable stale : int;  (* [STALE] boxes rendered *)
  mutable broken : int;  (* [BROKEN ...] boxes rendered *)
  mutable torn : int;  (* [TORN] boxes rendered *)
}

let campaign_bench ~file ~seed =
  let module C = Workload.Campaign in
  let c = C.parse (Durable.read_file file) in
  section
    (Printf.sprintf "Campaign %S: %d sessions on %s, %d ops, kgdb_rpi400 (seed %d)" c.C.cname
       c.C.csessions
       (String.concat "+" c.C.ctargets)
       c.C.cops seed);
  List.iter
    (fun (mark, ev) -> Printf.printf "  at %-4d %s\n" mark (C.event_to_string ev))
    c.C.events;
  let n = c.C.csessions in
  let home = List.hd c.C.ctargets in
  let outage = { Transport.stall_rate = 0.; drop_rate = 0.; disconnect_rate = 1. } in
  (* campaign weather is gray failure: stalls and drops, never a
     spontaneous disconnect — `link_down` is the explicit outage event *)
  let gray r = { Transport.stall_rate = r; drop_rate = r; disconnect_rate = 0. } in
  (* One run of the scripted timeline.  [live] arms the wire events; the
     control run drives the same ops over all-healthy wires. *)
  let run ~live =
    let kernel, w = boot () in
    (* a ref: `crash_at` replaces the whole server with one recovered
       from the durable WAL image, and every closure below must see it *)
    let srv = ref (Session.create ~capacity:n kernel) in
    let trs =
      List.mapi
        (fun i t ->
          let tr = Transport.create ~seed:(seed + i) Target.kgdb_rpi400 in
          Session.add_target !srv ~transport:tr t;
          (t, tr))
        c.C.ctargets
    in
    let tr_of t =
      match List.assoc_opt t trs with
      | Some tr -> tr
      | None -> failwith (Printf.sprintf "campaign: unknown target %S" t)
    in
    let sids =
      List.init n (fun i ->
          match
            Session.open_session
              ~budget:(Session.budget ~retry_burst:8 ())
              ~weight:(C.weight_at c i) ~target:home !srv
              (Printf.sprintf "s%d" (i + 1))
          with
          | Session.Admitted sid -> sid
          | Session.Rejected { reason } -> failwith (Session.reason_to_string reason))
    in
    (* SLOs evaluate over the live run only (the control twin drives the
       same ops but its burn is definitionally zero); registering fresh
       here snapshots the cumulative counters so the deltas are this
       run's own *)
    if live && Obs.enabled () then begin
      Obs.Slo.clear ();
      Session.register_slos !srv
    end;
    let mem =
      Target.mem (Option.get (Session.vis !srv (List.hd sids))).Visualinux.target
    in
    (* setup (not part of the measured timeline): every session plots its
       own figure; the op loop then refreshes them with the read cache
       off so every admitted op is real wire work *)
    let panes =
      List.mapi
        (fun i sid ->
          match Session.vplot !srv sid (own_fig i).Scripts.source with
          | Session.Admitted (p, _, _) -> (sid, (p.Panel.pid, own_fig i))
          | Session.Rejected { reason } -> failwith (Session.reason_to_string reason))
        sids
    in
    Target.set_read_cache
      (Option.get (Session.vis !srv (List.hd sids))).Visualinux.target
      false;
    (* the live fleet journals into a durable WAL from here on: the
       attach snapshot captures the plotted panes, then every admitted
       op streams as a checksummed record — `crash_at` rebuilds the
       whole server from exactly these bytes *)
    if live then Session.attach_wal !srv (Durable.create ~seed:(seed + 7177) ());
    let crashes = ref 0 and recovered_s = ref 0 and salvaged_s = ref 0 in
    let phases_rev = ref [] in
    let cur = ref { att = 0; adm = 0; pms = []; stale = 0; broken = 0; torn = 0 } in
    phases_rev := [ ("start", !cur) ];
    let unhealthy = ref 0 and stale_serves = ref 0 and rejections = ref 0 in
    let recover_mark = ref None and ttr = ref None in
    let hedge_checked = ref false in
    let solo_txt = solo_txt kernel in
    let fire op ev =
      if live then Printf.printf "  [op %d] %s\n%!" op (C.event_to_string ev);
      match ev with
      | C.Phase p ->
          cur := { att = 0; adm = 0; pms = []; stale = 0; broken = 0; torn = 0 };
          phases_rev := (p, !cur) :: !phases_rev
      | C.Link_down t ->
          if live then begin
            Transport.set_base_faults (tr_of t) outage;
            Transport.disconnect (tr_of t)
          end
      | C.Link_up t ->
          if live then begin
            Transport.set_base_faults (tr_of t) Transport.no_faults;
            Transport.reconnect (tr_of t)
          end
      | C.Fault_rate (t, r) -> if live then Transport.set_base_faults (tr_of t) (gray r)
      | C.Bit_flip_storm _ ->
          (* kernel-level: fires in both runs, so the twins stay twins *)
          Kmem.inject_read_failures mem ~seed 0.25
      | C.Recover t ->
          Kmem.clear_injection mem;
          if live then begin
            let tr = tr_of t in
            Transport.set_base_faults tr Transport.no_faults;
            if Transport.link tr = Transport.Down || Transport.breaker tr <> Transport.Closed
            then Transport.reconnect tr;
            recover_mark := Some op;
            ttr := None
          end
      | C.Corrupt_journal ->
          (* flip one payload bit inside a journaled op record; the next
             crash recovery must salvage around it, not raise *)
          if live then ignore (Session.corrupt_wal !srv)
      | C.Crash ->
          if live then begin
            let image = Durable.contents (Option.get (Session.wal_of !srv)) in
            let srv' = Session.create ~capacity:n kernel in
            (* the same wires, warts and all: a crash of the session host
               does not heal a down link or a tripped breaker *)
            List.iter (fun (t, tr) -> Session.add_target srv' ~transport:tr t) trs;
            let r = Session.recover_durable srv' image in
            print_string (Session.recovery_to_string r);
            incr crashes;
            List.iter
              (fun (s : Session.srecovery) ->
                match s.Session.rsalvage with
                | Session.Replayed -> incr recovered_s
                | Session.Salvaged _ | Session.Quarantined_stale -> incr salvaged_s)
              r.Session.rsessions;
            Session.attach_wal srv'
              (Durable.create ~seed:(seed + 7177 + !crashes) ());
            srv := srv';
            Target.set_read_cache
              (Option.get (Session.vis srv' (List.hd sids))).Visualinux.target
              false
          end
    in
    let drive op =
      let i = (op - 1) mod n in
      (* the workload's own structure surgery cannot run over a memory
         whose reads are failing — a real kernel would have oopsed too;
         mutation resumes at `recover` (symmetric in both runs, so the
         twin kernels stay aligned) *)
      if i = 0 && not (Kmem.injection_active mem) then Workload.step w;
      let sid = List.nth sids i in
      let pane, sc = List.assoc sid panes in
      let h0 = Session.counter !srv sid "hedged.ops" in
      (* refreshes are not journaled; a periodic no-op refine keeps
         checkpointed records flowing into the WAL so `crash_at` and
         `corrupt_journal` always have a mid-stream op to land on *)
      if op mod 5 = 0 then
        ignore
          (Session.vctrl !srv sid
             (Visualinux.Apply
                { pane; viewql = "a = SELECT task_struct FROM * WHERE pid > 99999" }));
      !cur.att <- !cur.att + 1;
      (match timed !srv sid (fun () -> Session.vrefresh !srv sid ~pane) with
      | Session.Admitted r, ms ->
          !cur.adm <- !cur.adm + 1;
          !cur.pms <- ms :: !cur.pms;
          (* hedged-read identity, checked once at the first hedged op:
             the bytes served from the replica must equal a cache-off
             solo extraction of the same program — and the sick home
             wire's breaker must never have tripped (the reroute beat
             it), which is the ISSUE 7 acceptance gate *)
          if
            live && (not !hedge_checked)
            && Session.counter !srv sid "hedged.ops" > h0
            && not (Kmem.injection_active mem)
          then begin
            hedge_checked := true;
            assert ((Transport.snapshot (tr_of home)).Transport.breaker_trips = 0);
            match r with
            | Some (res, _) -> assert (canonical res.Viewcl.graph = solo_txt sc)
            | None -> assert false
          end
      | Session.Rejected _, _ ->
          incr rejections;
          ignore (Session.render !srv sid pane);
          incr stale_serves);
      (match Session.render !srv sid pane with
      | Some txt ->
          !cur.stale <- !cur.stale + count_sub txt "[STALE]";
          !cur.broken <- !cur.broken + count_sub txt "[BROKEN";
          !cur.torn <- !cur.torn + count_sub txt "[TORN]"
      | None -> ());
      if Session.target_health !srv home <> `Healthy then incr unhealthy;
      match !recover_mark with
      | Some r0 when !ttr = None && Session.target_health !srv home = `Healthy ->
          ttr := Some (op - r0 + 1)
      | _ -> ()
    in
    for op = 1 to c.C.cops do
      List.iter (fire op) (C.events_at c op);
      drive op;
      (* one SLO epoch per full rotation of the fleet *)
      if live && op mod n = 0 then Obs.Slo.tick ()
    done;
    (* recovery non-vacuity: if the last `recover` has not yet drained
       back to Healthy, keep driving (bounded) — TTR must exist *)
    (match !recover_mark with
    | Some _ when !ttr = None ->
        let extra = ref 0 in
        while Session.target_health !srv home <> `Healthy && !extra < 8 * n do
          incr extra;
          drive (c.C.cops + !extra)
        done
    | _ -> ());
    let hedged =
      List.fold_left (fun a sid -> a + Session.counter !srv sid "hedged.ops") 0 sids
    in
    let canaries =
      List.fold_left (fun a sid -> a + Session.counter !srv sid "canaries") 0 sids
    in
    ( List.rev !phases_rev, !unhealthy, !ttr, hedged, canaries, !stale_serves, !rejections,
      Session.target_health !srv home,
      (!crashes, !recovered_s, !salvaged_s) )
  in
  let base_phases, _, _, base_hedged, _, _, _, _, _ = run ~live:false in
  let ( phases, unhealthy, ttr, hedged, canaries, stale_serves, rejections, end_health,
        (crashes, recovered_s, salvaged_s) ) =
    run ~live:true
  in
  assert (base_hedged = 0);
  let pool ph = List.concat_map (fun (_, st) -> st.pms) ph in
  let live_p95 = percentile 0.95 (pool phases) in
  let base_p95 = percentile 0.95 (pool base_phases) in
  let ratio = live_p95 /. Float.max 0.001 base_p95 in
  Printf.printf "\n%-12s %5s %5s %6s %8s %8s %6s %7s %5s\n" "phase" "ops" "adm" "avail"
    "p50-ms" "p95-ms" "stale" "broken" "torn";
  let avail st = float_of_int st.adm /. float_of_int (max 1 st.att) in
  List.iter
    (fun (p, st) ->
      if st.att > 0 then
        Printf.printf "%-12s %5d %5d %5.0f%% %8.1f %8.1f %6d %7d %5d\n" p st.att st.adm
          (100. *. avail st) (percentile 0.5 st.pms) (percentile 0.95 st.pms) st.stale
          st.broken st.torn)
    phases;
  Printf.printf
    "\nlive p95 %.1f ms vs all-healthy twin %.1f ms (%.2fx); %d unhealthy ops, %d hedged, \
     %d canaries\n"
    live_p95 base_p95 ratio unhealthy hedged canaries;
  Printf.printf "%d rejections -> %d [STALE] serves; time-to-recovery %s; end state %s\n"
    rejections stale_serves
    (match ttr with Some t -> Printf.sprintf "%d ops" t | None -> "n/a (no recover event)")
    (match end_health with
    | `Healthy -> "healthy"
    | `Degraded -> "degraded"
    | `Quarantine _ -> "quarantine"
    | `Probation _ -> "probation");
  if crashes > 0 then
    Printf.printf
      "%d crash recover%s from the durable WAL: %d sessions replayed clean, %d salvaged\n"
      crashes
      (if crashes = 1 then "y" else "ies")
      recovered_s salvaged_s;
  if Obs.enabled () then begin
    Obs.Metrics.set_gauge "campaign.p95_ratio" ratio;
    Obs.Metrics.set_gauge "campaign.live_p95_ms" live_p95;
    Obs.Metrics.set_gauge "campaign.base_p95_ms" base_p95;
    Obs.Metrics.set_gauge "campaign.unhealthy_ops" (float_of_int unhealthy);
    Obs.Metrics.set_gauge "campaign.hedged_ops" (float_of_int hedged);
    Obs.Metrics.set_gauge "campaign.stale_serves" (float_of_int stale_serves);
    Obs.Metrics.set_gauge "campaign.crash_recoveries" (float_of_int crashes);
    Obs.Metrics.set_gauge "campaign.recovered_sessions" (float_of_int recovered_s);
    Obs.Metrics.set_gauge "campaign.salvaged_sessions" (float_of_int salvaged_s);
    Option.iter
      (fun t -> Obs.Metrics.set_gauge "campaign.ttr_ops" (float_of_int t))
      ttr;
    List.iter
      (fun (p, st) ->
        if st.att > 0 then
          Obs.Metrics.set_gauge (Printf.sprintf "campaign.availability.%s" p) (avail st))
      phases;
    print_newline ();
    print_string (Obs.Slo.report ());
    (match Obs.Metrics.top_exemplar "session.1.op_ms" with
    | Some (tid, v) ->
        Printf.printf "exemplar: s1 slowest-bucket op %.1f ms <- trace %d\n" v tid
    | None -> ())
  end;
  (* the live fleet's p95 stays within 30% of its all-healthy twin, its
     SLOs are evaluated, and its tail names the trace behind it *)
  gate "campaign.p95_ratio" ratio (Le 1.30);
  if Obs.enabled () then begin
    gate "slo.s1.op_p95.burn_rate" (gauge "slo.s1.op_p95.burn_rate") (Ge 0.);
    gate "session.1.op_ms traced exemplars" (traced_exemplars "session.1.op_ms") (Ge 1.)
  end;
  (* the expect gates, straight from the script *)
  List.iter
    (fun (key, v) ->
      let got, need =
        match key with
        | "p95_ratio" -> (ratio, Le (v +. (0.5 /. Float.max 0.001 base_p95)))
        | "ttr_ops" -> ((match ttr with Some t -> float_of_int t | None -> nan), Le v)
        | "unhealthy_ops" -> (float_of_int unhealthy, Ge v)
        | "hedged_ops" -> (float_of_int hedged, Ge v)
        | "crash_recoveries" -> (float_of_int crashes, Ge v)
        | "recovered_sessions" -> (float_of_int recovered_s, Ge v)
        | "salvaged_sessions" -> (float_of_int salvaged_s, Ge v)
        | _ -> (
            match String.index_opt key '.' with
            | Some i when String.sub key 0 i = "availability" -> (
                let p = String.sub key (i + 1) (String.length key - i - 1) in
                match List.assoc_opt p phases with
                | Some st -> (avail st, Ge v)
                | None -> (nan, Ge v))
            | _ -> failwith (Printf.sprintf "campaign: unknown expect key %S" key))
      in
      gate ("expect " ^ key) got need)
    c.C.expects;
  (* the campaign must always end healed when it scripted a recovery *)
  if c.C.expects <> [] && List.mem_assoc "ttr_ops" c.C.expects then
    assert (end_health = `Healthy)

(* ------------------------------------------------------------------ *)

(* The crash-point torture harness (--crash <campaign>): record a run of
   checkpointing panel ops into the durable WAL, then for {e every}
   prefix length k of the recorded journal, crash there and recover —
   three ways per point:

     clean    the exact k-record prefix: every session must replay
              byte-identically (pane ids, box ids, rendered text) to the
              reference state captured live after record k
     torn     the prefix plus a truncated record k: the partial write
              must be detected and dropped, recovery equal to clean-k
     bit-flip one seeded bit inside an earlier record j: the owner of j
              comes back typed (salvaged/quarantined) or provably
              shorter, every other session byte-identical — corruption
              never leaks across the session boundary

   Zero exceptions anywhere, by construction of the assert soup. *)
let crash_bench ~file ~seed =
  let module C = Workload.Campaign in
  let c = C.parse (Durable.read_file file) in
  let n = c.C.csessions in
  let nops = min c.C.cops 48 in
  section
    (Printf.sprintf "Crash torture of campaign %S: %d sessions, %d recorded ops (seed %d)"
       c.C.cname n nops seed);
  if nops < c.C.cops then
    Printf.printf
      "  (capped at %d of the campaign's %d ops: every crash point recovers 3 ways)\n" nops
      c.C.cops;
  let kernel, _ = boot () in
  (* the recorded fleet runs on the local in-process target: the torture
     measures journal robustness, not wire weather, and a static kernel
     makes "byte-identical" a meaningful oracle *)
  let srv = Session.create ~capacity:n kernel in
  let sids =
    List.init n (fun i ->
        match Session.open_session srv (Printf.sprintf "s%d" (i + 1)) with
        | Session.Admitted sid -> sid
        | Session.Rejected { reason } -> failwith (Session.reason_to_string reason))
  in
  let panes =
    List.mapi
      (fun i sid ->
        match Session.vplot srv sid (own_fig i).Scripts.source with
        | Session.Admitted (p, _, _) -> (sid, p.Panel.pid)
        | Session.Rejected { reason } -> failwith (Session.reason_to_string reason))
      sids
  in
  let wal = Durable.create ~seed () in
  (* pure tail after the attach snapshot: mid-run compaction would fold
     records away and crash points must map 1:1 onto driver actions *)
  Session.set_wal_snapshot_limit srv 1_000_000;
  Session.attach_wal srv wal;
  (* ops already inside the attach snapshot (the vplot Jopen): recovery
     replays them too, so expected-op arithmetic needs the base *)
  let base_ops =
    List.map
      (fun sid ->
        ( sid,
          List.length
            (Panel.journal (Option.get (Session.vis srv sid)).Visualinux.panel) ))
      sids
  in
  let viewqls =
    [| "a = SELECT task_struct FROM * WHERE pid > 99999\nUPDATE a WITH collapsed: true";
       "a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: true";
       "a = SELECT task_struct FROM * WHERE pid > 1\nUPDATE a WITH collapsed: false" |]
  in
  let extra = Array.make (n + 1) [] in
  let owners_rev = ref [ 0 ] (* record 0 = the attach snapshot, unowned *) in
  let capture () =
    List.map (fun sid -> (sid, pane_state (Option.get (Session.vis srv sid)))) sids
  in
  let refs = Array.make (nops + 2) [] in
  refs.(1) <- capture ();
  for i = 1 to nops do
    let idx = (i - 1) mod n in
    let sid = List.nth sids idx in
    let base = List.assoc sid panes in
    let ctrl =
      if i mod 7 = 0 then
        Visualinux.Split
          { pane = base;
            dir = (if i mod 14 = 0 then `Vertical else `Horizontal);
            program = (own_fig (idx + i)).Scripts.source }
      else
        match extra.(idx) with
        | p :: _ when i mod 7 = 3 -> Visualinux.Close { pane = p }
        | _ -> Visualinux.Apply { pane = base; viewql = viewqls.(i mod 3) }
    in
    (match Session.vctrl srv sid ctrl with
    | Session.Admitted (Visualinux.Opened p) -> extra.(idx) <- p :: extra.(idx)
    | Session.Admitted _ -> (
        match ctrl with
        | Visualinux.Close _ -> extra.(idx) <- List.tl extra.(idx)
        | _ -> ())
    | Session.Rejected { reason } -> failwith (Session.reason_to_string reason));
    owners_rev := sid :: !owners_rev;
    if i mod 4 = 0 then Durable.flush wal;
    refs.(i + 1) <- capture ()
  done;
  let records = Array.of_list (Durable.record_bytes wal) in
  let owners = Array.of_list (List.rev !owners_rev) in
  let r = Array.length records in
  (* one driver action = exactly one checksummed record, or the crash
     points below would not be the crash points we think they are *)
  assert (r = nops + 1);
  let prefix k = String.concat "" (Array.to_list (Array.sub records 0 k)) in
  let off_of j =
    let o = ref 0 in
    for i = 0 to j - 1 do
      o := !o + String.length records.(i)
    done;
    !o
  in
  let rnd = ref (seed lor 1) in
  let rand m =
    rnd := ((!rnd * 0x5DEECE66D) + 0xB) land max_int;
    (!rnd lsr 17) mod m
  in
  let recover image =
    let t0 = Unix.gettimeofday () in
    let srv' = Session.create ~capacity:n kernel in
    let rcv = Session.recover_durable srv' image in
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    if Obs.enabled () then Obs.Metrics.observe "crash.recover_ms" ms;
    (srv', rcv, ms)
  in
  let state_of srv' sid = pane_state (Option.get (Session.vis srv' sid)) in
  let is_replayed (s : Session.srecovery) = s.Session.rsalvage = Session.Replayed in
  let identical = ref 0 and torn_ok = ref 0 and salvages = ref 0 and shorter = ref 0 in
  Printf.printf "\n%4s %6s %6s %5s %5s  %-28s %8s\n" "k" "bytes" "clean" "torn" "flip@"
    "flip outcome (owner)" "ms";
  for k = 1 to r do
    (* -- clean prefix: bit-identical or bust ------------------------ *)
    let srv', rcv, ms = recover (prefix k) in
    assert (rcv.Session.rreport.Durable.torn_bytes = 0);
    assert (rcv.Session.rreport.Durable.records_skipped = 0);
    assert (List.for_all is_replayed rcv.Session.rsessions);
    assert (List.for_all (fun sid -> state_of srv' sid = List.assoc sid refs.(k)) sids);
    incr identical;
    (* -- torn tail: a partial record k is dropped, not tripped over - *)
    let torn =
      if k < r then begin
        let cut = 1 + rand (String.length records.(k) - 1) in
        let srv', rcv, _ = recover (prefix k ^ String.sub records.(k) 0 cut) in
        assert (rcv.Session.rreport.Durable.torn_bytes > 0);
        assert (List.for_all is_replayed rcv.Session.rsessions);
        assert (
          List.for_all (fun sid -> state_of srv' sid = List.assoc sid refs.(k)) sids);
        incr torn_ok;
        "ok"
      end
      else "-"
    in
    (* -- bit-flip mid-journal: typed salvage, neighbours untouched -- *)
    let flip_at, outcome =
      if k < 2 then ("-", "-")
      else begin
        let j = 1 + rand (k - 1) in
        let plen = String.length records.(j) - 19 in
        let bit = ((off_of j + 15) * 8) + rand (plen * 8) in
        let srv', rcv, _ = recover (Durable.flip_bit (prefix k) bit) in
        let owner = owners.(j) in
        let ref_ops sid =
          let c = ref 0 in
          for i = 1 to k - 1 do
            if owners.(i) = sid then incr c
          done;
          !c
        in
        let out = ref "-" in
        List.iter
          (fun (s : Session.srecovery) ->
            if s.Session.rsid <> owner then begin
              (* isolation: everyone else replays bit-identically *)
              assert (is_replayed s);
              assert (state_of srv' s.Session.rsid = List.assoc s.Session.rsid refs.(k))
            end
            else
              match s.Session.rsalvage with
              | Session.Replayed ->
                  (* j was the owner's last journaled op: loss at the
                     very tail is indistinguishable from a torn tail,
                     but it must still be a strict prefix of the truth *)
                  assert (s.Session.rops = List.assoc owner base_ops + ref_ops owner - 1);
                  incr shorter;
                  out := Printf.sprintf "tail-lossy s%d" owner
              | Session.Salvaged { dropped } ->
                  assert (dropped >= 1);
                  incr salvages;
                  out := Printf.sprintf "salvaged s%d (-%d ops)" owner dropped
              | Session.Quarantined_stale ->
                  incr salvages;
                  out := Printf.sprintf "quarantined s%d" owner)
          rcv.Session.rsessions;
        (string_of_int j, !out)
      end
    in
    Printf.printf "%4d %6d %6s %5s %5s  %-28s %8.2f\n" k
      (String.length (prefix k))
      "ident" torn flip_at outcome ms
  done;
  (* -- unsalvageable journal: flip the snapshot itself -------------- *)
  let bit = (15 * 8) + rand ((String.length records.(0) - 19) * 8) in
  let srv', rcv, _ = recover (Durable.flip_bit (prefix r) bit) in
  assert (rcv.Session.rreport.Durable.records_skipped >= 1);
  List.iter
    (fun (s : Session.srecovery) ->
      (* no snapshot left to anchor anyone: every session comes back as
         a typed quarantined ghost, never a crash *)
      assert (s.Session.rsalvage = Session.Quarantined_stale))
    rcv.Session.rsessions;
  ignore srv';
  Printf.printf
    "\n%d crash points x {clean, torn, bit-flip}: %d bit-identical, %d torn-tail clean, \
     %d typed salvages, %d tail-lossy; snapshot-corruption -> %d quarantined ghosts\n"
    r !identical !torn_ok !salvages !shorter
    (List.length rcv.Session.rsessions);
  if Obs.enabled () then begin
    Obs.Metrics.set_gauge "crash.points" (float_of_int r);
    Obs.Metrics.set_gauge "crash.identical" (float_of_int !identical);
    Obs.Metrics.set_gauge "crash.torn_ok" (float_of_int !torn_ok);
    Obs.Metrics.set_gauge "crash.salvaged" (float_of_int (!salvages + !shorter))
  end;
  (* the whole point: every clean prefix recovered bit-identically; and
     the torture is not vacuous: it crashed at several points, salvaged
     corruption, and timed the recoveries that replayed records *)
  assert (!identical = r && !torn_ok = r - 1);
  gate "crash.points" (float_of_int r) (Ge 2.);
  gate "crash.salvaged" (float_of_int (!salvages + !shorter)) (Ge 1.);
  if Obs.enabled () then begin
    gate "crash.recover_ms samples" (sample_count "crash.recover_ms") (Ge 1.);
    gate "recovery.records_replayed"
      (float_of_int (Obs.Metrics.counter "recovery.records_replayed"))
      (Ge 1.)
  end

(* ------------------------------------------------------------------ *)

let bench_span name f = Obs.with_span ~cat:"bench" ("bench." ^ name) f

let full_suite () =
  bench_span "table2" table2;
  bench_span "table3" table3;
  bench_span "table4" table4;
  bench_span "figure4" figure4;
  bench_span "figure5" figure5;
  bench_span "figure7" figure7;
  bench_span "scaling" scaling_sweep;
  bench_span "microbench" microbench;
  section "Summary";
  print_endline "All tables and figures regenerated; shape assertions passed:";
  print_endline "  C1  all 20 ULK figures plot from live state (Table 2)";
  print_endline "  C2  10/10 objectives synthesized by the NL frontend (Table 3)";
  print_endline "  C3  StackRot UAF + Dirty Pipe shared page reproduced (Figs 4/5/7)";
  print_endline "  C4  KGDB ~50x slower than local QEMU; ViewQL cost negligible (Table 4)"

let () =
  let args = Array.to_list Sys.argv in
  let rec get k = function
    | a :: v :: _ when a = k -> Some v
    | _ :: tl -> get k tl
    | [] -> None
  in
  Printf.printf
    "Visualinux reproduction benchmark - paper: Understanding the Linux Kernel, Visually (EuroSys'25)\n";
  (* observability is on by default so every bench run leaves a
     BENCH_<mode>.json metrics artifact; --obs off measures the bare
     (uninstrumented-cost) path, as make obs-smoke does *)
  let obs_on = Option.value (get "--obs" args) ~default:"on" = "on" in
  Obs.set_enabled obs_on;
  (* size the span ring to the mode: the full suite emits ~10^6 spans
     and would silently drop most of them at the default capacity (the
     smoke modes stay on the default so their overhead profile does not
     change) *)
  let chaos_arg = get "--chaos-rate" args in
  let fault_arg = get "--fault-rate" args in
  let repeat_arg = get "--repeat-plot" args in
  let sessions_arg = get "--sessions" args in
  let campaign_arg = get "--campaign" args in
  let crash_arg = get "--crash" args in
  (* campaign mode gets the big ring too: flow-event export skips links
     whose endpoint spans were evicted, and the hedge-era spans must
     survive to the end of the timeline for the Perfetto arrows *)
  if
    campaign_arg <> None || crash_arg <> None
    || (chaos_arg = None && fault_arg = None && repeat_arg = None && sessions_arg = None)
  then Obs.set_ring_capacity (1 lsl 19);
  let mode =
    match (crash_arg, campaign_arg, sessions_arg, chaos_arg, fault_arg, repeat_arg) with
    | Some file, _, _, _, _, _ ->
        let seed =
          Option.value (Option.map int_of_string (get "--seed" args)) ~default:0x9e3779b9
        in
        bench_span "crash" (fun () -> crash_bench ~file ~seed);
        "crash"
    | None, Some file, _, _, _, _ ->
        let seed =
          Option.value (Option.map int_of_string (get "--seed" args)) ~default:0x9e3779b9
        in
        bench_span "campaign" (fun () -> campaign_bench ~file ~seed);
        "campaign"
    | None, None, Some ns, _, _, _ ->
        let n = max 2 (int_of_string ns) in
        let rate =
          Option.value (Option.map float_of_string (get "--fault-rate" args)) ~default:0.2
        in
        let rounds =
          Option.value (Option.map int_of_string (get "--rounds" args)) ~default:20
        in
        let seed =
          Option.value (Option.map int_of_string (get "--seed" args)) ~default:0x9e3779b9
        in
        bench_span "sessions" (fun () -> sessions_bench ~n ~rate ~rounds ~seed);
        "sessions"
    | None, None, None, Some rs, _, _ ->
        let rates = List.map float_of_string (String.split_on_char ',' rs) in
        let seed =
          Option.value (Option.map int_of_string (get "--seed" args)) ~default:0xC4405
        in
        bench_span "chaos" (fun () -> chaos ~rates ~seed);
        "chaos"
    | None, None, None, None, Some rs, _ ->
        let rates = List.map float_of_string (String.split_on_char ',' rs) in
        let profile =
          profile_of_name (Option.value (get "--profile" args) ~default:"kgdb_rpi400")
        in
        let deadline_ms = Option.map float_of_string (get "--deadline-ms" args) in
        let seed =
          Option.value (Option.map int_of_string (get "--seed" args)) ~default:0x9e3779b9
        in
        bench_span "degradation" (fun () ->
            degradation ~rates ~profile ~deadline_ms ~seed);
        "smoke"
    | None, None, None, None, None, Some it ->
        let iters = max 1 (int_of_string it) in
        let seed =
          Option.value (Option.map int_of_string (get "--seed" args)) ~default:0x9e3779b9
        in
        bench_span "repeat" (fun () -> repeat_plot ~iters ~seed);
        "repeat"
    | None, None, None, None, None, None ->
        full_suite ();
        "full"
  in
  if obs_on then begin
    let out = Printf.sprintf "BENCH_%s.json" mode in
    let oc = open_out out in
    output_string oc
      (Obs.metrics_json
         ~extra:
           [ ("mode", mode); ("argv", String.concat " " (List.tl args));
             ("spans_total", string_of_int (Obs.spans_total ())) ]
         ());
    close_out oc;
    Printf.printf "\nmetrics written to %s\n" out
  end;
  match get "--trace-out" args with
  | Some file ->
      let oc = open_out file in
      output_string oc (Obs.chrome_trace ());
      close_out oc;
      Printf.printf "Chrome trace written to %s (%d events, %d dropped)\n" file
        (Obs.event_count ()) (Obs.dropped ())
  | None -> ()
