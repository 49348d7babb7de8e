(* The extraction fast path (ISSUE 5): the generation-validated read
   cache (the only coalescer) and incremental re-plot.

   The correctness bar: caching is an optimization of WHERE bytes come
   from, never of WHAT the plot says.  A warm cached re-plot must render
   bit-identically to a cold uncached plot of the same kernel state —
   under writes, chaos mutation storms, and fault injection — and a
   Kmem write must invalidate exactly the cached boxes whose pages it
   stamped (closed upward over the box graph). *)

let session () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  (k, w, Visualinux.attach k)

let source fig = (Option.get (Scripts.find fig)).Scripts.source

(* A cold control plot of the same kernel through a fresh target with
   the read cache off: the pre-ISSUE-5 extraction path. *)
let cold_plot k src =
  let s = Visualinux.attach k in
  Target.set_read_cache s.Visualinux.target false;
  let res = Viewcl.run ~cfg:s.Visualinux.cfg s.Visualinux.target src in
  res.Viewcl.graph

(* ------------------------------------------------------------------ *)
(* Target tier: repeated reads skip the wire *)

let test_repeat_plot_skips_transport () =
  let _, _, s = session () in
  let tr = Transport.create Transport.qemu_local in
  Target.set_transport s.Visualinux.target tr;
  let pane, _, _ = Visualinux.vplot s (source "3-4") in
  let cold_ok = (Transport.snapshot tr).Transport.reads_ok in
  Alcotest.(check bool) "cold plot fetched" true (cold_ok > 0);
  let cs0 = Target.cache_stats s.Visualinux.target in
  (match Visualinux.vrefresh s ~pane:pane.Panel.pid with
  | None -> Alcotest.fail "vrefresh failed"
  | Some (res, stats) ->
      let cs1 = Target.cache_stats s.Visualinux.target in
      let cs =
        { Target.hits = cs1.Target.hits - cs0.Target.hits;
          misses = cs1.Target.misses - cs0.Target.misses;
          coalesced = cs1.Target.coalesced - cs0.Target.coalesced }
      in
      Alcotest.(check bool) "warm refresh adopted boxes" true (stats.Visualinux.cache_hits > 0);
      Alcotest.(check int) "nothing invalidated without writes" 0
        stats.Visualinux.cache_invalidated;
      Alcotest.(check bool) "no transport misses on a warm plot" true
        (cs.Target.misses = 0 || cs.Target.hits > 10 * cs.Target.misses);
      Alcotest.(check bool) "no re-extraction without writes" true
        (res.Viewcl.rebuilt = []));
  let warm_ok = (Transport.snapshot tr).Transport.reads_ok - cold_ok in
  Alcotest.(check bool)
    (Printf.sprintf "warm fetches (%d) at least 5x below cold (%d)" warm_ok cold_ok)
    true (warm_ok * 5 <= cold_ok)

let figures = [| "3-4"; "7-1"; "9-2"; "12-3"; "6-1" |]

(* The page cache is the only way a read skips the wire: on a fault-free
   link every fetch is exactly one cache miss, over a cold plot and over
   a refresh after the kernel steps. *)
let test_fetch_is_one_miss () =
  Array.iter
    (fun fig ->
      let _, w, s = session () in
      let tgt = s.Visualinux.target in
      let tr = Transport.create Transport.qemu_local in
      Target.set_transport tgt tr;
      let counted f =
        let cs0 = Target.cache_stats tgt and ok0 = (Transport.snapshot tr).Transport.reads_ok in
        let x = f () in
        let cs1 = Target.cache_stats tgt in
        ( x,
          (Transport.snapshot tr).Transport.reads_ok - ok0,
          cs1.Target.misses - cs0.Target.misses,
          cs1.Target.hits - cs0.Target.hits )
      in
      let (pane, _, _), fetches, misses, hits =
        counted (fun () -> Visualinux.vplot s (source fig))
      in
      Alcotest.(check int) (fig ^ ": cold plot fetches = misses") misses fetches;
      (* within one cold plot, later reads of a fetched page hit *)
      Alcotest.(check bool) (fig ^ ": reads after a miss hit the cache") true (hits > misses);
      Workload.step w;
      let res, fetches, misses, _ =
        counted (fun () -> Visualinux.vrefresh s ~pane:pane.Panel.pid)
      in
      if res = None then Alcotest.fail "vrefresh failed";
      Alcotest.(check int) (fig ^ ": refresh fetches = misses") misses fetches)
    figures

let test_cache_off_restores_per_field_reads () =
  let _, _, s = session () in
  let tr = Transport.create Transport.qemu_local in
  Target.set_transport s.Visualinux.target tr;
  Target.set_read_cache s.Visualinux.target false;
  ignore (Visualinux.vplot s (source "3-4"));
  let cs = Target.cache_stats s.Visualinux.target in
  Alcotest.(check int) "no hits" 0 cs.Target.hits

(* ------------------------------------------------------------------ *)
(* Identity: warm cached re-plot == cold uncached plot *)

let warm_equals_cold =
  QCheck.Test.make ~name:"warm cached re-plot renders identically to a cold plot" ~count:12
    QCheck.(triple (int_bound 1_000_000) (int_bound 4) (int_bound 3))
    (fun (seed, figi, storm) ->
      let k, w, s = session () in
      let tr = Transport.create ~seed Transport.qemu_local in
      Target.set_transport s.Visualinux.target tr;
      let src = source figures.(figi) in
      let pane, _, _ = Visualinux.vplot s src in
      (* a mutation storm between the plots: scheduler churn, comm
         scribbles, timer adds, mmap/munmap (maple rebuilds) *)
      let chaos = Workload.Chaos.create ~seed w ~rate:1.0 in
      for _ = 1 to storm * 7 do
        Workload.Chaos.mutate chaos
      done;
      match Visualinux.vrefresh s ~pane:pane.Panel.pid with
      | None -> false
      | Some (res, _) ->
          let warm = Render.canonical res.Viewcl.graph in
          let cold = Render.canonical (cold_plot k src) in
          warm = cold)

let warm_equals_cold_under_injection =
  QCheck.Test.make ~name:"identity holds under fault injection (reuse self-disables)"
    ~count:6
    QCheck.(pair (int_bound 1_000_000) (int_bound 4))
    (fun (seed, figi) ->
      let k, _, s = session () in
      let src = source figures.(figi) in
      let pane, _, _ = Visualinux.vplot s src in
      (* attach the cold session before arming: attach itself reads
         target memory, and those reads must not consume LCG draws *)
      let cold_s = Visualinux.attach k in
      Target.set_read_cache cold_s.Visualinux.target false;
      let mem = k.Kstate.ctx.Kcontext.mem in
      (* identical LCG schedule for the warm and the cold run *)
      Kmem.inject_read_failures mem ~seed 0.05;
      let warm =
        match Visualinux.vrefresh s ~pane:pane.Panel.pid with
        | None -> None
        | Some (_, stats) when stats.Visualinux.cache_hits > 0 ->
            (* cross-run reuse must be off while injection is armed *)
            Some "reuse-while-armed"
        | Some (res, _) -> Some (Render.canonical res.Viewcl.graph)
      in
      Kmem.clear_injection mem;
      Kmem.inject_read_failures mem ~seed 0.05;
      (* identical outcomes: most injected faults degrade to [BROKEN]
         boxes, but a fault consumed by a plot root's ${...} expression
         raises out of the run — then the warm path must have failed
         the same way (vrefresh catches it and returns None) *)
      let cold =
        match Viewcl.run ~cfg:cold_s.Visualinux.cfg cold_s.Visualinux.target src with
        | res -> Some (Render.canonical res.Viewcl.graph)
        | exception _ -> None
      in
      Kmem.clear_injection mem;
      warm = cold)

(* ------------------------------------------------------------------ *)
(* Exactness: a write invalidates the boxes whose pages it stamped,
   their ancestors (the upward closure over the box graph), and nothing
   else *)

(* Parents over the same child edges reuse validity walks over. *)
let parent_map g =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun b ->
      List.iter
        (fun kid -> Hashtbl.replace tbl kid (b.Vgraph.id :: Option.value ~default:[] (Hashtbl.find_opt tbl kid)))
        (Vgraph.child_ids b))
    (Vgraph.boxes g);
  tbl

let upward_closure g seeds =
  let parents = parent_map g in
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      List.iter go (Option.value ~default:[] (Hashtbl.find_opt parents id))
    end
  in
  List.iter go seeds;
  seen

let exact_invalidation =
  QCheck.Test.make ~name:"a write invalidates exactly the boxes whose pages it stamped"
    ~count:15
    QCheck.(pair (int_bound 1_000_000) (int_bound 4))
    (fun (seed, figi) ->
      let k, _, s = session () in
      let src = source figures.(figi) in
      let pane, res0, _ = Visualinux.vplot s src in
      let cache = res0.Viewcl.cache in
      let stamped = List.filter (fun id -> Viewcl.cache_pages cache id <> []) (Viewcl.cache_boxes cache) in
      QCheck.assume (stamped <> []);
      let victim = List.nth stamped (seed mod List.length stamped) in
      let page, _ = List.hd (Viewcl.cache_pages cache victim) in
      (* write a byte back to itself: content unchanged, generation bumps *)
      let a = page lsl Kmem.page_bits in
      let mem = k.Kstate.ctx.Kcontext.mem in
      Kmem.write_u8 mem a (Kmem.read_u8 mem a);
      (* expected: every cached box stamped with that page, closed upward *)
      let touched =
        List.filter
          (fun id -> List.mem_assoc page (Viewcl.cache_pages cache id))
          (Viewcl.cache_boxes cache)
      in
      let cached = Hashtbl.create 64 in
      List.iter (fun id -> Hashtbl.replace cached id ()) (Viewcl.cache_boxes cache);
      let closure = upward_closure res0.Viewcl.graph touched in
      let expected =
        Hashtbl.fold (fun id () acc -> if Hashtbl.mem cached id then id :: acc else acc) closure []
        |> List.sort compare
      in
      match Visualinux.vrefresh s ~pane:pane.Panel.pid with
      | None -> false
      | Some (res, _) -> res.Viewcl.rebuilt = expected)

(* ------------------------------------------------------------------ *)
(* Failure rollback: a run that raises must not corrupt the pane *)

(* The high-severity review scenario: a re-plot over a live cache
   raises partway (here: an unknown definition evaluated after the real
   plots, standing in for a box-budget blowout or eval error).  The
   shared graph must keep its pre-failure roots, no half-rebuilt box
   may later be adopted as a valid snapshot, and the next warm refresh
   must still render identically to a cold plot. *)
let test_failed_run_rolls_back () =
  let k, w, s = session () in
  let src = source "3-4" in
  let pane, res0, _ = Visualinux.vplot s src in
  let roots0 = Vgraph.roots res0.Viewcl.graph in
  (* dirty pages so the failing re-run rebuilds boxes in place first *)
  let chaos = Workload.Chaos.create ~seed:42 w ~rate:1.0 in
  for _ = 1 to 10 do
    Workload.Chaos.mutate chaos
  done;
  let bad = src ^ "\nplot NoSuchDef(${0})\n" in
  (match Viewcl.run ~cfg:s.Visualinux.cfg ~cache:res0.Viewcl.cache s.Visualinux.target bad with
  | _ -> Alcotest.fail "expected the bad program to fail"
  | exception Viewcl.Error _ -> ());
  Alcotest.(check (list int)) "pre-failure roots restored" roots0
    (Vgraph.roots res0.Viewcl.graph);
  match Visualinux.vrefresh s ~pane:pane.Panel.pid with
  | None -> Alcotest.fail "vrefresh after a failed run"
  | Some (res, _) ->
      Alcotest.(check string) "warm refresh after a failed run == cold plot"
        (Render.canonical (cold_plot k src))
        (Render.canonical res.Viewcl.graph)

(* A redefined Box changing its C type must not reuse the old box in
   place: btype/size are frozen at allocation and feed renders,
   total_bytes and the typed-SELECT index. *)
let test_redefined_btype_reallocates () =
  let _, _, s = session () in
  let tgt = s.Visualinux.target in
  let cfg = s.Visualinux.cfg in
  let r1 = Viewcl.run ~cfg tgt "define D as Box<task_struct> [ Text pid ]\nplot D(${&init_task})" in
  let id1 = List.hd r1.Viewcl.plots in
  Alcotest.(check string) "first build typed task_struct" "task_struct"
    (Vgraph.get r1.Viewcl.graph id1).Vgraph.btype;
  let r2 =
    Viewcl.run ~cfg ~cache:r1.Viewcl.cache tgt
      "define D as Box<list_head> [ Text<raw_ptr> next ]\nplot D(${&init_task})"
  in
  let id2 = List.hd r2.Viewcl.plots in
  Alcotest.(check bool) "fresh box allocated for the new type" true (id2 <> id1);
  let b2 = Vgraph.get r2.Viewcl.graph id2 in
  Alcotest.(check string) "box carries the new C type" "list_head" b2.Vgraph.btype;
  Alcotest.(check int) "box carries the new size"
    (Ctype.sizeof (Target.types tgt) (Ctype.Named "list_head"))
    b2.Vgraph.size;
  Alcotest.(check bool) "stale box swept from the graph" true
    (Vgraph.find r2.Viewcl.graph id1 = None);
  Alcotest.(check (list int)) "type index reflects the redefinition" []
    (Vgraph.ids_of_type r2.Viewcl.graph "task_struct");
  Alcotest.(check (list int)) "definition index points at the new box" [ id2 ]
    (Vgraph.ids_of_type r2.Viewcl.graph "D")

(* The persistent graph must not accumulate boxes that churn pushed out
   of the structure: after refreshes under heavy mutation it stays
   bounded by what a cold plot of the same state builds. *)
let test_graph_bounded_across_refreshes () =
  let k, w, s = session () in
  let src = source "9-2" in
  let pane, _, _ = Visualinux.vplot s src in
  let chaos = Workload.Chaos.create ~seed:7 w ~rate:1.0 in
  let final = ref 0 in
  for _ = 1 to 6 do
    for _ = 1 to 5 do
      Workload.Chaos.mutate chaos
    done;
    match Visualinux.vrefresh s ~pane:pane.Panel.pid with
    | None -> Alcotest.fail "vrefresh failed"
    | Some (res, stats) ->
        final := Vgraph.box_count res.Viewcl.graph;
        Alcotest.(check int) "plot_stats counts the swept graph" !final
          stats.Visualinux.boxes
  done;
  Alcotest.(check bool) "persistent graph bounded by a cold plot" true
    (!final <= Vgraph.box_count (cold_plot k src))

(* ------------------------------------------------------------------ *)
(* ViewQL over the refreshed (persistent) graph *)

let test_viewql_index_after_refresh () =
  let _, w, s = session () in
  let pane, res0, _ = Visualinux.vplot s (source "3-4") in
  let count g =
    let qs = Viewql.make_session g in
    ignore (Viewql.exec qs "t = SELECT task_struct FROM *");
    List.length (Viewql.eval_set qs (Viewql.Named "t"))
  in
  let n0 = count res0.Viewcl.graph in
  Alcotest.(check bool) "typed SELECT finds tasks via the index" true (n0 > 0);
  let chaos = Workload.Chaos.create ~seed:11 w ~rate:1.0 in
  for _ = 1 to 5 do Workload.Chaos.mutate chaos done;
  match Visualinux.vrefresh s ~pane:pane.Panel.pid with
  | None -> Alcotest.fail "vrefresh failed"
  | Some (res, _) ->
      (* in-place rebuilds must not duplicate or lose index entries *)
      Alcotest.(check int) "same task count after an in-place refresh" n0
        (count res.Viewcl.graph);
      let ids = Vgraph.ids_of_type res.Viewcl.graph "task_struct" in
      Alcotest.(check (list int)) "index ids are unique and sorted"
        (List.sort_uniq compare ids) ids

let suite =
  [ Alcotest.test_case "repeat plot skips the transport" `Quick test_repeat_plot_skips_transport;
    Alcotest.test_case "every wire fetch is one cache miss" `Quick test_fetch_is_one_miss;
    Alcotest.test_case "cache off restores per-field reads" `Quick
      test_cache_off_restores_per_field_reads;
    QCheck_alcotest.to_alcotest warm_equals_cold;
    QCheck_alcotest.to_alcotest warm_equals_cold_under_injection;
    QCheck_alcotest.to_alcotest exact_invalidation;
    Alcotest.test_case "failed run rolls back" `Quick test_failed_run_rolls_back;
    Alcotest.test_case "redefined btype reallocates" `Quick test_redefined_btype_reallocates;
    Alcotest.test_case "graph bounded across refreshes" `Quick
      test_graph_bounded_across_refreshes;
    Alcotest.test_case "viewql index survives refresh" `Quick test_viewql_index_after_refresh ]
