(* The extraction fast path (ISSUE 5): the generation-validated read
   cache (the only coalescer) and incremental re-plot.

   The correctness bar: caching is an optimization of WHERE bytes come
   from, never of WHAT the plot says.  A warm cached re-plot must render
   bit-identically to a cold uncached plot of the same kernel state —
   under writes, chaos mutation storms, and fault injection — and a
   Kmem write must invalidate exactly the cached boxes whose own read
   extents it overlaps. *)

let session () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  (k, w, Visualinux.attach k)

let source fig = (Option.get (Scripts.find fig)).Scripts.source

(* A cold control plot of the same kernel through a fresh target with
   the read cache off: the uncached extraction path.  [target_pid] is
   the warm session's: a write may change which process attach would
   pick on its own. *)
let cold_plot ~target_pid k src =
  let s = Visualinux.attach ~target_pid k in
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
          let cold =
            Render.canonical (cold_plot ~target_pid:s.Visualinux.target_pid k src)
          in
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
      let cold_s = Visualinux.attach ~target_pid:s.Visualinux.target_pid k in
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
(* Exactness: a write rebuilds the cached boxes whose own read extents
   it overlaps, and nothing else — no page neighbours, no ancestors *)

let exact_invalidation =
  QCheck.Test.make ~name:"a write invalidates exactly the boxes whose read extents it overlaps"
    ~count:15
    QCheck.(pair (int_bound 1_000_000) (int_bound 4))
    (fun (seed, figi) ->
      let k, _, s = session () in
      let src = source figures.(figi) in
      let pane, res0, _ = Visualinux.vplot s src in
      let cache = res0.Viewcl.cache in
      (* the written byte is chosen from the type registry, not from
         what the cache recorded: a random byte of a random field of a
         random cached box's object *)
      let reg = Target.types s.Visualinux.target in
      let rng = Random.State.make [| seed |] in
      let pick l = List.nth l (Random.State.int rng (List.length l)) in
      let typed =
        List.filter_map
          (fun id ->
            let b = Vgraph.get res0.Viewcl.graph id in
            if Ctype.is_defined reg b.Vgraph.btype && Ctype.fields reg b.Vgraph.btype <> [] then
              Some b
            else None)
          (Viewcl.cache_boxes cache)
      in
      QCheck.assume (typed <> []);
      let b = pick typed in
      let f = pick (Ctype.fields reg b.Vgraph.btype) in
      let a =
        b.Vgraph.addr + f.Ctype.foffset
        + Random.State.int rng (max 1 (Ctype.sizeof reg f.Ctype.ftyp))
      in
      (* write the byte back to itself: content unchanged, the write is logged *)
      let mem = k.Kstate.ctx.Kcontext.mem in
      let v = Kmem.read_u8 mem a in
      Kmem.write_u8 mem a v;
      (* expected: every cached box whose recorded extents hold that byte *)
      let expected =
        List.filter
          (fun id -> List.exists (fun (lo, hi) -> lo <= a && a < hi) (Viewcl.cache_extents cache id))
          (Viewcl.cache_boxes cache)
      in
      let exact =
        match Visualinux.vrefresh s ~pane:pane.Panel.pid with
        | None -> false
        | Some (res, _) -> res.Viewcl.rebuilt = expected
      in
      (* now change the byte: a box that read it without recording it
         would keep its old value, so the pane must still equal a cold
         plot (both fail alike when the change breaks the program) *)
      Kmem.write_u8 mem a (v lxor 0x1);
      let warm =
        Option.map
          (fun (res, _) -> Render.canonical res.Viewcl.graph)
          (Visualinux.vrefresh s ~pane:pane.Panel.pid)
      in
      let cold =
        try Some (Render.canonical (cold_plot ~target_pid:s.Visualinux.target_pid k src))
        with _ -> None
      in
      exact && warm = cold)

(* ------------------------------------------------------------------ *)
(* Failure rollback: a run that raises must not corrupt the pane *)

(* The high-severity review scenario: a re-plot over a live cache
   raises partway (here: a C expression naming no symbol, evaluated
   after the real plots, standing in for a box-budget blowout or any
   other eval error).  The
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
  let bad = src ^ "\ndefine Bad as Box<task_struct> [ Text pid ]\nplot Bad(${nosym})\n" in
  (match Viewcl.run ~cfg:s.Visualinux.cfg ~cache:res0.Viewcl.cache s.Visualinux.target bad with
  | _ -> Alcotest.fail "expected the bad program to fail"
  | exception Viewcl.Error _ -> ());
  Alcotest.(check (list int)) "pre-failure roots restored" roots0
    (Vgraph.roots res0.Viewcl.graph);
  match Visualinux.vrefresh s ~pane:pane.Panel.pid with
  | None -> Alcotest.fail "vrefresh after a failed run"
  | Some (res, _) ->
      Alcotest.(check string) "warm refresh after a failed run == cold plot"
        (Render.canonical (cold_plot ~target_pid:s.Visualinux.target_pid k src))
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
    (!final
    <= Vgraph.box_count (cold_plot ~target_pid:s.Visualinux.target_pid k src))

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

(* ------------------------------------------------------------------ *)
(* Byte-granular validity: a write rebuilds the boxes whose read bytes
   it overlaps, not every box on its page, and not their ancestors *)

(* A two-box plot: [Top] reads a task's tgid and real_parent, its child
   [Leaf] reads only the parent task's pid. *)
let two_box_src =
  {|define Leaf as Box<task_struct> [ Text pid ]
define Top as Box<task_struct> [
  Text tgid
  Link parent -> @p
] where {
  p = Leaf(${@this->real_parent})
}
plot Top(${task_of_pid(target_pid)})
|}

type two_box = {
  tk : Kstate.t;
  ts : Visualinux.session;
  pid : Panel.pane_id;
  top : Vgraph.box;
  leaf : Vgraph.box;
}

let two_box () =
  let k, _, s = session () in
  let pane, res, _ = Visualinux.vplot s two_box_src in
  let g = res.Viewcl.graph in
  let only def =
    match List.filter (fun b -> b.Vgraph.bdef = def) (Vgraph.boxes g) with
    | [ b ] -> b
    | _ -> Alcotest.failf "expected one %s box" def
  in
  let top = only "Top" and leaf = only "Leaf" in
  Alcotest.(check bool) "leaf is another task" true (top.Vgraph.addr <> leaf.Vgraph.addr);
  { tk = k; ts = s; pid = pane.Panel.pid; top; leaf }

let field_addr tb (b : Vgraph.box) f =
  b.Vgraph.addr + Ctype.offsetof (Target.types tb.ts.Visualinux.target) "task_struct" f

(* The byte ranges the two boxes read. *)
let read_ranges tb =
  [ (field_addr tb tb.top "tgid", 4); (field_addr tb tb.top "real_parent", 8);
    (field_addr tb tb.leaf "pid", 4) ]

let unread tb a = List.for_all (fun (lo, n) -> a < lo || a >= lo + n) (read_ranges tb)

(* Write the byte at [a] back to itself: the content stays, the write
   is logged. *)
let rewrite tb a =
  let mem = tb.tk.Kstate.ctx.Kcontext.mem in
  Kmem.write_u8 mem a (Kmem.read_u8 mem a)

let refreshed tb =
  match Visualinux.vrefresh tb.ts ~pane:tb.pid with
  | None -> Alcotest.fail "vrefresh failed"
  | Some (res, _) ->
      Alcotest.(check string) "warm refresh == cold plot"
        (Render.canonical
           (cold_plot ~target_pid:tb.ts.Visualinux.target_pid tb.tk two_box_src))
        (Render.canonical res.Viewcl.graph);
      res.Viewcl.rebuilt

let page_of a = a lsr Kmem.page_bits

let test_unread_byte_rebuilds_nothing () =
  let tb = two_box () in
  let pid_a = field_addr tb tb.leaf "pid" in
  let a =
    List.find
      (fun a -> page_of a = page_of pid_a && unread tb a)
      (List.map (field_addr tb tb.leaf) [ "comm"; "tgid"; "prio"; "real_parent" ])
  in
  rewrite tb a;
  Alcotest.(check (list int)) "nothing rebuilt" [] (refreshed tb)

let test_leaf_write_rebuilds_only_the_leaf () =
  let tb = two_box () in
  rewrite tb (field_addr tb tb.leaf "pid");
  Alcotest.(check (list int)) "only the leaf rebuilt" [ tb.leaf.Vgraph.id ] (refreshed tb)

let test_log_overflow_falls_back_to_pages () =
  let tb = two_box () in
  let pid_a = field_addr tb tb.leaf "pid" in
  let base = page_of pid_a lsl Kmem.page_bits in
  (* 200 separate one-byte writes, none adjacent and none read, all on
     the leaf's page: more than any page's write log holds *)
  let rec scribble off n =
    if n > 0 && off < 1 lsl Kmem.page_bits then
      if unread tb (base + off) then begin
        rewrite tb (base + off);
        scribble (off + 2) (n - 1)
      end
      else scribble (off + 2) n
  in
  scribble 1 200;
  Alcotest.(check bool) "the leaf is rebuilt at page granularity" true
    (List.mem tb.leaf.Vgraph.id (refreshed tb))

(* An [@] inside a C string literal names nothing: the leaf stays closed
   and a write to its bytes rebuilds the leaf alone, not its caller. *)
let test_string_literal_is_not_a_name () =
  let k, _, s = session () in
  let src =
    {|define Leaf as Box<task_struct> [
  Text pid
  Text tag: ${"@outer"}
]
define Top as Box<task_struct> [
  Text tgid
  Link parent -> @p
] where {
  p = Leaf(${@this->real_parent})
}
plot Top(${task_of_pid(target_pid)})
|}
  in
  let pane, res0, _ = Visualinux.vplot s src in
  let leaf = List.find (fun b -> b.Vgraph.bdef = "Leaf") (Vgraph.boxes res0.Viewcl.graph) in
  let a =
    leaf.Vgraph.addr + Ctype.offsetof (Target.types s.Visualinux.target) "task_struct" "pid"
  in
  let mem = k.Kstate.ctx.Kcontext.mem in
  Kmem.write_u8 mem a (Kmem.read_u8 mem a);
  match Visualinux.vrefresh s ~pane:pane.Panel.pid with
  | None -> Alcotest.fail "vrefresh failed"
  | Some (res, _) ->
      Alcotest.(check (list int)) "only the leaf rebuilt" [ leaf.Vgraph.id ] res.Viewcl.rebuilt;
      Alcotest.(check string) "warm refresh == cold plot"
        (Render.canonical (cold_plot ~target_pid:s.Visualinux.target_pid k src))
        (Render.canonical res.Viewcl.graph)

(* A helper reads kernel memory past the checked reads; the bytes it
   read belong to the calling box's extents.  7-1's Rq shows
   [cpu_curr(@this->cpu)->comm], and only the helper reads [rq->curr]:
   pointing it at another task must rebuild the Rq box. *)
let test_helper_read_is_an_extent () =
  let k, _, s = session () in
  let src = source "7-1" in
  let pane, res0, _ = Visualinux.vplot s src in
  let rq = List.find (fun b -> b.Vgraph.bdef = "Rq") (Vgraph.boxes res0.Viewcl.graph) in
  let a = rq.Vgraph.addr + Ctype.offsetof (Target.types s.Visualinux.target) "rq" "curr" in
  let mem = k.Kstate.ctx.Kcontext.mem in
  Alcotest.(check bool) "curr is another task" true (Kmem.read_u64 mem a <> k.Kstate.init_task);
  Kmem.write_u64 mem a k.Kstate.init_task;
  match Visualinux.vrefresh s ~pane:pane.Panel.pid with
  | None -> Alcotest.fail "vrefresh failed"
  | Some (res, _) ->
      Alcotest.(check bool) "the Rq box rebuilt" true (List.mem rq.Vgraph.id res.Viewcl.rebuilt);
      Alcotest.(check string) "warm refresh == cold plot"
        (Render.canonical (cold_plot ~target_pid:s.Visualinux.target_pid k src))
        (Render.canonical res.Viewcl.graph)

(* A name is its field: [vma_name] reads [d_iname] up to its 32 bytes,
   so a write just past the name is no write to the box that shows it. *)
let test_write_past_name_keeps_box () =
  let k, _, s = session () in
  let tgt = s.Visualinux.target and ctx = k.Kstate.ctx in
  let src =
    {|define V as Box<vm_area_struct> [ Text<string> name: ${vma_name(@this)} ]
t = ${task_of_pid(target_pid)}
plot V(${mas_walk(&@t->mm->mm_mt, @t->mm->start_code)})
|}
  in
  let name res =
    match Vgraph.current_items (Vgraph.get res.Viewcl.graph (List.hd res.Viewcl.plots)) with
    | [ Vgraph.Text { value; _ } ] -> value
    | _ -> Alcotest.fail "unexpected items"
  in
  let r1 = Viewcl.run ~cfg:s.Visualinux.cfg tgt src in
  let vma = (Vgraph.get r1.Viewcl.graph (List.hd r1.Viewcl.plots)).Vgraph.addr in
  let d = Kcontext.r64 ctx (Kcontext.r64 ctx vma "vm_area_struct" "vm_file") "file" "f_path.dentry" in
  Kmem.write_u8 ctx.Kcontext.mem (Kcontext.fld ctx d "dentry" "d_iname" + 32) 0x41;
  let r2 = Viewcl.run ~cfg:s.Visualinux.cfg ~cache:r1.Viewcl.cache tgt src in
  Alcotest.(check (list int)) "nothing rebuilt" [] r2.Viewcl.rebuilt;
  Alcotest.(check bool) "a file name" true (name r1 <> "" && name r1 <> "[anon]");
  Alcotest.(check string) "the name shown is still valid" (name r1) (name r2)

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
    Alcotest.test_case "viewql index survives refresh" `Quick test_viewql_index_after_refresh;
    Alcotest.test_case "an unread byte's write rebuilds nothing" `Quick
      test_unread_byte_rebuilds_nothing;
    Alcotest.test_case "a leaf's write rebuilds only the leaf" `Quick
      test_leaf_write_rebuilds_only_the_leaf;
    Alcotest.test_case "write-log overflow falls back to pages" `Quick
      test_log_overflow_falls_back_to_pages;
    Alcotest.test_case "an @ in a C string literal is not a free name" `Quick
      test_string_literal_is_not_a_name;
    Alcotest.test_case "a helper's read is part of its box's extents" `Quick
      test_helper_read_is_an_extent;
    Alcotest.test_case "a write past a dentry name keeps its box" `Quick
      test_write_past_name_keeps_box ]
