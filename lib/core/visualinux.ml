(** Visualinux — the framework façade (paper §4).

    A {!session} binds a booted simulated kernel, the debugger target, and
    the pane manager, and exposes the three v-commands:

    - {!vplot}: evaluate a ViewCL program, open the result in a pane;
    - {!vctrl}: pane control — apply ViewQL, split, focus, persist;
    - {!vchat}: natural language -> ViewQL -> apply. *)

module Scripts = Scripts
module Objectives = Objectives

type session = {
  kernel : Kstate.t;
  target : Target.t;
  mutable panel : Panel.t;  (** replaced wholesale by {!recover} *)
  cfg : Viewcl.config;
  mutable target_pid : int;
  caches : (Panel.pane_id, Viewcl.cache) Hashtbl.t;
      (** per-pane plot caches: {!vrefresh} and {!refresh_stale} pass a
          pane's cache back to ViewCL so a re-plot re-extracts only the
          boxes whose pages were written since the last one *)
}

(** The EMOJI decorator instances of Table 1: stateful-value glyphs. *)
let emojis =
  [ ("lock", fun v -> if v <> 0 then "[LOCKED]" else "[unlocked]");
    ("onrq", fun v -> if v <> 0 then "[on-rq]" else "[off-rq]");
    ("dead", fun v -> if v <> 0 then "[DEAD]" else "[live]") ]

let config () = { Viewcl.flags = Ktypes.flag_tables; emojis }

(** Attach to a booted kernel. [target_pid] (default: the first user
    process) is exposed to ViewCL scripts as a macro. [transport], when
    given, routes every target read over a simulated debugger link
    (latency accounting, fault injection, retry/backoff, breaker).
    [target], when given, reuses an existing target handle instead of
    building a fresh one — the session server's multiplexing hook: N
    sessions sharing one handle also share its generation-validated
    read cache, so one session's cold plot warms every session's
    refresh of the same structures. *)
let attach ?target_pid ?transport ?target kernel =
  let target = match target with Some t -> t | None -> Khelpers.attach kernel in
  Option.iter (Target.set_transport target) transport;
  let pid =
    match target_pid with
    | Some p -> p
    | None -> (
        (* Prefer a user-space group leader with a populated fd table (the
           workload's first worker); fall back to any user leader. *)
        let ctx = kernel.Kstate.ctx in
        let user t =
          Kcontext.r64 ctx t "task_struct" "mm" <> 0
          && Ktask.pid ctx t > 1
          && Kcontext.r64 ctx t "task_struct" "group_leader" = t
        in
        let fd_count t =
          match Kcontext.r64 ctx t "task_struct" "files" with
          | 0 -> 0
          | files -> List.length (Kvfs.open_fds kernel.Kstate.vfs files)
        in
        let users = List.filter user (Kstate.all_tasks kernel) in
        match List.find_opt (fun t -> fd_count t >= 4) users with
        | Some t -> Ktask.pid ctx t
        | None -> ( match users with t :: _ -> Ktask.pid ctx t | [] -> 1))
  in
  Target.add_macro target "target_pid" pid;
  { kernel; target; panel = Panel.create (); cfg = config (); target_pid = pid;
    caches = Hashtbl.create 8 }

let set_target_pid s pid =
  s.target_pid <- pid;
  Target.add_macro s.target "target_pid" pid

(* ------------------------------------------------------------------ *)
(* v-commands *)

(** Statistics of one extraction, for the Table 4 experiment. *)
type plot_stats = {
  boxes : int;
  bytes : int;  (** total sizeof of plotted kernel objects *)
  reads : int;  (** target read operations during extraction *)
  read_bytes : int;
  wall_ms : float;  (** extraction time on the monotonicized {!Obs.Clock} *)
  link : Transport.snapshot option;  (** transport health, when attached *)
  spans : int;  (** obs spans recorded during this plot (0 when disabled) *)
  trace : Obs.span list option;  (** those spans, oldest first, when tracing *)
  cache_hits : int;  (** boxes adopted from the previous plot of this pane *)
  cache_misses : int;  (** boxes built for the first time *)
  cache_invalidated : int;  (** stale cached boxes re-extracted in place *)
  trace_id : int;  (** causal trace this extraction ran under (0 when off) *)
}

(** vplot: evaluate ViewCL source, open a primary pane with the plot. *)
let vplot s ?(title = "plot") src =
  Target.reset_stats s.target;
  Option.iter Transport.begin_plot (Target.transport s.target);
  let spans0 = Obs.spans_total () in
  let rel0 = Obs.since_epoch_ms () in
  (* thread the ambient trace through the extraction; a standalone plot
     (no session op around it) mints its own root trace *)
  let tid =
    if Obs.Trace.current () <> 0 then Obs.Trace.current () else Obs.Trace.mint ()
  in
  let t0 = Obs.Clock.now_ms () in
  let res =
    Obs.Trace.with_trace tid (fun () ->
        Obs.with_span ~cat:"core" ~attrs:[ ("title", title) ] "core.vplot" (fun () ->
            Viewcl.run ~cfg:s.cfg s.target src))
  in
  let wall_ms = Obs.Clock.elapsed_ms t0 in
  if Obs.enabled () then
    Obs.Trace.with_trace tid (fun () -> Obs.Metrics.observe "core.plot_ms" wall_ms);
  let st = Target.stats s.target in
  Vgraph.set_title res.Viewcl.graph title;
  let pane = Panel.open_primary s.panel ~program:src res.Viewcl.graph in
  let spans = Obs.spans_total () - spans0 in
  let trace =
    if Obs.enabled () then
      Some (List.filter (fun (sp : Obs.span) -> sp.Obs.st0_ms >= rel0) (Obs.span_events ()))
    else None
  in
  Hashtbl.replace s.caches pane.Panel.pid res.Viewcl.cache;
  let stats =
    { boxes = Vgraph.box_count res.Viewcl.graph; bytes = Vgraph.total_bytes res.Viewcl.graph;
      reads = st.Target.reads; read_bytes = st.Target.bytes; wall_ms;
      link = Option.map Transport.snapshot (Target.transport s.target); spans; trace;
      cache_hits = res.Viewcl.cache_hits; cache_misses = res.Viewcl.cache_misses;
      cache_invalidated = res.Viewcl.cache_invalidated; trace_id = tid }
  in
  (pane, res, stats)

(** vctrl subcommands. *)
type vctrl =
  | Apply of { pane : Panel.pane_id; viewql : string }
  | Split of { pane : Panel.pane_id; dir : [ `Horizontal | `Vertical ]; program : string }
  | Focus of { addr : int }
  | Select of { pane : Panel.pane_id; boxes : Vgraph.box_id list }
  | Close of { pane : Panel.pane_id }

type vctrl_result =
  | Updated of int
  | Opened of Panel.pane_id
  | Found of (Panel.pane_id * Vgraph.box_id) list
  | Closed

let vctrl s cmd =
  match cmd with
  | Apply { pane; viewql } -> Updated (Panel.refine s.panel ~at:pane viewql)
  | Split { pane; dir; program } ->
      Option.iter Transport.begin_plot (Target.transport s.target);
      let res = Viewcl.run ~cfg:s.cfg s.target program in
      let p = Panel.split s.panel ~dir ~at:pane ~program res.Viewcl.graph in
      Hashtbl.replace s.caches p.Panel.pid res.Viewcl.cache;
      Opened p.Panel.pid
  | Focus { addr } -> Found (Panel.focus s.panel ~addr)
  | Select { pane; boxes } ->
      let p = Panel.select s.panel ~from:pane boxes in
      Opened p.Panel.pid
  | Close { pane } ->
      Panel.close s.panel pane;
      Closed

(** vchat: natural language -> ViewQL (via the deterministic synthesizer
    or a plugged-in LLM) -> applied to the pane. Returns the synthesized
    program and the number of boxes updated. *)
let vchat s ?llm ~pane text =
  let program = Vchat.synthesize ?llm text in
  let updated = Panel.refine s.panel ~at:pane program in
  (program, updated)

(** vprof: the profiling v-command — toggle tracing, print the profile
    report, or export the buffered events (Chrome trace JSON), the
    metrics registry (JSON) or a Prometheus text scrape to a file. *)
type vprof =
  | Prof_on
  | Prof_off
  | Prof_report
  | Prof_export of string  (** destination file for the Chrome trace *)
  | Prof_export_metrics of string  (** destination file for metrics JSON *)
  | Prof_export_prom of string  (** destination file for Prometheus text *)

type vprof_result =
  | Prof_state of bool  (** tracing now enabled? *)
  | Prof_text of string  (** the report *)
  | Prof_written of string  (** exported trace path *)

let write_file file contents =
  let oc = open_out file in
  output_string oc contents;
  close_out oc

let vprof _s cmd =
  match cmd with
  | Prof_on ->
      Obs.set_enabled true;
      Prof_state true
  | Prof_off ->
      Obs.set_enabled false;
      Prof_state false
  | Prof_report -> Prof_text (Obs.report ())
  | Prof_export file ->
      write_file file (Obs.chrome_trace ());
      Prof_written file
  | Prof_export_metrics file ->
      write_file file (Obs.metrics_json ());
      Prof_written file
  | Prof_export_prom file ->
      write_file file (Obs.prometheus ());
      Prof_written file

(** vverify: run the structural sanitizer ({!Sanity}) over a pane's
    extracted graph on demand.  Consistent sections guarantee the bytes
    were read atomically; vverify asks whether they form legal
    structures.  Suspect boxes are stamped so the next render of the
    pane shows their [SUSPECT:<law>] tags.  [None] when the pane does
    not exist. *)
let vverify ?(mark = true) s ~pane =
  Option.map
    (fun p -> Sanity.check_graph ~mark s.kernel.Kstate.ctx p.Panel.graph)
    (Panel.pane_opt s.panel pane)

(* ------------------------------------------------------------------ *)
(* Session persistence: save pane programs + refinement histories and
   replay them against a (possibly different) kernel state — "persisting
   the state of panes and plots for reuse across debugging sessions". *)

let save_session s = Panel.to_json s.panel

(** The replayable essence of a session: primary pane programs with their
    refinement histories. *)
let session_programs s = Panel.saved_programs s.panel

(** Replay saved programs into [s] (typically a fresh session on a new
    kernel): re-extracts each plot and re-applies its ViewQL history. *)
let replay s programs =
  List.map
    (fun (program, history) ->
      let pane, res, _ = vplot s program in
      List.iter (fun ql -> ignore (Panel.refine s.panel ~at:pane.Panel.pid ql)) history;
      (pane, res))
    programs

(* ------------------------------------------------------------------ *)
(* Crash recovery: the panel journals every session op; after the link
   dies mid-extraction, [recover] reconnects and replays the journal
   against the same kernel.  Plotting is read-only, so replaying a
   program yields the same graph — and Vgraph box ids are assigned
   per-graph sequentially, so the recovered panes carry the same box
   ids the pre-crash session had. *)

(** Run one ViewCL program for pane recovery; [None] when the link is
    (still) unusable, so the pane comes back [stale] instead of empty.
    With [?cache] (a pane's plot cache) the extraction is incremental:
    only boxes whose pages were written since the cached plot are
    re-extracted, and the updated cache is published through
    [on_cache]. *)
let extract_for ?cache ?(on_cache = fun _ -> ()) ?(on_fail = fun () -> ()) s program =
  match Target.transport s.target with
  | Some tr when Transport.link tr = Transport.Down -> None
  | tr_opt -> (
      Option.iter Transport.begin_plot tr_opt;
      match Viewcl.run ~cfg:s.cfg ?cache s.target program with
      | res ->
          on_cache res.Viewcl.cache;
          Some res.Viewcl.graph
      | exception Viewcl.Error _ ->
          (* Expected extraction failure (bad program against this
             state, budget, eval error).  The failed run may have left
             [cache]'s graph mid-mutation, so the caller must stop
             reusing it — that is what [on_fail] is for. *)
          on_fail ();
          None
      | exception e ->
          (* Unexpected failures surface to the caller rather than
             masquerading as "pane is stale"; the cache is equally
             unusable. *)
          on_fail ();
          raise e)

(** Rebuild the whole pane layout from the session journal (or an
    explicitly supplied one, e.g. loaded from disk).  Reconnects a dead
    link first.  Returns the number of panes that came back stale. *)
let recover ?ops s =
  (match Target.transport s.target with
  | Some tr when Transport.link tr = Transport.Down -> Transport.reconnect tr
  | _ -> ());
  (* Journal replay rebuilds every pane from scratch (and reassigns pane
     ids as the ops are replayed), so the per-pane caches are dead
     weight — drop them rather than risk pairing a cache with the wrong
     pane.  The read-cache hit/miss counters restart with them: a
     recovery opens a fresh cache epoch, so hit-rate reporting never
     mixes pre- and post-recovery traffic. *)
  Hashtbl.reset s.caches;
  Target.reset_cache_stats s.target;
  let ops = match ops with Some o -> o | None -> Panel.journal s.panel in
  let panel, stale = Panel.recover ~extract:(extract_for s) ops in
  s.panel <- panel;
  stale

(** Re-extract every stale pane; returns the ids brought back live.
    Panes plotted in this session refresh incrementally through their
    plot cache. *)
let refresh_stale s =
  List.filter
    (fun id ->
      Panel.refresh s.panel ~at:id
        ~extract:
          (extract_for
             ?cache:(Hashtbl.find_opt s.caches id)
             ~on_cache:(Hashtbl.replace s.caches id)
             ~on_fail:(fun () -> Hashtbl.remove s.caches id)
             s))
    (Panel.stale_ids s.panel)

(** vrefresh: incrementally re-plot a primary pane in place.  The pane's
    plot cache carries every box of the previous extraction stamped with
    the (page, generation) pairs it read; the re-plot adopts boxes whose
    pages are untouched and re-extracts — in place, under the same box
    ids — only those invalidated by kernel writes, then replays the
    pane's ViewQL history.  Returns the ViewCL result and {!plot_stats}
    (same shape as {!vplot}); [None] for unknown/secondary panes or a
    dead link. *)
let vrefresh s ~pane =
  match Panel.pane_opt s.panel pane with
  | None -> None
  | Some { Panel.kind = Panel.Secondary _; _ } -> None
  | Some { Panel.kind = Panel.Primary { program }; _ } -> (
      match Target.transport s.target with
      | Some tr when Transport.link tr = Transport.Down -> None
      | tr_opt -> (
          Target.reset_stats s.target;
          Option.iter Transport.begin_plot tr_opt;
          let spans0 = Obs.spans_total () in
          let rel0 = Obs.since_epoch_ms () in
          let tid =
            if Obs.Trace.current () <> 0 then Obs.Trace.current ()
            else Obs.Trace.mint ()
          in
          let t0 = Obs.Clock.now_ms () in
          (* A failed run can leave the cache's shared graph mid-mutation
             (reset boxes, partial views — run_exn restores the roots but
             not box contents): drop the cache so the next refresh of
             this pane re-extracts cold into a fresh graph, and flag the
             pane stale so its render says the plot predates the failure.
             Only the expected Viewcl failure maps to None; anything else
             surfaces. *)
          let drop_cache () =
            Hashtbl.remove s.caches pane;
            Option.iter (fun p -> p.Panel.stale <- true) (Panel.pane_opt s.panel pane)
          in
          match
            Obs.Trace.with_trace tid (fun () ->
                Obs.with_span ~cat:"core" "core.vrefresh" (fun () ->
                    match
                      Viewcl.run ~cfg:s.cfg
                        ?cache:(Hashtbl.find_opt s.caches pane)
                        s.target program
                    with
                    | res ->
                        Hashtbl.replace s.caches pane res.Viewcl.cache;
                        if
                          Panel.refresh s.panel ~at:pane
                            ~extract:(fun _ -> Some res.Viewcl.graph)
                        then Some res
                        else None
                    | exception Viewcl.Error _ ->
                        drop_cache ();
                        None
                    | exception e ->
                        drop_cache ();
                        raise e))
          with
          | None -> None
          | Some res ->
              let wall_ms = Obs.Clock.elapsed_ms t0 in
              if Obs.enabled () then
                Obs.Trace.with_trace tid (fun () ->
                    Obs.Metrics.observe "core.plot_ms" wall_ms);
              let st = Target.stats s.target in
              let spans = Obs.spans_total () - spans0 in
              let trace =
                if Obs.enabled () then
                  Some
                    (List.filter
                       (fun (sp : Obs.span) -> sp.Obs.st0_ms >= rel0)
                       (Obs.span_events ()))
                else None
              in
              Some
                ( res,
                  { boxes = Vgraph.box_count res.Viewcl.graph;
                    bytes = Vgraph.total_bytes res.Viewcl.graph;
                    reads = st.Target.reads; read_bytes = st.Target.bytes; wall_ms;
                    link = Option.map Transport.snapshot (Target.transport s.target);
                    spans; trace; cache_hits = res.Viewcl.cache_hits;
                    cache_misses = res.Viewcl.cache_misses;
                    cache_invalidated = res.Viewcl.cache_invalidated;
                    trace_id = tid } )))

(** Render one pane as ASCII, with its [STALE] tag and the transport
    health line when a link is attached. *)
let render_pane s id =
  Option.map
    (fun p ->
      let roots =
        match p.Panel.kind with
        | Panel.Secondary { picked; _ } -> Some picked
        | Panel.Primary _ -> None
      in
      Render.ascii ?roots ~stale:p.Panel.stale
        ?transport:(Target.transport s.target) p.Panel.graph)
    (Panel.pane_opt s.panel id)

(* ------------------------------------------------------------------ *)
(* Naive ViewCL synthesis (paper §4: "vplot ... can also synthesize naive
   ViewCL code for trivial debugging objectives"): generate a Box showing
   every scalar field of a registered struct, from the type registry. *)

let synthesize_viewcl reg ~typ ~expr =
  if not (Ctype.is_defined reg typ) then
    invalid_arg (Printf.sprintf "vplot_auto: unknown type %S" typ);
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "define Auto_%s as Box<%s> [\n" typ typ);
  List.iter
    (fun f ->
      let name = f.Ctype.fname in
      match f.Ctype.ftyp with
      | Ctype.Int _ | Ctype.Bool -> Buffer.add_string buf (Printf.sprintf "  Text %s\n" name)
      | Ctype.Array (Ctype.Int { Ctype.ik_size = 1; _ }, _) ->
          Buffer.add_string buf (Printf.sprintf "  Text<string> %s\n" name)
      | Ctype.Ptr (Ctype.Func _) ->
          Buffer.add_string buf (Printf.sprintf "  Text<fptr> %s\n" name)
      | Ctype.Ptr _ -> Buffer.add_string buf (Printf.sprintf "  Text<raw_ptr> %s\n" name)
      | Ctype.Named n when Ctype.is_defined reg n && Ctype.kind_of reg n = Ctype.Enum_kind ->
          Buffer.add_string buf (Printf.sprintf "  Text<enum:%s> %s\n" n name)
      | Ctype.Named _ | Ctype.Array _ | Ctype.Void | Ctype.Func _ ->
          (* embedded aggregates are beyond a naive plot *)
          ())
    (Ctype.fields reg typ);
  Buffer.add_string buf "]\n";
  Buffer.add_string buf (Printf.sprintf "plot Auto_%s(${%s})\n" typ expr);
  Buffer.contents buf

(** vplot with synthesized ViewCL: plot the struct [typ] object denoted by
    the C expression [expr], showing all its scalar fields. *)
let vplot_auto s ~typ ~expr =
  let src = synthesize_viewcl (Target.types s.target) ~typ ~expr in
  vplot s ~title:(Printf.sprintf "auto: %s" typ) src

(* ------------------------------------------------------------------ *)
(* Convenience: run a Table 2 figure end to end. *)

let plot_figure s (sc : Scripts.script) =
  let title = Printf.sprintf "ULK Fig %s: %s" sc.Scripts.fig sc.Scripts.descr in
  vplot s ~title sc.Scripts.source
