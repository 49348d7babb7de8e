(* The four workloads.  Each is one closed loop from one client on one
   domain: an op is issued only after the previous one returned.  Inputs
   come from the seed alone.  Untraced, every op goes through the façade
   a user drives ([Visualinux], [Session]); traced, the same op is split
   into the public calls the façade makes, each under a bench-side span.
   The oracles run outside every timed region. *)

open Meter

let profile = Target.kgdb_rpi400

let script fig =
  match Scripts.find fig with Some s -> s | None -> invalid_arg ("unknown figure " ^ fig)

let objective fig =
  match List.find_opt (fun o -> o.Objectives.fig = fig) Objectives.all with
  | Some o -> o
  | None -> invalid_arg ("no objective for figure " ^ fig)

(* The seed handed to the kernel, link and WAL generators for unit [e] of
   a run.  Those generators use a seed as given, and small seeds draw
   differently from large ones: with seeds 1-51 the faulty fleet session
   was shed about four times as often as with seeds from 500 up.
   Hashing makes every run seed yield typical inputs. *)
let unit_seed seed e = Hashtbl.hash (seed, e)

let boot ~seed ~iters =
  let kernel = Kstate.boot () in
  let w = Workload.create ~seed kernel in
  Workload.run ~iters w;
  (kernel, w)

let kmem kernel = kernel.Kstate.ctx.Kcontext.mem

let shuffle seed l =
  let a = Array.of_list l in
  let rng = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let program (p : Panel.pane) =
  match p.Panel.kind with
  | Panel.Primary { program } -> program
  | Panel.Secondary _ -> invalid_arg "secondary pane"

(* ------------------------------------------------------------------ *)
(* The oracle *)

(* Box ids renumbered from the roots and the title fixed, so a pane
   refreshed in place and a cold plot of the same state print the same
   text; the obs footer is timing, not content. *)
let canonical g =
  let g' = Vgraph.renumber g in
  Vgraph.set_title g' "canonical";
  Render.ascii g'
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.length l >= 5 && String.sub l 0 5 = "[obs:"))
  |> String.concat "\n"

(* The reference: a local session with no transport and the read cache
   off, so every extraction is cold and uncached. *)
let reference kernel =
  let s = Visualinux.attach kernel in
  Target.set_read_cache s.Visualinux.target false;
  s

let reference_render r ?(history = []) src =
  match Visualinux.replay r [ (src, history) ] with
  | [ (pane, _) ] ->
      let txt = canonical pane.Panel.graph in
      Panel.close r.Visualinux.panel pane.Panel.pid;
      txt
  | _ -> invalid_arg "replay"

(* Table 3's check that a refinement had the intended effect, over the
   expectations this kernel state can meet at all: socketconn's figure
   scans the first 8 fds, and once the workload has opened more files
   the socket lies past them, so its plot holds no [sock] box to
   shrink.  [None] when no expectation applies. *)
let meets g (o : Objectives.objective) =
  let typed (e : Objectives.expect) b =
    b.Vgraph.btype = e.Objectives.exp_type || b.Vgraph.bdef = e.Objectives.exp_type
  in
  let set (e : Objectives.expect) b =
    let a = b.Vgraph.attrs in
    match e.Objectives.exp_attr with
    | "view" -> a.Vgraph.view <> "default"
    | "collapsed" -> a.Vgraph.collapsed
    | "trimmed" -> a.Vgraph.trimmed
    | "direction" -> a.Vgraph.direction = Vgraph.Vertical
    | _ -> false
  in
  let n p = List.length (List.filter p (Vgraph.boxes g)) in
  match
    List.filter (fun e -> n (typed e) >= e.Objectives.exp_min) o.Objectives.expects
  with
  | [] -> None
  | es ->
      Some (List.for_all (fun e -> n (fun b -> typed e b && set e b) >= e.Objectives.exp_min) es)

(* ------------------------------------------------------------------ *)
(* Layer counters *)

let link_counts trs =
  let sum f = List.fold_left (fun acc tr -> acc +. f (Transport.snapshot tr)) 0. trs in
  let n f = sum (fun s -> float_of_int (f s)) in
  [ ("transport.fetches", n (fun s -> s.Transport.reads_ok));
    ("transport.attempts", n (fun s -> s.Transport.attempts));
    ("transport.retries", n (fun s -> s.Transport.retries));
    ("transport.short_circuits", n (fun s -> s.Transport.short_circuits));
    ("transport.wire_ms", sum (fun s -> s.Transport.sim_ms)) ]

let target_counts t =
  let c = Target.cache_stats t in
  [ ("target.cache_hits", float_of_int c.Target.hits);
    ("target.cache_misses", float_of_int c.Target.misses);
    ("target.coalesced", float_of_int c.Target.coalesced);
    ("target.faults", float_of_int (Target.fault_count t)) ]

let add_plot env (st : Visualinux.plot_stats) (res : Viewcl.result) =
  addi env "target.reads" st.Visualinux.reads;
  addi env "target.bytes" st.Visualinux.read_bytes;
  addi env "viewcl.boxes" st.Visualinux.boxes;
  addi env "viewcl.box_hits" st.Visualinux.cache_hits;
  addi env "viewcl.box_misses" st.Visualinux.cache_misses;
  addi env "viewcl.box_invalidated" st.Visualinux.cache_invalidated;
  addi env "viewcl.rebuilt" (List.length res.Viewcl.rebuilt)

let add_render env txt = addi env "render.bytes" (String.length txt)

let render_pane env s pid =
  match Visualinux.render_pane s pid with
  | Some txt -> add_render env txt
  | None -> invalid_arg "render of a missing pane"

(* The traced twin of [Visualinux.render_pane] on a primary pane. *)
let render_split env s pid =
  let p = Panel.pane s.Visualinux.panel pid in
  ignore
    (span env "Render.ascii" (fun () ->
         Render.ascii ~stale:p.Panel.stale ?transport:(Target.transport s.Visualinux.target)
           p.Panel.graph))

(* ------------------------------------------------------------------ *)
(* cold_plot: the paper's Table 4 cold plot over the KGDB link. *)

let cold_title (sc : Scripts.script) =
  Printf.sprintf "ULK Fig %s: %s" sc.Scripts.fig sc.Scripts.descr

let cold_op env (s : Visualinux.session) (sc : Scripts.script) =
  let t = s.Visualinux.target and panel = s.Visualinux.panel in
  if env.traced then begin
    span env "Target.clear_read_cache" (fun () -> Target.clear_read_cache t);
    Target.reset_stats t;
    Option.iter Transport.begin_plot (Target.transport t);
    let res =
      span env "Viewcl.run" (fun () -> Viewcl.run ~cfg:s.Visualinux.cfg t sc.Scripts.source)
    in
    Vgraph.set_title res.Viewcl.graph (cold_title sc);
    let pane =
      span env "Panel.open_primary" (fun () ->
          Panel.open_primary panel ~program:sc.Scripts.source res.Viewcl.graph)
    in
    render_split env s pane.Panel.pid;
    span env "Panel.close" (fun () -> Panel.close panel pane.Panel.pid);
    res.Viewcl.graph
  end
  else begin
    Target.clear_read_cache t;
    let pane, res, st = Visualinux.plot_figure s sc in
    add_plot env st res;
    render_pane env s pane.Panel.pid;
    Panel.close panel pane.Panel.pid;
    res.Viewcl.graph
  end

(* A session keeps every pane's plot cache, closed panes included, so
   the loop starts a fresh one every [reattach] cycles. *)
let reattach = 10

let cold_plot env =
  let seed = env.seed in
  let figs = shuffle seed Scripts.table2 in
  let kernel, tr, s0 =
    setup env (fun () ->
        let seed = unit_seed seed 0 in
        let kernel, _ = boot ~seed ~iters:200 in
        let tr = Transport.create ~seed profile in
        let s = Visualinux.attach ~transport:tr kernel in
        Array.iter (fun sc -> ignore (cold_op env s sc)) figs;
        (kernel, tr, s))
  in
  let s = ref s0 in
  env.source <- (fun () -> link_counts [ tr ] @ target_counts !s.Visualinux.target);
  let first = Array.make (Array.length figs) None in
  let last = Array.make (Array.length figs) None in
  units env (fun i ->
      if i > 0 && i mod reattach = 0 then s := Visualinux.attach ~transport:tr kernel;
      Array.iteri
        (fun j sc ->
          op env ~kind:"plot" (fun () ->
              last.(j) <- Some (cold_op env !s sc);
              Served))
        figs;
      if i = 0 then Array.blit last 0 first 0 (Array.length figs));
  let r = reference kernel in
  Array.iteri
    (fun j (sc : Scripts.script) ->
      let want = reference_render r sc.Scripts.source in
      let ok g = match g with Some g -> canonical g = want | None -> false in
      check env (ok first.(j)) ("cold_plot first cycle " ^ sc.Scripts.fig);
      check env (ok last.(j)) ("cold_plot last cycle " ^ sc.Scripts.fig))
    figs

(* ------------------------------------------------------------------ *)
(* step_refresh: the breakpoint loop — the kernel steps, every pane
   refreshes incrementally and re-renders. *)

let step_figs = [ "3-6"; "7-1"; "11-1"; "16-2"; "proc2vfs"; "8-2"; "9-2"; "17-1" ]
let step_rounds = 50

let step_episode ~seed e =
  let seed = unit_seed seed e in
  let kernel, w = boot ~seed ~iters:40 in
  let tr = Transport.create ~seed profile in
  let s = Visualinux.attach ~transport:tr kernel in
  let panes =
    List.map
      (fun fig ->
        let pane, _, _ = Visualinux.plot_figure s (script fig) in
        pane.Panel.pid)
      step_figs
  in
  (kernel, w, tr, s, panes)

(* [Visualinux.vrefresh] + render; [false] when the pane came back
   stale. *)
let refresh_op env (s : Visualinux.session) pid =
  let t = s.Visualinux.target and panel = s.Visualinux.panel in
  if env.traced then begin
    let p = Panel.pane panel pid in
    Target.reset_stats t;
    Option.iter Transport.begin_plot (Target.transport t);
    let cache = Hashtbl.find_opt s.Visualinux.caches pid in
    let res =
      span env "Viewcl.run" (fun () -> Viewcl.run ~cfg:s.Visualinux.cfg ?cache t (program p))
    in
    Hashtbl.replace s.Visualinux.caches pid res.Viewcl.cache;
    let live =
      span env "Panel.refresh" (fun () ->
          Panel.refresh panel ~at:pid ~extract:(fun _ -> Some res.Viewcl.graph))
    in
    render_split env s pid;
    live
  end
  else
    match Visualinux.vrefresh s ~pane:pid with
    | None -> false
    | Some (res, st) ->
        add_plot env st res;
        render_pane env s pid;
        true

let step_refresh env =
  let seed = env.seed in
  let first = setup env (fun () -> step_episode ~seed 0) in
  units env (fun e ->
      let kernel, w, tr, s, panes = if e = 0 then first else step_episode ~seed e in
      env.source <- (fun () -> link_counts [ tr ] @ target_counts s.Visualinux.target);
      for _ = 1 to step_rounds do
        step env w (kmem kernel);
        op env ~kind:"refresh" (fun () ->
            List.fold_left
              (fun out pid -> if refresh_op env s pid then out else Shed)
              Served panes)
      done;
      let r = reference kernel in
      List.iter
        (fun pid ->
          let p = Panel.pane s.Visualinux.panel pid in
          check env
            (canonical p.Panel.graph = reference_render r (program p))
            (Printf.sprintf "step_refresh episode %d pane %d" e pid))
        panes)

(* ------------------------------------------------------------------ *)
(* refine: natural language -> ViewQL -> pane, with no target reads. *)

let refine_rounds = 16

let refine_episode kernel =
  let s = Visualinux.attach kernel in
  let panes =
    List.map
      (fun (o : Objectives.objective) ->
        let pane, _, _ = Visualinux.plot_figure s (script o.Objectives.fig) in
        (pane.Panel.pid, o))
      Objectives.all
  in
  (s, panes)

let vchat_op env s pid text =
  if env.traced then begin
    let ql = span env "Vchat.synthesize" (fun () -> Vchat.synthesize text) in
    ignore (span env "Panel.refine" (fun () -> Panel.refine s.Visualinux.panel ~at:pid ql));
    render_split env s pid
  end
  else begin
    let _, updated = Visualinux.vchat s ~pane:pid text in
    addi env "viewql.updated" updated;
    render_pane env s pid
  end

let refine env =
  let kernel, first =
    setup env (fun () ->
        let kernel, _ = boot ~seed:(unit_seed env.seed 0) ~iters:200 in
        (kernel, refine_episode kernel))
  in
  units env (fun e ->
      let s, panes = if e = 0 then first else refine_episode kernel in
      for round = 1 to refine_rounds do
        List.iter
          (fun (pid, o) ->
            op env ~kind:"vchat" (fun () ->
                vchat_op env s pid o.Objectives.text;
                Served))
          panes;
        if round = 1 then
          List.iter
            (fun (pid, o) ->
              match meets (Panel.pane s.Visualinux.panel pid).Panel.graph o with
              | Some ok ->
                  check env ok (Printf.sprintf "refine episode %d objective %s" e o.Objectives.fig)
              | None -> env.skipped <- env.skipped + 1)
            panes
      done)

(* ------------------------------------------------------------------ *)
(* fleet: four sessions behind the session server, one of them on a
   faulty link overlay, with a replica target and a durable WAL. *)

let fleet_figs = [ "3-6"; "7-1"; "11-1"; "16-2" ]
let fleet_rounds = 50
let fleet_fault_rate = 0.2

type member = {
  sid : Session.sid;
  pid : Panel.pane_id;
  viewql : string;
  healthy : bool;
  mutable fresh : bool;  (** the last refresh was served, so the pane shows the current state *)
}

let admitted what = function
  | Session.Admitted x -> x
  | Session.Rejected { reason } -> failwith (what ^ ": " ^ Session.reason_to_string reason)

let fleet_episode ~seed e =
  let seed = unit_seed seed e in
  let kernel, w = boot ~seed ~iters:40 in
  let srv = Session.create ~capacity:(List.length fleet_figs) kernel in
  let wire = Transport.create ~seed profile in
  let replica = Transport.create ~seed:(seed + 1) profile in
  Session.add_target srv ~transport:wire "wire";
  Session.add_target srv ~transport:replica "replica";
  let wal = Durable.create ~seed () in
  Session.attach_wal srv wal;
  let members =
    List.mapi
      (fun i fig ->
        let healthy = i > 0 in
        let faults =
          if healthy then Transport.no_faults else Transport.faults_of_rate fleet_fault_rate
        in
        let name = Printf.sprintf "s%d" i in
        let sid = admitted "open" (Session.open_session ~faults ~target:"wire" srv name) in
        let pane, _, _ = admitted "vplot" (Session.vplot srv sid (script fig).Scripts.source) in
        { sid; pid = pane.Panel.pid; healthy; fresh = true;
          viewql = Vchat.synthesize (objective fig).Objectives.text })
      fleet_figs
  in
  (kernel, w, srv, [ wire; replica ], wal, members)

let server_counts srv members =
  let sum name =
    List.fold_left (fun acc m -> acc +. float_of_int (Session.counter srv m.sid name)) 0. members
  in
  [ ("target.cache_hits", sum "cache.hits"); ("target.cache_misses", sum "cache.misses");
    ("target.coalesced", sum "cache.coalesced"); ("target.faults", sum "faults");
    ("session.rejections", sum "rejections"); ("session.hedged", sum "hedged.ops");
    ("session.stale_renders", sum "stale.renders") ]

let fleet_round env srv r m =
  op env ~kind:"Session.vrefresh" (fun () ->
      match span env "Session.vrefresh" (fun () -> Session.vrefresh srv m.sid ~pane:m.pid) with
      | Session.Admitted (Some (res, st)) ->
          add_plot env st res;
          m.fresh <- true;
          Served
      | Session.Admitted None | Session.Rejected _ ->
          m.fresh <- false;
          Shed);
  if r mod 4 = 0 then
    op env ~kind:"Session.vctrl" (fun () ->
        match
          span env "Session.vctrl" (fun () ->
              Session.vctrl srv m.sid (Visualinux.Apply { pane = m.pid; viewql = m.viewql }))
        with
        | Session.Admitted (Visualinux.Updated n) ->
            addi env "viewql.updated" n;
            Served
        | Session.Admitted _ -> Served
        | Session.Rejected _ -> Shed);
  op env ~kind:"Session.render" (fun () ->
      match span env "Session.render" (fun () -> Session.render srv m.sid m.pid) with
      | Some txt ->
          add_render env txt;
          Served
      | None -> invalid_arg "render of a missing pane")

(* A healthy session's pane must equal a solo cold extraction of the
   same program with the same ViewQL history.  A pane whose last refresh
   the server refused still shows an older state, so it is refreshed
   once more, untimed; if that is refused too, the check is skipped. *)
let fleet_oracle env kernel srv e m =
  let vis = Option.get (Session.vis srv m.sid) in
  if not m.fresh then
    m.fresh <-
      (match Session.vrefresh srv m.sid ~pane:m.pid with
      | Session.Admitted (Some _) -> true
      | Session.Admitted None | Session.Rejected _ -> false);
  let p = Panel.pane vis.Visualinux.panel m.pid in
  if not m.fresh then env.skipped <- env.skipped + 1
  else
    check env
      (canonical p.Panel.graph
      = reference_render (reference kernel) ~history:p.Panel.history (program p))
      (Printf.sprintf "fleet episode %d session %d" e m.sid)

let fleet env =
  let seed = env.seed in
  let first = setup env (fun () -> fleet_episode ~seed 0) in
  units env (fun e ->
      let kernel, w, srv, links, wal, members = if e = 0 then first else fleet_episode ~seed e in
      env.source <-
        (fun () ->
          link_counts links @ server_counts srv members
          @ [ ("durable.records", float_of_int (Durable.appended wal)) ]);
      for r = 1 to fleet_rounds do
        step env w (kmem kernel);
        List.iter (fleet_round env srv r) members
      done;
      List.iter (fun m -> if m.healthy then fleet_oracle env kernel srv e m) members)

(* ------------------------------------------------------------------ *)
(* C-expression evaluation, timed from outside: the [${...}] escapes of
   the Table 2 scripts that use no ViewCL binding, each evaluated on a
   local target.  Bare literals ([${8}], [${true}], [${"name"}]) are
   left out: they evaluate nothing. *)

let escapes src =
  let n = String.length src in
  let rec scan i acc =
    match String.index_from_opt src i '$' with
    | Some j when j + 1 < n && src.[j + 1] = '{' -> (
        match String.index_from_opt src (j + 2) '}' with
        | Some k -> scan (k + 1) (String.sub src (j + 2) (k - j - 2) :: acc)
        | None -> acc)
    | Some j -> scan (j + 1) acc
    | None -> acc
  in
  scan 0 []

let cexpr_reps = 1000

let cexpr_probe env ~seed =
  let kernel, _ = boot ~seed:(unit_seed seed 0) ~iters:40 in
  let t = (Visualinux.attach kernel).Visualinux.target in
  let evaluates e = match Cexpr.eval t e with _ -> true | exception _ -> false in
  List.concat_map (fun sc -> escapes sc.Scripts.source) Scripts.table2
  |> List.filter (fun src -> not (String.contains src '@'))
  |> List.sort_uniq compare
  |> List.filter_map (fun src ->
         match Cexpr.parse (Target.types t) src with
         | Cexpr.Int_lit _ | Cexpr.Str_lit _ | Cexpr.Char_lit _ | Cexpr.Ident ("true" | "false") ->
             None
         | e when evaluates e -> Some e
         | _ | (exception _) -> None)
  |> List.iter (fun e ->
         let t0 = now_ms () in
         for _ = 1 to cexpr_reps do
           ignore (Cexpr.eval t e)
         done;
         sample env "Cexpr.eval" ((now_ms () -. t0) *. 1000. /. float_of_int cexpr_reps))

(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  min_units : int;  (** units every run completes; the counters cover these *)
  smoke_units : int;
  run : Meter.t -> unit;
}

let all =
  [ { name = "cold_plot"; min_units = reattach; smoke_units = 2; run = cold_plot };
    { name = "step_refresh"; min_units = 4; smoke_units = 1; run = step_refresh };
    { name = "refine"; min_units = 10; smoke_units = 2; run = refine };
    { name = "fleet"; min_units = 2; smoke_units = 1; run = fleet } ]
