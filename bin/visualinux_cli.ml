(* The visualinux command-line front-end.

   Boots the simulated kernel, runs the evaluation workload, and executes
   v-commands — either one-shot via subcommands or interactively via a
   GDB-style prompt.

   Examples:
     visualinux figures                 # list the Table 2 script library
     visualinux plot 7-1                # render a figure as ASCII
     visualinux plot 9-2 --format dot   # ... or Graphviz/SVG/JSON
     visualinux chat 7-1 "display view \"sched\" of all processes"
     visualinux query 3-4 'a = SELECT task_struct FROM * WHERE pid > 5
                           UPDATE a WITH collapsed: true'
     visualinux repl                    # interactive session
*)

open Cmdliner

let boot_session seed iters =
  let kernel = Kstate.boot () in
  let w = Workload.create ~seed kernel in
  Workload.run ~iters w;
  (* A fault-free local link by default: pure latency accounting until
     the user turns faults on with `link rate`. *)
  let transport = Transport.create Transport.qemu_local in
  Visualinux.attach ~transport kernel

(* common options *)
let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload PRNG seed.")

let iters_arg =
  Arg.(value & opt int 3 & info [ "iters" ] ~docv:"N" ~doc:"Workload iterations.")

let format_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("ascii", `Ascii); ("dot", `Dot); ("svg", `Svg); ("json", `Json);
             ("html", `Html) ])
        `Ascii
    & info [ "format"; "f" ] ~docv:"FMT" ~doc:"Output format: ascii, dot, svg, json or html.")

let render fmt graph =
  match fmt with
  | `Ascii -> Render.ascii graph
  | `Dot -> Render.dot graph
  | `Svg -> Render.svg graph
  | `Json -> Json.to_string (Vgraph.to_json graph)
  | `Html -> Render_html.html graph

let fig_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FIG" ~doc:"Figure id from the script library (e.g. 7-1, 9-2, socketconn).")

let find_script fig =
  match Scripts.find fig with
  | Some sc -> Ok sc
  | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown figure %S; try one of: %s" fig
             (String.concat ", " (List.map (fun s -> s.Scripts.fig) Scripts.table2))))

(* ------------------------------------------------------------------ *)
(* figures *)

let figures_cmd =
  let doc = "List the ViewCL script library (the Table 2 figures)." in
  let run () =
    Printf.printf "%-12s %-45s %4s %s\n" "id" "description" "LoC" "delta";
    List.iter
      (fun (sc : Scripts.script) ->
        Printf.printf "%-12s %-45s %4d %s\n" sc.Scripts.fig sc.Scripts.descr (Scripts.loc sc)
          (Scripts.delta_glyph sc.Scripts.delta))
      Scripts.table2
  in
  Cmd.v (Cmd.info "figures" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* plot *)

let plot_cmd =
  let doc = "Evaluate a library ViewCL program (vplot) and render the result." in
  let run seed iters fmt fig =
    match find_script fig with
    | Error e -> Error e
    | Ok sc ->
        let s = boot_session seed iters in
        let _, res, stats = Visualinux.plot_figure s sc in
        print_string (render fmt res.Viewcl.graph);
        Printf.eprintf "[%d boxes, %d target reads, %.2f ms]\n" stats.Visualinux.boxes
          stats.Visualinux.reads stats.Visualinux.wall_ms;
        Ok ()
  in
  Cmd.v
    (Cmd.info "plot" ~doc)
    Term.(term_result (const run $ seed_arg $ iters_arg $ format_arg $ fig_arg))

(* ------------------------------------------------------------------ *)
(* plot-file: run a user-supplied .vcl program *)

let plot_file_cmd =
  let doc = "Evaluate a ViewCL program from a file (vplot)." in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"ViewCL source file.")
  in
  let run seed iters fmt file =
    let ic = open_in file in
    let n = in_channel_length ic in
    let src = really_input_string ic n in
    close_in ic;
    let s = boot_session seed iters in
    match Visualinux.vplot s ~title:file src with
    | _, res, _ ->
        print_string (render fmt res.Viewcl.graph);
        Ok ()
    | exception Viewcl.Error m -> Error (`Msg m)
  in
  Cmd.v
    (Cmd.info "plot-file" ~doc)
    Term.(term_result (const run $ seed_arg $ iters_arg $ format_arg $ file_arg))

(* ------------------------------------------------------------------ *)
(* query: plot a figure then apply ViewQL (vctrl) *)

let query_cmd =
  let doc = "Plot a figure, then apply a ViewQL program to it (vctrl)." in
  let ql_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"VIEWQL" ~doc:"ViewQL program.")
  in
  let run seed iters fmt fig ql =
    match find_script fig with
    | Error e -> Error e
    | Ok sc -> (
        let s = boot_session seed iters in
        let pane, res, _ = Visualinux.plot_figure s sc in
        match Visualinux.vctrl s (Visualinux.Apply { pane = pane.Panel.pid; viewql = ql }) with
        | Visualinux.Updated n ->
            Printf.eprintf "[%d boxes updated]\n" n;
            print_string (render fmt res.Viewcl.graph);
            Ok ()
        | _ -> Error (`Msg "unexpected vctrl result")
        | exception Viewql.Error m -> Error (`Msg m))
  in
  Cmd.v
    (Cmd.info "query" ~doc)
    Term.(term_result (const run $ seed_arg $ iters_arg $ format_arg $ fig_arg $ ql_arg))

(* ------------------------------------------------------------------ *)
(* chat: plot a figure then refine with natural language (vchat) *)

let chat_cmd =
  let doc = "Plot a figure, then refine it with a natural-language request (vchat)." in
  let nl_arg =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"TEXT" ~doc:"Natural-language refinement.")
  in
  let run seed iters fmt fig text =
    match find_script fig with
    | Error e -> Error e
    | Ok sc -> (
        let s = boot_session seed iters in
        let pane, res, _ = Visualinux.plot_figure s sc in
        match Visualinux.vchat s ~pane:pane.Panel.pid text with
        | prog, n ->
            Printf.eprintf "synthesized ViewQL:\n%s\n[%d boxes updated]\n" prog n;
            print_string (render fmt res.Viewcl.graph);
            Ok ()
        | exception Vchat.Cannot_synthesize _ ->
            Error (`Msg "could not synthesize a ViewQL program from that description"))
  in
  Cmd.v
    (Cmd.info "chat" ~doc)
    Term.(term_result (const run $ seed_arg $ iters_arg $ format_arg $ fig_arg $ nl_arg))

(* ------------------------------------------------------------------ *)
(* repl *)

let repl_help =
  {|v-commands (all run through the multi-session server: each session has
its own fault config, budget, counters and pane layout, multiplexed over
the shared target link — a refusal prints a typed reason, never a crash):
  vplot <fig>            plot a library figure into a new pane
  vplot auto <type> <C-expr>
                         synthesize a trivial ViewCL program for a struct
  vctrl ql <pane> <viewql ...>    apply ViewQL to a pane
  vctrl split <pane> <h|v> <fig>  split a pane with a new figure
  vctrl select <pane> <box-ids..> pick boxes into a secondary pane
  vctrl focus <hex-addr>          find an object in all panes
  vctrl close <pane>              close a pane
  vchat <pane> <text>    natural language -> ViewQL -> apply
  show <pane> [ascii|dot|svg|json]
  panes                  list panes ([STALE] = awaiting re-extraction)
  session new <name> [rate]       open a session (optional fault rate)
  session list           sessions, current marked with *
  session use <id>       switch the prompt to another session
  session close <id>     close a session (not the last one)
  session budget reads <n|off>    per-epoch read budget, this session
  session budget ms <n|off>       per-epoch wire-time budget (sim ms)
  session budget retries <n|off>  retry-token bucket (1 earned per op)
  session weight <n>     fair-admission priority (higher sheds later)
  session epoch          open a fresh budget/cache-stat epoch
  server status          the fleet dashboard (same as vtop)
  server save <file>     checksummed durable image of the whole fleet
  server recover <file>  fsck + replay a durable image into this
                         server; corrupt sessions come back
                         salvaged/quarantined, never a crash
  server fsck <file>     dry-run scan: checksum report + salvage plan
  vtop [k]               live fleet dashboard: target health, session
                         vitals, SLO burn rates, k slowest traces+links
  link                   show transport health
  link down | up         force-disconnect / reconnect the target link
  link rate <r>          THIS session's fault rates: stalls+drops at r,
                         disconnects r/20 (other sessions are untouched)
  link deadline <ms|off> per-plot deadline budget, this session (sim ms)
  recover                replay this session's journal (pane ids return)
  refresh                re-extract stale panes against the live link
  vrefresh <pane>        re-plot a pane through its cache: unchanged
                         boxes are adopted, written-to boxes rebuilt
  vprof on | off         enable/disable tracing and metrics collection
  vprof report           profile table, counters, histogram quantiles
  vprof export <file>    write buffered spans as Chrome trace JSON
                         (span/trace ids + flow-event causal links)
  vprof export --metrics <file>   write the metrics registry as JSON
  vprof export --prom <file>      write a Prometheus text scrape
  vverify <pane>         run the structural sanitizer on a pane; suspect
                         boxes gain [SUSPECT:<law>] tags in later shows
  figures                list library figures
  save <file>            same as server save <file>
  quit | exit
|}

let repl_cmd =
  let doc = "Interactive session (a poor man's GDB prompt with v-commands)." in
  let run seed iters =
    let kernel = Kstate.boot () in
    let w = Workload.create ~seed kernel in
    Workload.run ~iters w;
    (* One multi-session server over the booted kernel: every repl
       session shares the "wire" target (link, breaker, read cache) but
       keeps its own fault config, budget, counters and pane layout. *)
    let srv = Session.create kernel in
    Session.add_target srv ~transport:(Transport.create Transport.qemu_local) "wire";
    let cur =
      ref
        (match Session.open_session ~target:"wire" srv "main" with
        | Session.Admitted sid -> sid
        | Session.Rejected { reason } -> failwith (Session.reason_to_string reason))
    in
    Printf.printf "visualinux interactive session — %d tasks live. Type 'help'.\n"
      (List.length (Kstate.all_tasks kernel));
    (* Typed command boundary: every branch yields (unit, string) result,
       so a bad pane id / malformed number / refine on a closed pane is a
       printed error, never an exception unwinding the session.  Server
       refusals (capacity, budget, quarantine) surface the same way. *)
    let ( let* ) = Result.bind in
    let admit = function
      | Session.Admitted x -> Ok x
      | Session.Rejected { reason } -> Error (Session.reason_to_string reason)
    in
    let exec words : (unit, string) result =
      let s = Option.get (Session.vis srv !cur) in
      let pane_of str =
      match int_of_string_opt str with
      | None -> Error (Printf.sprintf "%S is not a pane id" str)
      | Some id -> (
          match Panel.pane_opt s.Visualinux.panel id with
          | None -> Error (Printf.sprintf "no pane %d (try 'panes')" id)
          | Some p -> Ok p)
    in
    let int_of str what =
      match int_of_string_opt str with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "%S is not %s" str what)
    in
    let float_of str what =
      match float_of_string_opt str with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "%S is not %s" str what)
    in
    let script_of fig =
      match Scripts.find fig with
      | Some sc -> Ok sc
      | None -> Error (Printf.sprintf "unknown figure %s (try 'figures')" fig)
    in
    let with_link f =
      match Target.transport s.Visualinux.target with
      | Some tr -> f tr
      | None -> Error "no transport attached"
    in
      match words with
      | [] -> Ok ()
      | [ "help" ] ->
          print_string repl_help;
          Ok ()
      | [ "figures" ] ->
          List.iter
            (fun sc -> Printf.printf "  %-12s %s\n" sc.Scripts.fig sc.Scripts.descr)
            Scripts.table2;
          Ok ()
      | [ "panes" ] ->
          List.iter
            (fun id ->
              let p = Panel.pane s.Visualinux.panel id in
              Printf.printf "  pane %d: %s (%d boxes)%s\n" id
                (match p.Panel.kind with
                | Panel.Primary _ -> "primary"
                | Panel.Secondary _ -> "secondary")
                (Vgraph.box_count p.Panel.graph)
                (if p.Panel.stale then " [STALE]" else ""))
            (Panel.pane_ids s.Visualinux.panel);
          Ok ()
      | "vplot" :: "auto" :: ty :: rest ->
          let expr = String.concat " " rest in
          let src =
            Visualinux.synthesize_viewcl (Target.types s.Visualinux.target) ~typ:ty ~expr
          in
          let* pane, res, _ =
            admit (Session.vplot srv !cur ~title:(Printf.sprintf "auto: %s" ty) src)
          in
          Printf.printf "pane %d: %d boxes\n" pane.Panel.pid
            (Vgraph.box_count res.Viewcl.graph);
          Ok ()
      | [ "vplot"; fig ] ->
          let* sc = script_of fig in
          let* pane, _, stats =
            admit (Session.vplot srv !cur ~title:sc.Scripts.fig sc.Scripts.source)
          in
          Option.iter print_string (Session.render srv !cur pane.Panel.pid);
          Printf.printf "pane %d: %d boxes, %d reads, %d spans, %.1f ms\n" pane.Panel.pid
            stats.Visualinux.boxes stats.Visualinux.reads stats.Visualinux.spans
            stats.Visualinux.wall_ms;
          Ok ()
      | "vctrl" :: "ql" :: pane :: rest -> (
          let* p = pane_of pane in
          let* r =
            admit
              (Session.vctrl srv !cur
                 (Visualinux.Apply { pane = p.Panel.pid; viewql = String.concat " " rest }))
          in
          match r with
          | Visualinux.Updated n ->
              Printf.printf "%d boxes updated\n" n;
              Ok ()
          | _ -> Error "unexpected vctrl result")
      | [ "vctrl"; "split"; pane; d; fig ] -> (
          let* p = pane_of pane in
          let* dir =
            match d with
            | "h" -> Ok `Horizontal
            | "v" -> Ok `Vertical
            | _ -> Error (Printf.sprintf "%S is not h or v" d)
          in
          let* sc = script_of fig in
          let* r =
            admit
              (Session.vctrl srv !cur
                 (Visualinux.Split { pane = p.Panel.pid; dir; program = sc.Scripts.source }))
          in
          match r with
          | Visualinux.Opened id ->
              Printf.printf "pane %d opened\n" id;
              Ok ()
          | _ -> Error "unexpected vctrl result")
      | "vctrl" :: "select" :: pane :: boxes -> (
          let* p = pane_of pane in
          let* ids =
            List.fold_left
              (fun acc b ->
                let* acc = acc in
                let* id = int_of b "a box id" in
                Ok (id :: acc))
              (Ok []) boxes
          in
          let* r =
            admit
              (Session.vctrl srv !cur
                 (Visualinux.Select { pane = p.Panel.pid; boxes = List.rev ids }))
          in
          match r with
          | Visualinux.Opened id ->
              Printf.printf "pane %d opened\n" id;
              Ok ()
          | _ -> Error "unexpected vctrl result")
      | [ "vctrl"; "focus"; addr ] -> (
          let* a = int_of addr "an address" in
          let* r = admit (Session.vctrl srv !cur (Visualinux.Focus { addr = a })) in
          match r with
          | Visualinux.Found hits ->
              List.iter (fun (pid, bid) -> Printf.printf "  pane %d: box #%d\n" pid bid) hits;
              if hits = [] then print_endline "  (not found)";
              Ok ()
          | _ -> Error "unexpected vctrl result")
      | [ "vctrl"; "close"; pane ] ->
          let* p = pane_of pane in
          let* _ = admit (Session.vctrl srv !cur (Visualinux.Close { pane = p.Panel.pid })) in
          print_endline "closed";
          Ok ()
      | "vchat" :: pane :: rest -> (
          let* p = pane_of pane in
          let viewql = Vchat.synthesize (String.concat " " rest) in
          let* r =
            admit (Session.vctrl srv !cur (Visualinux.Apply { pane = p.Panel.pid; viewql }))
          in
          match r with
          | Visualinux.Updated n ->
              Printf.printf "%s\n%d boxes updated\n" viewql n;
              Ok ()
          | _ -> Error "unexpected vctrl result")
      | [ "show"; pane ] | [ "show"; pane; "ascii" ] -> (
          let* p = pane_of pane in
          match Session.render srv !cur p.Panel.pid with
          | Some out ->
              print_string out;
              Ok ()
          | None -> Error (Printf.sprintf "no pane %d" p.Panel.pid))
      | [ "show"; pane; "dot" ] ->
          let* p = pane_of pane in
          print_string (Render.dot p.Panel.graph);
          Ok ()
      | [ "show"; pane; "svg" ] ->
          let* p = pane_of pane in
          print_string (Render.svg p.Panel.graph);
          Ok ()
      | [ "show"; pane; "json" ] ->
          let* p = pane_of pane in
          print_string (Json.to_string (Vgraph.to_json p.Panel.graph));
          Ok ()
      | [ "link" ] ->
          with_link (fun tr ->
              print_endline (Render.transport_line tr);
              Ok ())
      | [ "link"; "down" ] ->
          with_link (fun tr ->
              Transport.disconnect tr;
              Panel.mark_all_stale s.Visualinux.panel;
              print_endline "link down — panes are stale until 'recover'";
              Ok ())
      | [ "link"; "up" ] ->
          with_link (fun tr ->
              Transport.reconnect tr;
              print_endline (Render.transport_line tr);
              Ok ())
      | [ "link"; "rate"; r ] ->
          (* per-session: only this session's traffic runs under the
             faults; the link itself (and everyone else) is untouched *)
          let* rate = float_of r "a fault rate" in
          Session.set_faults srv !cur (Transport.faults_of_rate rate);
          Printf.printf "session %d traffic now at fault rate %.3f\n" !cur rate;
          Ok ()
      | [ "link"; "deadline"; "off" ] ->
          let b = Option.value (Session.budget_of srv !cur) ~default:Session.unlimited in
          Session.set_budget srv !cur { b with Session.plot_deadline_ms = None };
          Ok ()
      | [ "link"; "deadline"; ms ] ->
          let* d = float_of ms "a deadline in ms" in
          let b = Option.value (Session.budget_of srv !cur) ~default:Session.unlimited in
          Session.set_budget srv !cur { b with Session.plot_deadline_ms = Some d };
          Ok ()
      | [ "recover" ] ->
          let* stale = admit (Session.recover_session srv !cur) in
          Printf.printf "recovered %d panes (%d stale)\n"
            (List.length (Panel.pane_ids s.Visualinux.panel))
            stale;
          Ok ()
      | [ "refresh" ] ->
          let* ids = admit (Session.refresh_stale srv !cur) in
          Printf.printf "refreshed %d panes\n" (List.length ids);
          Ok ()
      | [ "vrefresh"; pane ] -> (
          let* p = pane_of pane in
          let* r = admit (Session.vrefresh srv !cur ~pane:p.Panel.pid) in
          match r with
          | None -> Error (Printf.sprintf "pane %d cannot refresh (secondary, or link down)" p.Panel.pid)
          | Some (res, stats) ->
              Printf.printf
                "pane %d: %d boxes in %.2f ms — %d adopted, %d rebuilt, %d new\n"
                p.Panel.pid stats.Visualinux.boxes stats.Visualinux.wall_ms
                stats.Visualinux.cache_hits stats.Visualinux.cache_invalidated
                stats.Visualinux.cache_misses;
              (match res.Viewcl.rebuilt with
              | [] -> ()
              | ids ->
                  Printf.printf "  rebuilt boxes: %s\n"
                    (String.concat ", " (List.map (Printf.sprintf "#%d") ids)));
              Ok ())
      | [ "vprof"; "on" ] | [ "vprof"; "off" ] ->
          let enable = words = [ "vprof"; "on" ] in
          (match
             Visualinux.vprof s (if enable then Visualinux.Prof_on else Visualinux.Prof_off)
           with
          | Visualinux.Prof_state b ->
              Printf.printf "tracing %s\n" (if b then "on" else "off")
          | _ -> ());
          Ok ()
      | [ "vprof"; "report" ] ->
          (match Visualinux.vprof s Visualinux.Prof_report with
          | Visualinux.Prof_text txt -> print_string txt
          | _ -> ());
          Ok ()
      | [ "vprof"; "export"; "--metrics"; file ] ->
          (match Visualinux.vprof s (Visualinux.Prof_export_metrics file) with
          | Visualinux.Prof_written f -> Printf.printf "metrics written to %s\n" f
          | _ -> ());
          Ok ()
      | [ "vprof"; "export"; "--prom"; file ] ->
          (match Visualinux.vprof s (Visualinux.Prof_export_prom file) with
          | Visualinux.Prof_written f -> Printf.printf "prometheus scrape written to %s\n" f
          | _ -> ());
          Ok ()
      | [ "vprof"; "export"; file ] ->
          (match Visualinux.vprof s (Visualinux.Prof_export file) with
          | Visualinux.Prof_written f ->
              Printf.printf "trace written to %s (%d events, %d links)\n" f
                (Obs.event_count ())
                (List.length (Obs.Trace.links ()))
          | _ -> ());
          Ok ()
      | "vprof" :: _ ->
          Error "usage: vprof on|off|report|export [--metrics|--prom] <file>"
      | [ "vverify"; pane ] -> (
          let* p = pane_of pane in
          let* verdicts = admit (Session.vverify srv !cur ~pane:p.Panel.pid) in
          match verdicts with
          | None -> Error (Printf.sprintf "no pane %d" p.Panel.pid)
          | Some [] ->
              Printf.printf "pane %d: all structures pass (%d boxes checked)\n" p.Panel.pid
                (Vgraph.box_count p.Panel.graph);
              Ok ()
          | Some verdicts ->
              List.iter
                (fun v -> Printf.printf "  %s\n" (Sanity.verdict_to_string v))
                verdicts;
              Printf.printf "pane %d: %d suspect structure(s)\n" p.Panel.pid
                (List.length verdicts);
              Ok ())
      | "vverify" :: _ -> Error "usage: vverify <pane>"
      | [ "session"; "new"; name ] | [ "session"; "new"; name; _ ] ->
          let* faults =
            match words with
            | [ _; _; _; r ] ->
                let* rate = float_of r "a fault rate" in
                Ok (Transport.faults_of_rate rate)
            | _ -> Ok Transport.no_faults
          in
          let* sid = admit (Session.open_session ~faults ~target:"wire" srv name) in
          cur := sid;
          Printf.printf "session %d (%s) opened and selected\n" sid name;
          Ok ()
      | [ "session"; "list" ] ->
          List.iter
            (fun sid ->
              Printf.printf
                " %c %d %-10s plots %d, refreshes %d, verifies %d, rejections %d, faults %d\n"
                (if sid = !cur then '*' else ' ')
                sid
                (Option.value (Session.session_name srv sid) ~default:"?")
                (Session.counter srv sid "plots")
                (Session.counter srv sid "refreshes")
                (Session.counter srv sid "verifies")
                (Session.counter srv sid "rejections")
                (Session.counter srv sid "faults"))
            (Session.session_ids srv);
          Ok ()
      | [ "session"; "use"; sid ] ->
          let* id = int_of sid "a session id" in
          if List.mem id (Session.session_ids srv) then begin
            cur := id;
            Ok ()
          end
          else Error (Printf.sprintf "no session %d (try 'session list')" id)
      | [ "session"; "close"; sid ] ->
          let* id = int_of sid "a session id" in
          let remaining = List.filter (fun x -> x <> id) (Session.session_ids srv) in
          if not (List.mem id (Session.session_ids srv)) then
            Error (Printf.sprintf "no session %d" id)
          else if remaining = [] then Error "cannot close the last session"
          else begin
            Session.close_session srv id;
            if !cur = id then cur := List.hd remaining;
            Printf.printf "session %d closed; now on %d\n" id !cur;
            Ok ()
          end
      | [ "session"; "budget"; "reads"; v ] ->
          let b = Option.value (Session.budget_of srv !cur) ~default:Session.unlimited in
          let* max_reads =
            if v = "off" then Ok None
            else
              let* n = int_of v "a read count" in
              Ok (Some n)
          in
          Session.set_budget srv !cur { b with Session.max_reads };
          Ok ()
      | [ "session"; "budget"; "ms"; v ] ->
          let b = Option.value (Session.budget_of srv !cur) ~default:Session.unlimited in
          let* max_sim_ms =
            if v = "off" then Ok None
            else
              let* f = float_of v "a wire-time budget in ms" in
              Ok (Some f)
          in
          Session.set_budget srv !cur { b with Session.max_sim_ms };
          Ok ()
      | [ "session"; "budget"; "retries"; v ] ->
          let b = Option.value (Session.budget_of srv !cur) ~default:Session.unlimited in
          let* retry_burst =
            if v = "off" then Ok None
            else
              let* n = int_of v "a retry-token count" in
              Ok (Some n)
          in
          Session.set_budget srv !cur { b with Session.retry_burst };
          Ok ()
      | [ "session"; "weight"; v ] ->
          let* w = int_of v "a priority weight" in
          Session.set_weight srv !cur w;
          Printf.printf "session %d weight %d (degrades %s under a sick target)\n" !cur
            (Session.weight_of srv !cur)
            (if Session.weight_of srv !cur > 1 then "later" else "first");
          Ok ()
      | [ "session"; "epoch" ] ->
          Session.begin_epoch srv !cur;
          Printf.printf "session %d: fresh epoch (budgets and cache stats reset)\n" !cur;
          Ok ()
      | "session" :: _ ->
          Error
            "usage: session new <name> [rate] | list | use <id> | close <id> | budget \
             reads|ms|retries <n|off> | weight <n> | epoch"
      | ("vtop" :: rest | "server" :: "status" :: rest) -> (
          match rest with
          | [] ->
              Session.register_slos srv;
              print_string (Session.vtop srv);
              Ok ()
          | [ k ] -> (
              match int_of_string_opt k with
              | Some top when top >= 0 ->
                  Session.register_slos srv;
                  print_string (Session.vtop ~top srv);
                  Ok ()
              | _ -> Error "usage: vtop [k]")
          | _ -> Error "usage: vtop [k]")
      | [ "save"; file ] | [ "server"; "save"; file ] ->
          Durable.write_file file (Session.fleet_image srv);
          Printf.printf "durable fleet image written to %s\n" file;
          Ok ()
      | [ "server"; "recover"; file ] -> (
          match Durable.read_file file with
          | exception Sys_error e -> Error e
          | image ->
              print_string
                (Session.recovery_to_string (Session.recover_durable srv image));
              Ok ())
      | [ "server"; "fsck"; file ] -> (
          (* dry run: scan + plan, mutate nothing *)
          match Durable.read_file file with
          | exception Sys_error e -> Error e
          | image ->
              let report, sessions = Session.fsck_image image in
              Printf.printf "%s\n" (Durable.report_to_string report);
              List.iter
                (fun (s : Session.srecovery) ->
                  Printf.printf "  would recover %-12s on %-8s as %s (%d ops)\n"
                    (Printf.sprintf "%S" s.Session.rname)
                    s.Session.rtarget
                    (Session.salvage_label s.Session.rsalvage)
                    s.Session.rops)
                sessions;
              Ok ())
      | "server" :: _ ->
          Error "usage: server status | save <file> | recover <file> | fsck <file>"
      | w :: _ -> Error (Printf.sprintf "unknown command %S (try 'help')" w)
    in
    let rec loop () =
      Printf.printf "(visualinux:%s) "
        (Option.value (Session.session_name srv !cur) ~default:"?");
      match input_line stdin with
      | exception End_of_file -> ()
      | line -> (
          let words =
            String.split_on_char ' ' (String.trim line) |> List.filter (fun w -> w <> "")
          in
          match words with
          | [ "quit" ] | [ "exit" ] -> ()
          | _ ->
              (* last-resort net: domain errors are typed above, but a
                 malformed ViewCL/ViewQL program still raises from the
                 parsers — keep those inside the loop too *)
              (match
                 try exec words with
                 | Viewcl.Error m | Viewql.Error m -> Error m
                 | Vchat.Cannot_synthesize _ -> Error "cannot synthesize ViewQL"
                 | Failure m | Invalid_argument m -> Error m
                 | Not_found -> Error "not found"
               with
              | Ok () -> ()
              | Error m -> Printf.printf "error: %s\n" m);
              loop ())
    in
    loop ();
    print_endline "bye."
  in
  Cmd.v (Cmd.info "repl" ~doc) Term.(const run $ seed_arg $ iters_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "Visualinux-style visual debugging of a simulated Linux kernel" in
  let info = Cmd.info "visualinux" ~version:"1.0.0" ~doc in
  Cmd.group info [ figures_cmd; plot_cmd; plot_file_cmd; query_cmd; chat_cmd; repl_cmd ]

let () = exit (Cmd.eval main_cmd)
