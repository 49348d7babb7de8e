(* Quickstart: boot a simulated kernel, run the evaluation workload,
   write your first ViewCL program, refine it with ViewQL (typed and via
   natural language), and explore with panes — the paper's introduction
   example, end to end.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. Boot the simulated Linux kernel and populate it. *)
  let kernel = Kstate.boot () in
  let workload = Workload.create kernel in
  Workload.run workload;
  Printf.printf "Booted: %d tasks, %d live kernel objects\n\n"
    (List.length (Kstate.all_tasks kernel))
    (Kmem.live_count kernel.Kstate.ctx.Kcontext.mem);

  (* 2. Attach the debugger (this is "GDB" + the Visualinux extension). *)
  let s = Visualinux.attach kernel in

  (* 3. The paper's Section 1 ViewCL program: plot the CFS run queue of
     the first processor, with tasks recovered from their embedded
     rb_nodes via container_of. *)
  let program =
    {|
define Task as Box<task_struct> [
    Text pid, comm
    Text ppid: parent.pid
    Text<string> state: ${task_state(@this)}
    Text se.vruntime
]

root = ${&cpu_rq(0)->cfs.tasks_timeline}

sched_tree = RBTree(@root).forEach |node| {
    yield Task<task_struct.se.run_node>(@node)
}

plot @sched_tree
|}
  in
  let pane, result, stats = Visualinux.vplot s ~title:"CFS run queue (CPU 0)" program in
  Printf.printf "vplot extracted %d boxes with %d target reads\n\n" stats.Visualinux.boxes
    stats.Visualinux.reads;
  print_string (Render.ascii result.Viewcl.graph);

  (* 4. The paper's ViewQL example: focus on process #2 and its direct
     children by collapsing every other task. *)
  print_endline "\n--- after ViewQL: focus on pid 2 and its children ---\n";
  let viewql =
    {|
task_all = SELECT task_struct FROM *
task_2 = SELECT task_struct FROM task_all WHERE pid == 2 OR ppid == 2
UPDATE task_all \ task_2 WITH collapsed: true
|}
  in
  let updated = Panel.refine s.Visualinux.panel ~at:pane.Panel.pid viewql in
  Printf.printf "(%d boxes collapsed)\n\n" updated;
  print_string (Render.ascii result.Viewcl.graph);

  (* 5. Or just say it in natural language (vchat). *)
  print_endline "\n--- vchat: \"display view \\\"default\\\" of all tasks\" ---";
  let synthesized, n =
    Visualinux.vchat s ~pane:pane.Panel.pid "display view \"default\" of all tasks"
  in
  Printf.printf "synthesized ViewQL:\n%s\n(%d boxes updated)\n" synthesized n;

  (* 6. Panes: split to a second view and search an object in all panes. *)
  let fig34 = Option.get (Scripts.find "3-4") in
  (match
     Visualinux.vctrl s
       (Visualinux.Split
          { pane = pane.Panel.pid; dir = `Horizontal; program = fig34.Scripts.source })
   with
  | Visualinux.Opened pid -> Printf.printf "\nopened pane %d with the process tree\n" pid
  | _ -> ());
  let target = Option.get (Kstate.find_task kernel s.Visualinux.target_pid) in
  (match Visualinux.vctrl s (Visualinux.Focus { addr = target }) with
  | Visualinux.Found hits ->
      Printf.printf "focus: task %d found in %d panes (the paper's Fig 2 workflow)\n"
        s.Visualinux.target_pid (List.length hits)
  | _ -> ());

  (* 7. The op journal is the session: replaying it rebuilds every pane. *)
  Printf.printf "\nsession: %d journaled ops, replayable into a fresh session\n"
    (List.length (Panel.journal s.Visualinux.panel))
