(* Unit tests for the ViewCL language: lexing, parsing, evaluation. *)

let boot_session () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  (k, Visualinux.attach k)

let run s src = Viewcl.run ~cfg:(Visualinux.config ()) s.Visualinux.target src

(* ---------------- parsing ---------------- *)

let types = (Kcontext.create ()).Kcontext.reg

let test_parse_shapes () =
  let p =
    Viewcl.parse types
      {|
define T as Box<task_struct> {
  :default [ Text pid, comm ]
  :default => :more [ Text prio ] where { x = ${1 + 2} }
}
r = ${cpu_rq(0)}
plot T(@r)
|}
  in
  match p with
  | [ Viewcl.Ast.Define d; Viewcl.Ast.Top_bind ("r", _); Viewcl.Ast.Plot _ ] ->
      Alcotest.(check string) "name" "T" d.Viewcl.Ast.bname;
      Alcotest.(check string) "ctype" "task_struct" d.Viewcl.Ast.bctype;
      Alcotest.(check int) "views" 2 (List.length d.Viewcl.Ast.bviews);
      let v2 = List.nth d.Viewcl.Ast.bviews 1 in
      Alcotest.(check (option string)) "inheritance" (Some "default") v2.Viewcl.Ast.vparent;
      Alcotest.(check int) "view where" 1 (List.length v2.Viewcl.Ast.vwhere)
  | _ -> Alcotest.fail "unexpected program shape"

let test_parse_errors () =
  let fails src =
    match Viewcl.parse types src with
    | exception Viewcl.Error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" src
  in
  List.iter fails
    [ "define"; "define X as Box task [ ]"; "plot"; "define X as Box<t> [ Text ]";
      "define X as Box<t> [ Link a b ]"; "x = ${unclosed"; "yield ${1}" ];
  (* Errors no run would reach: each is reported at parse time, with its
     line. *)
  let fails_at ?says line src =
    match Viewcl.parse types src with
    | exception Viewcl.Error m ->
        let prefix = Printf.sprintf "line %d:" line in
        if not (String.starts_with ~prefix m) then
          Alcotest.failf "error for %S does not name line %d: %s" src line m;
        Option.iter (fun says -> Alcotest.(check string) "error" (prefix ^ " " ^ says) m) says
    | _ -> Alcotest.failf "expected a line-%d parse error for %S" line src
  in
  fails_at 3
    "define D as Box<task_struct> [\n\
    \  Text v: switch ${1} {\n\
    \    case ${0}: ${(1 +}\n\
    \    otherwise: ${2}\n\
    \  }\n\
     ]\n\
     plot D(${&init_task})\n";
  fails_at 2
    "define D as Box<task_struct> [ Text pid ]\n\
     define Unused as Box<task_struct> [ Text x: ${@this->pid +} ]\n\
     plot D(${&init_task})\n";
  fails_at 2 "define D as Box<task_struct> [ Text pid ]\nplot D<task_struct>(${0})\n";
  fails_at 1 "x = ${'\\n}\nplot @x\n";
  (* A name resolves where it is written: a definition sees [@this] and
     its own bindings, never its caller's or the top level's; the error
     names the line of the [define] or of the top-level statement. *)
  let caller_binds_outer =
    {|define Leaf as Box<task_struct> [
  Text pid
  Text tag: @outer
]
define Top as Box<task_struct> [
  Text tgid
  Link parent -> @p
] where {
  outer = ${42}
  p = Leaf(${@this->real_parent})
}
plot Top(${task_of_pid(target_pid)})
|}
  in
  let unbound name = "unbound reference @" ^ name in
  fails_at ~says:(unbound "outer") 1 caller_binds_outer;
  fails_at ~says:(unbound "outer") 2 ("outer = ${7}\n" ^ caller_binds_outer);
  fails_at ~says:(unbound "nope") 2 "define D as Box<task_struct> [ Text pid ]\nplot D(@nope)\n";
  fails_at ~says:(unbound "b") 2
    "define D as Box<task_struct> [ Text pid ]\n\
     define E as Box<task_struct> [ Text a: @a ] where {\n\
    \  a = @b\n\
    \  b = ${1}\n\
     }\n";
  fails_at ~says:(unbound "x") 2
    "define D as Box<task_struct> [ Text pid ]\nplot D(@x)\nx = ${&init_task}\n";
  (* Every name the parser can know resolves at parse: containers and
     their arity, definitions, methods, anchors, views, decorators and
     member paths. *)
  let d = "define D as Box<task_struct> [ Text pid ]\n" in
  fails_at ~says:"Range takes 2 arguments" 1 "xs = Range(${1}).forEach |i| { yield NULL }\n";
  fails_at ~says:"Array takes 1 or 2 arguments" 2 (d ^ "xs = Array(${1}, ${2}, ${3})\n");
  fails_at ~says:"List takes 1 argument" 2 (d ^ "xs = List(${1}, ${2})\n");
  fails_at ~says:"D takes 1 argument" 2 (d ^ "plot D(${&init_task}, ${0})\n");
  fails_at ~says:"unknown box definition X" 1 "plot X(${0})\n";
  fails_at ~says:"unknown box definition Nope" 3
    (d ^ "t = D(${&init_task})\nxs = Array.selectFrom(@t, Nope)\n");
  fails_at ~says:"unknown method Foo.bar" 2 (d ^ "xs = Foo.bar(${1})\n");
  fails_at ~says:"duplicate define D" 2 (d ^ "define D as Box<task_struct> [ Text tgid ]\n");
  fails_at ~says:"unknown type nosuch" 1 "define E as Box<nosuch> [ Text pid ]\n";
  fails_at ~says:"unknown decorator <frob>" 1 "define E as Box<task_struct> [ Text<frob> pid ]\n";
  fails_at ~says:"unknown decorator <u64:zz>" 1 "define E as Box<task_struct> [ Text<u64:zz> pid ]\n";
  fails_at ~says:"unknown enum nosuch" 1 "define E as Box<task_struct> [ Text<enum:nosuch> pid ]\n";
  fails_at ~says:"no member nosuchfield in task_struct" 1
    "define E as Box<task_struct> [\n  Text pid\n  Text nosuchfield\n]\n";
  fails_at ~says:"no member nosuch in task_struct" 2
    (d ^ "define E as Box<task_struct> [ Text p: parent.nosuch ]\n");
  fails_at ~says:"no member x in int" 1 "define E as Box<task_struct> [ Text pid.x ]\n";
  fails_at ~says:"no member nosuch in task_struct" 2 (d ^ "plot D<task_struct.nosuch>(${0})\n");
  fails_at ~says:"view :b inherits unknown view :a" 1
    "define E as Box<task_struct> {\n  :default [ Text pid ]\n  :a => :b [ Text tgid ]\n}\n";
  fails_at ~says:"view inheritance cycle at :a" 1
    "define E as Box<task_struct> {\n  :b => :a [ Text pid ]\n  :a => :b [ Text tgid ]\n}\n";
  fails_at ~says:"path pid has no @this in scope" 1 "x = Box [ Text pid ]\nplot @x\n";
  fails_at ~says:"@this cannot be rebound" 1
    "define E as Box<task_struct> [ Text pid ] where { this = ${&init_task} }\n";
  fails_at ~says:"List is a container constructor" 1 "define List as Box<task_struct> [ Text pid ]\n";
  fails_at ~says:"a container takes no anchor" 1 "xs = List<list_head.next>(${0})\n";
  fails_at ~says:"yield in where" 1 "define E as Box<task_struct> [ Text pid ] where { yield ${1} }\n"

let test_loc_metric () =
  Alcotest.(check int) "comments and blanks don't count" 2
    (Viewcl.loc_of "// comment\n\nText pid\n\n// more\nplot @x\n")

(* ---------------- evaluation ---------------- *)

let test_simple_box () =
  let _, s = boot_session () in
  let res = run s {|
define B as Box<task_struct> [
  Text pid, comm
  Text ppid: parent.pid
]
plot B(${&init_task})
|} in
  let g = res.Viewcl.graph in
  Alcotest.(check int) "one box" 1 (Vgraph.box_count g);
  let b = List.hd (Vgraph.boxes g) in
  Alcotest.(check (option string)) "pid field"
    (Some "0")
    (match Vgraph.field b "pid" with Some (Vgraph.Fint n) -> Some (string_of_int n) | _ -> None);
  (match Vgraph.current_items b with
  | [ Vgraph.Text { label = "pid"; value = "0"; _ };
      Vgraph.Text { label = "comm"; value = "swapper/0"; _ };
      Vgraph.Text { label = "ppid"; _ } ] -> ()
  | items -> Alcotest.failf "unexpected items (%d)" (List.length items))

let test_decorators () =
  let _, s = boot_session () in
  let res = run s {|
define B as Box<vm_area_struct> [
  Text<u64:x> vm_start
  Text<flag:vm_flags> vm_flags
  Text<bool> w: ${is_writable(@this)}
  Text<string> n: ${vma_name(@this)}
]
plot B(${mas_walk(&task_of_pid(target_pid)->mm->mm_mt, task_of_pid(target_pid)->mm->start_code)})
|} in
  let b = List.hd (Vgraph.boxes res.Viewcl.graph) in
  (match Vgraph.current_items b with
  | [ Vgraph.Text { label = "vm_start"; value; _ }; Vgraph.Text { value = flags; _ };
      Vgraph.Text { label = "w"; value = w; _ }; Vgraph.Text { label = "n"; value = n; _ } ] ->
      Alcotest.(check string) "hex" "0x400000" value;
      Alcotest.(check bool) "flag names" true (flags = "VM_READ|VM_EXEC");
      Alcotest.(check string) "bool" "false" w;
      Alcotest.(check bool) "backing file name" true (String.length n > 0)
  | _ -> Alcotest.fail "unexpected items")

let test_enum_and_emoji_decorators () =
  let _, s = boot_session () in
  let res = run s {|
define B as Box<rq> [
  Text<emoji:lock> l: __lock.locked
]
plot B(${cpu_rq(0)})
|} in
  let b = List.hd (Vgraph.boxes res.Viewcl.graph) in
  match Vgraph.current_items b with
  | [ Vgraph.Text { value = "[unlocked]"; _ } ] -> ()
  | _ -> Alcotest.fail "emoji decorator failed"

let test_numeric_base_decorators () =
  let _, s = boot_session () in
  let res = run s {|
define B as Box<vm_area_struct> [
  Text<u64:x> hex: vm_flags
  Text<u64:o> oct: vm_flags
  Text<u64:b> bin: vm_flags
  Text<u64:d> dec: vm_flags
]
plot B(${mas_walk(&task_of_pid(target_pid)->mm->mm_mt, 0x400000)})
|} in
  match Vgraph.current_items (List.hd (Vgraph.boxes res.Viewcl.graph)) with
  | [ Vgraph.Text { value = hex; _ }; Vgraph.Text { value = oct; _ };
      Vgraph.Text { value = bin; _ }; Vgraph.Text { value = dec; _ } ] ->
      (* text VMA: VM_READ | VM_EXEC = 0x5 *)
      Alcotest.(check string) "hex" "0x5" hex;
      Alcotest.(check string) "oct" "0o5" oct;
      Alcotest.(check string) "bin" "0b101" bin;
      Alcotest.(check string) "dec" "5" dec
  | _ -> Alcotest.fail "unexpected items"

let test_views_inheritance () =
  let _, s = boot_session () in
  let res = run s {|
define B as Box<task_struct> {
  :default [ Text pid ]
  :default => :sched [ Text prio ]
}
plot B(${&init_task})
|} in
  let b = List.hd (Vgraph.boxes res.Viewcl.graph) in
  Alcotest.(check int) "default has 1 item" 1 (List.length (List.assoc "default" b.Vgraph.views));
  Alcotest.(check int) "sched inherits" 2 (List.length (List.assoc "sched" b.Vgraph.views));
  (* ViewQL-style view switch changes what current_items returns *)
  b.Vgraph.attrs.Vgraph.view <- "sched";
  Alcotest.(check int) "switched" 2 (List.length (Vgraph.current_items b))

let test_containers_and_memoization () =
  let _, s = boot_session () in
  let res = run s {|
define T as Box<task_struct> [ Text pid ]
a = List(${&init_task.children}).forEach |n| { yield T<task_struct.sibling>(@n) }
b = List(${&init_task.children}).forEach |n| { yield T<task_struct.sibling>(@n) }
plot @a
plot @b
|} in
  let g = res.Viewcl.graph in
  let tasks = Vgraph.of_type g "task_struct" in
  let containers = List.filter (fun b -> b.Vgraph.container) (Vgraph.boxes g) in
  Alcotest.(check int) "two containers" 2 (List.length containers);
  (* memoization: same tasks are shared between the two plots *)
  let c1 = List.nth containers 0 and c2 = List.nth containers 1 in
  Alcotest.(check (list int)) "same members" c1.Vgraph.members c2.Vgraph.members;
  Alcotest.(check bool) "non-empty" true (tasks <> [])

let test_switch_and_null () =
  let _, s = boot_session () in
  let res = run s {|
define B as Box<task_struct> [
  Text pid
  Link mm -> @m
] where {
  m = switch ${@this->mm != NULL} {
    case ${true}: B(${&init_task})
    otherwise: NULL
  }
}
plot B(${&init_task})
|} in
  let b = List.hd (Vgraph.boxes res.Viewcl.graph) in
  (match Vgraph.current_items b with
  | [ _; Vgraph.Link { target = None; _ } ] -> ()
  | _ -> Alcotest.fail "kernel thread mm should be a NULL link")

let test_anchor_container_of () =
  let _, s = boot_session () in
  (* construct a Task from its embedded run_node, like the paper's intro *)
  let res = run s {|
define T as Box<task_struct> [ Text pid, comm ]
rq = RBTree(${&cpu_rq(0)->cfs.tasks_timeline}).forEach |n| {
  yield T<task_struct.se.run_node>(@n)
}
plot @rq
|} in
  let tasks = Vgraph.of_type res.Viewcl.graph "task_struct" in
  Alcotest.(check bool) "tasks recovered via container_of" true (List.length tasks > 5);
  (* vruntime order: pids are assigned in vruntime order by the workload *)
  List.iter
    (fun b -> Alcotest.(check bool) "valid comm" true (Vgraph.field b "comm" <> None))
    tasks

let test_select_from () =
  let _, s = boot_session () in
  let res = run s {|
define V as Box<vm_area_struct> [ Text<u64:x> vm_start ]
define MN as Box<maple_node> [
  Container slots: @slots
] where {
  node = ${mte_to_node(@this)}
  slots = switch ${mte_is_leaf(@this)} {
    case ${true}:
      Array(${@node->mr64.slot}).forEach |i| {
        yield switch ${@i != NULL} { case ${true}: V(@i) otherwise: NULL }
      }
    otherwise:
      Array(${@node->ma64.slot}).forEach |i| {
        yield switch ${@i != NULL} { case ${true}: MN(@i) otherwise: NULL }
      }
  }
}
define MT as Box<maple_tree> [ Link root -> @r ] where {
  r = switch ${xa_is_node(@this->ma_root)} { case ${true}: MN(${@this->ma_root}) otherwise: NULL }
}
t = MT(${&task_of_pid(target_pid)->mm->mm_mt})
flat = Array.selectFrom(@t, V)
plot @flat
|} in
  let g = res.Viewcl.graph in
  (* the plotted root is the selectFrom result *)
  let flat = Vgraph.get g (List.hd (Vgraph.roots g)) in
  let vmas = Vgraph.of_type g "vm_area_struct" in
  Alcotest.(check int) "distill collects all VMAs" (List.length vmas)
    (List.length flat.Vgraph.members);
  (* ordered: vm_start increasing *)
  let starts =
    List.map
      (fun id ->
        match Vgraph.field (Vgraph.get g id) "vm_start" with
        | Some (Vgraph.Fint v) -> v
        | _ -> -1)
      flat.Vgraph.members
  in
  Alcotest.(check (list int)) "address order" (List.sort compare starts) starts

let test_default_formats () =
  let k, s = boot_session () in
  (* locate the socket fd of the target task (seed-independent) *)
  let ctx = k.Kstate.ctx in
  let target = Option.get (Kstate.find_task k s.Visualinux.target_pid) in
  let sock_fd =
    Kvfs.open_fds k.Kstate.vfs (Ksyscall.files_of k target)
    |> List.find_map (fun (fd, f) ->
           match Kfuncs.name_of k.Kstate.funcs (Kcontext.r64 ctx f "file" "f_op") with
           | Some "socket_file_ops" -> Some fd
           | _ -> None)
    |> Option.get
  in
  (* default formatting without decorators: enums by name, ints plain,
     function pointers by symbol *)
  let res = run s (Printf.sprintf {|
define B as Box<socket> [
  Text state
  Text type
  Text<fptr> ops
]
plot B(${sock_of_file(fd_file(task_of_pid(target_pid)->files, %d))})
|} sock_fd) in
  match Vgraph.current_items (List.hd (Vgraph.boxes res.Viewcl.graph)) with
  | [ Vgraph.Text { label = "state"; value = st; _ }; Vgraph.Text { value = ty; _ };
      Vgraph.Text { value = ops; _ } ] ->
      Alcotest.(check string) "enum field by name" "SS_CONNECTED" st;
      Alcotest.(check string) "plain int" "1" ty;
      Alcotest.(check string) "fptr by symbol" "inet_stream_ops" ops
  | _ -> Alcotest.fail "unexpected items"

let test_range_and_nested_foreach () =
  let _, s = boot_session () in
  let res = run s {|
define B as Box<task_struct> [ Text pid ]
grid = Range(${0}, ${2}).forEach |cpu| {
  rq = RBTree(${&cpu_rq(@cpu)->cfs.tasks_timeline}).forEach |n| {
    yield B<task_struct.se.run_node>(@n)
  }
  yield @rq
}
plot @grid
|} in
  let g = res.Viewcl.graph in
  let outer = Vgraph.get g (List.hd (Vgraph.roots g)) in
  Alcotest.(check int) "one inner container per cpu" 2 (List.length outer.Vgraph.members);
  let tasks = Vgraph.of_type g "task_struct" in
  Alcotest.(check bool) "tasks from both runqueues" true (List.length tasks > 10)

(* Definitions are visible to the whole program; a constructor's
   arity is checked at parse, not recursed into at run time. *)
let test_forward_definition_and_range () =
  let _, s = boot_session () in
  let res = run s {|
plot D(${&init_task})
xs = Range(${0}, ${3}).forEach |i| { yield Box [ Text idx: @i ] }
plot @xs
define D as Box<task_struct> [ Text pid ]
|} in
  let g = res.Viewcl.graph in
  match res.Viewcl.plots with
  | [ d; xs ] ->
      Alcotest.(check string) "defined after its use" "D" (Vgraph.get g d).Vgraph.bdef;
      Alcotest.(check int) "Range(0, 3) yields 3" 3 (List.length (Vgraph.get g xs).Vgraph.members)
  | l -> Alcotest.failf "expected 2 plots, got %d" (List.length l)

let test_multi_plot_roots () =
  let _, s = boot_session () in
  let res = run s {|
define A as Box<rq> [ Text cpu ]
plot A(${cpu_rq(0)})
plot A(${cpu_rq(1)})
|} in
  Alcotest.(check int) "two roots" 2 (List.length (Vgraph.roots res.Viewcl.graph));
  Alcotest.(check int) "two plots recorded" 2 (List.length res.Viewcl.plots)

let test_anon_box_and_yield_null () =
  let _, s = boot_session () in
  (* anonymous boxes group items; NULL yields are dropped from containers *)
  let res = run s {|
wrap = Range(${0}, ${4}).forEach |i| {
  yield switch ${@i % 2} {
    case ${0}: Box [ Text idx: @i ]
    otherwise: NULL
  }
}
plot @wrap
|} in
  let g = res.Viewcl.graph in
  let c = Vgraph.get g (List.hd (Vgraph.roots g)) in
  Alcotest.(check int) "only even yields kept" 2 (List.length c.Vgraph.members)

let test_eval_errors () =
  let _, s = boot_session () in
  let fails src =
    match run s src with
    | exception Viewcl.Error _ -> ()
    | _ -> Alcotest.failf "expected eval error for %S" src
  in
  List.iter fails
    [ "plot X(${0})";  (* unknown def *)
      "plot @nope";  (* unbound ref *)
      "define B as Box<task_struct> [ Text nofield ]\nplot B(${&init_task})";
      "define B as Box<task_struct> [ Text pid ]\nplot B(${nosym})" ]

let test_box_budget () =
  let _, s = boot_session () in
  (* a self-recursive box on a cyclic structure is fine (memoized), but a
     box that generates fresh virtual boxes forever trips the budget *)
  match
    run s {|
define B as Box<task_struct> [ Link self -> @n ] where {
  n = Box [ Link inner -> B(${&init_task}) ]
}
plot B(${&init_task})
|}
  with
  | _ -> ()  (* memoized: terminates *)
  | exception Viewcl.Error _ -> ()

let suite =
  [ Alcotest.test_case "parse program shapes" `Quick test_parse_shapes;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "LoC metric" `Quick test_loc_metric;
    Alcotest.test_case "simple box + flatten" `Quick test_simple_box;
    Alcotest.test_case "text decorators" `Quick test_decorators;
    Alcotest.test_case "emoji decorator" `Quick test_enum_and_emoji_decorators;
    Alcotest.test_case "numeric base decorators" `Quick test_numeric_base_decorators;
    Alcotest.test_case "view inheritance" `Quick test_views_inheritance;
    Alcotest.test_case "containers + memoization" `Quick test_containers_and_memoization;
    Alcotest.test_case "switch + NULL links" `Quick test_switch_and_null;
    Alcotest.test_case "anchored construction (container_of)" `Quick test_anchor_container_of;
    Alcotest.test_case "Array.selectFrom distill" `Quick test_select_from;
    Alcotest.test_case "default formats" `Quick test_default_formats;
    Alcotest.test_case "Range + nested forEach" `Quick test_range_and_nested_foreach;
    Alcotest.test_case "forward definition + Range arity" `Quick test_forward_definition_and_range;
    Alcotest.test_case "multiple plots" `Quick test_multi_plot_roots;
    Alcotest.test_case "anonymous boxes + NULL yields" `Quick test_anon_box_and_yield_null;
    Alcotest.test_case "evaluation errors" `Quick test_eval_errors;
    Alcotest.test_case "cycles terminate via memoization" `Quick test_box_budget ]
