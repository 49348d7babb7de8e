(* Tests for the natural-language -> ViewQL synthesizer. *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let synth = Vchat.synthesize

let check_has desc fragments =
  let prog = synth desc in
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "%S in output of %S" f desc) true (contains prog f))
    fragments

let test_collapse_phrases () =
  check_has "collapse all tasks" [ "SELECT task_struct FROM *"; "collapsed: true" ];
  check_has "shrink all processes that have no address space"
    [ "WHERE mm == NULL"; "collapsed: true" ];
  check_has "shrink irq descriptors whose action is not configured"
    [ "SELECT irq_desc"; "action == NULL" ]

let test_trim_phrases () =
  check_has "trim all writable vmas" [ "SELECT vm_area_struct"; "is_writable == true"; "trimmed: true" ];
  check_has "make all non-writable memory areas invisible"
    [ "is_writable != true"; "trimmed: true" ];
  check_has "hide pages" [ "SELECT page"; "trimmed: true" ]

let test_view_phrases () =
  check_has "display view \"sched\" of all tasks" [ "view: sched" ];
  check_has "display the task_structs that have non-null mm members with the show_mm view"
    [ "mm != NULL"; "view: show_mm" ]

let test_direction_phrases () =
  check_has "display the superblock list vertically" [ "SELECT List"; "direction: vertical" ];
  check_has "display the red-black tree top-down" [ "SELECT RBTree"; "direction: vertical" ]

let test_address_pin () =
  (* The paper's StackRot NL instruction. *)
  check_has
    "Find me all vm_area_struct whose address is not 0x40000083aa00, and collapse them"
    [ "SELECT vm_area_struct"; "addr != 0x40000083aa00"; "collapsed: true" ]

let test_projection () =
  check_has "collapse the slots of all maple_nodes" [ "SELECT maple_node.slots"; "collapsed: true" ]

let test_multi_clause () =
  let prog = synth "display view \"sched\" of all tasks, and shrink tasks that have no address space" in
  Alcotest.(check bool) "two selects" true
    (contains prog "s1 = SELECT" && contains prog "s2 = SELECT");
  Alcotest.(check bool) "both actions" true
    (contains prog "view: sched" && contains prog "collapsed: true")

let test_cannot_synthesize () =
  match synth "what is the meaning of life" with
  | exception Vchat.Cannot_synthesize _ -> ()
  | p -> Alcotest.failf "expected failure, got %S" p

let test_llm_hook () =
  let llm _ = "UPDATE x WITH collapsed: true" in
  Alcotest.(check string) "plugged model wins" "UPDATE x WITH collapsed: true"
    (Vchat.synthesize ~llm "anything at all")

let test_prompt_template () =
  let sent = ref "" in
  ignore (Vchat.synthesize ~llm:(fun p -> sent := p; "") "collapse everything");
  let p = !sent in
  Alcotest.(check bool) "desc substituted" true (contains p "collapse everything");
  Alcotest.(check bool) "ICL examples present" true (contains p "Example 1");
  Alcotest.(check bool) "syntax described" true (contains p "UPDATE <set-expression>")

(* The paper's §5.2 superblock example, end to end against a live plot. *)
let test_superblock_example_end_to_end () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  let s = Visualinux.attach k in
  let pane, _, _ = Visualinux.plot_figure s (Option.get (Scripts.find "14-3")) in
  let prog, _ =
    Visualinux.vchat s ~pane:pane.Panel.pid
      "display the superblock list vertically, and collapse superblocks that are not \
       connected to any block device"
  in
  (* semantics match the paper's generated program: direction on the list
     container, collapse on s_bdev == NULL superblocks *)
  Alcotest.(check bool) "list vertical" true (contains prog "direction: vertical");
  Alcotest.(check bool) "s_bdev condition" true (contains prog "s_bdev == NULL");
  let g = pane.Panel.graph in
  let rootfs_sb =
    List.find
      (fun b ->
        match Vgraph.field b "s_bdev" with Some (Vgraph.Faddr 0) -> true | _ -> false)
      (Vgraph.of_type g "super_block")
  in
  Alcotest.(check bool) "diskless sb collapsed" true rootfs_sb.Vgraph.attrs.Vgraph.collapsed;
  let ext4_sb =
    List.find
      (fun b ->
        match Vgraph.field b "s_bdev" with Some (Vgraph.Faddr a) -> a <> 0 | _ -> false)
      (Vgraph.of_type g "super_block")
  in
  Alcotest.(check bool) "disk-backed sb kept" false ext4_sb.Vgraph.attrs.Vgraph.collapsed

(* Every Table 3 objective must synthesize into parseable ViewQL. *)
let test_objectives_synthesize_and_parse () =
  List.iter
    (fun (o : Objectives.objective) ->
      let prog = synth o.Objectives.text in
      match Viewql.parse prog with
      | _ -> ()
      | exception Viewql.Error m ->
          Alcotest.failf "objective %s: generated invalid ViewQL (%s): %s" o.Objectives.fig m prog)
    Objectives.all

let suite =
  [ Alcotest.test_case "collapse phrases" `Quick test_collapse_phrases;
    Alcotest.test_case "trim phrases" `Quick test_trim_phrases;
    Alcotest.test_case "view phrases" `Quick test_view_phrases;
    Alcotest.test_case "direction phrases" `Quick test_direction_phrases;
    Alcotest.test_case "address pinning (StackRot NL)" `Quick test_address_pin;
    Alcotest.test_case "field projection" `Quick test_projection;
    Alcotest.test_case "multi-clause" `Quick test_multi_clause;
    Alcotest.test_case "unsynthesizable input" `Quick test_cannot_synthesize;
    Alcotest.test_case "LLM hook" `Quick test_llm_hook;
    Alcotest.test_case "prompt template" `Quick test_prompt_template;
    Alcotest.test_case "superblock example end-to-end (§5.2)" `Quick
      test_superblock_example_end_to_end;
    Alcotest.test_case "all Table-3 objectives parse" `Quick test_objectives_synthesize_and_parse ]
