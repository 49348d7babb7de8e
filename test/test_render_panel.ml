(* Tests for the renderers and the pane manager. *)

let mk_graph ?(base = 0x1000) () =
  let g = Vgraph.create ~title:"render-test" () in
  let mk ty items =
    let b = Vgraph.add_box g ~btype:ty ~bdef:"" ~addr:(base * (Vgraph.box_count g + 1))
        ~size:32 ~container:false in
    Vgraph.set_view b "default" items;
    b
  in
  let leaf = mk "leaf" [ Vgraph.Text { label = "v"; value = "42"; raw = Vgraph.Fint 42 } ] in
  let mid =
    mk "mid"
      [ Vgraph.Text { label = "name"; value = "middle"; raw = Vgraph.Fstr "middle" };
        Vgraph.Link { label = "down"; target = Some leaf.Vgraph.id } ]
  in
  let root = mk "root" [ Vgraph.Link { label = "next"; target = Some mid.Vgraph.id } ] in
  Vgraph.set_root g root.Vgraph.id;
  (g, root, mid, leaf)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_ascii_contains_all () =
  let g, _, _, _ = mk_graph () in
  let out = Render.ascii g in
  List.iter
    (fun s -> Alcotest.(check bool) ("contains " ^ s) true (contains out s))
    [ "render-test"; "root"; "mid"; "leaf"; "v: 42"; "name: middle"; "(3 boxes, 3 visible)" ]

let test_trimmed_hides_subtree () =
  let g, _, mid, leaf = mk_graph () in
  mid.Vgraph.attrs.Vgraph.trimmed <- true;
  let out = Render.ascii g in
  Alcotest.(check bool) "mid hidden" false (contains out "name: middle");
  Alcotest.(check bool) "leaf hidden too" false (contains out "v: 42");
  Alcotest.(check bool) "root shown" true (contains out "root");
  ignore leaf;
  Alcotest.(check (list int)) "visible set" [ List.hd (Vgraph.roots g) ] (Vgraph.visible g)

let test_collapsed_stub () =
  let g, _, mid, _ = mk_graph () in
  mid.Vgraph.attrs.Vgraph.collapsed <- true;
  let out = Render.ascii g in
  Alcotest.(check bool) "stub" true (contains out "(collapsed)");
  Alcotest.(check bool) "children hidden" false (contains out "v: 42")

let test_view_switch_rendered () =
  let g, root, _, _ = mk_graph () in
  Vgraph.set_view root "alt" [ Vgraph.Text { label = "alt"; value = "yes"; raw = Vgraph.Fstr "" } ];
  root.Vgraph.attrs.Vgraph.view <- "alt";
  let out = Render.ascii g in
  Alcotest.(check bool) "alt view items" true (contains out "alt: yes");
  Alcotest.(check bool) "view marker" true (contains out "(view: alt)")

let test_dot_and_svg () =
  let g, _, _, _ = mk_graph () in
  let dot = Render.dot g in
  Alcotest.(check bool) "digraph" true (contains dot "digraph");
  Alcotest.(check bool) "edge" true (contains dot "->");
  let svg = Render.svg g in
  Alcotest.(check bool) "svg root" true (contains svg "<svg");
  Alcotest.(check bool) "boxes drawn" true (contains svg "<rect");
  Alcotest.(check bool) "text drawn" true (contains svg "v: 42");
  Alcotest.(check bool) "closed" true (contains svg "</svg>")

let test_json () =
  let g, root, _, _ = mk_graph () in
  let json = Json.to_string (Vgraph.to_json g) in
  Alcotest.(check bool) "has title" true (contains json "\"render-test\"");
  Alcotest.(check bool) "has root id" true
    (contains json (Printf.sprintf "\"roots\":[%d]" root.Vgraph.id));
  (* balanced braces/brackets *)
  let bal = List.fold_left (fun acc c ->
      match c with '{' | '[' -> acc + 1 | '}' | ']' -> acc - 1 | _ -> acc)
      0 (List.init (String.length json) (String.get json)) in
  Alcotest.(check int) "balanced" 0 bal

(* ---------------- panel ---------------- *)

let test_direction_attribute () =
  let g = Vgraph.create () in
  let c = Vgraph.add_box g ~btype:"List" ~bdef:"" ~addr:0 ~size:0 ~container:true in
  Vgraph.set_view c "default" [];
  let m1 = Vgraph.add_box g ~btype:"x" ~bdef:"" ~addr:1 ~size:0 ~container:false in
  let m2 = Vgraph.add_box g ~btype:"x" ~bdef:"" ~addr:2 ~size:0 ~container:false in
  Vgraph.set_view m1 "default" [];
  Vgraph.set_view m2 "default" [];
  c.Vgraph.members <- [ m1.Vgraph.id; m2.Vgraph.id ];
  Vgraph.set_root g c.Vgraph.id;
  let horiz = Render.ascii g in
  c.Vgraph.attrs.Vgraph.direction <- Vgraph.Vertical;
  let vert = Render.ascii g in
  (* vertical containers list members one per line *)
  Alcotest.(check bool) "outputs differ" true (horiz <> vert);
  Alcotest.(check bool) "vertical is taller" true
    (List.length (String.split_on_char '\n' vert) > List.length (String.split_on_char '\n' horiz))

let test_deep_layout_json () =
  let t = Panel.create () in
  let g1, _, _, _ = mk_graph () in
  let g2, _, _, _ = mk_graph () in
  let g3, _, _, _ = mk_graph () in
  let p1 = Panel.open_primary t ~program:"a" g1 in
  let p2 = Panel.split t ~dir:`Horizontal ~at:p1.Panel.pid ~program:"b" g2 in
  let _p3 = Panel.split t ~dir:`Vertical ~at:p2.Panel.pid ~program:"c" g3 in
  (* the layout nests: h(p1, v(p2, p3)) *)
  Alcotest.(check bool) "layout is h(1, v(2, 3))" true
    (Panel.layout t = Some (Panel.Hsplit (Panel.Leaf 1, Panel.Vsplit (Panel.Leaf 2, Panel.Leaf 3))));
  Alcotest.(check int) "three panes" 3 (List.length (Panel.pane_ids t))

let test_pane_tree () =
  let t = Panel.create () in
  let g1, _, _, _ = mk_graph () in
  let g2, _, _, _ = mk_graph () in
  let p1 = Panel.open_primary t ~program:"prog1" g1 in
  let p2 = Panel.split t ~dir:`Horizontal ~at:p1.Panel.pid ~program:"prog2" g2 in
  Alcotest.(check int) "two panes" 2 (List.length (Panel.pane_ids t));
  let p3 = Panel.select t ~from:p1.Panel.pid [ 1 ] in
  Alcotest.(check int) "secondary added" 3 (List.length (Panel.pane_ids t));
  (match (Panel.pane t p3.Panel.pid).Panel.kind with
  | Panel.Secondary { source; picked } ->
      Alcotest.(check int) "source" p1.Panel.pid source;
      Alcotest.(check (list int)) "picked" [ 1 ] picked
  | Panel.Primary _ -> Alcotest.fail "expected secondary");
  Panel.close t p2.Panel.pid;
  Alcotest.(check int) "closed" 2 (List.length (Panel.pane_ids t))

let test_refine_and_history () =
  let t = Panel.create () in
  let g, _, mid, _ = mk_graph () in
  let p = Panel.open_primary t ~program:"p" g in
  let n = Panel.refine t ~at:p.Panel.pid "a = SELECT mid FROM *\nUPDATE a WITH collapsed: true" in
  Alcotest.(check int) "updated" 1 n;
  Alcotest.(check bool) "applied" true mid.Vgraph.attrs.Vgraph.collapsed;
  Alcotest.(check int) "history recorded" 1 (List.length p.Panel.history)

let test_focus_across_panes () =
  let t = Panel.create () in
  let g1, root1, _, _ = mk_graph () in
  (* disjoint address ranges so only the planted twin collides *)
  let g2, _, _, _ = mk_graph ~base:0x9000 () in
  (* plant the same address in both graphs *)
  let twin = Vgraph.add_box g2 ~btype:"root" ~bdef:"" ~addr:root1.Vgraph.addr ~size:32
      ~container:false in
  Vgraph.set_view twin "default" [];
  let p1 = Panel.open_primary t ~program:"a" g1 in
  let p2 = Panel.split t ~dir:`Vertical ~at:p1.Panel.pid ~program:"b" g2 in
  let hits = Panel.focus t ~addr:root1.Vgraph.addr in
  Alcotest.(check int) "found in both panes" 2 (List.length hits);
  Alcotest.(check bool) "pane ids" true
    (List.mem p1.Panel.pid (List.map fst hits) && List.mem p2.Panel.pid (List.map fst hits))

let test_secondary_pane_rendering () =
  let t = Panel.create () in
  let g, root, mid, leaf = mk_graph () in
  let p1 = Panel.open_primary t ~program:"p" g in
  (* pick only the mid box into a secondary pane *)
  let p2 = Panel.select t ~from:p1.Panel.pid [ mid.Vgraph.id ] in
  (match (Panel.pane t p2.Panel.pid).Panel.kind with
  | Panel.Secondary { picked; _ } ->
      let out = Render.ascii ~roots:picked g in
      Alcotest.(check bool) "mid shown" true (contains out "name: middle");
      Alcotest.(check bool) "leaf reachable from pick" true (contains out "v: 42");
      Alcotest.(check bool) "root excluded" false
        (contains out (Printf.sprintf "#%d <root" root.Vgraph.id))
  | Panel.Primary _ -> Alcotest.fail "expected secondary");
  ignore leaf

let test_persistence () =
  let t = Panel.create () in
  let g, _, _, _ = mk_graph () in
  let p = Panel.open_primary t ~program:"define X..." g in
  let q1 = "a = SELECT root FROM *\nUPDATE a WITH collapsed: true" in
  let q2 = "a = SELECT root FROM *\nUPDATE a WITH collapsed: false" in
  ignore (Panel.refine t ~at:p.Panel.pid q1);
  ignore (Panel.refine t ~at:p.Panel.pid q2);
  (* the journal is the persisted session: replaying it rebuilds the
     pane, its program and its refinement history *)
  let extract _ =
    let g, _, _, _ = mk_graph () in
    Some g
  in
  let t', stale = Panel.recover ~extract (Panel.journal t) in
  Alcotest.(check int) "nothing stale" 0 stale;
  Alcotest.(check (list int)) "one pane recovered" [ p.Panel.pid ] (Panel.pane_ids t');
  Alcotest.(check bool) "layout recovered" true (Panel.layout t' = Some (Panel.Leaf p.Panel.pid));
  let p' = Panel.pane t' p.Panel.pid in
  (match p'.Panel.kind with
  | Panel.Primary { program } -> Alcotest.(check string) "program" "define X..." program
  | Panel.Secondary _ -> Alcotest.fail "expected primary");
  Alcotest.(check (list string)) "history, oldest first" [ q1; q2 ] (List.rev p'.Panel.history)

let test_multi_tag_order () =
  (* status tags compose deterministically: [BROKEN], then [TORN], then
     [SUSPECT:<law>] sorted by law — whatever order the marks landed *)
  let g = Vgraph.create () in
  let b = Vgraph.add_box g ~btype:"task_struct" ~bdef:"T" ~addr:0x1000 ~size:64 ~container:false in
  Vgraph.set_view b "default" [];
  Vgraph.set_root g b.Vgraph.id;
  Vgraph.mark_suspect b ~law:"rbtree" "red-red edge";
  Vgraph.mark_broken b "read fault";
  Vgraph.mark_suspect b ~law:"list" "no closure";
  Vgraph.mark_torn b "raced by a writer";
  let out = Render.ascii g in
  Alcotest.(check bool) "composed in order" true
    (contains out "[BROKEN] [TORN] [SUSPECT:list] [SUSPECT:rbtree]")

(* ------------------------------------------------------------------ *)
(* Card cache: a pane's cached render is byte-identical to a cold one *)

(* The pane's render through its card cache, against a render of the
   same graph with no cards.  The cards are then rebuilt from the
   current state, so the next check's cached render is served by cards
   the refreshes, refinements and marks in between must invalidate. *)
let check_cards_cold what g =
  let cached = Render.ascii g in
  Vgraph.keep_cards g false;
  let cold = Render.ascii g in
  Vgraph.keep_cards g true;
  ignore (Render.ascii g);
  Alcotest.(check string) what cold cached

let test_card_cache_matches_cold () =
  let k = Kstate.boot () in
  let w = Workload.create ~seed:5 k in
  Workload.run ~iters:40 w;
  let s = Visualinux.attach k in
  let chaos = Workload.Chaos.create ~seed:5 w ~rate:1.0 in
  let plot fig = let p, _, _ = Visualinux.plot_figure s (Option.get (Scripts.find fig)) in p.Panel.pid in
  let panes = ref (List.map (fun fig -> (fig, plot fig)) [ "3-4"; "7-1"; "9-2" ]) in
  let graph pid = (Panel.pane s.Visualinux.panel pid).Panel.graph in
  let updates =
    [| "a = SELECT task_struct FROM * WHERE pid == 2\nUPDATE a WITH trimmed: true";
       "a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: true";
       "a = SELECT List FROM *\nUPDATE a WITH direction: vertical";
       "a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: false" |]
  in
  for round = 1 to 16 do
    if round mod 4 = 0 then for _ = 1 to 5 do Workload.Chaos.mutate chaos done
    else Workload.step w;
    List.iter
      (fun (fig, pid) ->
        if Visualinux.vrefresh s ~pane:pid = None then Alcotest.failf "refresh of %s failed" fig;
        check_cards_cold (Printf.sprintf "round %d %s refreshed" round fig) (graph pid);
        if round mod 3 = 0 then begin
          ignore
            (Visualinux.vctrl s
               (Visualinux.Apply { pane = pid; viewql = updates.(round / 3 mod Array.length updates) }));
          check_cards_cold (Printf.sprintf "round %d %s refined" round fig) (graph pid)
        end;
        if round mod 5 = 0 then begin
          ignore (Visualinux.vverify s ~pane:pid);
          (match Vgraph.boxes (graph pid) with
          | b :: _ -> Vgraph.mark_suspect b ~law:"test" "marked by the test"
          | [] -> ());
          check_cards_cold (Printf.sprintf "round %d %s verified" round fig) (graph pid)
        end)
      !panes;
    if round mod 7 = 0 then
      panes :=
        List.map
          (fun (fig, pid) ->
            if fig = "7-1" then begin
              ignore (Visualinux.vctrl s (Visualinux.Close { pane = pid }));
              (fig, plot fig)
            end
            else (fig, pid))
          !panes
  done

let suite =
  [ Alcotest.test_case "ascii shows everything" `Quick test_ascii_contains_all;
    Alcotest.test_case "multi-tag composition order" `Quick test_multi_tag_order;
    Alcotest.test_case "trimmed hides subtree" `Quick test_trimmed_hides_subtree;
    Alcotest.test_case "collapsed stub" `Quick test_collapsed_stub;
    Alcotest.test_case "view switch rendered" `Quick test_view_switch_rendered;
    Alcotest.test_case "dot + svg" `Quick test_dot_and_svg;
    Alcotest.test_case "json serialization" `Quick test_json;
    Alcotest.test_case "direction attribute" `Quick test_direction_attribute;
    Alcotest.test_case "deep layout json" `Quick test_deep_layout_json;
    Alcotest.test_case "pane tree ops" `Quick test_pane_tree;
    Alcotest.test_case "refine + history" `Quick test_refine_and_history;
    Alcotest.test_case "cross-pane focus" `Quick test_focus_across_panes;
    Alcotest.test_case "secondary pane rendering" `Quick test_secondary_pane_rendering;
    Alcotest.test_case "session persistence" `Quick test_persistence;
    Alcotest.test_case "cached cards render as a cold copy" `Quick test_card_cache_matches_cold ]
