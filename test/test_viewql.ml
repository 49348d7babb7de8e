(* Unit + property tests for ViewQL. *)

(* A hand-built graph for precise assertions. *)
let mk_graph () =
  let g = Vgraph.create ~title:"t" () in
  let mk ty ?(fields = []) () =
    let b = Vgraph.add_box g ~btype:ty ~bdef:"" ~addr:(0x1000 * (Vgraph.box_count g + 1)) ~size:64
        ~container:false in
    List.iter (fun (k, v) -> Vgraph.record_field b k v) fields;
    Vgraph.set_view b "default" [];
    b
  in
  let t1 = mk "task_struct" ~fields:[ ("pid", Vgraph.Fint 1); ("mm", Vgraph.Faddr 0xAAA) ] () in
  let t2 = mk "task_struct" ~fields:[ ("pid", Vgraph.Fint 2); ("mm", Vgraph.Faddr 0) ] () in
  let t3 = mk "task_struct" ~fields:[ ("pid", Vgraph.Fint 3); ("mm", Vgraph.Faddr 0xBBB) ] () in
  let v1 = mk "vm_area_struct" ~fields:[ ("is_writable", Vgraph.Fbool true) ] () in
  let v2 = mk "vm_area_struct" ~fields:[ ("is_writable", Vgraph.Fbool false) ] () in
  (* t1 --mm--> v1; t1 --slots--> container of [v2] *)
  let c = Vgraph.add_box g ~btype:"Array" ~bdef:"" ~addr:0 ~size:0 ~container:true in
  c.Vgraph.members <- [ v2.Vgraph.id ];
  Vgraph.set_view c "default" [];
  Vgraph.set_view t1 "extra" [];
  t1.Vgraph.views <-
    [ ( "default",
        [ Vgraph.Link { label = "mm"; target = Some v1.Vgraph.id };
          Vgraph.Inline { label = "slots"; target = c.Vgraph.id } ] ) ];
  Vgraph.set_root g t1.Vgraph.id;
  Vgraph.set_root g t2.Vgraph.id;
  Vgraph.set_root g t3.Vgraph.id;
  (g, t1, t2, t3, v1, v2, c)

let exec g src =
  let s = Viewql.make_session g in
  let n = Viewql.exec s src in
  (s, n)

let test_select_update () =
  let g, t1, t2, t3, _, _, _ = mk_graph () in
  let _, n = exec g "a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: true" in
  Alcotest.(check int) "3 updated" 3 n;
  List.iter
    (fun t -> Alcotest.(check bool) "collapsed" true t.Vgraph.attrs.Vgraph.collapsed)
    [ t1; t2; t3 ]

let test_where_ops () =
  let g, t1, t2, t3, _, _, _ = mk_graph () in
  let _, n = exec g "a = SELECT task_struct FROM * WHERE pid == 2\nUPDATE a WITH trimmed: true" in
  Alcotest.(check int) "1 match" 1 n;
  Alcotest.(check bool) "t2 trimmed" true t2.Vgraph.attrs.Vgraph.trimmed;
  Alcotest.(check bool) "t1 not" false t1.Vgraph.attrs.Vgraph.trimmed;
  let _, n = exec g "b = SELECT task_struct FROM * WHERE pid >= 2 AND pid <= 3\nUPDATE b WITH view: sched" in
  Alcotest.(check int) "AND range" 2 n;
  Alcotest.(check string) "view set" "sched" t3.Vgraph.attrs.Vgraph.view;
  let _, n = exec g "c = SELECT task_struct FROM * WHERE pid == 1 OR pid == 3\nUPDATE c WITH direction: vertical" in
  Alcotest.(check int) "OR" 2 n

let test_null_compare () =
  let g, _, t2, _, _, _, _ = mk_graph () in
  let _, n = exec g "a = SELECT task_struct FROM * WHERE mm == NULL\nUPDATE a WITH collapsed: true" in
  Alcotest.(check int) "only t2" 1 n;
  Alcotest.(check bool) "t2" true t2.Vgraph.attrs.Vgraph.collapsed;
  let g2, _, _, _, _, _, _ = mk_graph () in
  let _, n = exec g2 "a = SELECT task_struct FROM * WHERE mm != NULL\nUPDATE a WITH collapsed: true" in
  Alcotest.(check int) "two with mm" 2 n

let test_bool_compare () =
  let g, _, _, _, v1, v2, _ = mk_graph () in
  let _, n = exec g "w = SELECT vm_area_struct FROM * WHERE is_writable == true\nUPDATE w WITH trimmed: true" in
  Alcotest.(check int) "one writable" 1 n;
  Alcotest.(check bool) "v1" true v1.Vgraph.attrs.Vgraph.trimmed;
  Alcotest.(check bool) "v2 untouched" false v2.Vgraph.attrs.Vgraph.trimmed

let test_set_ops () =
  let g, _, t2, _, _, _, _ = mk_graph () in
  let src = {|
all = SELECT task_struct FROM *
two = SELECT task_struct FROM all WHERE pid == 2
UPDATE all \ two WITH collapsed: true
|} in
  let _, n = exec g src in
  Alcotest.(check int) "difference" 2 n;
  Alcotest.(check bool) "t2 spared" false t2.Vgraph.attrs.Vgraph.collapsed

let test_union_intersect () =
  let g, _, _, _, _, _, _ = mk_graph () in
  let src = {|
a = SELECT task_struct FROM * WHERE pid <= 2
b = SELECT task_struct FROM * WHERE pid >= 2
UPDATE a & b WITH collapsed: true
|} in
  let _, n = exec g src in
  Alcotest.(check int) "intersection = {pid 2}" 1 n;
  let g2, _, _, _, _, _, _ = mk_graph () in
  let src2 = {|
a = SELECT task_struct FROM * WHERE pid == 1
b = SELECT task_struct FROM * WHERE pid == 3
UPDATE a UNION b WITH trimmed: true
|} in
  let _, n = exec g2 src2 in
  Alcotest.(check int) "union" 2 n

let test_field_projection () =
  let g, _, _, _, v1, _, c = mk_graph () in
  (* task_struct.mm projects onto linked boxes; .slots onto inline targets *)
  let _, n = exec g "m = SELECT task_struct.mm FROM *\nUPDATE m WITH collapsed: true" in
  Alcotest.(check int) "projected link" 1 n;
  Alcotest.(check bool) "v1 collapsed" true v1.Vgraph.attrs.Vgraph.collapsed;
  let _, n = exec g "s = SELECT task_struct.slots FROM *\nUPDATE s WITH collapsed: true" in
  Alcotest.(check int) "projected inline" 1 n;
  Alcotest.(check bool) "container collapsed" true c.Vgraph.attrs.Vgraph.collapsed

let test_is_inside () =
  let g, t1, _, _, v1, v2, c = mk_graph () in
  (* IS_INSIDE follows container membership and inlines, but NOT links:
     v2 is inside t1's slots container; v1 is only linked. *)
  let src = {|
roots = SELECT task_struct FROM * WHERE pid == 1
inner = SELECT vm_area_struct FROM IS_INSIDE(roots)
UPDATE inner WITH collapsed: true
|} in
  let _, n = exec g src in
  Alcotest.(check int) "only the contained vma" 1 n;
  Alcotest.(check bool) "v2 (member) collapsed" true v2.Vgraph.attrs.Vgraph.collapsed;
  Alcotest.(check bool) "v1 (linked) not" false v1.Vgraph.attrs.Vgraph.collapsed;
  ignore (t1, c)

let test_reachable () =
  let g, t1, _, _, v1, v2, _ = mk_graph () in
  let src = {|
roots = SELECT task_struct FROM * WHERE pid == 1
r = SELECT vm_area_struct FROM REACHABLE(roots)
UPDATE r WITH trimmed: true
|} in
  let _, n = exec g src in
  Alcotest.(check int) "both vmas reachable from t1" 2 n;
  Alcotest.(check bool) "v1" true v1.Vgraph.attrs.Vgraph.trimmed;
  Alcotest.(check bool) "v2 via container" true v2.Vgraph.attrs.Vgraph.trimmed;
  Alcotest.(check bool) "t1 itself untouched" false t1.Vgraph.attrs.Vgraph.trimmed

let test_alias_address_compare () =
  let g, t1, _, _, _, _, _ = mk_graph () in
  let src =
    Printf.sprintf "a = SELECT task_struct FROM * AS t WHERE t != 0x%x\nUPDATE a WITH collapsed: true"
      t1.Vgraph.addr
  in
  let _, n = exec g src in
  Alcotest.(check int) "all but t1" 2 n;
  Alcotest.(check bool) "t1 spared" false t1.Vgraph.attrs.Vgraph.collapsed

let test_multi_attribute_update () =
  let g, t1, _, _, _, _, _ = mk_graph () in
  let s = Viewql.make_session g in
  ignore
    (Viewql.exec s
       "a = SELECT task_struct FROM * WHERE pid == 1\n\
        UPDATE a WITH collapsed: true, view: sched, direction: vertical");
  Alcotest.(check bool) "collapsed" true t1.Vgraph.attrs.Vgraph.collapsed;
  Alcotest.(check string) "view" "sched" t1.Vgraph.attrs.Vgraph.view;
  Alcotest.(check bool) "direction" true (t1.Vgraph.attrs.Vgraph.direction = Vgraph.Vertical);
  (* and back, reusing the named set in the same session *)
  ignore (Viewql.exec s "UPDATE a WITH collapsed: false");
  Alcotest.(check bool) "uncollapsed" false t1.Vgraph.attrs.Vgraph.collapsed

let test_arrow_projection_and_extra_attrs () =
  let g, _, _, _, v1, _, _ = mk_graph () in
  (* '->' is interchangeable with '.' in projections *)
  let _, n = exec g "m = SELECT task_struct->mm FROM *\nUPDATE m WITH highlight: red" in
  Alcotest.(check int) "projected" 1 n;
  Alcotest.(check (option string)) "free-form attr lands in extra" (Some "red")
    (List.assoc_opt "highlight" v1.Vgraph.attrs.Vgraph.extra)

(* A pane's ViewQL history is replayed on every refresh: re-applying a
   binding must neither stack it nor replace the list, whose identity
   keeps the box's cached card; a new value replaces the old one. *)
let test_reapplied_attr_is_stable () =
  let g, _, _, _, v1, _, _ = mk_graph () in
  let ql = "m = SELECT task_struct->mm FROM *\nUPDATE m WITH highlight: red" in
  ignore (exec g ql);
  let extra = v1.Vgraph.attrs.Vgraph.extra in
  ignore (exec g ql);
  ignore (exec g ql);
  Alcotest.(check bool) "same list after replays" true (v1.Vgraph.attrs.Vgraph.extra == extra);
  ignore (exec g "m = SELECT task_struct->mm FROM *\nUPDATE m WITH highlight: blue");
  Alcotest.(check (list (pair string string))) "one binding, the new value"
    [ ("highlight", "blue") ]
    (List.filter (fun (k, _) -> k = "highlight") v1.Vgraph.attrs.Vgraph.extra)

let test_named_sets_persist () =
  let g, _, _, _, _, _, _ = mk_graph () in
  let s = Viewql.make_session g in
  ignore (Viewql.exec s "a = SELECT task_struct FROM *");
  (* second program uses the set from the first: interactive refinement *)
  let n = Viewql.exec s "UPDATE a WITH collapsed: true" in
  Alcotest.(check int) "persisted set" 3 n

let test_errors () =
  let g, _, _, _, _, _, _ = mk_graph () in
  let fails src =
    match exec g src with
    | exception Viewql.Error _ -> ()
    | _ -> Alcotest.failf "expected error: %S" src
  in
  List.iter fails
    [ "UPDATE nosuchset WITH collapsed: true"; "SELECT FROM *"; "a = SELECT t FROM";
      "UPDATE a WITH"; "a = SELECT t FROM * WHERE"; "bogus" ]

(* Property: WHERE filtering agrees with an OCaml predicate model over
   random boxes and random conditions. *)
let prop_where_model =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 20) (pair (int_bound 20) (int_bound 1)))
        (* (threshold, op-code, connective) *)
        (triple (int_bound 20) (int_bound 5) bool))
  in
  let print ((boxes, (thr, op, conj)) : (int * int) list * (int * int * bool)) =
    Printf.sprintf "boxes=%s thr=%d op=%d conj=%b"
      (String.concat ";" (List.map (fun (p, m) -> Printf.sprintf "(%d,%d)" p m) boxes))
      thr op conj
  in
  QCheck.Test.make ~name:"WHERE matches OCaml predicate" ~count:100 (QCheck.make ~print gen)
    (fun (boxes, (thr, opc, conj)) ->
      let g = Vgraph.create () in
      let recs =
        List.mapi
          (fun i (p, m) ->
            let b = Vgraph.add_box g ~btype:"t" ~bdef:"" ~addr:(0x10 + i) ~size:0
                ~container:false in
            Vgraph.record_field b "pid" (Vgraph.Fint p);
            Vgraph.record_field b "mm" (Vgraph.Faddr m);
            Vgraph.set_view b "default" [];
            (b.Vgraph.id, p, m))
          boxes
      in
      let op, f =
        match opc with
        | 0 -> ("==", ( = ))
        | 1 -> ("!=", ( <> ))
        | 2 -> ("<", ( < ))
        | 3 -> (">", ( > ))
        | 4 -> ("<=", ( <= ))
        | _ -> (">=", ( >= ))
      in
      let connective = if conj then "AND" else "OR" in
      let src =
        Printf.sprintf "a = SELECT t FROM * WHERE pid %s %d %s mm != NULL" op thr connective
      in
      let s = Viewql.make_session g in
      ignore (Viewql.exec s src);
      let got = List.sort compare (Viewql.eval_set s (Viewql.Named "a")) in
      let want =
        List.filter_map
          (fun (id, p, m) ->
            let c1 = f p thr and c2 = m <> 0 in
            if (if conj then c1 && c2 else c1 || c2) then Some id else None)
          recs
        |> List.sort compare
      in
      got = want)

(* Property: set algebra laws on random pid-condition selections. *)
let prop_set_algebra =
  QCheck.Test.make ~name:"ViewQL set operators are set algebra" ~count:50
    QCheck.(pair (int_bound 10) (int_bound 10))
    (fun (x, y) ->
      let g = Vgraph.create () in
      for i = 0 to 9 do
        let b = Vgraph.add_box g ~btype:"t" ~bdef:"" ~addr:(0x100 + i) ~size:8 ~container:false in
        Vgraph.record_field b "pid" (Vgraph.Fint i);
        Vgraph.set_view b "default" []
      done;
      let s = Viewql.make_session g in
      ignore
        (Viewql.exec s
           (Printf.sprintf "a = SELECT t FROM * WHERE pid < %d\nb = SELECT t FROM * WHERE pid < %d" x y));
      let ids set = List.sort compare (Viewql.eval_set s set) in
      let a = ids (Viewql.Named "a") and b = ids (Viewql.Named "b") in
      let diff = ids (Viewql.Diff (Viewql.Named "a", Viewql.Named "b")) in
      let inter = ids (Viewql.Inter (Viewql.Named "a", Viewql.Named "b")) in
      let union = ids (Viewql.Union (Viewql.Named "a", Viewql.Named "b")) in
      let mem x l = List.mem x l in
      List.for_all (fun i -> mem i a = (mem i diff || mem i inter)) (a @ b @ diff @ inter @ union)
      && List.for_all (fun i -> mem i inter = (mem i a && mem i b)) union
      && List.for_all (fun i -> mem i union = (mem i a || mem i b)) (a @ b)
      && List.length union = List.length a + List.length b - List.length inter
      && List.length diff = List.length a - List.length inter)

let suite =
  [ Alcotest.test_case "select + update" `Quick test_select_update;
    Alcotest.test_case "WHERE comparisons" `Quick test_where_ops;
    Alcotest.test_case "NULL comparisons" `Quick test_null_compare;
    Alcotest.test_case "bool comparisons" `Quick test_bool_compare;
    Alcotest.test_case "set difference" `Quick test_set_ops;
    Alcotest.test_case "union / intersect" `Quick test_union_intersect;
    Alcotest.test_case "field projection" `Quick test_field_projection;
    Alcotest.test_case "REACHABLE" `Quick test_reachable;
    Alcotest.test_case "IS_INSIDE" `Quick test_is_inside;
    Alcotest.test_case "alias address compare" `Quick test_alias_address_compare;
    Alcotest.test_case "multi-attribute update" `Quick test_multi_attribute_update;
    Alcotest.test_case "arrow projection + extra attrs" `Quick test_arrow_projection_and_extra_attrs;
    Alcotest.test_case "a re-applied attribute is stable" `Quick test_reapplied_attr_is_stable;
    Alcotest.test_case "named sets persist in session" `Quick test_named_sets_persist;
    Alcotest.test_case "errors" `Quick test_errors;
    QCheck_alcotest.to_alcotest prop_where_model;
    QCheck_alcotest.to_alcotest prop_set_algebra ]
