(* Tests for the JSON layer, the front-end protocol, and the HTML
   renderer. *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ---------------- Json ---------------- *)

let test_json_parse_basics () =
  let open Json in
  Alcotest.(check bool) "null" true (parse "null" = Null);
  Alcotest.(check bool) "true" true (parse "true" = Bool true);
  Alcotest.(check bool) "int" true (parse "-42" = Int (-42));
  Alcotest.(check bool) "float" true (parse "2.5" = Float 2.5);
  Alcotest.(check bool) "string" true (parse {|"a\nb"|} = String "a\nb");
  Alcotest.(check bool) "empty obj" true (parse "{}" = Obj []);
  Alcotest.(check bool) "empty list" true (parse "[]" = List []);
  Alcotest.(check bool) "nested" true
    (parse {| {"a": [1, {"b": false}], "c": "x"} |}
    = Obj [ ("a", List [ Int 1; Obj [ ("b", Bool false) ] ]); ("c", String "x") ])

let test_json_errors () =
  let fails s =
    match Json.parse s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" s
  in
  List.iter fails [ "{"; "[1,"; "\"unterminated"; "{1: 2}"; "truu"; ""; "1 2"; "{\"a\"}" ]

let test_json_accessors () =
  let j = Json.parse {|{"n": 3, "s": "hi", "l": [1,2], "b": true}|} in
  Alcotest.(check int) "int" 3 (Json.to_int (Json.member_exn "n" j));
  Alcotest.(check string) "str" "hi" (Json.to_str (Json.member_exn "s" j));
  Alcotest.(check int) "list" 2 (List.length (Json.to_list (Json.member_exn "l" j)));
  Alcotest.(check bool) "bool" true (Json.to_bool (Json.member_exn "b" j));
  Alcotest.(check bool) "missing" true (Json.member "zzz" j = None)

(* Property: printer output re-parses to the same value. *)
let rec gen_json depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) small_signed_int;
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 10)) ]
  else
    frequency
      [ (3, gen_json 0);
        (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (gen_json (depth - 1))));
        ( 1,
          map
            (fun kvs ->
              (* unique keys *)
              let kvs = List.mapi (fun i (k, v) -> (Printf.sprintf "%d_%s" i k, v)) kvs in
              Json.Obj kvs)
            (list_size (int_range 0 4)
               (pair (string_size ~gen:printable (int_range 0 6)) (gen_json (depth - 1)))) ) ]

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:200
    (QCheck.make ~print:Json.to_string (gen_json 3))
    (fun j -> Json.parse (Json.to_string j) = j)

(* The graphs we serialize actually parse. *)
let test_graph_json_parses () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  let s = Visualinux.attach k in
  let _, res, _ = Visualinux.plot_figure s (Option.get (Scripts.find "7-1")) in
  let j = Json.parse (Vgraph.to_json res.Viewcl.graph) in
  let boxes = Json.to_list (Json.member_exn "boxes" j) in
  Alcotest.(check int) "all boxes serialized" (Vgraph.box_count res.Viewcl.graph)
    (List.length boxes)

(* ---------------- Protocol ---------------- *)

let mk_session () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  Visualinux.attach k

let test_request_roundtrip () =
  List.iter
    (fun r ->
      let encoded = Protocol.encode_request r in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" encoded)
        true
        (Protocol.decode_request encoded = r))
    [ Protocol.Plot { title = "t"; program = "plot @x" };
      Protocol.Apply { pane = 3; viewql = "UPDATE a WITH collapsed: true" };
      Protocol.Split { pane = 1; dir = `Vertical; program = "p" };
      Protocol.Focus { addr = 0x1234 };
      Protocol.Close { pane = 2 };
      Protocol.Chat { pane = 1; text = "collapse all tasks" };
      Protocol.Get_pane { pane = 7 } ]

let test_dispatch_plot_apply () =
  let s = mk_session () in
  let fig = Option.get (Scripts.find "7-1") in
  (* vplot over the wire *)
  let resp =
    Protocol.handle s (Protocol.encode_request (Protocol.Plot { title = "rq"; program = fig.Scripts.source }))
  in
  (match Protocol.decode_response resp with
  | Protocol.Pane_opened { pane; graph } ->
      Alcotest.(check bool) "pane id" true (pane >= 1);
      Alcotest.(check bool) "graph json parses" true
        (match Json.parse graph with Json.Obj _ -> true | _ -> false);
      (* vctrl apply over the wire *)
      let resp2 =
        Protocol.handle s
          (Protocol.encode_request
             (Protocol.Apply
                { pane; viewql = "a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: true" }))
      in
      (match Protocol.decode_response resp2 with
      | Protocol.Updated { count; _ } -> Alcotest.(check bool) "updated some" true (count > 5)
      | _ -> Alcotest.fail "expected Updated");
      (* vchat over the wire *)
      let resp3 =
        Protocol.handle s
          (Protocol.encode_request (Protocol.Chat { pane; text = "hide pages" }))
      in
      (match Protocol.decode_response resp3 with
      | Protocol.Synthesized { viewql; _ } ->
          Alcotest.(check bool) "program synthesized" true (contains viewql "SELECT")
      | _ -> Alcotest.fail "expected Synthesized")
  | _ -> Alcotest.fail "expected Pane_opened")

let test_dispatch_errors () =
  let s = mk_session () in
  (match
     Protocol.decode_response
       (Protocol.handle s
          (Protocol.encode_request (Protocol.Plot { title = "x"; program = "plot @bogus" })))
   with
  | Protocol.Error _ -> ()
  | _ -> Alcotest.fail "bad ViewCL should produce a protocol error");
  match
    Protocol.decode_response
      (Protocol.handle s (Protocol.encode_request (Protocol.Get_pane { pane = 999 })))
  with
  | Protocol.Error _ -> ()
  | _ -> Alcotest.fail "missing pane should produce a protocol error"

(* ---------------- HTML ---------------- *)

let test_html_renderer () =
  let s = mk_session () in
  let pane, res, _ = Visualinux.plot_figure s (Option.get (Scripts.find "7-1")) in
  let html = Render_html.html res.Viewcl.graph in
  List.iter
    (fun frag -> Alcotest.(check bool) ("has " ^ frag) true (contains html frag))
    [ "<!DOCTYPE html>"; "</html>"; "class=\"box"; "toggle("; "comm:" ];
  (* collapsed attribute survives into markup *)
  ignore
    (Panel.refine s.Visualinux.panel ~at:pane.Panel.pid
       "a = SELECT task_struct FROM * WHERE pid == 1\nUPDATE a WITH collapsed: true");
  let html2 = Render_html.html res.Viewcl.graph in
  Alcotest.(check bool) "collapsed class" true (contains html2 "collapsed\"");
  (* trimmed boxes vanish *)
  ignore
    (Panel.refine s.Visualinux.panel ~at:pane.Panel.pid
       "b = SELECT task_struct FROM *\nUPDATE b WITH trimmed: true");
  let html3 = Render_html.html res.Viewcl.graph in
  Alcotest.(check bool) "tasks gone" false (contains html3 "comm:")

let test_html_escaping () =
  let g = Vgraph.create ~title:"<script>alert(1)</script>" () in
  let b = Vgraph.add_box g ~btype:"t" ~bdef:"" ~addr:1 ~size:0 ~container:false in
  Vgraph.set_view b "default"
    [ Vgraph.Text { label = "x<y"; value = "\"a\"&b"; raw = Vgraph.Fstr "" } ];
  Vgraph.set_root g b.Vgraph.id;
  let html = Render_html.html g in
  Alcotest.(check bool) "no raw script tag" false (contains html "<script>alert");
  Alcotest.(check bool) "escaped" true (contains html "&lt;script&gt;")

let suite =
  [ Alcotest.test_case "json parse basics" `Quick test_json_parse_basics;
    Alcotest.test_case "json parse errors" `Quick test_json_errors;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    Alcotest.test_case "graph json parses" `Quick test_graph_json_parses;
    Alcotest.test_case "protocol request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "protocol dispatch plot/apply/chat" `Quick test_dispatch_plot_apply;
    Alcotest.test_case "protocol errors" `Quick test_dispatch_errors;
    Alcotest.test_case "html renderer" `Quick test_html_renderer;
    Alcotest.test_case "html escaping" `Quick test_html_escaping ]
