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
  List.iter fails
    [ "{"; "[1,"; "\"unterminated"; "{1: 2}"; "truu"; ""; "1 2"; "{\"a\"}"; "\"\\uzzzz\"";
      "\"\\u_0_1\"" ]

let test_json_accessors () =
  let j = Json.parse {|{"n": 3, "s": "hi", "l": [1,2], "b": true}|} in
  Alcotest.(check int) "int" 3 (Json.to_int (Json.member_exn "n" j));
  Alcotest.(check string) "str" "hi" (Json.to_str (Json.member_exn "s" j));
  Alcotest.(check int) "list" 2 (List.length (Json.to_list (Json.member_exn "l" j)));
  Alcotest.(check bool) "bool" true (Json.to_bool (Json.member_exn "b" j));
  Alcotest.(check bool) "missing" true (Json.member "zzz" j = None)

(* Property: printer output re-parses to the same value. *)
let basic_leaf =
  let open QCheck.Gen in
  oneof
    [ return Json.Null; map (fun b -> Json.Bool b) bool;
      map (fun n -> Json.Int n) small_signed_int;
      map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 10)) ]

let rec gen_json ?(leaf = basic_leaf) depth =
  let open QCheck.Gen in
  if depth = 0 then leaf
  else
    frequency
      [ (3, leaf);
        (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (gen_json ~leaf (depth - 1))));
        ( 1,
          map
            (fun kvs ->
              (* unique keys *)
              let kvs = List.mapi (fun i (k, v) -> (Printf.sprintf "%d_%s" i k, v)) kvs in
              Json.Obj kvs)
            (list_size (int_range 0 4)
               (pair (string_size ~gen:printable (int_range 0 6)) (gen_json ~leaf (depth - 1)))) ) ]

let prop_json_roundtrip =
  QCheck.Test.make ~name:"json print/parse roundtrip" ~count:200
    (QCheck.make ~print:Json.to_string (gen_json 3))
    (fun j -> Json.parse (Json.to_string j) = j)

(* Every float, finite or not, and every byte of a string survive a
   print/parse round trip.  JSON has no nan or infinity: they come back
   as null and as the saturated +-1e308.  Every other float comes back
   with the same value, though an integral one may come back as an Int. *)
let rich_leaf =
  let open QCheck.Gen in
  oneof
    [ basic_leaf;
      map (fun n -> Json.Int n) int;
      map (fun bits -> Json.Float (Int64.float_of_bits bits)) ui64;
      map (fun f -> Json.Float f) float;
      oneofl
        [ Json.Float Float.nan; Json.Float Float.infinity; Json.Float Float.neg_infinity;
          Json.Float 0.2; Json.Float 123.4567891; Json.Float (-0.) ];
      map (fun s -> Json.String s) (string_size ~gen:char (int_range 0 12)) ]

let rec same_json sent got =
  match (sent, got) with
  | Json.Float f, Json.Null -> Float.is_nan f
  | Json.Float f, Json.Float g when Float.abs f = Float.infinity -> g = Float.copy_sign 1e308 f
  | Json.Int a, Json.Int b -> a = b
  | Json.Float f, (Json.Int _ | Json.Float _) -> f = Json.to_float got
  | Json.List a, Json.List b -> List.equal same_json a b
  | Json.Obj a, Json.Obj b -> List.equal (fun (k, v) (k', v') -> k = k' && same_json v v') a b
  | _ -> sent = got

let prop_json_roundtrip_floats_and_bytes =
  QCheck.Test.make ~name:"json round trip: non-finite and lossless floats, control characters"
    ~count:500
    (QCheck.make ~print:Json.to_string (gen_json ~leaf:rich_leaf 3))
    (fun j -> same_json j (Json.parse (Json.to_string j)))

(* The graphs we serialize actually parse. *)
let test_graph_json_parses () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  let s = Visualinux.attach k in
  let _, res, _ = Visualinux.plot_figure s (Option.get (Scripts.find "7-1")) in
  let j = Vgraph.to_json res.Viewcl.graph in
  let boxes = Json.to_list (Json.member_exn "boxes" j) in
  Alcotest.(check int) "all boxes serialized" (Vgraph.box_count res.Viewcl.graph)
    (List.length boxes)

(* ---------------- Protocol ---------------- *)

let mk_session () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  Visualinux.attach k

let requests =
  [ Protocol.Plot { title = "t"; program = "plot @x" };
    Protocol.Apply { pane = 3; viewql = "UPDATE a WITH collapsed: true" };
    Protocol.Split { pane = 1; dir = `Vertical; program = "p" };
    Protocol.Focus { addr = 0x1234 };
    Protocol.Close { pane = 2 };
    Protocol.Chat { pane = 1; text = "collapse all tasks" };
    Protocol.Get_pane { pane = 7 } ]

let test_request_roundtrip () =
  List.iter
    (fun r ->
      let encoded = Protocol.encode_request r in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" encoded)
        true
        (Protocol.decode_request encoded = r))
    requests

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
        (match graph with Json.Obj _ -> true | _ -> false);
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

(* Fuzz: random bytes and byte-mutated valid requests.  The parser
   raises nothing but Parse_error, and the server answers every input
   with a response that decodes — an undecodable request is an Error. *)
let tiny_plot = "define B as Box<task_struct> [ Text pid, comm ]\nplot B(${&init_task})"

let prop_parse_and_handle_total =
  let plot = Protocol.Plot { title = "t"; program = tiny_plot } in
  (* one pane open, so the mutated requests for pane 1 reach dispatch *)
  let s =
    lazy
      (let s = mk_session () in
       ignore (Protocol.handle s (Protocol.encode_request plot));
       s)
  in
  let valid =
    List.map Protocol.encode_request
      (plot
      :: Protocol.Apply { pane = 1; viewql = "a = SELECT task_struct FROM *\nUPDATE a WITH trimmed: true" }
      :: Protocol.Get_pane { pane = 1 } :: requests)
  in
  let open QCheck.Gen in
  (* replace, delete or insert one byte *)
  let edit src =
    map3
      (fun pos c op ->
        let n = String.length src in
        let i = if n = 0 then 0 else pos mod n in
        let tail = if op < 2 && n > 0 then i + 1 else i in
        let ins = if op = 1 && n > 0 then "" else String.make 1 c in
        String.sub src 0 i ^ ins ^ String.sub src tail (n - tail))
      nat char (int_bound 2)
  in
  let rec edits k src = if k = 0 then return src else edit src >>= edits (k - 1) in
  let mutated = pair (oneofl valid) (int_range 1 4) >>= fun (src, k) -> edits k src in
  let json_char = oneof [ char; oneofl (List.of_seq (String.to_seq "{}[]:,\"\\u0aF-.eE ntf")) ] in
  let bytes = string_size ~gen:json_char (int_range 0 40) in
  QCheck.Test.make ~name:"fuzz: Json.parse and Protocol.handle are total" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") (oneof [ bytes; mutated ]))
    (fun input ->
      (match Json.parse input with _ -> () | exception Json.Parse_error _ -> ());
      ignore (Protocol.decode_response (Protocol.handle (Lazy.force s) input));
      true)

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
    QCheck_alcotest.to_alcotest prop_json_roundtrip_floats_and_bytes;
    Alcotest.test_case "graph json parses" `Quick test_graph_json_parses;
    Alcotest.test_case "protocol request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "protocol dispatch plot/apply/chat" `Quick test_dispatch_plot_apply;
    Alcotest.test_case "protocol errors" `Quick test_dispatch_errors;
    QCheck_alcotest.to_alcotest prop_parse_and_handle_total;
    Alcotest.test_case "html renderer" `Quick test_html_renderer;
    Alcotest.test_case "html escaping" `Quick test_html_escaping ]
