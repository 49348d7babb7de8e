(* The GDB-extension <-> visualizer protocol (paper §4.2).

   In the paper the v-commands running inside GDB push HTTP POSTs to the
   TypeScript front-end. This example shows the same decoupling on our
   typed message layer: a "front-end" that only ever sees JSON strings
   drives the debugger session — plotting, refining with ViewQL, asking
   in natural language, and re-rendering from the wire-format graphs.

   Run with: dune exec examples/frontend_protocol.exe *)

let () =
  (* The debugger side: a booted kernel behind a session. *)
  let kernel = Kstate.boot () in
  let workload = Workload.create kernel in
  Workload.run workload;
  let session = Visualinux.attach kernel in

  (* The "wire": every interaction is a JSON request + JSON response. *)
  let post json =
    Printf.printf ">> POST %s\n"
      (if String.length json > 96 then String.sub json 0 93 ^ "..." else json);
    let resp = Protocol.handle session json in
    Printf.printf "<< %s\n\n"
      (if String.length resp > 96 then String.sub resp 0 93 ^ "..." else resp);
    Protocol.decode_response resp
  in

  (* 1. vplot: the front-end requests the CFS runqueue figure. *)
  let fig = Option.get (Scripts.find "7-1") in
  let pane, graph_json =
    match post (Protocol.encode_request (Protocol.Plot { title = "runqueue"; program = fig.Scripts.source })) with
    | Protocol.Pane_opened { pane; graph } -> (pane, graph)
    | _ -> failwith "vplot failed"
  in
  let boxes j = List.length (Json.to_list (Json.member_exn "boxes" j)) in
  Printf.printf "front-end received pane %d with %d boxes\n\n" pane (boxes graph_json);

  (* 2. vctrl: a ViewQL refinement over the wire. *)
  (match
     post
       (Protocol.encode_request
          (Protocol.Apply
             { pane;
               viewql = "a = SELECT task_struct FROM * WHERE pid > 5\nUPDATE a WITH collapsed: true" }))
   with
  | Protocol.Updated { count; _ } -> Printf.printf "front-end: %d boxes updated\n\n" count
  | _ -> failwith "vctrl failed");

  (* 3. vchat: natural language over the wire. *)
  (match
     post (Protocol.encode_request (Protocol.Chat { pane; text = "display view \"sched\" of all tasks" }))
   with
  | Protocol.Synthesized { viewql; count; _ } ->
      Printf.printf "front-end: server synthesized\n%s\n(%d boxes updated)\n\n" viewql count
  | _ -> failwith "vchat failed");

  (* 4. The front-end re-fetches and renders from the wire format alone. *)
  match post (Protocol.encode_request (Protocol.Get_pane { pane })) with
  | Protocol.Pane_graph { graph } ->
      let boxes = Json.to_list (Json.member_exn "boxes" graph) in
      let collapsed =
        List.filter
          (fun b ->
            Json.to_bool (Json.member_exn "collapsed" (Json.member_exn "attrs" b)))
          boxes
      in
      Printf.printf "front-end rendering: %d boxes, %d collapsed, %d sched-view\n"
        (List.length boxes) (List.length collapsed)
        (List.length
           (List.filter
              (fun b -> Json.to_str (Json.member_exn "view" (Json.member_exn "attrs" b)) = "sched")
              boxes))
  | _ -> failwith "get_pane failed"
