(** The GDB-extension <-> visualizer message protocol (paper §4.2).

    In the paper, v-commands executed inside GDB push HTTP POST requests
    to the TypeScript front-end: *vplot* carries extracted object graphs,
    *vctrl* carries ViewQL programs or pane operations. We reproduce that
    decoupling as a typed message layer with JSON encode/decode and a
    dispatcher that drives a {!Visualinux.session} — so a real transport
    (socket, pipe, file) can be slotted in without touching either side. *)

type request =
  | Plot of { title : string; program : string }
      (** vplot: evaluate ViewCL [program], open a pane *)
  | Apply of { pane : int; viewql : string }  (** vctrl: apply a ViewQL program *)
  | Split of { pane : int; dir : [ `Horizontal | `Vertical ]; program : string }
  | Focus of { addr : int }
  | Close of { pane : int }
  | Chat of { pane : int; text : string }  (** vchat *)
  | Get_pane of { pane : int }  (** fetch a pane's graph for (re)rendering *)

type response =
  | Pane_opened of { pane : int; graph : Json.t }  (** graph as {!Vgraph.to_json} *)
  | Updated of { count : int; graph : Json.t }
  | Found of (int * int) list  (** (pane, box) hits *)
  | Closed
  | Synthesized of { viewql : string; count : int; graph : Json.t }
  | Pane_graph of { graph : Json.t }
  | Error of string

(* ------------------------------------------------------------------ *)
(* Encoding *)

let dir_to_string = function `Horizontal -> "horizontal" | `Vertical -> "vertical"

let encode_request r =
  let open Json in
  let obj = function
    | Plot { title; program } ->
        Obj [ ("cmd", String "vplot"); ("title", String title); ("program", String program) ]
    | Apply { pane; viewql } ->
        Obj [ ("cmd", String "vctrl"); ("op", String "apply"); ("pane", Int pane);
              ("viewql", String viewql) ]
    | Split { pane; dir; program } ->
        Obj [ ("cmd", String "vctrl"); ("op", String "split"); ("pane", Int pane);
              ("dir", String (dir_to_string dir)); ("program", String program) ]
    | Focus { addr } ->
        Obj [ ("cmd", String "vctrl"); ("op", String "focus"); ("addr", Int addr) ]
    | Close { pane } ->
        Obj [ ("cmd", String "vctrl"); ("op", String "close"); ("pane", Int pane) ]
    | Chat { pane; text } ->
        Obj [ ("cmd", String "vchat"); ("pane", Int pane); ("text", String text) ]
    | Get_pane { pane } -> Obj [ ("cmd", String "get_pane"); ("pane", Int pane) ]
  in
  Json.to_string (obj r)

let decode_request s =
  let open Json in
  let j = parse s in
  let str k = to_str (member_exn k j) in
  let int k = to_int (member_exn k j) in
  match str "cmd" with
  | "vplot" -> Plot { title = str "title"; program = str "program" }
  | "vchat" -> Chat { pane = int "pane"; text = str "text" }
  | "get_pane" -> Get_pane { pane = int "pane" }
  | "vctrl" -> (
      match str "op" with
      | "apply" -> Apply { pane = int "pane"; viewql = str "viewql" }
      | "split" ->
          Split
            { pane = int "pane";
              dir = (if str "dir" = "vertical" then `Vertical else `Horizontal);
              program = str "program" }
      | "focus" -> Focus { addr = int "addr" }
      | "close" -> Close { pane = int "pane" }
      | op -> fail "unknown vctrl op %S" op)
  | cmd -> fail "unknown command %S" cmd

let encode_response r =
  let open Json in
  let obj = function
    | Pane_opened { pane; graph } ->
        Obj [ ("status", String "pane_opened"); ("pane", Int pane); ("graph", graph) ]
    | Updated { count; graph } ->
        Obj [ ("status", String "updated"); ("count", Int count); ("graph", graph) ]
    | Found hits ->
        Obj
          [ ("status", String "found");
            ( "hits",
              List (List.map (fun (p, b) -> Obj [ ("pane", Int p); ("box", Int b) ]) hits) ) ]
    | Closed -> Obj [ ("status", String "closed") ]
    | Synthesized { viewql; count; graph } ->
        Obj [ ("status", String "synthesized"); ("viewql", String viewql); ("count", Int count);
              ("graph", graph) ]
    | Pane_graph { graph } -> Obj [ ("status", String "graph"); ("graph", graph) ]
    | Error m -> Obj [ ("status", String "error"); ("message", String m) ]
  in
  Json.to_string (obj r)

let decode_response s =
  let open Json in
  let j = parse s in
  let graph () = member_exn "graph" j in
  match to_str (member_exn "status" j) with
  | "pane_opened" -> Pane_opened { pane = to_int (member_exn "pane" j); graph = graph () }
  | "updated" -> Updated { count = to_int (member_exn "count" j); graph = graph () }
  | "found" ->
      Found
        (List.map
           (fun h -> (to_int (member_exn "pane" h), to_int (member_exn "box" h)))
           (to_list (member_exn "hits" j)))
  | "closed" -> Closed
  | "synthesized" ->
      Synthesized
        { viewql = to_str (member_exn "viewql" j); count = to_int (member_exn "count" j);
          graph = graph () }
  | "graph" -> Pane_graph { graph = graph () }
  | "error" -> Error (to_str (member_exn "message" j))
  | st -> fail "unknown status %S" st

(* ------------------------------------------------------------------ *)
(* Server side: dispatch a request against a session *)

let pane_graph s pane = Vgraph.to_json (Panel.pane s.Visualinux.panel pane).Panel.graph

let dispatch s req =
  try
    match req with
    | Plot { title; program } ->
        let pane, res, _ = Visualinux.vplot s ~title program in
        Pane_opened { pane = pane.Panel.pid; graph = Vgraph.to_json res.Viewcl.graph }
    | Apply { pane; viewql } ->
        let n = Panel.refine s.Visualinux.panel ~at:pane viewql in
        Updated { count = n; graph = pane_graph s pane }
    | Split { pane; dir; program } -> (
        match Visualinux.vctrl s (Visualinux.Split { pane; dir; program }) with
        | Visualinux.Opened pid -> Pane_opened { pane = pid; graph = pane_graph s pid }
        | _ -> Error "split failed")
    | Focus { addr } -> (
        match Visualinux.vctrl s (Visualinux.Focus { addr }) with
        | Visualinux.Found hits -> Found hits
        | _ -> Error "focus failed")
    | Close { pane } ->
        Panel.close s.Visualinux.panel pane;
        Closed
    | Chat { pane; text } ->
        let viewql, count = Visualinux.vchat s ~pane text in
        Synthesized { viewql; count; graph = pane_graph s pane }
    | Get_pane { pane } -> Pane_graph { graph = pane_graph s pane }
  with
  | Viewcl.Error m | Viewql.Error m -> Error m
  | Vchat.Cannot_synthesize _ -> Error "cannot synthesize a ViewQL program"
  | Invalid_argument m -> Error m

(** The full wire round trip: JSON request in, JSON response out.  A
    request that does not decode is answered with an [Error]. *)
let handle s json =
  encode_response
    (match decode_request json with
    | req -> dispatch s req
    | exception Json.Parse_error m -> Error ("bad request: " ^ m))
