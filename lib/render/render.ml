(** Rendering of extracted object graphs.

    Substitutes for the paper's TypeScript/browser visualizer: the same
    semantic content (boxes, views, links, attributes) rendered as ASCII
    cards (for terminals, tests and the bench harness), Graphviz DOT, or
    standalone SVG. Honors the ViewQL display attributes: [trimmed] boxes
    vanish with their subtrees, [collapsed] boxes render as a stub,
    [view] selects which item set is shown, and [direction] controls
    container member flow. *)

let box_ref b = Printf.sprintf "#%d" b.Vgraph.id

(* Membership in a list of box ids, hashed once per render: the
   renderers test every edge, so scanning the list made them quadratic. *)
let mem_of ids =
  let h = Hashtbl.create (List.length ids) in
  List.iter (fun id -> Hashtbl.replace h id ()) ids;
  Hashtbl.mem h

(* All status tags a box carries, in one deterministic order — severity
   first ([BROKEN] = faulty memory, [TORN] = raced by a writer, then
   [SUSPECT:<law>] sorted by law) — so tags compose instead of the last
   marker clobbering the rest. *)
let box_tags b =
  (match Vgraph.broken b with Some _ -> [ "[BROKEN]" ] | None -> [])
  @ (match Vgraph.torn b with Some _ -> [ "[TORN]" ] | None -> [])
  @ List.map (fun (law, _) -> Printf.sprintf "[SUSPECT:%s]" law) (Vgraph.suspects b)

let box_title b =
  let name =
    if b.Vgraph.bdef <> "" then b.Vgraph.bdef
    else if b.Vgraph.btype <> "" then b.Vgraph.btype
    else "box"
  in
  let base =
    if b.Vgraph.container then
      Printf.sprintf "%s %s [%d members]" name (box_ref b) (List.length b.Vgraph.members)
    else if b.Vgraph.addr <> 0 then
      Printf.sprintf "%s %s <%s @0x%x>" name (box_ref b) b.Vgraph.btype b.Vgraph.addr
    else Printf.sprintf "%s %s" name (box_ref b)
  in
  match box_tags b with [] -> base | tags -> base ^ " " ^ String.concat " " tags

(* ------------------------------------------------------------------ *)
(* ASCII cards *)

let item_lines g b =
  List.filter_map
    (fun it ->
      match it with
      | Vgraph.Text { label; value; _ } -> Some (Printf.sprintf "%s: %s" label value)
      | Vgraph.Link { label; target = None } -> Some (Printf.sprintf "%s -> NULL" label)
      | Vgraph.Link { label; target = Some t } -> (
          match Vgraph.find g t with
          | Some tb when not tb.Vgraph.attrs.Vgraph.trimmed ->
              Some (Printf.sprintf "%s -> %s" label (box_ref tb))
          | Some _ -> Some (Printf.sprintf "%s -> (trimmed)" label)
          | None -> None)
      | Vgraph.Inline { label; target } -> (
          match Vgraph.find g target with
          | Some tb when not tb.Vgraph.attrs.Vgraph.trimmed ->
              Some (Printf.sprintf "%s: %s" label (box_ref tb))
          | Some _ | None -> None))
    (Vgraph.current_items b)

let members_line g b =
  let shown =
    List.filter_map
      (fun id ->
        match Vgraph.find g id with
        | Some m when not m.Vgraph.attrs.Vgraph.trimmed -> Some (box_ref m)
        | Some _ | None -> None)
      b.Vgraph.members
  in
  let sep = match b.Vgraph.attrs.Vgraph.direction with
    | Vgraph.Horizontal -> ", "
    | Vgraph.Vertical -> ",\n  "
  in
  Printf.sprintf "members: [%s]" (String.concat sep shown)

let card g b =
  let title = box_title b in
  if b.Vgraph.attrs.Vgraph.collapsed then Printf.sprintf "[+] %s (collapsed)" title
  else begin
    let lines = item_lines g b in
    let lines = if b.Vgraph.container then lines @ [ members_line g b ] else lines in
    let lines =
      if b.Vgraph.attrs.Vgraph.view <> "default" then
        Printf.sprintf "(view: %s)" b.Vgraph.attrs.Vgraph.view :: lines
      else lines
    in
    let flat = List.concat_map (String.split_on_char '\n') lines in
    let width =
      List.fold_left (fun w l -> max w (String.length l)) (String.length title) flat
    in
    let bar = String.make width '-' in
    let body =
      List.map (fun l -> Printf.sprintf "| %s%s |" l (String.make (width - String.length l) ' ')) flat
    in
    String.concat "\n"
      ((Printf.sprintf "+-%s-+" bar)
      :: Printf.sprintf "| %s%s |" title (String.make (width - String.length title) ' ')
      :: Printf.sprintf "+-%s-+" bar
      :: body
      @ [ Printf.sprintf "+-%s-+" bar ])
  end

let transport_line tr = Transport.health_line tr

(** Render the visible subgraph as a sequence of ASCII cards in BFS order
    from the roots. Pass [roots] to render from a different seed set —
    e.g. a secondary pane displaying only the boxes picked from a primary
    pane (paper §2.4). [stale] tags the header (pane graph predates a
    target crash); [transport] appends a one-line link-health summary. *)
let ascii ?roots ?(stale = false) ?transport g =
  Obs.with_span ~cat:"render" "render.ascii" @@ fun () ->
  let visible =
    match roots with
    | None -> Vgraph.visible g
    | Some seeds ->
        (* a secondary pane shows the picked boxes and what they reach *)
        List.filter
          (fun id ->
            match Vgraph.find g id with
            | Some b -> not b.Vgraph.attrs.Vgraph.trimmed
            | None -> false)
          (Vgraph.reachable g seeds)
  in
  let is_visible = mem_of visible in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "== %s%s ==\n" (Vgraph.title g) (if stale then " [STALE]" else ""));
  let emitted = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter (fun r -> Queue.add r queue) (Option.value roots ~default:(Vgraph.roots g));
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    if (not (Hashtbl.mem emitted id)) && is_visible id then begin
      Hashtbl.add emitted id ();
      match Vgraph.find g id with
      | None -> ()
      | Some b ->
          Buffer.add_string buf (Vgraph.cached_card g b (fun () -> card g b));
          Buffer.add_char buf '\n';
          if not b.Vgraph.attrs.Vgraph.collapsed then
            List.iter (fun s -> Queue.add s queue) (Vgraph.successors g b)
    end
  done;
  let total = Vgraph.box_count g and vis = List.length visible in
  Buffer.add_string buf (Printf.sprintf "(%d boxes, %d visible)\n" total vis);
  (match transport with
  | Some tr -> Buffer.add_string buf (transport_line tr ^ "\n")
  | None -> ());
  (if Obs.enabled () then
     match Obs.Profile.top 3 with
     | [] -> ()
     | rows ->
         Buffer.add_string buf
           (Printf.sprintf "[obs: %s]\n"
              (String.concat ", "
                 (List.map
                    (fun (r : Obs.Profile.row) ->
                      Printf.sprintf "%s %.1f ms self" r.Obs.Profile.pname r.Obs.Profile.pself_ms)
                    rows))));
  Buffer.contents buf

let canonical g =
  let g = Vgraph.renumber g in
  Vgraph.set_title g "identity";
  ascii g
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.starts_with ~prefix:"[obs:" l))
  |> String.concat "\n"

(* ------------------------------------------------------------------ *)
(* Graphviz DOT *)

let dot_escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let dot g =
  Obs.with_span ~cat:"render" "render.dot" @@ fun () ->
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n  node [shape=record, fontname=monospace];\n  rankdir=LR;\n" (dot_escape (Vgraph.title g)));
  let visible = Vgraph.visible g in
  let is_visible = mem_of visible in
  List.iter
    (fun id ->
      match Vgraph.find g id with
      | None -> ()
      | Some b ->
          let label =
            if b.Vgraph.attrs.Vgraph.collapsed then Printf.sprintf "[+] %s" (box_title b)
            else
              String.concat "\\l" (box_title b :: item_lines g b) ^ "\\l"
          in
          Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" id (dot_escape label));
          if not b.Vgraph.attrs.Vgraph.collapsed then begin
            List.iter
              (fun it ->
                match it with
                | Vgraph.Link { label; target = Some t } when is_visible t ->
                    Buffer.add_string buf
                      (Printf.sprintf "  n%d -> n%d [label=\"%s\"];\n" id t (dot_escape label))
                | Vgraph.Inline { label; target } when is_visible target ->
                    Buffer.add_string buf
                      (Printf.sprintf "  n%d -> n%d [label=\"%s\", style=dashed];\n" id target
                         (dot_escape label))
                | _ -> ())
              (Vgraph.current_items b);
            List.iter
              (fun m ->
                if is_visible m then
                  Buffer.add_string buf (Printf.sprintf "  n%d -> n%d [style=dotted];\n" id m))
              b.Vgraph.members
          end)
    visible;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* SVG (simple BFS-level layout) *)

let svg_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let svg g =
  Obs.with_span ~cat:"render" "render.svg" @@ fun () ->
  let visible = Vgraph.visible g in
  let is_visible = mem_of visible in
  (* BFS levels from roots. *)
  let level = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter (fun r -> if is_visible r then (Hashtbl.replace level r 0; Queue.add r queue)) (Vgraph.roots g);
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let l = Hashtbl.find level id in
    match Vgraph.find g id with
    | None -> ()
    | Some b ->
        if not b.Vgraph.attrs.Vgraph.collapsed then
          List.iter
            (fun s ->
              if is_visible s && not (Hashtbl.mem level s) then begin
                Hashtbl.replace level s (l + 1);
                Queue.add s queue
              end)
            (Vgraph.successors g b)
  done;
  let col_w = 300 and row_h = 26 and pad = 20 in
  (* Position boxes: x by level, y stacked per level. *)
  let next_y = Hashtbl.create 8 in
  let pos = Hashtbl.create 64 in
  let heights = Hashtbl.create 64 in
  List.iter
    (fun id ->
      match (Vgraph.find g id, Hashtbl.find_opt level id) with
      | Some b, Some l ->
          let nlines =
            if b.Vgraph.attrs.Vgraph.collapsed then 1 else 1 + List.length (item_lines g b)
          in
          let h = (nlines * row_h) + 16 in
          let y = Option.value (Hashtbl.find_opt next_y l) ~default:pad in
          Hashtbl.replace pos id ((l * (col_w + pad)) + pad, y);
          Hashtbl.replace heights id h;
          Hashtbl.replace next_y l (y + h + pad)
      | _ -> ())
    visible;
  let width =
    (Hashtbl.fold (fun _ l acc -> max acc l) level 0 + 1) * (col_w + pad) + pad
  in
  let height = Hashtbl.fold (fun _ y acc -> max acc y) next_y pad + pad in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" font-family=\"monospace\" font-size=\"13\">\n"
       width height);
  (* Edges first. *)
  List.iter
    (fun id ->
      match (Vgraph.find g id, Hashtbl.find_opt pos id) with
      | Some b, Some (x, y) when not b.Vgraph.attrs.Vgraph.collapsed ->
          List.iter
            (fun s ->
              match Hashtbl.find_opt pos s with
              | Some (sx, sy) ->
                  Buffer.add_string buf
                    (Printf.sprintf
                       "<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#888\" marker-end=\"url(#a)\"/>\n"
                       (x + col_w - 20) (y + 12) sx (sy + 12))
              | None -> ())
            (Vgraph.successors g b)
      | _ -> ())
    visible;
  List.iter
    (fun id ->
      match (Vgraph.find g id, Hashtbl.find_opt pos id) with
      | Some b, Some (x, y) ->
          let h = Hashtbl.find heights id in
          Buffer.add_string buf
            (Printf.sprintf
               "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"#f8f8ff\" stroke=\"#333\" rx=\"6\"/>\n"
               x y (col_w - 20) h);
          Buffer.add_string buf
            (Printf.sprintf "<text x=\"%d\" y=\"%d\" font-weight=\"bold\">%s</text>\n" (x + 8)
               (y + 18) (svg_escape (box_title b)));
          if not b.Vgraph.attrs.Vgraph.collapsed then
            List.iteri
              (fun i line ->
                Buffer.add_string buf
                  (Printf.sprintf "<text x=\"%d\" y=\"%d\">%s</text>\n" (x + 8)
                     (y + 18 + ((i + 1) * row_h)) (svg_escape line)))
              (item_lines g b)
      | _ -> ())
    visible;
  Buffer.add_string buf "</svg>\n";
  Buffer.contents buf
