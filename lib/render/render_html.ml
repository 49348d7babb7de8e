(** Interactive HTML rendering of an object graph.

    Produces a single self-contained page — no external assets — with one
    card per box, clickable collapse buttons (mirroring the front-end's
    click-to-expand behaviour for [collapsed] boxes), link navigation, and
    a pane-like column layout by BFS depth. This substitutes for the
    paper's TypeScript visualizer: the semantic content is identical; the
    interactivity is plain inline JavaScript. *)

let esc s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let style =
  {|<style>
body { font-family: ui-monospace, Menlo, monospace; background: #fafafa; margin: 16px; }
h1 { font-size: 16px; }
.columns { display: flex; align-items: flex-start; gap: 24px; overflow-x: auto; }
.col { display: flex; flex-direction: column; gap: 12px; min-width: 260px; }
.box { border: 1.5px solid #334; border-radius: 8px; background: #fff;
       box-shadow: 1px 1px 3px #0002; min-width: 240px; }
.box.container { border-style: dashed; }
.title { background: #eef; padding: 4px 8px; font-weight: 600; border-radius: 8px 8px 0 0;
         display: flex; justify-content: space-between; gap: 8px; }
.items { padding: 4px 8px; }
.item { padding: 1px 0; white-space: pre; }
.link a { color: #06c; text-decoration: none; }
.link a:hover { text-decoration: underline; }
.null { color: #999; }
.addr { color: #777; font-weight: 400; font-size: 11px; }
.members { padding: 4px 8px; color: #555; }
.toggle { cursor: pointer; user-select: none; color: #06c; border: none; background: none;
          font: inherit; }
.collapsed .items, .collapsed .members { display: none; }
.view-tag { color: #a50; font-size: 11px; }
:target { outline: 3px solid #fa0; }
</style>
<script>
function toggle(id) {
  document.getElementById('box' + id).classList.toggle('collapsed');
}
</script>|}

let item_html g it =
  match it with
  | Vgraph.Text { label; value; _ } ->
      Printf.sprintf "<div class=\"item\">%s: <b>%s</b></div>" (esc label) (esc value)
  | Vgraph.Link { label; target = None } ->
      Printf.sprintf "<div class=\"item null\">%s &rarr; NULL</div>" (esc label)
  | Vgraph.Link { label; target = Some t } | Vgraph.Inline { label; target = t } -> (
      match Vgraph.find g t with
      | Some tb when not tb.Vgraph.attrs.Vgraph.trimmed ->
          Printf.sprintf "<div class=\"item link\">%s &rarr; <a href=\"#box%d\">#%d</a></div>"
            (esc label) t t
      | Some _ -> Printf.sprintf "<div class=\"item null\">%s &rarr; (trimmed)</div>" (esc label)
      | None -> "")

let box_html g b =
  let attrs = b.Vgraph.attrs in
  let cls =
    String.concat " "
      ([ "box" ] @ (if b.Vgraph.container then [ "container" ] else [])
      @ if attrs.Vgraph.collapsed then [ "collapsed" ] else [])
  in
  let name = if b.Vgraph.bdef <> "" then b.Vgraph.bdef else b.Vgraph.btype in
  let addr = if b.Vgraph.addr <> 0 then Printf.sprintf "0x%x" b.Vgraph.addr else "" in
  let view_tag =
    if attrs.Vgraph.view <> "default" then
      Printf.sprintf "<span class=\"view-tag\">:%s</span>" (esc attrs.Vgraph.view)
    else ""
  in
  let items = String.concat "\n" (List.map (item_html g) (Vgraph.current_items b)) in
  let members =
    if b.Vgraph.container then
      Printf.sprintf "<div class=\"members\">[%s]</div>"
        (String.concat ", "
           (List.filter_map
              (fun m ->
                match Vgraph.find g m with
                | Some mb when not mb.Vgraph.attrs.Vgraph.trimmed ->
                    Some (Printf.sprintf "<a href=\"#box%d\">#%d</a>" m m)
                | Some _ | None -> None)
              b.Vgraph.members))
    else ""
  in
  Printf.sprintf
    {|<div class="%s" id="box%d">
<div class="title"><span>%s #%d %s <span class="addr">%s</span></span>
<button class="toggle" onclick="toggle(%d)">[&plusmn;]</button></div>
<div class="items">%s</div>%s
</div>|}
    cls b.Vgraph.id (esc name) b.Vgraph.id view_tag (esc addr) b.Vgraph.id items members

(** Render the visible subgraph as a standalone HTML page, boxes arranged
    in columns by BFS depth from the roots (like the paper's panes). *)
let html g =
  Obs.with_span ~cat:"render" "render.html" @@ fun () ->
  let visible = Vgraph.visible g in
  (* hashed once: the BFS below tests every edge *)
  let vis = Hashtbl.create (List.length visible) in
  List.iter (fun id -> Hashtbl.replace vis id ()) visible;
  let level = Hashtbl.create 64 in
  let queue = Queue.create () in
  List.iter
    (fun r ->
      if Hashtbl.mem vis r then begin
        Hashtbl.replace level r 0;
        Queue.add r queue
      end)
    (Vgraph.roots g);
  while not (Queue.is_empty queue) do
    let id = Queue.pop queue in
    let l = Hashtbl.find level id in
    match Vgraph.find g id with
    | None -> ()
    | Some b ->
        if not b.Vgraph.attrs.Vgraph.collapsed then
          List.iter
            (fun s ->
              if Hashtbl.mem vis s && not (Hashtbl.mem level s) then begin
                Hashtbl.replace level s (l + 1);
                Queue.add s queue
              end)
            (Vgraph.successors g b)
  done;
  let max_level = Hashtbl.fold (fun _ l acc -> max acc l) level 0 in
  let cols =
    List.init (max_level + 1) (fun l ->
        let ids =
          List.filter (fun id -> Hashtbl.find_opt level id = Some l) visible
        in
        let cards =
          List.filter_map
            (fun id -> Option.map (box_html g) (Vgraph.find g id))
            ids
        in
        Printf.sprintf "<div class=\"col\">%s</div>" (String.concat "\n" cards))
  in
  Printf.sprintf
    {|<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>%s</title>%s</head>
<body><h1>%s</h1>
<div class="columns">
%s
</div>
<p class="addr">%d boxes, %d visible &mdash; generated by visualinux-ocaml</p>
</body></html>|}
    (esc (Vgraph.title g)) style (esc (Vgraph.title g)) (String.concat "\n" cols)
    (Vgraph.box_count g) (List.length visible)
