(** The pane-based interactive debugger front-end (paper §2.4, Fig. 2).

    Panes form a tree built by horizontal/vertical splits (an idea the
    paper borrows from tmux). A *primary* pane displays a ViewCL-extracted
    object graph, refinable with ViewQL; a *secondary* pane displays a
    set of boxes picked from another pane. The cross-pane [focus]
    operation finds an object in every displayed graph at once. *)

type pane_id = int

type kind =
  | Primary of { program : string }  (** ViewCL source that produced the graph *)
  | Secondary of { source : pane_id; picked : Vgraph.box_id list }

type pane = {
  pid : pane_id;
  kind : kind;
  graph : Vgraph.t;
  session : Viewql.session;  (** named ViewQL sets persist per pane *)
  mutable history : string list;
      (** ViewQL programs applied, newest first: a refinement is one cons,
          and readers reverse *)
  mutable stale : bool;  (** graph predates the last target crash *)
}

type layout =
  | Leaf of pane_id
  | Hsplit of layout * layout  (** side by side *)
  | Vsplit of layout * layout  (** stacked *)

(** The crash-safe session journal: every layout-mutating operation, in
    order. Replaying it against a (reconnected) target reconstructs the
    whole layout — pane ids are assigned by the same sequence, so they
    come out identical to the pre-crash session. *)
type op =
  | Jopen of { program : string }
  | Jsplit of { dir : [ `Horizontal | `Vertical ]; at : pane_id; program : string }
  | Jselect of { from_ : pane_id; picked : Vgraph.box_id list }
  | Jrefine of { at : pane_id; viewql : string }
  | Jclose of { id : pane_id }
  | Jreserve of { n : int }
      (** emitted by {!compact_journal} in place of dropped
          pane-creating ops: replay skips [n] pane ids, so the panes
          that survive compaction keep their pre-compaction numbering *)

type t = {
  panes : (pane_id, pane) Hashtbl.t;
  mutable layout : layout option;
  mutable next_id : int;
  mutable journal_rev : op list;  (** newest first; checkpointed per op *)
  mutable jlen : int;  (** length of [journal_rev] *)
  mutable compact_base : int option;  (** auto-compact threshold; [None] = off *)
  mutable compact_next : int;  (** next length that triggers a compaction *)
  mutable op_hook : (op -> unit) option;
      (** fired once per checkpointed op — the session layer's WAL tap *)
}

let default_compact_threshold = 512

let create () =
  { panes = Hashtbl.create 8; layout = None; next_id = 1; journal_rev = [];
    jlen = 0; compact_base = Some default_compact_threshold;
    compact_next = default_compact_threshold; op_hook = None }

let pane t id =
  match Hashtbl.find_opt t.panes id with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Panel: no pane %d" id)

let pane_opt t id = Hashtbl.find_opt t.panes id
let pane_ids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.panes [] |> List.sort compare
let journal t = List.rev t.journal_rev

let op_label = function
  | Jopen _ -> "open"
  | Jsplit _ -> "split"
  | Jselect _ -> "select"
  | Jrefine _ -> "refine"
  | Jclose _ -> "close"
  | Jreserve _ -> "reserve"

(* ------------------------------------------------------------------ *)
(* Journal compaction.

   A long-lived session accumulates open/refine/close churn whose panes
   are gone by the time anyone replays the journal; replaying them is
   pure waste.  [compact_journal] drops every op belonging to a pane
   that is closed by the journal's end — its creating op, its refines,
   its close — provided no surviving op ever observed the pane live (a
   split anchored at it, a select picking from it: those change layout
   or id assignment if the pane vanishes, so their targets are kept).
   Dropped creating ops leave a [Jreserve] in their place so replay
   skips exactly the ids they would have consumed: the surviving panes
   come back under their original numbering, byte-for-byte the same
   panel as an uncompacted replay. *)

(* Mirror of [recover]'s replay semantics, tracking only id assignment
   and liveness: which ops create a pane (and which id), which ops
   observed which live pane. *)
type sim_op = {
  op : op;
  created : pane_id option;  (** id this op allocated during replay *)
  observed : pane_id list;  (** panes this op saw live when it ran *)
}

let simulate ops =
  let next = ref 1 in
  let live = Hashtbl.create 16 in
  let fresh_id () =
    let id = !next in
    incr next;
    Hashtbl.replace live id ();
    Some id
  in
  List.map
    (fun op ->
      match op with
      | Jopen _ -> { op; created = fresh_id (); observed = [] }
      | Jsplit { at; _ } ->
          (* splits fall back to open_primary when [at] is gone, so the
             pane is created either way; [at] only counts as observed
             when it was actually live *)
          let obs = if Hashtbl.mem live at then [ at ] else [] in
          { op; created = fresh_id (); observed = obs }
      | Jselect { from_; _ } ->
          if Hashtbl.mem live from_ then
            { op; created = fresh_id (); observed = [ from_ ] }
          else { op; created = None; observed = [] }
      | Jrefine { at; _ } ->
          { op; created = None; observed = (if Hashtbl.mem live at then [ at ] else []) }
      | Jclose { id } ->
          let obs = if Hashtbl.mem live id then [ id ] else [] in
          Hashtbl.remove live id;
          { op; created = None; observed = obs }
      | Jreserve { n } ->
          next := !next + n;
          { op; created = None; observed = [] })
    ops
  |> fun sims -> (sims, live)

let compact_journal ops =
  let sims, live = simulate ops in
  (* candidate panes: created in this journal, closed by its end *)
  let droppable = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.created with
      | Some id when not (Hashtbl.mem live id) -> Hashtbl.replace droppable id ()
      | _ -> ())
    sims;
  (* fixpoint: a pane stays droppable only while every op that observed
     it live is itself dropped.  An op is dropped when it belongs to a
     droppable pane: its creating op, or a refine/close addressed to it. *)
  let op_dropped s =
    match s.created with
    | Some id -> Hashtbl.mem droppable id
    | None -> (
        match s.op with
        | Jrefine { at; _ } -> Hashtbl.mem droppable at
        | Jclose { id } -> Hashtbl.mem droppable id
        | _ -> false)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun s ->
        if not (op_dropped s) then
          List.iter
            (fun id ->
              if Hashtbl.mem droppable id then begin
                Hashtbl.remove droppable id;
                changed := true
              end)
            s.observed)
      sims
  done;
  (* rebuild: dropped creating ops become reserves (coalesced); dropped
     refines/closes vanish *)
  let out = ref [] in
  let reserve n =
    match !out with
    | Jreserve { n = m } :: rest -> out := Jreserve { n = m + n } :: rest
    | l -> out := Jreserve { n } :: l
  in
  List.iter
    (fun s ->
      if op_dropped s then (match s.created with Some _ -> reserve 1 | None -> ())
      else
        match s.op with
        | Jreserve { n } -> reserve n
        | op -> out := op :: !out)
    sims;
  List.rev !out

(* The op journal doubles as an observability event stream: every
   checkpointed op shows up as an instant in the trace. *)
let set_journal_limit t limit =
  t.compact_base <- limit;
  t.compact_next <- (match limit with Some n -> max 1 n | None -> max_int)

let set_op_hook t h = t.op_hook <- h

let checkpoint t op =
  if Obs.enabled () then
    Obs.instant ~cat:"panel" ~attrs:[ ("op", op_label op) ] "panel.op";
  t.journal_rev <- op :: t.journal_rev;
  t.jlen <- t.jlen + 1;
  (match t.op_hook with Some h -> h op | None -> ());
  match t.compact_base with
  | Some base when t.jlen > t.compact_next ->
      let compacted = compact_journal (List.rev t.journal_rev) in
      t.journal_rev <- List.rev compacted;
      t.jlen <- List.length compacted;
      (* churn-free journals (nothing closed) compact to themselves:
         double the trigger so a stubborn journal costs O(log) passes,
         not one pass per op *)
      t.compact_next <- max base (2 * t.jlen)
  | _ -> ()

let fresh ?(stale = false) t kind graph =
  let id = t.next_id in
  t.next_id <- id + 1;
  let p =
    { pid = id; kind; graph; session = Viewql.make_session graph; history = []; stale }
  in
  Hashtbl.replace t.panes id p;
  p

let mark_all_stale t = Hashtbl.iter (fun _ p -> p.stale <- true) t.panes
let stale_ids t = List.filter (fun id -> (pane t id).stale) (pane_ids t)

(* Replace [Leaf old] in the layout with [mk (Leaf old) (Leaf new)]. *)
let rec splice layout old mk fresh_leaf =
  match layout with
  | Leaf id when id = old -> mk (Leaf id) fresh_leaf
  | Leaf id -> Leaf id
  | Hsplit (a, b) -> Hsplit (splice a old mk fresh_leaf, splice b old mk fresh_leaf)
  | Vsplit (a, b) -> Vsplit (splice a old mk fresh_leaf, splice b old mk fresh_leaf)

(** Open the first primary pane. *)
let open_primary ?stale t ~program graph =
  let p = fresh ?stale t (Primary { program }) graph in
  (match t.layout with
  | None -> t.layout <- Some (Leaf p.pid)
  | Some l -> t.layout <- Some (Hsplit (l, Leaf p.pid)));
  checkpoint t (Jopen { program });
  p

(** Split an existing pane, placing a new primary pane next to it. *)
let split ?stale t ~dir ~at ~program graph =
  ignore (pane t at);
  let p = fresh ?stale t (Primary { program }) graph in
  let mk a b = match dir with `Horizontal -> Hsplit (a, b) | `Vertical -> Vsplit (a, b) in
  (match t.layout with
  | None -> t.layout <- Some (Leaf p.pid)
  | Some l -> t.layout <- Some (splice l at mk (Leaf p.pid)));
  checkpoint t (Jsplit { dir; at; program });
  p

(** Select boxes from [src] into a new secondary pane (shares the graph:
    the secondary pane is a focused window onto the same object graph,
    with everything else trimmed in its own rendering set). *)
let select t ~from:src ids =
  let sp = pane t src in
  let p = fresh ~stale:sp.stale t (Secondary { source = src; picked = ids }) sp.graph in
  (match t.layout with
  | None -> t.layout <- Some (Leaf p.pid)
  | Some l -> t.layout <- Some (splice l src (fun a b -> Vsplit (a, b)) (Leaf p.pid)));
  checkpoint t (Jselect { from_ = src; picked = ids });
  p

(** Refine a pane by a ViewQL program; returns #boxes updated. *)
let refine t ~at src =
  Obs.with_span ~cat:"panel" ~attrs:[ ("at", string_of_int at) ] "panel.refine"
  @@ fun () ->
  let p = pane t at in
  let n = Viewql.exec p.session src in
  p.history <- src :: p.history;
  checkpoint t (Jrefine { at; viewql = src });
  n

(** Cross-pane focus: find the object at [addr] in every pane. *)
let focus t ~addr =
  List.concat_map
    (fun id ->
      let p = pane t id in
      List.filter_map
        (fun b -> if b.Vgraph.addr = addr && addr <> 0 then Some (id, b.Vgraph.id) else None)
        (Vgraph.boxes p.graph))
    (pane_ids t)

let close t id =
  if Hashtbl.mem t.panes id then checkpoint t (Jclose { id });
  Hashtbl.remove t.panes id;
  let rec prune = function
    | Leaf x when x = id -> None
    | Leaf x -> Some (Leaf x)
    | Hsplit (a, b) -> join (prune a) (prune b) (fun a b -> Hsplit (a, b))
    | Vsplit (a, b) -> join (prune a) (prune b) (fun a b -> Vsplit (a, b))
  and join a b mk =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (mk a b)
  in
  t.layout <- Option.join (Option.map prune t.layout)

(* ------------------------------------------------------------------ *)
(* Persistence: serialize programs + refinement history, so a debugging
   session's views can be re-created against a (new) kernel state. *)

let rec layout_to_json = function
  | Leaf id -> Printf.sprintf "{\"leaf\":%d}" id
  | Hsplit (a, b) -> Printf.sprintf "{\"h\":[%s,%s]}" (layout_to_json a) (layout_to_json b)
  | Vsplit (a, b) -> Printf.sprintf "{\"v\":[%s,%s]}" (layout_to_json a) (layout_to_json b)

let pane_to_json p =
  let kind =
    match p.kind with
    | Primary { program } -> Printf.sprintf "\"program\":\"%s\"" (Vgraph.json_escape program)
    | Secondary { source; picked } ->
        Printf.sprintf "\"source\":%d,\"picked\":[%s]" source
          (String.concat "," (List.map string_of_int picked))
  in
  Printf.sprintf "{\"id\":%d,%s,\"history\":[%s]}" p.pid kind
    (String.concat "," (List.rev_map (fun h -> Printf.sprintf "\"%s\"" (Vgraph.json_escape h)) p.history))

let to_json t =
  Printf.sprintf "{\"layout\":%s,\"panes\":[%s]}"
    (match t.layout with Some l -> layout_to_json l | None -> "null")
    (String.concat "," (List.map (fun id -> pane_to_json (pane t id)) (pane_ids t)))

(** Recover the replayable (program, history) pairs from a session JSON
    produced by {!to_json}. *)
let programs_of_json json =
  let j = Json.parse json in
  match Json.member "panes" j with
  | Some (Json.List panes) ->
      List.filter_map
        (fun p ->
          match Json.member "program" p with
          | Some (Json.String program) ->
              let history =
                match Json.member "history" p with
                | Some (Json.List hs) ->
                    List.filter_map (function Json.String h -> Some h | _ -> None) hs
                | _ -> []
              in
              Some (program, history)
          | _ -> None)
        panes
  | _ -> []

(** The (program, history) pairs of all primary panes — enough to replay a
    session against a fresh target. *)
let saved_programs t =
  List.filter_map
    (fun id ->
      let p = pane t id in
      match p.kind with
      | Primary { program } -> Some (program, List.rev p.history)
      | Secondary _ -> None)
    (pane_ids t)

(* ------------------------------------------------------------------ *)
(* Crash-safe recovery: the journal is the session.  Serialize it after
   every op (it is cheap: one record per user action) and a crashed
   session can be rebuilt against a reconnected target by replaying. *)

let op_to_json = function
  | Jopen { program } ->
      Printf.sprintf "{\"op\":\"open\",\"program\":\"%s\"}" (Vgraph.json_escape program)
  | Jsplit { dir; at; program } ->
      Printf.sprintf "{\"op\":\"split\",\"dir\":\"%s\",\"at\":%d,\"program\":\"%s\"}"
        (match dir with `Horizontal -> "h" | `Vertical -> "v")
        at (Vgraph.json_escape program)
  | Jselect { from_; picked } ->
      Printf.sprintf "{\"op\":\"select\",\"from\":%d,\"picked\":[%s]}" from_
        (String.concat "," (List.map string_of_int picked))
  | Jrefine { at; viewql } ->
      Printf.sprintf "{\"op\":\"refine\",\"at\":%d,\"viewql\":\"%s\"}" at
        (Vgraph.json_escape viewql)
  | Jclose { id } -> Printf.sprintf "{\"op\":\"close\",\"id\":%d}" id
  | Jreserve { n } -> Printf.sprintf "{\"op\":\"reserve\",\"n\":%d}" n

let journal_to_json t =
  Printf.sprintf "{\"journal\":[%s]}"
    (String.concat "," (List.map op_to_json (journal t)))

let journal_of_json json =
  let j = Json.parse json in
  match Json.member "journal" j with
  | Some (Json.List ops) ->
      List.filter_map
        (fun o ->
          let str k = Option.map Json.to_str (Json.member k o) in
          let int k = Option.map Json.to_int (Json.member k o) in
          match str "op" with
          | Some "open" ->
              Option.map (fun program -> Jopen { program }) (str "program")
          | Some "split" -> (
              match (str "dir", int "at", str "program") with
              | Some d, Some at, Some program ->
                  Some
                    (Jsplit
                       { dir = (if d = "v" then `Vertical else `Horizontal);
                         at; program })
              | _ -> None)
          | Some "select" -> (
              match (int "from", Json.member "picked" o) with
              | Some from_, Some (Json.List ps) ->
                  Some (Jselect { from_; picked = List.map Json.to_int ps })
              | _ -> None)
          | Some "refine" -> (
              match (int "at", str "viewql") with
              | Some at, Some viewql -> Some (Jrefine { at; viewql })
              | _ -> None)
          | Some "close" -> Option.map (fun id -> Jclose { id }) (int "id")
          | Some "reserve" -> Option.map (fun n -> Jreserve { n }) (int "n")
          | _ -> None)
        ops
  | _ -> []

(** Replay a journal against a reconnected target.  [extract] runs a
    pane's ViewCL program against the new target; when it fails (link
    still down, budget spent) the pane is created anyway — empty graph,
    [stale] flag set — so pane ids keep the pre-crash numbering and a
    later {!refresh} can fill it in.  Ops referencing panes that no
    longer resolve are skipped, never raised: recovery of a damaged
    journal degrades to a partial layout.  Returns the rebuilt panel
    and the number of panes that came back stale. *)
let recover ~extract ops =
  Obs.with_span ~cat:"panel"
    ~attrs:[ ("ops", string_of_int (List.length ops)) ]
    "panel.recover"
  @@ fun () ->
  let t = create () in
  let failed = ref 0 in
  let graph_for program =
    match (try extract program with _ -> None) with
    | Some g -> (g, false)
    | None ->
        incr failed;
        (Vgraph.create (), true)
  in
  List.iter
    (fun op ->
      try
        match op with
        | Jopen { program } ->
            let g, stale = graph_for program in
            ignore (open_primary ~stale t ~program g)
        | Jsplit { dir; at; program } ->
            let g, stale = graph_for program in
            if Hashtbl.mem t.panes at then ignore (split ~stale t ~dir ~at ~program g)
            else ignore (open_primary ~stale t ~program g)
        | Jselect { from_; picked } ->
            if Hashtbl.mem t.panes from_ then ignore (select t ~from:from_ picked)
        | Jrefine { at; viewql } ->
            if Hashtbl.mem t.panes at then ignore (refine t ~at viewql)
        | Jclose { id } -> close t id
        | Jreserve { n } ->
            (* skip the ids the dropped ops would have consumed, and keep
               the reserve in the rebuilt journal so a *second* recovery
               numbers panes identically *)
            t.next_id <- t.next_id + n;
            checkpoint t (Jreserve { n })
      with _ -> ())
    ops;
  (t, !failed)

(** Re-extract one stale primary pane against a (recovered) target and
    replay its ViewQL history onto the fresh graph.  Secondary panes
    refresh implicitly: they share their source's graph object only at
    creation, so the caller re-selects if needed.  Returns [true] when
    the pane is live again. *)
let refresh t ~at ~extract =
  match pane_opt t at with
  | None -> false
  | Some p -> (
      match p.kind with
      | Secondary _ -> false
      | Primary { program } -> (
          match (try extract program with _ -> None) with
          | None -> false
          | Some graph ->
              let session = Viewql.make_session graph in
              List.iter
                (fun h -> try ignore (Viewql.exec session h) with _ -> ())
                (List.rev p.history);
              Hashtbl.replace t.panes at
                { p with graph; session; stale = false };
              true))
