(** The simplified kernel object graph extracted by ViewCL (§2.2-§2.3 of
    the paper): vertices are Boxes, edges are Links, each box has one or
    more named Views of items, and display-control attributes that ViewQL
    queries update ([view], [trimmed], [collapsed], [direction]). *)

type box_id = int

(** Raw values recorded for ViewQL WHERE filtering. *)
type fval = Fint of int | Fstr of string | Fbool of bool | Faddr of int

type item =
  | Text of { label : string; value : string; raw : fval }
  | Link of { label : string; target : box_id option }
      (** [None] encodes a NULL link *)
  | Inline of { label : string; target : box_id }
      (** a nested box displayed inside this one *)

type direction = Horizontal | Vertical

type attrs = {
  mutable view : string;
  mutable trimmed : bool;
  mutable collapsed : bool;
  mutable direction : direction;
  mutable extra : (string * string) list;
}

let default_attrs () =
  { view = "default"; trimmed = false; collapsed = false; direction = Horizontal; extra = [] }

type box = {
  id : box_id;
  btype : string;  (** C type name ("task_struct"), or "" for virtual boxes *)
  bdef : string;  (** ViewCL Box definition name ("Task"), "" if anonymous *)
  addr : int;  (** address of the underlying object; 0 for virtual boxes *)
  size : int;  (** sizeof the underlying object; 0 for virtual boxes *)
  container : bool;  (** container boxes hold an ordered member sequence *)
  mutable views : (string * item list) list;  (** view name -> items *)
  mutable members : box_id list;  (** members, for containers *)
  fields : (string, fval) Hashtbl.t;  (** raw values for ViewQL *)
  attrs : attrs;
}

(* A box's rendered text and the display state it was rendered from:
   its views, members and attributes as physical values (every writer replaces these lists rather than editing them,
   so an unchanged pointer means unchanged content), and [c_hidden],
   the boxes the card names that were trimmed ([id]) or gone ([-id]),
   in order — usually none. *)
type card = {
  c_views : (string * item list) list;
  c_members : box_id list;
  c_view : string;
  c_collapsed : bool;
  c_direction : direction;
  c_extra : (string * string) list;
  c_hidden : int list;
  c_text : string;
}

type t = {
  boxes : (box_id, box) Hashtbl.t;
  by_name : (string, box_id list ref) Hashtbl.t;
      (* C type name and ViewCL definition name -> ids, newest first;
         maintained by [add_box] so ViewQL typed selects need no scan *)
  mutable roots : box_id list;
  mutable next_id : int;
  mutable title : string;
  mutable cards : (box_id, card) Hashtbl.t option;
      (* rendered cards, kept only while a pane shows the graph *)
}

let create ?(title = "plot") () =
  { boxes = Hashtbl.create 64; by_name = Hashtbl.create 64; roots = []; next_id = 1; title;
    cards = None }

let title g = g.title
let set_title g s = g.title <- s

let index_name g name id =
  if name <> "" then
    match Hashtbl.find_opt g.by_name name with
    | Some l -> l := id :: !l
    | None -> Hashtbl.add g.by_name name (ref [ id ])

let add_box g ~btype ~bdef ~addr ~size ~container =
  let id = g.next_id in
  g.next_id <- id + 1;
  let b =
    { id; btype; bdef; addr; size; container; views = []; members = [];
      fields = Hashtbl.create 8; attrs = default_attrs () }
  in
  Hashtbl.add b.fields "addr" (Faddr addr);
  Hashtbl.replace g.boxes id b;
  index_name g btype id;
  if bdef <> btype then index_name g bdef id;
  b

let find g id = Hashtbl.find_opt g.boxes id

let get g id =
  match find g id with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Vgraph.get: no box %d" id)

let set_root g id = g.roots <- g.roots @ [ id ]
let roots g = g.roots

(* Incremental re-plot runs the program again over the SAME graph: the
   old roots are dropped and the re-run appends the new ones.  Boxes
   stay (reused ones keep their ids); anything the new roots no longer
   reach is swept by the interpreter at the end of the run. *)
let clear_roots g = g.roots <- []

(* Restore a saved root list wholesale — the rollback path of a re-plot
   whose run raised after clear_roots. *)
let set_roots g ids = g.roots <- ids

(* Strip everything a box build produces — views, members, recorded
   fields, broken/torn/suspect verdicts — so the box can be re-extracted
   in place under its existing id.  Display attributes (view, trimmed,
   collapsed, direction, other extras) survive: they belong to the
   user's refinements, not to the extraction. *)
let reset_box b =
  b.views <- [];
  b.members <- [];
  Hashtbl.reset b.fields;
  Hashtbl.replace b.fields "addr" (Faddr b.addr);
  b.attrs.extra <-
    List.filter
      (fun (k, _) ->
        k <> "broken" && k <> "torn"
        && not (String.length k > 8 && String.sub k 0 8 = "suspect:"))
      b.attrs.extra

let set_view b vname items = b.views <- b.views @ [ (vname, items) ]

let record_field b name v = Hashtbl.replace b.fields name v

let field b name = Hashtbl.find_opt b.fields name

(* A box whose extraction hit memory faults: still rendered, visibly
   marked, filterable from ViewQL (WHERE broken == ...). *)
let mark_broken b reason =
  b.attrs.extra <- ("broken", reason) :: List.remove_assoc "broken" b.attrs.extra;
  record_field b "broken" (Fstr reason)

let broken b = List.assoc_opt "broken" b.attrs.extra

(* A box whose consistent-section retries were exhausted: its contents
   mix before/after state of a racing writer (the [reason] names the
   dirtied range).  Same degradation contract as [mark_broken]. *)
let mark_torn b reason =
  b.attrs.extra <- ("torn", reason) :: List.remove_assoc "torn" b.attrs.extra;
  record_field b "torn" (Fstr reason)

let torn b = List.assoc_opt "torn" b.attrs.extra

(* A box that extracted cleanly but violates a structural law of its
   data structure (see Sanity).  Keyed per law, so one box can be
   suspect under several laws at once. *)
let mark_suspect b ~law reason =
  let key = "suspect:" ^ law in
  b.attrs.extra <- (key, reason) :: List.remove_assoc key b.attrs.extra;
  record_field b "suspect" (Fstr law);
  record_field b key (Fstr reason)

let suspects b =
  List.filter_map
    (fun (k, v) ->
      if String.length k > 8 && String.sub k 0 8 = "suspect:" then
        Some (String.sub k 8 (String.length k - 8), v)
      else None)
    b.attrs.extra
  |> List.sort compare

let boxes g = Hashtbl.fold (fun _ b acc -> b :: acc) g.boxes [] |> List.sort (fun a b -> compare a.id b.id)

let box_count g = Hashtbl.length g.boxes

(** Total bytes of underlying kernel objects (for cost-per-KB metrics). *)
let total_bytes g = List.fold_left (fun acc b -> acc + b.size) 0 (boxes g)

(* Ascending ids of the boxes whose C type or definition name is [ty]:
   the [by_name] index maintained by [add_box], so typed lookups cost
   one hash probe instead of a full-graph scan. *)
let ids_of_type g ty =
  match Hashtbl.find_opt g.by_name ty with Some l -> List.rev !l | None -> []

let of_type g ty = List.filter_map (find g) (ids_of_type g ty)

(** Items of the currently selected view (fallback: first view). *)
let current_items b =
  match List.assoc_opt b.attrs.view b.views with
  | Some items -> items
  | None -> ( match b.views with (_, items) :: _ -> items | [] -> [])

(** Outgoing edges of a box under its current view (links + inlines +
    container members). *)
let successors g b =
  let of_item acc = function
    | Link { target = Some t; _ } -> t :: acc
    | Link { target = None; _ } -> acc
    | Inline { target; _ } -> target :: acc
    | Text _ -> acc
  in
  let from_items = List.fold_left of_item [] (current_items b) in
  let ms = if b.container then b.members else [] in
  List.rev_append from_items ms |> List.filter_map (fun id -> find g id) |> List.map (fun b -> b.id)

(** All boxes reachable from [seeds] (inclusive), under current views. *)
let reachable g seeds =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      match find g id with
      | Some b -> List.iter go (successors g b)
      | None -> ()
    end
  in
  List.iter go seeds;
  Hashtbl.fold (fun id () acc -> id :: acc) seen [] |> List.sort compare

(** Outgoing box references across ALL views (not just the current one)
    plus members: the children whose reuse a cached parent depends on,
    and the edge relation {!renumber} walks. *)
let child_ids b =
  let of_item acc = function
    | Link { target = Some t; _ } -> t :: acc
    | Inline { target; _ } -> target :: acc
    | Link { target = None; _ } | Text _ -> acc
  in
  let from_views =
    List.fold_left (fun acc (_, items) -> List.fold_left of_item acc items) [] b.views
  in
  List.rev_append from_views b.members

(** Drop every box unreachable from the roots over {!child_ids},
    keeping the [by_name] index coherent.  Returns the removed ids,
    ascending.  The incremental re-plot calls this after each run so
    boxes that fell out of the structure, or that only a discarded torn
    attempt built, do not accumulate (and skew {!box_count} /
    {!total_bytes}) across refreshes. *)
let sweep g =
  let live = Hashtbl.create 64 in
  let rec mark id =
    if not (Hashtbl.mem live id) then
      match find g id with
      | Some b ->
          Hashtbl.add live id ();
          List.iter mark (child_ids b)
      | None -> ()
  in
  List.iter mark g.roots;
  let dead =
    Hashtbl.fold
      (fun id b acc -> if Hashtbl.mem live id then acc else (id, b) :: acc)
      g.boxes []
  in
  let unindex id name =
    if name <> "" then
      match Hashtbl.find_opt g.by_name name with
      | Some l ->
          l := List.filter (fun i -> i <> id) !l;
          if !l = [] then Hashtbl.remove g.by_name name
      | None -> ()
  in
  List.iter
    (fun (id, b) ->
      unindex id b.btype;
      if b.bdef <> b.btype then unindex id b.bdef;
      Option.iter (fun c -> Hashtbl.remove c id) g.cards;
      Hashtbl.remove g.boxes id)
    dead;
  List.sort compare (List.map fst dead)

(** Rebuild the graph with ids renumbered 1..n in deterministic
    preorder from the roots (over {!child_ids}), dropping unreachable
    boxes.  Two graphs extracted from the same kernel state render
    identically after renumbering even when one reused boxes under
    their old ids — the canonical form the cached-vs-cold identity
    property compares. *)
let renumber g =
  let map = Hashtbl.create 64 in
  let order = ref [] in
  let count = ref 0 in
  let stack = ref g.roots in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | id :: rest -> (
        stack := rest;
        if not (Hashtbl.mem map id) then
          match find g id with
          | None -> ()
          | Some b ->
              incr count;
              Hashtbl.add map id !count;
              order := b :: !order;
              stack := child_ids b @ !stack)
  done;
  let g' = create ~title:g.title () in
  List.iter
    (fun b ->
      let m id = Hashtbl.find map id in
      let nb =
        add_box g' ~btype:b.btype ~bdef:b.bdef ~addr:b.addr ~size:b.size
          ~container:b.container
      in
      nb.views <-
        List.map
          (fun (vn, items) ->
            ( vn,
              List.map
                (function
                  | Text _ as it -> it
                  | Link { label; target } -> Link { label; target = Option.map m target }
                  | Inline { label; target } -> Inline { label; target = m target })
                items ))
          b.views;
      nb.members <- List.map m b.members;
      Hashtbl.iter (fun k v -> Hashtbl.replace nb.fields k v) b.fields;
      nb.attrs.view <- b.attrs.view;
      nb.attrs.trimmed <- b.attrs.trimmed;
      nb.attrs.collapsed <- b.attrs.collapsed;
      nb.attrs.direction <- b.attrs.direction;
      nb.attrs.extra <- b.attrs.extra)
    (List.rev !order);
  g'.roots <- List.filter_map (fun id -> Hashtbl.find_opt map id) g.roots;
  g'

(** Visible boxes: reachable from roots, not under a trimmed ancestor. *)
let visible g =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem seen id) then
      match find g id with
      | Some b when not b.attrs.trimmed ->
          Hashtbl.add seen id ();
          if not b.attrs.collapsed then List.iter go (successors g b)
      | Some _ | None -> ()
  in
  List.iter go g.roots;
  Hashtbl.fold (fun id () acc -> id :: acc) seen [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Rendered cards, cached while a pane shows the graph *)

let keep_cards g on =
  match (on, g.cards) with
  | true, None -> g.cards <- Some (Hashtbl.create 64)
  | false, Some _ -> g.cards <- None
  | _ -> ()

(* The boxes a card's text names, in order: the current view's link and
   inline targets, then a container's members. *)
let iter_near b f =
  List.iter
    (function
      | Link { target = Some t; _ } | Inline { target = t; _ } -> f t
      | Link { target = None; _ } | Text _ -> ())
    (current_items b);
  if b.container then List.iter f b.members

(* [id] for a trimmed box, [-id] for a gone one, 0 for a shown one *)
let hidden_as g id =
  match find g id with None -> -id | Some t when t.attrs.trimmed -> id | Some _ -> 0

let fresh_card g b c =
  c.c_views == b.views && c.c_members == b.members
  && c.c_view = b.attrs.view && c.c_collapsed = b.attrs.collapsed
  && c.c_direction = b.attrs.direction && c.c_extra == b.attrs.extra
  &&
  let rest = ref c.c_hidden and same = ref true in
  iter_near b (fun id ->
      match (hidden_as g id, !rest) with
      | 0, _ -> ()
      | h, x :: tl when h = x -> rest := tl
      | _ -> same := false);
  !same && !rest = []

let cached_card g b render =
  match g.cards with
  | None -> render ()
  | Some cards -> (
      match Hashtbl.find_opt cards b.id with
      | Some c when fresh_card g b c -> c.c_text
      | Some _ | None ->
          let text = render () in
          let hidden = ref [] in
          iter_near b (fun id -> match hidden_as g id with 0 -> () | h -> hidden := h :: !hidden);
          Hashtbl.replace cards b.id
            { c_views = b.views; c_members = b.members; c_view = b.attrs.view;
              c_collapsed = b.attrs.collapsed; c_direction = b.attrs.direction;
              c_extra = b.attrs.extra; c_hidden = List.rev !hidden; c_text = text };
          text)

(* ------------------------------------------------------------------ *)
(* JSON serialization (the front-end protocol) *)

let to_json g =
  let open Json in
  let label kind l = [ ("kind", String kind); ("label", String l) ] in
  let item = function
    | Text { label = l; value; raw } ->
        let raw =
          match raw with
          | Fint n -> Int n
          | Faddr a -> String (Printf.sprintf "0x%x" a)
          | Fbool b -> Bool b
          | Fstr s -> String s
        in
        Obj (label "text" l @ [ ("value", String value); ("raw", raw) ])
    | Link { label = l; target } ->
        Obj (label "link" l @ [ ("target", Option.fold ~none:Null ~some:(fun t -> Int t) target) ])
    | Inline { label = l; target } -> Obj (label "inline" l @ [ ("target", Int target) ])
  in
  let ints l = List (List.map (fun n -> Int n) l) in
  let box b =
    let a = b.attrs in
    Obj
      [ ("id", Int b.id); ("type", String b.btype); ("def", String b.bdef);
        ("addr", String (Printf.sprintf "0x%x" b.addr)); ("container", Bool b.container);
        ("members", ints b.members);
        ( "attrs",
          Obj
            [ ("view", String a.view); ("trimmed", Bool a.trimmed); ("collapsed", Bool a.collapsed);
              ( "direction",
                String (match a.direction with Horizontal -> "horizontal" | Vertical -> "vertical") ) ] );
        ("views", Obj (List.map (fun (vn, items) -> (vn, List (List.map item items))) b.views)) ]
  in
  Obj [ ("title", String g.title); ("roots", ints g.roots); ("boxes", List (List.map box (boxes g))) ]
