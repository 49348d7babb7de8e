(** Rendering of extracted object graphs (the visualizer back-ends).

    All renderers honor the ViewQL display attributes: [trimmed] subtrees
    vanish, [collapsed] boxes render as stubs, [view] selects the item
    set, [direction] controls container member flow. *)

val box_tags : Vgraph.box -> string list
(** The status tags a box carries, in the one deterministic order all
    renderers use: ["[BROKEN]"] (faulty memory), then ["[TORN]"]
    (raced by a writer, retries exhausted), then ["[SUSPECT:<law>]"]
    sorted by law.  Tags compose — a box can carry several at once. *)

val box_title : Vgraph.box -> string
(** e.g. ["Task #3 <task_struct @0x400000823730>"], followed by
    {!box_tags} when any are set. *)

val item_lines : Vgraph.t -> Vgraph.box -> string list
(** The current view's items as display lines. *)

val card : Vgraph.t -> Vgraph.box -> string
(** One ASCII-framed card (or a collapsed stub). *)

val ascii :
  ?roots:Vgraph.box_id list -> ?stale:bool -> ?transport:Transport.t -> Vgraph.t -> string
(** The visible subgraph as ASCII cards in BFS order from the roots,
    with a trailing [(N boxes, M visible)] summary. [roots] overrides the
    seed set — used to render a secondary pane, which displays only the
    boxes picked from another pane (and what they reach). [stale] marks
    the header with a [STALE] tag (the pane's graph predates a target
    crash and awaits re-extraction); [transport] appends the link's
    health line (retries, breaker state, budget spent;
    {!Transport.health_line}).
    A pane's cards come from the graph's card cache
    ({!Vgraph.cached_card}) while a pane shows the graph. *)

val canonical : Vgraph.t -> string
(** {!ascii} of the {!Vgraph.renumber}ed graph, titled ["identity"],
    without the wall-clock [[obs: ...]] footer: a warm refresh and a
    cold plot of one kernel state render the same text. *)

val transport_line : Transport.t -> string
(** The transport-health summary appended by {!ascii}. *)

val dot : Vgraph.t -> string
(** Graphviz digraph (record-shaped nodes, labeled edges). *)

val svg : Vgraph.t -> string
(** Standalone SVG with a BFS-level column layout. *)
