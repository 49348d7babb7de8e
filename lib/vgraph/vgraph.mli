(** The simplified kernel object graph extracted by ViewCL (paper
    §2.2-§2.3).

    Vertices are {!box}es (each standing for one kernel object, or a
    virtual/container box), edges are [Link] items; each box carries one
    or more named {e views} — alternative item layouts — plus the
    display-control {!attrs} that ViewQL updates ([view] / [trimmed] /
    [collapsed] / [direction]). *)

type box_id = int

(** Raw values recorded alongside the formatted text of items, used by
    ViewQL WHERE filtering. *)
type fval = Fint of int | Fstr of string | Fbool of bool | Faddr of int

(** One item of a view. *)
type item =
  | Text of { label : string; value : string; raw : fval }
      (** a formatted field, e.g. [pid: 42] *)
  | Link of { label : string; target : box_id option }
      (** an edge to another box; [None] is a NULL pointer *)
  | Inline of { label : string; target : box_id }
      (** a nested box (typically a container) displayed inside this one *)

type direction = Horizontal | Vertical

(** Display attributes, mutated by ViewQL UPDATE. *)
type attrs = {
  mutable view : string;  (** which view is displayed (default ["default"]) *)
  mutable trimmed : bool;  (** removed from display, with its subtree *)
  mutable collapsed : bool;  (** shown as a click-to-expand stub *)
  mutable direction : direction;  (** container member flow *)
  mutable extra : (string * string) list;  (** free-form attributes *)
}

type box = {
  id : box_id;
  btype : string;  (** C type name ("task_struct"); "" for virtual boxes *)
  bdef : string;  (** ViewCL Box definition name ("Task"); "" if anonymous *)
  addr : int;  (** address of the underlying object; 0 for virtual boxes *)
  size : int;  (** sizeof the underlying object; 0 for virtual boxes *)
  container : bool;  (** container boxes hold an ordered member sequence *)
  mutable views : (string * item list) list;
  mutable members : box_id list;
  fields : (string, fval) Hashtbl.t;
  attrs : attrs;
}

type t
(** A graph: boxes plus the plot roots. *)

val create : ?title:string -> unit -> t
val title : t -> string
val set_title : t -> string -> unit

val add_box :
  t -> btype:string -> bdef:string -> addr:int -> size:int -> container:bool -> box
(** Allocate a fresh box with a stable id and default attributes. *)

val find : t -> box_id -> box option

val get : t -> box_id -> box
(** @raise Invalid_argument when the id is unknown. *)

val set_root : t -> box_id -> unit
(** Append a plot root (one per [plot] statement). *)

val roots : t -> box_id list

val clear_roots : t -> unit
(** Drop the plot roots, keeping all boxes.  An incremental re-plot
    re-runs the program over the same graph: reused boxes keep their
    ids, the re-run appends fresh roots, and whatever the new roots no
    longer reach is swept (see {!sweep}) at the end of the run. *)

val set_roots : t -> box_id list -> unit
(** Replace the root list wholesale — the rollback path of a re-plot
    whose run raised after {!clear_roots}. *)

val sweep : t -> box_id list
(** [sweep g] removes every box unreachable from the roots over
    {!child_ids}, keeping the type index ({!ids_of_type}) coherent, and
    returns the removed ids ascending.  Bounds the persistent re-plot
    graph: boxes that fell out of the structure, or that only a
    discarded torn attempt built, stop accumulating (and skewing
    {!box_count} / {!total_bytes}) across refreshes. *)

val reset_box : box -> unit
(** Strip everything extraction produced — views, members, recorded
    fields, broken/torn/suspect verdicts — so the box can be rebuilt in
    place under its existing id.  Display attributes ([view], [trimmed],
    [collapsed], [direction], other extras) survive: they belong to the
    user's ViewQL refinements, not to the extraction. *)

val set_view : box -> string -> item list -> unit
(** [set_view box name items] appends a named view to the box. *)

val record_field : box -> string -> fval -> unit
(** Record a raw value for ViewQL WHERE filtering. *)

val field : box -> string -> fval option

val mark_broken : box -> string -> unit
(** [mark_broken b reason] marks [b] as extracted from faulty memory
    (dangling/wild/corrupted object): sets the ["broken"] extra
    attribute and records a ["broken"] field so ViewQL can filter on
    it. The box stays in the graph — a plot of a corrupted kernel
    degrades instead of aborting. *)

val broken : box -> string option
(** The fault description of a broken box. *)

val mark_torn : box -> string -> unit
(** [mark_torn b reason] marks [b] as a torn snapshot: a writer raced
    its extraction and the bounded retry budget ran out, so its
    contents may mix before/after state.  Sets the ["torn"] extra
    attribute and a ["torn"] field (ViewQL-filterable), mirroring
    {!mark_broken}. *)

val torn : box -> string option
(** The dirtied-range description of a torn box. *)

val mark_suspect : box -> law:string -> string -> unit
(** [mark_suspect b ~law reason] records that [b] violates structural
    law [law] (e.g. ["rbtree"], ["maple"]; see the Sanity library).
    Keyed per law — a box can be suspect under several laws at once.
    Records ["suspect"] (last law) and ["suspect:<law>"] fields for
    ViewQL. *)

val suspects : box -> (string * string) list
(** All [(law, reason)] verdicts recorded on [b], sorted by law. *)

val boxes : t -> box list
(** All boxes, in id (construction) order. *)

val box_count : t -> int

val total_bytes : t -> int
(** Sum of [size] over all boxes — the "KB of data structure" denominator
    of the paper's Table 4. *)

val of_type : t -> string -> box list
(** Boxes whose C type or ViewCL definition name matches. *)

val ids_of_type : t -> string -> box_id list
(** Ascending ids of the boxes whose C type or definition name is the
    given name — one probe of the index {!add_box} maintains, not a
    graph scan.  ViewQL's typed [SELECT ... FROM *] path. *)

val current_items : box -> item list
(** Items of the currently selected view (first view as fallback). *)

val successors : t -> box -> box_id list
(** Outgoing edges under the current view: links, inlines, members. *)

val reachable : t -> box_id list -> box_id list
(** Transitive closure of {!successors} from the seeds (inclusive),
    sorted. Implements ViewQL's [REACHABLE]. *)

val visible : t -> box_id list
(** Boxes actually displayed: reachable from the roots under current
    views, stopping at [trimmed] boxes and below [collapsed] ones. *)

val child_ids : box -> box_id list
(** Outgoing box references across ALL views (links and inlines, not
    just the current view's) plus container members: the children a
    cached box's reuse depends on. *)

val renumber : t -> t
(** A copy of the graph with ids renumbered [1..n] in deterministic
    preorder from the roots (over {!child_ids}), unreachable boxes
    dropped.  Two graphs extracted from the same kernel state render
    identically after renumbering even when one of them reused boxes
    under their old ids — the canonical form the cached-vs-cold
    identity property compares. *)

val keep_cards : t -> bool -> unit
(** Turn the graph's card cache on or off.  A pane turns it on when it
    opens on the graph; the last pane showing the graph turns it off
    when it closes, which frees every card. *)

val cached_card : t -> box -> (unit -> string) -> string
(** [cached_card g b render] is [render ()], reused while [g] keeps
    cards and nothing the card shows has changed since: the box's
    views, members and display attributes (compared by identity:
    {!reset_box}, {!set_view}, the [mark_*] functions and ViewQL replace
    these values, never edit them), and whether each box its current
    view references is present and untrimmed.  Without a card cache it
    just renders. *)

val to_json : t -> Json.t
(** The whole graph as JSON (the vplot wire format). *)
