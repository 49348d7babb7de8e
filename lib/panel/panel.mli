(** The pane-based interactive debugger front-end (paper §2.4, Fig. 2).

    Panes form a tree built by horizontal/vertical splits (borrowed from
    tmux). A {e primary} pane displays a ViewCL-extracted object graph
    refinable with ViewQL; a {e secondary} pane displays boxes picked
    from another pane. The cross-pane {!focus} operation locates an
    object in every displayed graph at once — the paper's workflow for
    understanding how one object is simultaneously managed by several
    data structures. *)

type pane_id = int

type kind =
  | Primary of { program : string }  (** the ViewCL source that produced the graph *)
  | Secondary of { source : pane_id; picked : Vgraph.box_id list }

type pane = {
  pid : pane_id;
  kind : kind;
  graph : Vgraph.t;
  session : Viewql.session;  (** named ViewQL sets persist per pane *)
  mutable history : string list;  (** ViewQL programs applied, newest first *)
  mutable stale : bool;
      (** the graph predates the last target crash; rendered with a
          [STALE] tag until re-extracted via {!refresh} *)
}

(** The split tree. *)
type layout = Leaf of pane_id | Hsplit of layout * layout | Vsplit of layout * layout

(** One journaled session operation (see {!journal}). *)
type op =
  | Jopen of { program : string }
  | Jsplit of { dir : [ `Horizontal | `Vertical ]; at : pane_id; program : string }
  | Jselect of { from_ : pane_id; picked : Vgraph.box_id list }
  | Jrefine of { at : pane_id; viewql : string }
  | Jclose of { id : pane_id }
  | Jreserve of { n : int }
      (** emitted by {!compact_journal} in place of dropped
          pane-creating ops: replay skips [n] pane ids, keeping the
          surviving panes' pre-compaction numbering *)

type t

val create : unit -> t

val pane : t -> pane_id -> pane
(** @raise Invalid_argument on unknown ids. *)

val pane_opt : t -> pane_id -> pane option
(** Total lookup, for command boundaries that must not raise. *)

val pane_ids : t -> pane_id list

val layout : t -> layout option
(** The current split tree; [None] once every pane is closed. *)

val open_primary : ?stale:bool -> t -> program:string -> Vgraph.t -> pane
(** Open a primary pane (splitting the root horizontally if the layout is
    non-empty). *)

val split :
  ?stale:bool ->
  t -> dir:[ `Horizontal | `Vertical ] -> at:pane_id -> program:string -> Vgraph.t -> pane
(** Split pane [at], placing a new primary pane beside/below it. *)

val select : t -> from:pane_id -> Vgraph.box_id list -> pane
(** Pick boxes from a pane into a new secondary pane (sharing the graph). *)

val refine : t -> at:pane_id -> string -> int
(** Apply a ViewQL program to a pane; returns #box updates and appends to
    the pane's replay history.
    @raise Viewql.Error on malformed programs. *)

val focus : t -> addr:int -> (pane_id * Vgraph.box_id) list
(** Find the object at [addr] in every pane's graph. *)

val close : t -> pane_id -> unit
(** Remove a pane and prune the layout tree. *)

(** {1 Crash-safe sessions}

    Every layout-mutating operation ({!open_primary}, {!split},
    {!select}, {!refine}, {!close}) checkpoints itself into an in-order
    journal. The journal is the panel's only persisted form (the
    session layer mirrors it into its durable WAL). Pane ids are
    assigned by replay order, so {!recover} rebuilds the exact
    pre-crash layout — same ids, same histories — against a
    reconnected target. *)

val journal : t -> op list
(** The session's ops, oldest first. *)

val compact_journal : op list -> op list
(** Drop ops belonging to panes that are closed by the journal's end and
    never observed live by a surviving op (no split anchored at them, no
    select picking from them); dropped pane-creating ops are replaced by
    coalesced {!op.Jreserve} markers. Replaying the compacted journal
    yields the same panel — same surviving pane ids, same layout — as
    replaying the original. *)

val set_op_hook : t -> (op -> unit) option -> unit
(** Tap every checkpointed op, {e before} any in-place auto-compaction
    rewrites the journal — the session layer mirrors the stream into
    its durable WAL.  Replay ({!recover}) builds a fresh panel with no
    hook, so recovered ops are never re-journaled. *)

val journal_to_json : t -> Json.t

val journal_of_json : Json.t -> op list
(** Inverse of {!journal_to_json} on a parsed value; unknown or
    incomplete ops are dropped. *)

val op_to_json : op -> Json.t

val op_of_json : Json.t -> op option
(** Inverse of {!op_to_json} on a parsed value; [None] for an unknown
    or incomplete op. *)

val mark_all_stale : t -> unit
(** Called when the target link drops: every pane's graph is now of
    unknown freshness. *)

val stale_ids : t -> pane_id list

val recover : extract:(string -> Vgraph.t option) -> op list -> t * int
(** [recover ~extract ops] replays a journal against a reconnected
    target; [extract] runs a ViewCL program on it.  Panes whose
    extraction fails are still created (empty graph, [stale] set) so
    ids keep the pre-crash numbering; ops that no longer resolve are
    skipped rather than raised.  Returns the rebuilt panel and the
    number of stale panes. *)

val refresh : t -> at:pane_id -> extract:(string -> Vgraph.t option) -> bool
(** Re-extract one stale primary pane and replay its ViewQL history on
    the fresh graph; [true] when the pane is live again. *)
