(** Structural sanitizer: invariant checkers that validate extracted boxes against the laws of the data
    structures they claim to be.

    Consistent sections (Target) guarantee the bytes of a box were not
    mutated mid-read; they cannot say whether those bytes form a legal
    structure.  A silently corrupted kernel — bit flips, StackRot-style
    freed-node reuse — extracts "cleanly" into a graph that violates
    its own invariants.  The sanitizer reads the {e real} memory behind
    each box of an extracted graph and emits typed verdicts, rendered
    as [SUSPECT:<law>] box tags and counted in the {!Obs} registry
    ([sanity.checked] / [sanity.suspect]).

    Built-in laws:
    - ["rbtree"] — red-red freedom, equal black heights, parent-pointer
      symmetry, black root; for [rb_root_cached], the leftmost cache
      must name the tree's actual first node
    - ["maple"] — pivot monotonicity and encoded-pointer tag validity
    - ["list"] — [list_head] cycle closure and prev/next symmetry
    - ["xarray"] — radix geometry (shift chain 6-by-6 to zero) bounding
      every index, no node cycles

    All checkers are bounded and cycle-proof: safe on arbitrarily
    corrupted structures. *)

type verdict = {
  law : string;  (** which law failed ("rbtree", "maple", "list", ...) *)
  box : Vgraph.box_id;  (** the box found suspect *)
  subject : Kmem.addr;  (** address of the structure checked *)
  reason : string;  (** the first violation, human-readable *)
}

val verdict_to_string : verdict -> string

val check_graph : Kcontext.t -> Vgraph.t -> verdict list
(** Run every applicable checker over every box of the graph, stamping
    suspect boxes with {!Vgraph.mark_suspect} so the next render shows
    their [SUSPECT:<law>] tags. *)
