(** Structural sanitizer: validate extracted boxes against the laws of
    the data structures they claim to be.

    Snapshot consistency (Target's consistent sections) says the bytes
    were not mutated mid-read; it says nothing about whether they form
    a legal structure — a silently corrupted kernel (bit flips, the
    StackRot freed-node reuse) extracts "cleanly" into an object graph
    that violates its own invariants.  The sanitizer closes that gap:
    one checker per law runs over the boxes of an extracted
    {!Vgraph}, reading the {e real} memory behind each box, and emits
    typed verdicts that render as [SUSPECT:<law>] tags and feed the
    {!Obs} metrics registry.

    Checkers must be safe on arbitrarily corrupted structures: bounded,
    cycle-proof, never raising (reads of wild/freed memory already
    degrade to poison bytes at the {!Kmem} layer). *)

type verdict = {
  law : string;  (** which law failed ("rbtree", "maple", "list", ...) *)
  box : Vgraph.box_id;  (** the box found suspect *)
  subject : Kmem.addr;  (** address of the structure checked *)
  reason : string;  (** the first violation, human-readable *)
}

let verdict_to_string v =
  Printf.sprintf "[SUSPECT:%s] box #%d @0x%x: %s" v.law v.box v.subject v.reason

(* [applies] selects boxes by shape (usually [btype]); [run] reads the
   real memory behind the box and returns [Error reason] on the first
   violated law. *)
type checker = {
  law : string;
  applies : Vgraph.box -> bool;
  run : Kcontext.t -> Vgraph.box -> (unit, string) result;
}

(* ------------------------------------------------------------------ *)
(* Built-in checkers *)

(* Small guard shared by all builtins: a checker only makes sense for a
   box standing for a real object. *)
let addressed b = b.Vgraph.addr <> 0

(* The struct type a box answers for.  Container boxes carry the walked
   structure as a "subject" attr (e.g. an RBTree container whose subject
   is the rb_root_cached it traversed); plain boxes answer for their own
   btype. *)
let subject_type b =
  match List.assoc_opt "subject" b.Vgraph.attrs.Vgraph.extra with
  | Some t -> t
  | None -> b.Vgraph.btype

(* rbtree: red-red freedom, equal black heights, parent-pointer
   symmetry, black root (Krbtree.check); for rb_root_cached also the
   leftmost cache, which must point at the tree's actual first node. *)
let rbtree_checker =
  {
    law = "rbtree";
    applies =
      (fun b ->
        addressed b && (subject_type b = "rb_root" || subject_type b = "rb_root_cached"));
    run =
      (fun ctx b ->
        let root =
          if subject_type b = "rb_root_cached" then Krbtree.cached_root ctx b.Vgraph.addr
          else b.Vgraph.addr
        in
        match Krbtree.check ctx root with
        | Error _ as e -> e
        | Ok _ when subject_type b = "rb_root_cached" ->
            let cached = Krbtree.leftmost ctx b.Vgraph.addr in
            let actual = Krbtree.first ctx root in
            if cached <> actual then
              Error
                (Printf.sprintf "rbtree: cached leftmost 0x%x but first node is 0x%x" cached
                   actual)
            else Ok ()
        | Ok _ -> Ok ());
  }

(* maple tree: pivot monotonicity + encoded-pointer tag validity. *)
let maple_checker =
  {
    law = "maple";
    applies = (fun b -> addressed b && subject_type b = "maple_tree");
    run =
      (fun ctx b ->
        match Kmaple.check ctx b.Vgraph.addr with Error _ as e -> e | Ok _ -> Ok ());
  }

(* list_head: the ring must close back at the head within a bounded
   number of hops, with prev/next symmetric at every step. *)
let list_max_nodes = 65536

let list_checker =
  {
    law = "list";
    applies = (fun b -> addressed b && subject_type b = "list_head");
    run =
      (fun ctx b ->
        let open Kcontext in
        let head = b.Vgraph.addr in
        let next a = r64 ctx a "list_head" "next" in
        let prev a = r64 ctx a "list_head" "prev" in
        let rec go a n =
          if n > list_max_nodes then
            Error (Printf.sprintf "list: no cycle closure within %d nodes" list_max_nodes)
          else
            let nx = next a in
            if nx = 0 then Error (Printf.sprintf "list: NULL next at 0x%x" a)
            else if prev nx <> a then
              Error
                (Printf.sprintf "list: 0x%x.next.prev is 0x%x, expected 0x%x" a (prev nx) a)
            else if nx = head then Ok ()
            else go nx (n + 1)
        in
        go head 0);
  }

(* xarray: the radix geometry bounds every index — node shifts are
   multiples of XA_CHUNK_SHIFT (6), strictly decreasing by 6 per level
   down to 0 at the leaves, with no node cycles.  A violated shift
   chain means some stored index escapes its advertised bounds. *)
let xarray_max_nodes = 4096

let xarray_checker =
  {
    law = "xarray";
    applies = (fun b -> addressed b && subject_type b = "xarray");
    run =
      (fun ctx b ->
        let open Kcontext in
        let head = r64 ctx b.Vgraph.addr "xarray" "xa_head" in
        let is_node e = e land 3 = 2 && e > 4096 in
        if head = 0 || not (is_node head) then Ok ()
        else begin
          let exception Bad of string in
          let seen = Hashtbl.create 64 in
          let count = ref 0 in
          let rec walk e =
            let na = e land lnot 3 in
            if Hashtbl.mem seen na then
              raise (Bad (Printf.sprintf "xarray: node cycle through 0x%x" na));
            Hashtbl.add seen na ();
            incr count;
            if !count > xarray_max_nodes then
              raise
                (Bad (Printf.sprintf "xarray: more than %d nodes (runaway structure)"
                        xarray_max_nodes));
            let shift = r8 ctx na "xa_node" "shift" in
            if shift mod 6 <> 0 || shift >= 64 then
              raise (Bad (Printf.sprintf "xarray: node 0x%x has invalid shift %d" na shift));
            let slots = fld ctx na "xa_node" "slots" in
            for i = 0 to 63 do
              let child = Kmem.read_u64 ctx.mem (slots + (8 * i)) in
              if is_node child then begin
                if shift = 0 then
                  raise
                    (Bad
                       (Printf.sprintf "xarray: leaf node 0x%x holds an internal pointer" na));
                let ca = child land lnot 3 in
                let cshift = r8 ctx ca "xa_node" "shift" in
                if cshift <> shift - 6 then
                  raise
                    (Bad
                       (Printf.sprintf
                          "xarray: child 0x%x of node 0x%x has shift %d, expected %d" ca na
                          cshift (shift - 6)));
                walk child
              end
            done
          in
          match walk head with () -> Ok () | exception Bad m -> Error m
        end);
  }

let checkers = [ rbtree_checker; maple_checker; list_checker; xarray_checker ]

(* ------------------------------------------------------------------ *)
(* Running *)

let c_checked = Obs.Counter.make "sanity.checked"
let c_suspect = Obs.Counter.make "sanity.suspect"

let check_box ctx (b : Vgraph.box) =
  List.filter_map
    (fun c ->
      if not (c.applies b) then None
      else begin
        if Obs.enabled () then Obs.Counter.incr c_checked;
        match c.run ctx b with
        | Ok () -> None
        | Error reason ->
            if Obs.enabled () then begin
              Obs.Counter.incr c_suspect;
              Obs.instant ~cat:"sanity"
                ~attrs:[ ("law", c.law); ("reason", reason) ]
                "sanity.suspect"
            end;
            Some { law = c.law; box = b.Vgraph.id; subject = b.Vgraph.addr; reason }
      end)
    checkers

(** Run every applicable checker over every box of [g], stamping suspect
    boxes with {!Vgraph.mark_suspect} so the next render shows
    [SUSPECT:<law>] tags. *)
let check_graph ctx g =
  let go () =
    List.concat_map
      (fun b ->
        let vs = check_box ctx b in
        List.iter (fun (v : verdict) -> Vgraph.mark_suspect b ~law:v.law v.reason) vs;
        vs)
      (Vgraph.boxes g)
  in
  if Obs.enabled () then Obs.with_span ~cat:"sanity" "sanity.check_graph" go else go ()
