(** The maple tree ([struct maple_tree]) — the Linux 6.1 VMA container.

    Layout in simulated memory is faithful to the kernel: leaves are
    [maple_leaf_64]-typed [maple_range_64] nodes (16 slots / 15 pivots),
    internal nodes are [maple_arange_64] (10 slots / 9 pivots, with
    per-subtree gap tracking as in MT_FLAGS_ALLOC_RANGE trees used by mm),
    and node pointers are *encoded*: [node | (type << 3) | 0x2], decoded by
    the [mte_to_node] / [mte_node_type] helpers the paper's ViewCL code
    calls.

    The *write side* keeps a shadow sorted range list per tree and
    materializes fresh nodes on every update, releasing the previous
    generation of nodes through a caller-supplied [free] callback. This is
    how the kernel behaves under RCU from a reader's perspective —
    mas_store builds replacement nodes and frees old ones with
    [ma_free_rcu] — which is exactly the behaviour CVE-2023-3269
    (StackRot) depends on. The *read side* ([walk], [read_entries]) only
    traverses the real in-memory nodes. *)

open Kcontext

type addr = Kmem.addr

(* Node types, as enum maple_type. *)
let maple_leaf_64 = 1
let maple_range_64 = 2
let maple_arange_64 = 3

let mt_max = (1 lsl 56) - 1

(* Encoded node pointers. *)
let mk_enc node typ = node lor (typ lsl 3) lor 0x2
let is_node e = e land 0x2 <> 0 && e > 4096
let to_node e = e land lnot 0xff
let node_type e = (e lsr 3) land 0xf
let is_leaf e = node_type e = maple_leaf_64

let leaf_slots = Ktypes.maple_range64_slots (* 16 *)
let arange_slots = Ktypes.maple_arange64_slots (* 10 *)

type range = { lo : int; hi : int; entry : addr }

type tree = {
  ctx : Kcontext.t;
  mt : addr;  (** address of the [maple_tree] struct *)
  mutable ranges : range list;  (** shadow: sorted, disjoint *)
  mutable live_nodes : addr list;
}

let set_ma_root t v = w64 t.ctx t.mt "maple_tree" "ma_root" v

let create ctx mt =
  w64 ctx mt "maple_tree" "ma_root" 0;
  w32 ctx mt "maple_tree" "ma_flags" 0x1 (* MT_FLAGS_ALLOC_RANGE *);
  { ctx; mt; ranges = []; live_nodes = [] }

let entries t = List.map (fun r -> (r.lo, r.hi, r.entry)) t.ranges

(* ------------------------------------------------------------------ *)
(* Node field access *)

let leaf_pivot ctx n i = Kmem.read_u64 ctx.mem (fld ctx n "maple_node" "mr64" + off ctx "maple_range_64" "pivot" + (8 * i))
let leaf_slot ctx n i = Kmem.read_u64 ctx.mem (fld ctx n "maple_node" "mr64" + off ctx "maple_range_64" "slot" + (8 * i))
let ar_pivot ctx n i = Kmem.read_u64 ctx.mem (fld ctx n "maple_node" "ma64" + off ctx "maple_arange_64" "pivot" + (8 * i))
let ar_slot ctx n i = Kmem.read_u64 ctx.mem (fld ctx n "maple_node" "ma64" + off ctx "maple_arange_64" "slot" + (8 * i))

let set_leaf_pivot ctx n i v = Kmem.write_u64 ctx.mem (fld ctx n "maple_node" "mr64" + off ctx "maple_range_64" "pivot" + (8 * i)) v
let set_leaf_slot ctx n i v = Kmem.write_u64 ctx.mem (fld ctx n "maple_node" "mr64" + off ctx "maple_range_64" "slot" + (8 * i)) v
let set_ar_pivot ctx n i v = Kmem.write_u64 ctx.mem (fld ctx n "maple_node" "ma64" + off ctx "maple_arange_64" "pivot" + (8 * i)) v
let set_ar_slot ctx n i v = Kmem.write_u64 ctx.mem (fld ctx n "maple_node" "ma64" + off ctx "maple_arange_64" "slot" + (8 * i)) v
let set_ar_gap ctx n i v = Kmem.write_u64 ctx.mem (fld ctx n "maple_node" "ma64" + off ctx "maple_arange_64" "gap" + (8 * i)) v
let set_ar_meta ctx n ~end_ ~gap =
  let meta = fld ctx n "maple_node" "ma64" + off ctx "maple_arange_64" "meta" in
  Kmem.write_u8 ctx.mem (meta + off ctx "maple_metadata" "end") end_;
  Kmem.write_u8 ctx.mem (meta + off ctx "maple_metadata" "gap") gap

let set_parent ctx n p = w64 ctx n "maple_node" "parent" p

(* ------------------------------------------------------------------ *)
(* Write side: shadow update + materialization *)

(* Overwrite [lo, hi] with [entry] (0 = erase) in a sorted disjoint list. *)
let shadow_store ranges ~lo ~hi entry =
  let keep_low r = if r.lo < lo then [ { r with hi = min r.hi (lo - 1) } ] else [] in
  let keep_high r = if r.hi > hi then [ { r with lo = max r.lo (hi + 1) } ] else [] in
  let rec go = function
    | [] -> if entry = 0 then [] else [ { lo; hi; entry } ]
    | r :: rest when r.hi < lo -> r :: go rest
    | r :: rest when r.lo > hi ->
        (if entry = 0 then [] else [ { lo; hi; entry } ]) @ (r :: rest)
    | r :: rest ->
        (* r overlaps [lo, hi]: split it. *)
        keep_low r @ go_overlap rest (keep_high r)
  and go_overlap rest high_part =
    match rest with
    | r :: rest' when r.lo <= hi -> go_overlap rest' (keep_high r @ high_part)
    | _ -> (if entry = 0 then [] else [ { lo; hi; entry } ]) @ high_part @ rest
  in
  go ranges

(* Split [items] into balanced chunks of at most [cap]. *)
let chunk cap items =
  let n = List.length items in
  if n = 0 then []
  else begin
    let groups = (n + cap - 1) / cap in
    let base = n / groups and extra = n mod groups in
    let rec take k xs acc = if k = 0 then (List.rev acc, xs) else
      match xs with [] -> (List.rev acc, []) | x :: r -> take (k - 1) r (x :: acc)
    in
    let rec go g xs =
      if g = 0 then []
      else
        let sz = base + if g <= extra then 1 else 0 in
        let grp, rest = take sz xs [] in
        grp :: go (g - 1) rest
    in
    go groups items
  end

(* An item is a (hi, entry) pair: the region from the previous item's hi+1
   (or the subtree min) up to [hi], holding [entry] (0 = gap). *)
let items_of_ranges ranges =
  let rec go pos = function
    | [] -> if pos <= mt_max then [ (mt_max, 0) ] else []
    | r :: rest ->
        let gap = if r.lo > pos then [ (r.lo - 1, 0) ] else [] in
        gap @ ((r.hi, r.entry) :: go (r.hi + 1) rest)
  in
  go 0 ranges

(* Build one leaf node for items covering [node_max]; returns encoded ptr
   and the node's max gap. *)
let build_leaf t items node_min node_max =
  let ctx = t.ctx in
  let n = Kcontext.alloc ~align:256 ctx "maple_node" in
  t.live_nodes <- n :: t.live_nodes;
  let rec fill i lo gap = function
    | [] -> gap
    | (hi, entry) :: rest ->
        set_leaf_slot ctx n i entry;
        if i < leaf_slots - 1 then
          set_leaf_pivot ctx n i (if hi = node_max then 0 else hi);
        let gap = if entry = 0 then max gap (hi - lo + 1) else gap in
        fill (i + 1) (hi + 1) gap rest
  in
  let gap = fill 0 node_min 0 items in
  (mk_enc n maple_leaf_64, gap)

(* Build an internal (arange) node over encoded children. *)
let build_arange t children node_max =
  let ctx = t.ctx in
  let n = Kcontext.alloc ~align:256 ctx "maple_node" in
  t.live_nodes <- n :: t.live_nodes;
  let count = List.length children in
  let max_gap = ref 0 and max_gap_i = ref 0 in
  List.iteri
    (fun i (enc, child_max, child_gap) ->
      set_ar_slot ctx n i enc;
      if i < arange_slots - 1 then
        set_ar_pivot ctx n i (if child_max = node_max then 0 else child_max);
      set_ar_gap ctx n i child_gap;
      if child_gap > !max_gap then begin
        max_gap := child_gap;
        max_gap_i := i
      end;
      set_parent ctx (to_node enc) (mk_enc n maple_arange_64))
    children;
  set_ar_meta ctx n ~end_:(count - 1) ~gap:!max_gap_i;
  (mk_enc n maple_arange_64, node_max, !max_gap)

(* Materialize the whole tree from the shadow; returns newly built root. *)
let materialize t =
  let items = items_of_ranges t.ranges in
  match t.ranges with
  | [] ->
      set_ma_root t 0;
      0
  | [ { lo = 0; hi; entry } ] when hi = mt_max ->
      (* Single entry spanning everything: stored directly in ma_root. *)
      set_ma_root t entry;
      entry
  | _ ->
      (* Leaves first. *)
      let leaf_groups = chunk (leaf_slots - 2) items in
      let leaves =
        let rec go min_pos = function
          | [] -> []
          | grp :: rest ->
              let node_max = fst (List.nth grp (List.length grp - 1)) in
              let enc, gap = build_leaf t grp min_pos node_max in
              (enc, node_max, gap) :: go (node_max + 1) rest
        in
        go 0 leaf_groups
      in
      (* Stack internal levels until a single root remains. *)
      let rec build level =
        match level with
        | [ (enc, _, _) ] ->
            set_parent t.ctx (to_node enc) (t.mt lor 0x1);
            enc
        | _ ->
            let groups = chunk (arange_slots - 2) level in
            let parents =
              List.map
                (fun grp ->
                  let _, node_max, _ = List.nth grp (List.length grp - 1) in
                  build_arange t grp node_max)
                groups
            in
            build parents
      in
      let root = build leaves in
      set_ma_root t root;
      root

let default_free t a = Kcontext.free t.ctx a

(** Store [entry] over [lo, hi]. Old nodes of the previous tree shape are
    handed to [free] (defaults to immediate [Kmem.free]); pass
    [Krcu.call_rcu]-based deferral to reproduce StackRot. *)
let store_range ?free t ~lo ~hi entry =
  if lo < 0 || hi > mt_max || lo > hi then invalid_arg "Kmaple.store_range";
  let free = Option.value free ~default:(default_free t) in
  let old_nodes = t.live_nodes in
  t.live_nodes <- [];
  t.ranges <- shadow_store t.ranges ~lo ~hi entry;
  let _root = materialize t in
  List.iter free old_nodes

let erase_range ?free t ~lo ~hi = store_range ?free t ~lo ~hi 0

(* ------------------------------------------------------------------ *)
(* Read side: walks the real nodes (what a debugger would do) *)

(* Iterate the used slots of an encoded node spanning [node_min,node_max]:
   yields (lo, hi, raw_slot_value). *)
let iter_node ctx enc node_min node_max f =
  let n = to_node enc in
  let leafp = is_leaf enc in
  let nslots = if leafp then leaf_slots else arange_slots in
  let pivot i = if leafp then leaf_pivot ctx n i else ar_pivot ctx n i in
  let slot i = if leafp then leaf_slot ctx n i else ar_slot ctx n i in
  let rec go i lo =
    if i < nslots && lo <= node_max then begin
      let hi =
        if i >= nslots - 1 then node_max
        else
          let p = pivot i in
          if p = 0 then node_max else p
      in
      f lo hi (slot i);
      if hi < node_max then go (i + 1) (hi + 1)
    end
  in
  go 0 node_min

(** mas_walk: find the entry containing [index], reading real memory. *)
let walk ctx mt index =
  let root = r64 ctx mt "maple_tree" "ma_root" in
  if root = 0 then 0
  else if not (is_node root) then
    (* a direct root entry spans the whole space *)
    root
  else begin
    let result = ref 0 in
    let rec descend enc node_min node_max =
      iter_node ctx enc node_min node_max (fun lo hi v ->
          if index >= lo && index <= hi then
            if is_leaf enc then result := v
            else if is_node v then descend v lo hi
            else result := 0)
    in
    descend root 0 mt_max;
    !result
  end

(** All (lo, hi, entry) leaf ranges with non-NULL entries, in order,
    reading real memory. *)
let read_entries ctx mt =
  let root = r64 ctx mt "maple_tree" "ma_root" in
  if root = 0 then []
  else if not (is_node root) then [ (0, mt_max, root) ]
  else begin
    let acc = ref [] in
    let rec descend enc node_min node_max =
      iter_node ctx enc node_min node_max (fun lo hi v ->
          if is_leaf enc then (if v <> 0 then acc := (lo, hi, v) :: !acc)
          else if is_node v then descend v lo hi)
    in
    descend root 0 mt_max;
    List.rev !acc
  end

(** All live node addresses of the current tree, reading real memory. *)
let read_nodes ctx mt =
  let root = r64 ctx mt "maple_tree" "ma_root" in
  if not (is_node root) then []
  else begin
    let acc = ref [] in
    let rec descend enc node_min node_max =
      acc := to_node enc :: !acc;
      if not (is_leaf enc) then
        iter_node ctx enc node_min node_max (fun lo hi v ->
            if is_node v then descend v lo hi)
    in
    descend root 0 mt_max;
    List.rev !acc
  end

(* Structural sanity over the real nodes: pivot monotonicity (every
   slot's range is non-empty and inside its parent's bound) and encoded
   pointer tag validity (known node type, internal slots hold node
   pointers).  Non-raising and cycle-safe — a freed-and-reused node can
   point anywhere, which is exactly when this check matters. *)
let check ctx mt =
  let max_nodes = 65536 in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let root = r64 ctx mt "maple_tree" "ma_root" in
  if root = 0 || not (is_node root) then Ok 0
  else begin
    let seen = Hashtbl.create 64 in
    let count = ref 0 in
    let rec descend enc node_min node_max =
      let na = to_node enc in
      if Hashtbl.mem seen na then bad "maple: node cycle through 0x%x" na;
      Hashtbl.add seen na ();
      incr count;
      if !count > max_nodes then bad "maple: more than %d nodes (runaway structure)" max_nodes;
      let ty = node_type enc in
      if ty <> maple_leaf_64 && ty <> maple_range_64 && ty <> maple_arange_64 then
        bad "maple: encoded pointer 0x%x has invalid node type %d" enc ty;
      let leafp = is_leaf enc in
      iter_node ctx enc node_min node_max (fun lo hi v ->
          if hi < lo || hi > node_max then
            bad "maple: pivot order violated in node 0x%x (slot range [0x%x,0x%x], bound 0x%x)"
              na lo hi node_max;
          if not leafp then
            if v = 0 then ()
            else if not (is_node v) then
              bad "maple: internal node 0x%x slot holds non-node value 0x%x" na v
            else descend v lo hi)
    in
    match descend root 0 mt_max with
    | () -> Ok !count
    | exception Bad m -> Error m
  end

(** Tree height (number of node levels), reading real memory. *)
let read_height ctx mt =
  let root = r64 ctx mt "maple_tree" "ma_root" in
  if not (is_node root) then if root = 0 then 0 else 1
  else begin
    let rec go enc = if is_leaf enc then 1 else 1 + go (ar_slot ctx (to_node enc) 0) in
    go root
  end
