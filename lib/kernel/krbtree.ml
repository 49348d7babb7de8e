(** Kernel red-black trees ([struct rb_node]) on raw simulated memory.

    As in the kernel's [rbtree.h], a node's parent pointer and color share
    one word: [__rb_parent_color = parent | color] with RB_RED = 0 and
    RB_BLACK = 1. Nodes are embedded in enclosing objects (e.g.
    [sched_entity.run_node]) and ordered by a caller-provided comparison
    on node addresses. Insert and erase implement the standard rebalancing
    algorithm; [rb_root_cached] variants maintain the leftmost pointer the
    way CFS expects. *)

open Kcontext

type addr = Kmem.addr

let red = 0
let black = 1

let pc ctx n = r64 ctx n "rb_node" "__rb_parent_color"
let parent ctx n = pc ctx n land lnot 3
let color ctx n = if n = 0 then black else pc ctx n land 1
let left ctx n = r64 ctx n "rb_node" "rb_left"
let right ctx n = r64 ctx n "rb_node" "rb_right"
let set_left ctx n v = w64 ctx n "rb_node" "rb_left" v
let set_right ctx n v = w64 ctx n "rb_node" "rb_right" v
let set_pc ctx n p c = w64 ctx n "rb_node" "__rb_parent_color" (p lor c)
let set_parent ctx n p = set_pc ctx n p (color ctx n)
let set_color ctx n c = set_pc ctx n (parent ctx n) c

let root_node ctx root = r64 ctx root "rb_root" "rb_node"
let set_root_node ctx root n = w64 ctx root "rb_root" "rb_node" n

(* Replace the child link of [p] that pointed to [old] with [n]; if p = 0,
   [old] was the root. *)
let change_child ctx root p old n =
  if p = 0 then set_root_node ctx root n
  else if left ctx p = old then set_left ctx p n
  else set_right ctx p n

let rotate_left ctx root x =
  let y = right ctx x in
  let p = parent ctx x in
  set_right ctx x (left ctx y);
  if left ctx y <> 0 then set_parent ctx (left ctx y) x;
  set_left ctx y x;
  set_parent ctx y p;
  change_child ctx root p x y;
  set_parent ctx x y

let rotate_right ctx root x =
  let y = left ctx x in
  let p = parent ctx x in
  set_left ctx x (right ctx y);
  if right ctx y <> 0 then set_parent ctx (right ctx y) x;
  set_right ctx y x;
  set_parent ctx y p;
  change_child ctx root p x y;
  set_parent ctx x y

let rec insert_fixup ctx root n =
  let p = parent ctx n in
  if p = 0 then set_color ctx n black
  else if color ctx p = red then begin
    let g = parent ctx p in
    let u = if left ctx g = p then right ctx g else left ctx g in
    if color ctx u = red then begin
      set_color ctx p black;
      set_color ctx u black;
      set_color ctx g red;
      insert_fixup ctx root g
    end
    else if left ctx g = p then begin
      let n = if right ctx p = n then (rotate_left ctx root p; p) else n in
      let p = parent ctx n in
      let g = parent ctx p in
      set_color ctx p black;
      set_color ctx g red;
      rotate_right ctx root g
    end
    else begin
      let n = if left ctx p = n then (rotate_right ctx root p; p) else n in
      let p = parent ctx n in
      let g = parent ctx p in
      set_color ctx p black;
      set_color ctx g red;
      rotate_left ctx root g
    end
  end

(** Insert [node] into the tree rooted at the [rb_root] struct [root],
    ordered by [less] on node addresses. Returns [true] when the node
    became the leftmost node. *)
let insert ctx root ~less node =
  set_left ctx node 0;
  set_right ctx node 0;
  let rec descend cur lm =
    if less node cur then begin
      let l = left ctx cur in
      if l = 0 then begin
        set_left ctx cur node;
        (cur, lm)
      end
      else descend l lm
    end
    else begin
      let r = right ctx cur in
      if r = 0 then begin
        set_right ctx cur node;
        (cur, false)
      end
      else descend r false
    end
  in
  let leftmost =
    let r = root_node ctx root in
    if r = 0 then begin
      set_root_node ctx root node;
      set_pc ctx node 0 red;
      true
    end
    else begin
      let p, lm = descend r true in
      set_pc ctx node p red;
      lm
    end
  in
  insert_fixup ctx root node;
  leftmost

let rec leftmost_of ctx n = if n = 0 || left ctx n = 0 then n else leftmost_of ctx (left ctx n)

let first ctx root = leftmost_of ctx (root_node ctx root)

let next ctx n =
  if right ctx n <> 0 then leftmost_of ctx (right ctx n)
  else
    let rec up n =
      let p = parent ctx n in
      if p = 0 || left ctx p = n then p else up p
    in
    up n

(** Nodes in increasing order. *)
let nodes ctx root =
  let rec go n acc = if n = 0 then List.rev acc else go (next ctx n) (n :: acc) in
  go (first ctx root) []

let containers ctx root comp field =
  let o = off ctx comp field in
  List.map (fun n -> n - o) (nodes ctx root)

let rec erase_fixup ctx root x xp =
  (* [x] (possibly nil=0) carries an extra black; [xp] is its parent. *)
  if xp = 0 then (if x <> 0 then set_color ctx x black)
  else if color ctx x = red then set_color ctx x black
  else if left ctx xp = x then begin
    let w = right ctx xp in
    let w =
      if color ctx w = red then begin
        set_color ctx w black;
        set_color ctx xp red;
        rotate_left ctx root xp;
        right ctx xp
      end
      else w
    in
    if color ctx (left ctx w) = black && color ctx (right ctx w) = black then begin
      set_color ctx w red;
      erase_fixup ctx root xp (parent ctx xp)
    end
    else begin
      let w =
        if color ctx (right ctx w) = black then begin
          set_color ctx (left ctx w) black;
          set_color ctx w red;
          rotate_right ctx root w;
          right ctx xp
        end
        else w
      in
      set_color ctx w (color ctx xp);
      set_color ctx xp black;
      if right ctx w <> 0 then set_color ctx (right ctx w) black;
      rotate_left ctx root xp
    end
  end
  else begin
    let w = left ctx xp in
    let w =
      if color ctx w = red then begin
        set_color ctx w black;
        set_color ctx xp red;
        rotate_right ctx root xp;
        left ctx xp
      end
      else w
    in
    if color ctx (right ctx w) = black && color ctx (left ctx w) = black then begin
      set_color ctx w red;
      erase_fixup ctx root xp (parent ctx xp)
    end
    else begin
      let w =
        if color ctx (left ctx w) = black then begin
          set_color ctx (right ctx w) black;
          set_color ctx w red;
          rotate_left ctx root w;
          left ctx xp
        end
        else w
      in
      set_color ctx w (color ctx xp);
      set_color ctx xp black;
      if left ctx w <> 0 then set_color ctx (left ctx w) black;
      rotate_right ctx root xp
    end
  end

(** Remove [node] from the tree. *)
let erase ctx root node =
  let transplant u v =
    let p = parent ctx u in
    change_child ctx root p u v;
    if v <> 0 then set_parent ctx v p
  in
  let orig_color = ref (color ctx node) in
  let x, xp =
    if left ctx node = 0 then begin
      let x = right ctx node and xp = parent ctx node in
      transplant node x;
      (x, xp)
    end
    else if right ctx node = 0 then begin
      let x = left ctx node and xp = parent ctx node in
      transplant node x;
      (x, xp)
    end
    else begin
      let y = leftmost_of ctx (right ctx node) in
      orig_color := color ctx y;
      let x = right ctx y in
      let xp = if parent ctx y = node then y else parent ctx y in
      if parent ctx y <> node then begin
        transplant y x;
        set_right ctx y (right ctx node);
        set_parent ctx (right ctx y) y
      end;
      transplant node y;
      set_left ctx y (left ctx node);
      if left ctx y <> 0 then set_parent ctx (left ctx y) y;
      set_color ctx y (color ctx node);
      (x, xp)
    end
  in
  if !orig_color = black then erase_fixup ctx root x xp;
  set_pc ctx node 0 red;
  set_left ctx node 0;
  set_right ctx node 0

(* --------------------------------------------------------------- *)
(* rb_root_cached: the leftmost pointer CFS keeps for O(1) pick-next *)

let cached_root ctx croot = croot + off ctx "rb_root_cached" "rb_root"
let leftmost ctx croot = r64 ctx croot "rb_root_cached" "rb_leftmost"
let set_leftmost ctx croot v = w64 ctx croot "rb_root_cached" "rb_leftmost" v

let insert_cached ctx croot ~less node =
  let lm = insert ctx (cached_root ctx croot) ~less node in
  if lm then set_leftmost ctx croot node

let erase_cached ctx croot node =
  if leftmost ctx croot = node then set_leftmost ctx croot (next ctx node);
  erase ctx (cached_root ctx croot) node

(* --------------------------------------------------------------- *)
(* Validation (used by property tests) *)

(** Check red-black invariants; returns the black-height or raises. *)
let validate ctx root =
  let rec go n =
    if n = 0 then 1
    else begin
      if color ctx n = red && (color ctx (left ctx n) = red || color ctx (right ctx n) = red)
      then failwith "rbtree: red node with red child";
      if left ctx n <> 0 && parent ctx (left ctx n) <> n then failwith "rbtree: bad parent";
      if right ctx n <> 0 && parent ctx (right ctx n) <> n then failwith "rbtree: bad parent";
      let bl = go (left ctx n) and br = go (right ctx n) in
      if bl <> br then failwith "rbtree: black-height mismatch";
      bl + if color ctx n = black then 1 else 0
    end
  in
  let r = root_node ctx root in
  if r <> 0 && color ctx r <> black then failwith "rbtree: red root";
  go r

(* Non-raising, cycle-safe variant for the structural sanitizer: the
   tree under inspection may be arbitrarily corrupted (a child pointer
   looping back up, poison bytes as colors), so the walk carries a
   visited set and a node budget and reports instead of diverging. *)
let check ctx root =
  let max_nodes = 65536 in
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt in
  let seen = Hashtbl.create 64 in
  let budget = ref max_nodes in
  let rec go n =
    if n = 0 then 1
    else begin
      if Hashtbl.mem seen n then bad "rbtree: cycle through node 0x%x" n;
      Hashtbl.add seen n ();
      decr budget;
      if !budget < 0 then bad "rbtree: more than %d nodes (runaway structure)" max_nodes;
      if color ctx n = red && (color ctx (left ctx n) = red || color ctx (right ctx n) = red)
      then bad "rbtree: red node 0x%x has a red child" n;
      if left ctx n <> 0 && parent ctx (left ctx n) <> n then
        bad "rbtree: node 0x%x does not parent its left child" n;
      if right ctx n <> 0 && parent ctx (right ctx n) <> n then
        bad "rbtree: node 0x%x does not parent its right child" n;
      let bl = go (left ctx n) and br = go (right ctx n) in
      if bl <> br then bad "rbtree: black-height mismatch under 0x%x (%d vs %d)" n bl br;
      bl + if color ctx n = black then 1 else 0
    end
  in
  match
    let r = root_node ctx root in
    if r <> 0 && color ctx r <> black then bad "rbtree: red root 0x%x" r;
    go r
  with
  | bh -> Ok bh
  | exception Bad m -> Error m
