(** Kernel circular doubly-linked lists ([struct list_head]) operating on
    raw simulated memory. Nodes are embedded in enclosing objects and
    recovered with [container_of], as in the real kernel. *)

open Kcontext

type addr = Kmem.addr

let next ctx l = r64 ctx l "list_head" "next"
let prev ctx l = r64 ctx l "list_head" "prev"
let set_next ctx l v = w64 ctx l "list_head" "next" v
let set_prev ctx l v = w64 ctx l "list_head" "prev" v

let init ctx l =
  set_next ctx l l;
  set_prev ctx l l

let is_empty ctx l = next ctx l = l

let insert_between ctx node p n =
  set_next ctx p node;
  set_prev ctx node p;
  set_next ctx node n;
  set_prev ctx n node

let add ctx head node = insert_between ctx node head (next ctx head)
let add_tail ctx head node = insert_between ctx node (prev ctx head) head

let del ctx node =
  let p = prev ctx node and n = next ctx node in
  set_next ctx p n;
  set_prev ctx n p;
  (* LIST_POISON-style: a deleted node no longer points into the list. *)
  set_next ctx node 0;
  set_prev ctx node 0

(** All member nodes of [head], head excluded, in list order. *)
let nodes ctx head =
  let rec go n acc =
    if n = head || n = 0 then List.rev acc else go (next ctx n) (n :: acc)
  in
  go (next ctx head) []

let length ctx head = List.length (nodes ctx head)

(** Containers of the nodes of [head]: [container_of(node, comp, field)]. *)
let containers ctx head comp field =
  let o = off ctx comp field in
  List.map (fun n -> n - o) (nodes ctx head)
