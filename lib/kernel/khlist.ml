(** Kernel hash-list ([struct hlist_head] / [hlist_node]) on raw memory,
    used by the PID hash table and timer wheel buckets. *)

open Kcontext

type addr = Kmem.addr

let first ctx h = r64 ctx h "hlist_head" "first"
let node_next ctx n = r64 ctx n "hlist_node" "next"

let init_head ctx h = w64 ctx h "hlist_head" "first" 0

let add_head ctx h node =
  let f = first ctx h in
  w64 ctx node "hlist_node" "next" f;
  if f <> 0 then w64 ctx f "hlist_node" "pprev" (node + off ctx "hlist_node" "next");
  w64 ctx h "hlist_head" "first" node;
  w64 ctx node "hlist_node" "pprev" (h + off ctx "hlist_head" "first")

let del ctx node =
  let n = node_next ctx node and pprev = r64 ctx node "hlist_node" "pprev" in
  if pprev <> 0 then Kmem.write_u64 ctx.mem pprev n;
  if n <> 0 then w64 ctx n "hlist_node" "pprev" pprev;
  w64 ctx node "hlist_node" "next" 0;
  w64 ctx node "hlist_node" "pprev" 0

let nodes ctx h =
  let rec go n acc = if n = 0 then List.rev acc else go (node_next ctx n) (n :: acc) in
  go (first ctx h) []

let containers ctx h comp field =
  let o = off ctx comp field in
  List.map (fun n -> n - o) (nodes ctx h)

