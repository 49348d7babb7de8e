(* Unit + property tests for the raw-memory kernel containers:
   list_head, hlist, rbtree, xarray. *)

let ctx () = Kcontext.create ()

(* ------------------------------------------------------------------ *)
(* list_head *)

let new_list_node c = Kcontext.alloc c "list_head"

let test_list_basic () =
  let c = ctx () in
  let head = new_list_node c in
  Klist.init c head;
  Alcotest.(check bool) "empty" true (Klist.is_empty c head);
  let n1 = new_list_node c and n2 = new_list_node c and n3 = new_list_node c in
  Klist.add_tail c head n1;
  Klist.add_tail c head n2;
  Klist.add c head n3;
  (* add = push front *)
  Alcotest.(check (list int)) "order" [ n3; n1; n2 ] (Klist.nodes c head);
  Alcotest.(check int) "length" 3 (Klist.length c head);
  Klist.del c n1;
  Alcotest.(check (list int)) "after del" [ n3; n2 ] (Klist.nodes c head)

let test_list_containers () =
  let c = ctx () in
  (* real kernel usage: tasks hanging off init's children *)
  let t1 = Kcontext.alloc c "task_struct" and t2 = Kcontext.alloc c "task_struct" in
  let head = new_list_node c in
  Klist.init c head;
  Klist.add_tail c head (Kcontext.fld c t1 "task_struct" "sibling");
  Klist.add_tail c head (Kcontext.fld c t2 "task_struct" "sibling");
  Alcotest.(check (list int)) "container_of recovery" [ t1; t2 ]
    (Klist.containers c head "task_struct" "sibling")

let prop_list_model =
  (* random add_tail/add/del sequences match a list model *)
  QCheck.Test.make ~name:"list matches model" ~count:100
    QCheck.(list (pair (int_bound 2) (int_bound 9)))
    (fun ops ->
      let c = ctx () in
      let head = new_list_node c in
      Klist.init c head;
      let nodes = Array.init 10 (fun _ -> new_list_node c) in
      let in_list = Array.make 10 false in
      let model = ref [] in
      List.iter
        (fun (op, i) ->
          match op with
          | 0 when not in_list.(i) ->
              Klist.add_tail c head nodes.(i);
              in_list.(i) <- true;
              model := !model @ [ nodes.(i) ]
          | 1 when not in_list.(i) ->
              Klist.add c head nodes.(i);
              in_list.(i) <- true;
              model := nodes.(i) :: !model
          | 2 when in_list.(i) ->
              Klist.del c nodes.(i);
              in_list.(i) <- false;
              model := List.filter (fun n -> n <> nodes.(i)) !model
          | _ -> ())
        ops;
      Klist.nodes c head = !model)

(* ------------------------------------------------------------------ *)
(* hlist *)

let test_hlist () =
  let c = ctx () in
  let head = Kcontext.alloc c "hlist_head" in
  Khlist.init_head c head;
  let n1 = Kcontext.alloc c "hlist_node" and n2 = Kcontext.alloc c "hlist_node" in
  Khlist.add_head c head n1;
  Khlist.add_head c head n2;
  Alcotest.(check (list int)) "LIFO order" [ n2; n1 ] (Khlist.nodes c head);
  Khlist.del c n2;
  Alcotest.(check (list int)) "after del head" [ n1 ] (Khlist.nodes c head);
  Khlist.del c n1;
  Alcotest.(check (list int)) "empty" [] (Khlist.nodes c head)

let test_hlist_del_middle () =
  let c = ctx () in
  let head = Kcontext.alloc c "hlist_head" in
  Khlist.init_head c head;
  let ns = List.init 5 (fun _ -> Kcontext.alloc c "hlist_node") in
  List.iter (Khlist.add_head c head) ns;
  let middle = List.nth ns 2 in
  Khlist.del c middle;
  Alcotest.(check int) "length" 4 (List.length (Khlist.nodes c head));
  Alcotest.(check bool) "gone" false (List.mem middle (Khlist.nodes c head))

(* ------------------------------------------------------------------ *)
(* rbtree: nodes embedded in sched_entity-like containers with int keys *)

(* We use sched_entity with vruntime as the key. *)
let se_key c se = Kcontext.r64 c se "sched_entity" "vruntime"

let insert_se c root key =
  let se = Kcontext.alloc c "sched_entity" in
  Kcontext.w64 c se "sched_entity" "vruntime" key;
  let node se = Kcontext.fld c se "sched_entity" "run_node" in
  let key_of n = se_key c (n - Kcontext.off c "sched_entity" "run_node") in
  let less a b = key_of a < key_of b in
  ignore (Krbtree.insert c root ~less (node se));
  se

let tree_keys c root =
  List.map (se_key c) (Krbtree.containers c root "sched_entity" "run_node")

let test_rbtree_insert_sorted () =
  let c = ctx () in
  let root = Kcontext.alloc c "rb_root" in
  let keys = [ 50; 20; 80; 10; 30; 70; 90; 25; 15 ] in
  List.iter (fun k -> ignore (insert_se c root k)) keys;
  Alcotest.(check (list int)) "inorder sorted" (List.sort compare keys) (tree_keys c root);
  ignore (Krbtree.validate c root)

let test_rbtree_erase () =
  let c = ctx () in
  let root = Kcontext.alloc c "rb_root" in
  let ses = List.map (fun k -> (k, insert_se c root k)) [ 5; 3; 8; 1; 4; 7; 9; 2; 6 ] in
  List.iter
    (fun (k, se) ->
      if k mod 2 = 0 then Krbtree.erase c root (Kcontext.fld c se "sched_entity" "run_node"))
    ses;
  Alcotest.(check (list int)) "odds remain" [ 1; 3; 5; 7; 9 ] (tree_keys c root);
  ignore (Krbtree.validate c root)

let test_rbtree_cached_leftmost () =
  let c = ctx () in
  let croot = Kcontext.alloc c "rb_root_cached" in
  let root = Krbtree.cached_root c croot in
  let node_of se = Kcontext.fld c se "sched_entity" "run_node" in
  let key_of n = se_key c (n - Kcontext.off c "sched_entity" "run_node") in
  let less a b = key_of a < key_of b in
  let mk k =
    let se = Kcontext.alloc c "sched_entity" in
    Kcontext.w64 c se "sched_entity" "vruntime" k;
    Krbtree.insert_cached c croot ~less (node_of se);
    se
  in
  let s30 = mk 30 in
  let s10 = mk 10 in
  ignore (mk 20);
  Alcotest.(check int) "leftmost = min" (node_of s10) (Krbtree.leftmost c croot);
  Krbtree.erase_cached c croot (node_of s10);
  Alcotest.(check int) "leftmost updated" 20 (key_of (Krbtree.leftmost c croot));
  ignore s30;
  ignore root

let prop_rbtree_model =
  QCheck.Test.make ~name:"rbtree random insert/erase keeps invariants" ~count:60
    QCheck.(list (pair bool (int_bound 1000)))
    (fun ops ->
      let c = ctx () in
      let root = Kcontext.alloc c "rb_root" in
      let live = Hashtbl.create 16 in
      List.iter
        (fun (ins, k) ->
          if ins then begin
            if not (Hashtbl.mem live k) then Hashtbl.replace live k (insert_se c root k)
          end
          else
            match Hashtbl.find_opt live k with
            | Some se ->
                Krbtree.erase c root (Kcontext.fld c se "sched_entity" "run_node");
                Hashtbl.remove live k
            | None -> ())
        ops;
      let expect = Hashtbl.fold (fun k _ acc -> k :: acc) live [] |> List.sort compare in
      ignore (Krbtree.validate c root);
      tree_keys c root = expect)

(* ------------------------------------------------------------------ *)
(* xarray *)

let test_xarray_direct_entry () =
  let c = ctx () in
  let xa = Kcontext.alloc c "xarray" in
  Kxarray.init c xa;
  Alcotest.(check int) "empty load" 0 (Kxarray.load c xa 0);
  Kxarray.store c xa 0 0x4000_0000_1000;
  Alcotest.(check int) "direct entry" 0x4000_0000_1000 (Kxarray.load c xa 0);
  (* storing at a higher index pushes the direct entry into a node *)
  Kxarray.store c xa 7 0x4000_0000_2000;
  Alcotest.(check int) "old entry kept" 0x4000_0000_1000 (Kxarray.load c xa 0);
  Alcotest.(check int) "new entry" 0x4000_0000_2000 (Kxarray.load c xa 7)

let test_xarray_multilevel () =
  let c = ctx () in
  let xa = Kcontext.alloc c "xarray" in
  Kxarray.init c xa;
  (* index 5000 needs two levels (64 * 64 = 4096 < 5000) *)
  Kxarray.store c xa 5000 0x4000_0000_3000;
  Kxarray.store c xa 3 0x4000_0000_4000;
  Alcotest.(check int) "high index" 0x4000_0000_3000 (Kxarray.load c xa 5000);
  Alcotest.(check int) "low index" 0x4000_0000_4000 (Kxarray.load c xa 3);
  Alcotest.(check int) "miss" 0 (Kxarray.load c xa 4999);
  Alcotest.(check (list (pair int int))) "entries sorted"
    [ (3, 0x4000_0000_4000); (5000, 0x4000_0000_3000) ]
    (Kxarray.entries c xa)

let test_xarray_tagging () =
  Alcotest.(check bool) "node tagged" true (Kxarray.is_node (Kxarray.mk_node 0x4000_0000_0000));
  Alcotest.(check bool) "plain ptr untagged" false (Kxarray.is_node 0x4000_0000_0000);
  Alcotest.(check int) "roundtrip" 0x4000_0000_0000
    (Kxarray.to_node (Kxarray.mk_node 0x4000_0000_0000))

let prop_xarray_model =
  QCheck.Test.make ~name:"xarray matches sparse-map model" ~count:60
    QCheck.(list (pair (int_bound 10_000) (int_bound 5)))
    (fun ops ->
      let c = ctx () in
      let xa = Kcontext.alloc c "xarray" in
      Kxarray.init c xa;
      let model = Hashtbl.create 16 in
      List.iter
        (fun (idx, v) ->
          (* values must look like aligned pointers *)
          let v = if v = 0 then 0 else Kmem.kernel_base + (v * 64) in
          Kxarray.store c xa idx v;
          if v = 0 then Hashtbl.remove model idx else Hashtbl.replace model idx v)
        ops;
      Hashtbl.fold (fun idx v acc -> acc && Kxarray.load c xa idx = v) model true
      && Kxarray.count c xa = Hashtbl.length model)

let suite =
  [ Alcotest.test_case "list basic ops" `Quick test_list_basic;
    Alcotest.test_case "list container_of" `Quick test_list_containers;
    QCheck_alcotest.to_alcotest prop_list_model;
    Alcotest.test_case "hlist" `Quick test_hlist;
    Alcotest.test_case "hlist del middle" `Quick test_hlist_del_middle;
    Alcotest.test_case "rbtree insert sorted" `Quick test_rbtree_insert_sorted;
    Alcotest.test_case "rbtree erase" `Quick test_rbtree_erase;
    Alcotest.test_case "rbtree cached leftmost" `Quick test_rbtree_cached_leftmost;
    QCheck_alcotest.to_alcotest prop_rbtree_model;
    Alcotest.test_case "xarray direct entry" `Quick test_xarray_direct_entry;
    Alcotest.test_case "xarray multilevel" `Quick test_xarray_multilevel;
    Alcotest.test_case "xarray pointer tagging" `Quick test_xarray_tagging;
    QCheck_alcotest.to_alcotest prop_xarray_model ]
