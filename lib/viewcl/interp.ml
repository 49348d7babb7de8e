(** ViewCL interpreter: evaluates a program against a live {!Target},
    walking the runtime object graph and emitting a {!Vgraph} plot.

    Implements the paper's three simplification operators:
    - {b prune}: only declared Box items are extracted;
    - {b flatten}: dot-paths chase pointers across intermediate objects;
    - {b distill}: container constructors (List, RBTree, Array, XArray,
      MapleEntries) and converter methods ([Array.selectFrom]) turn linked
      structures into ordered sequences. *)

open Ast

(** Formatting configuration: bit-flag tables and emoji renderers used by
    the [flag:<id>] and [emoji:<id>] text decorators (Table 1). *)
type config = {
  flags : (string * (int * string) list) list;
  emojis : (string * (int -> string)) list;
}

let default_config = { flags = []; emojis = [] }

(** Traversal bounds for container iteration.  A corrupted kernel can
    present a circular list or a self-referential tree; extraction must
    truncate (recording a {!Target.fault.Truncated} fault, which marks
    the owning box broken) rather than hang or overflow the stack.
    [max_retries] bounds how often a box whose consistent section came
    back dirty (a writer raced the walk) is re-extracted before
    degrading to a [TORN] box. *)
type limits = { max_nodes : int; max_depth : int; max_retries : int }

let default_limits = { max_nodes = 4096; max_depth = 64; max_retries = 2 }

type value =
  | Vtgt of Target.value
  | Vbox of Vgraph.box_id
  | Vlist of value list
  | Vnull

type env = (string * value) list

(* ------------------------------------------------------------------ *)
(* The cross-run box memo (incremental re-plot).

   One entry per (definition name, address) — the same key the old
   per-run memo used, extended with everything needed to decide whether
   the box built last run is still a faithful snapshot:

   - [e_def]/[e_vhash]: the definition as built (view-hash identity —
     a redefined Box never reuses stale layouts);
   - [e_pages]: the stamps of the consistent section the box built
     under ({!Target.section_pages}).  A clean section's stamps cover
     exactly what the build read, and {!Target.pages_current} is a
     complete, lazy invalidation test over them;
   - [e_faulty]: set when the build recorded memory faults or closed
     dirty — degraded boxes are never reused, a refresh retries them.

   Within one run, [e_run = pc_run] doubles as the old memo-hit test
   (shared objects become shared boxes; cycles terminate).  Across
   runs, a valid entry is adopted — subtree and all — with zero reads;
   an invalid one is re-extracted IN PLACE under its existing box id. *)
type entry = {
  e_box : Vgraph.box_id;
  e_name : string;
  mutable e_run : int;  (* run stamp when last built or adopted *)
  mutable e_vhash : int;
  mutable e_def : boxdef;
  mutable e_pages : (int * int) list;
  mutable e_faulty : bool;
}

type plot_cache = {
  pc_graph : Vgraph.t;
  pc_entries : (string * int, entry) Hashtbl.t;
  pc_by_box : (Vgraph.box_id, entry) Hashtbl.t;
  mutable pc_run : int;
}

let create_cache () =
  { pc_graph = Vgraph.create (); pc_entries = Hashtbl.create 256;
    pc_by_box = Hashtbl.create 256; pc_run = 0 }

let cache_boxes c = Hashtbl.fold (fun id _ acc -> id :: acc) c.pc_by_box [] |> List.sort compare

let cache_pages c id =
  match Hashtbl.find_opt c.pc_by_box id with Some e -> e.e_pages | None -> []

let c_box_hits = Obs.Counter.make "cache.box_hits"
let c_box_misses = Obs.Counter.make "cache.box_misses"
let c_box_invalidated = Obs.Counter.make "cache.box_invalidated"

type state = {
  tgt : Target.t;
  cfg : config;
  graph : Vgraph.t;  (** = [cache.pc_graph] *)
  defs : (string, boxdef) Hashtbl.t;
  cache : plot_cache;
  reuse_ok : bool;
      (** cross-run reuse allowed: false while Kmem fault injection is
          armed (the injection LCG draws once per performed read, so
          skipping a subtree's reads would shift every later fault) *)
  bad : (Vgraph.box_id, unit) Hashtbl.t;  (** per-run invalid verdicts *)
  limits : limits;
  mutable box_budget : int;
  (* cache accounting for this run *)
  mutable hits : int;  (** boxes adopted from the previous run, zero reads *)
  mutable misses : int;  (** keys never built before *)
  mutable invalidated : int;  (** stale entries re-extracted in place *)
  mutable rebuilt : Vgraph.box_id list;  (** memoized boxes built this run *)
  (* snapshot-consistency accounting for the whole run *)
  mutable torn_sections : int;  (** consistent sections that came back dirty *)
  mutable retries : int;  (** re-extraction attempts performed *)
  mutable repaired : int;  (** boxes whose retry produced a clean snapshot *)
  mutable torn_boxes : int;  (** boxes degraded to [TORN] (budget exhausted) *)
}

let truncated st ~ctx a = Target.record_fault st.tgt (Target.Truncated { at = a; ctx })

let lookup env name = List.assoc_opt name env

(* ------------------------------------------------------------------ *)
(* Bridging ViewCL values into C expressions *)

let value_to_target st = function
  | Vtgt v -> v
  | Vbox id ->
      let b = Vgraph.get st.graph id in
      let ty = if Ctype.is_defined (Target.types st.tgt) b.Vgraph.btype then
          Ctype.Ptr (Ctype.Named b.Vgraph.btype)
        else Ctype.voidp
      in
      { Target.typ = ty; loc = Target.Rval b.Vgraph.addr }
  | Vnull -> Target.null_ptr
  | Vlist _ -> fail "cannot use a container value in a C expression"

let cexpr_env st env name =
  (* Identifiers written as [@x] inside ${...} resolve through the ViewCL
     environment. *)
  if String.length name > 0 && name.[0] = '@' then
    let n = String.sub name 1 (String.length name - 1) in
    match lookup env n with
    | Some v -> Some (value_to_target st v)
    | None -> fail "unbound ViewCL reference @%s in C expression" n
  else None

let eval_cexpr st env src =
  try Vtgt (Cexpr.eval_string ~env:(cexpr_env st env) st.tgt src) with
  | Cexpr.Parse_error m -> fail "in ${%s}: parse error: %s" src m
  | Cexpr.Eval_error m -> fail "in ${%s}: %s" src m
  | Invalid_argument m -> fail "in ${%s}: %s" src m

(* ------------------------------------------------------------------ *)
(* Value coercions *)

let addr_of_value st v =
  match v with
  | Vnull -> 0
  | Vbox id -> (Vgraph.get st.graph id).Vgraph.addr
  | Vtgt tv -> (
      match tv.Target.loc with
      | Target.Lval a when not (Ctype.is_pointer tv.Target.typ) -> a
      | _ -> Target.as_int st.tgt tv)
  | Vlist _ -> fail "container value has no address"

let int_of_value st = function
  | Vnull -> 0
  | Vtgt tv -> Target.as_int st.tgt tv
  | Vbox id -> (Vgraph.get st.graph id).Vgraph.addr
  | Vlist _ -> fail "container value is not an integer"

let is_null _st = function
  | Vnull -> true
  | Vtgt tv -> (
      match tv.Target.loc with
      | Target.Rval 0 -> true
      | Target.Rval _ | Target.Lval _ -> false
      | Target.Rstr _ -> false)
  | Vbox _ -> false
  | Vlist l -> l = []

(* ------------------------------------------------------------------ *)
(* Text decorators (Table 1) *)

let rec default_format st (tv : Target.value) =
  let tgt = st.tgt in
  match tv.Target.loc with
  | Target.Rstr s -> s
  | _ -> (
      match tv.Target.typ with
      | Ctype.Named n when Ctype.is_defined (Target.types tgt) n
                           && Ctype.kind_of (Target.types tgt) n = Ctype.Enum_kind ->
          let v = Target.as_int tgt tv in
          (match Ctype.enum_name_of (Target.types tgt) n v with
          | Some name -> name
          | None -> string_of_int v)
      | Ctype.Array (Ctype.Int { ik_size = 1; _ }, _) -> Target.as_string tgt tv
      | Ctype.Bool -> if Target.as_int tgt tv <> 0 then "true" else "false"
      | Ctype.Ptr (Ctype.Func _) -> format_fptr st (Target.as_int tgt tv)
      | Ctype.Ptr _ ->
          let a = Target.as_int tgt tv in
          if a = 0 then "NULL" else Printf.sprintf "0x%x" a
      | _ -> string_of_int (Target.as_int tgt tv))

and format_fptr st a =
  if a = 0 then "NULL"
  else
    match Target.lookup_helper st.tgt "func_name" with
    | Some h -> (
        match (h st.tgt [ Target.int_value a ]).Target.loc with
        | Target.Rstr s -> s
        | _ -> Printf.sprintf "0x%x" a)
    | None -> Printf.sprintf "0x%x" a

let format_flags st table_name v =
  match List.assoc_opt table_name st.cfg.flags with
  | None -> Printf.sprintf "0x%x" v
  | Some table ->
      let names = List.filter_map (fun (bit, n) -> if v land bit <> 0 then Some n else None) table in
      if names = [] then "0" else String.concat "|" names

let format_emoji st id v =
  match List.assoc_opt id st.cfg.emojis with
  | Some f -> f v
  | None -> string_of_int v

(** Format a target value under a decorator; also returns the raw fval
    recorded for ViewQL. *)
let format_value st dec (tv : Target.value) : string * Vgraph.fval =
  let tgt = st.tgt in
  let as_i () = Target.as_int tgt tv in
  match dec with
  | None -> (
      let s = default_format st tv in
      match tv.Target.loc with
      | Target.Rstr str -> (s, Vgraph.Fstr str)
      | _ -> (
          match tv.Target.typ with
          | Ctype.Ptr _ -> (s, Vgraph.Faddr (as_i ()))
          | Ctype.Array (Ctype.Int { ik_size = 1; _ }, _) -> (s, Vgraph.Fstr s)
          | Ctype.Bool -> (s, Vgraph.Fbool (as_i () <> 0))
          | Ctype.Named _ -> (s, Vgraph.Fstr s)
          | _ -> (s, Vgraph.Fint (as_i ()))))
  | Some parts -> (
      match parts with
      | [ "string" ] ->
          let s = Target.as_string tgt tv in
          (s, Vgraph.Fstr s)
      | [ "bool" ] ->
          let b = Target.truthy tgt tv in
          ((if b then "true" else "false"), Vgraph.Fbool b)
      | [ "char" ] ->
          let c = as_i () land 0xff in
          (Printf.sprintf "%C" (Char.chr c), Vgraph.Fint c)
      | [ "raw_ptr" ] -> (Printf.sprintf "0x%x" (as_i ()), Vgraph.Faddr (as_i ()))
      | [ "fptr" ] ->
          let a = as_i () in
          (format_fptr st a, Vgraph.Faddr a)
      | [ "enum"; ty ] -> (
          let v = as_i () in
          match Ctype.enum_name_of (Target.types tgt) ty v with
          | Some n -> (n, Vgraph.Fstr n)
          | None -> (string_of_int v, Vgraph.Fint v))
      | [ "flag"; table ] ->
          let v = as_i () in
          (format_flags st table v, Vgraph.Fint v)
      | [ "emoji"; id ] ->
          let v = as_i () in
          (format_emoji st id v, Vgraph.Fint v)
      | [ ik ] | [ ik; "d" ] when String.length ik > 0 ->
          let v = as_i () in
          (string_of_int v, Vgraph.Fint v)
      | [ _; "x" ] ->
          let v = as_i () in
          (Printf.sprintf "0x%x" v, Vgraph.Fint v)
      | [ _; "o" ] ->
          let v = as_i () in
          (Printf.sprintf "0o%o" v, Vgraph.Fint v)
      | [ _; "b" ] ->
          let v = as_i () in
          let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (string_of_int (v land 1) ^ acc) in
          ((if v = 0 then "0b0" else "0b" ^ bits v ""), Vgraph.Fint v)
      | parts -> fail "unknown text decorator <%s>" (String.concat ":" parts))

(* ------------------------------------------------------------------ *)
(* Containers *)

(* Container distillation spans: one per traversal, named after the
   constructor, so the trace shows where extraction time pools. *)
let distilled name f =
  if Obs.enabled () then Obs.with_span ~cat:"viewcl" name f else f ()

let iter_list st head_v =
  distilled "viewcl.distill.list" @@ fun () ->
  (* [head_v]: lvalue of (or pointer to) a list_head; yields node addrs. *)
  let tgt = st.tgt in
  let head =
    match head_v.Target.typ with
    | Ctype.Ptr _ -> Target.as_int tgt head_v
    | _ -> Target.addr_of head_v
  in
  let next a = Target.as_int tgt (Target.member tgt (Target.obj (Ctype.Named "list_head") a) "next") in
  let seen = Hashtbl.create 64 in
  let rec go a acc n =
    if a = head || a = 0 then List.rev acc
    else if
      Hashtbl.mem seen a || n >= st.limits.max_nodes
      || Target.deadline_exceeded st.tgt
    then begin
      truncated st ~ctx:"List traversal" a;
      List.rev acc
    end
    else begin
      Hashtbl.add seen a ();
      go (next a) (Vtgt (Target.ptr_to (Ctype.Named "list_head") a) :: acc) (n + 1)
    end
  in
  go (next head) [] 0

let iter_hlist st head_v =
  distilled "viewcl.distill.hlist" @@ fun () ->
  let tgt = st.tgt in
  let head =
    match head_v.Target.typ with
    | Ctype.Ptr _ -> Target.as_int tgt head_v
    | _ -> Target.addr_of head_v
  in
  let first = Target.as_int tgt (Target.member tgt (Target.obj (Ctype.Named "hlist_head") head) "first") in
  let next a = Target.as_int tgt (Target.member tgt (Target.obj (Ctype.Named "hlist_node") a) "next") in
  let seen = Hashtbl.create 64 in
  let rec go a acc n =
    if a = 0 then List.rev acc
    else if
      Hashtbl.mem seen a || n >= st.limits.max_nodes
      || Target.deadline_exceeded st.tgt
    then begin
      truncated st ~ctx:"HList traversal" a;
      List.rev acc
    end
    else begin
      Hashtbl.add seen a ();
      go (next a) (Vtgt (Target.ptr_to (Ctype.Named "hlist_node") a) :: acc) (n + 1)
    end
  in
  go first [] 0

let iter_rbtree st root_v =
  distilled "viewcl.distill.rbtree" @@ fun () ->
  (* Accepts rb_root, rb_root_cached, or pointers to either. *)
  let tgt = st.tgt in
  let v = match root_v.Target.typ with Ctype.Ptr _ -> Target.deref tgt root_v | _ -> root_v in
  let root =
    match v.Target.typ with
    | Ctype.Named "rb_root_cached" -> Target.member tgt v "rb_root"
    | _ -> v
  in
  let node a = Target.obj (Ctype.Named "rb_node") a in
  let get f a = Target.as_int tgt (Target.member tgt (node a) f) in
  let seen = Hashtbl.create 64 in
  let rec inorder a depth acc =
    if a = 0 then acc
    else if
      Hashtbl.mem seen a || depth > st.limits.max_depth
      || Target.deadline_exceeded st.tgt
    then begin
      truncated st ~ctx:"RBTree traversal" a;
      acc
    end
    else begin
      Hashtbl.add seen a ();
      inorder (get "rb_left" a) (depth + 1)
        (Vtgt (Target.ptr_to (Ctype.Named "rb_node") a) :: inorder (get "rb_right" a) (depth + 1) acc)
    end
  in
  let top = Target.as_int tgt (Target.member tgt root "rb_node") in
  inorder top 0 []

let iter_array st args =
  distilled "viewcl.distill.array" @@ fun () ->
  let tgt = st.tgt in
  match args with
  | [ arr ] -> (
      match arr with
      | Vtgt ({ Target.typ = Ctype.Array (elt, n); _ } as tv) ->
          List.init n (fun i -> Vtgt (Target.load tgt (Target.index tgt tv i)))
          |> List.map (fun v -> (v, elt))
          |> List.map fst
      | _ -> fail "Array(..) expects an array lvalue (or Array(ptr, count))")
  | [ ptr; count ] -> (
      let n = int_of_value st count in
      match ptr with
      | Vtgt tv when Ctype.is_pointer tv.Target.typ ->
          List.init n (fun i -> Vtgt (Target.load tgt (Target.index tgt tv i)))
      | _ -> fail "Array(ptr, count) expects a pointer")
  | _ -> fail "Array takes 1 or 2 arguments"

let iter_xarray st xa_v =
  distilled "viewcl.distill.xarray" @@ fun () ->
  (* Yields entry values of an xarray, in index order. *)
  let tgt = st.tgt in
  let xa = match xa_v.Target.typ with Ctype.Ptr _ -> Target.deref tgt xa_v | _ -> xa_v in
  let head = Target.as_int tgt (Target.member tgt xa "xa_head") in
  let is_node e = e land 3 = 2 && e > 4096 in
  let acc = ref [] in
  let seen = Hashtbl.create 64 in
  let rec walk e depth =
    if e <> 0 then
      if not (is_node e) then acc := Vtgt (Target.ptr_to Ctype.Void e) :: !acc
      else begin
        let na = e land lnot 3 in
        if
          Hashtbl.mem seen na || depth > st.limits.max_depth
          || Target.deadline_exceeded st.tgt
        then truncated st ~ctx:"XArray traversal" na
        else begin
          Hashtbl.add seen na ();
          let n = Target.obj (Ctype.Named "xa_node") na in
          let shift = Target.as_int tgt (Target.member tgt n "shift") in
          let slots = Target.member tgt n "slots" in
          for i = 0 to 63 do
            let child = Target.as_int tgt (Target.load tgt (Target.index tgt slots i)) in
            if child <> 0 then
              if shift = 0 then acc := Vtgt (Target.ptr_to Ctype.Void child) :: !acc
              else walk child (depth + 1)
          done
        end
      end
  in
  walk head 0;
  List.rev !acc

let iter_maple st mt_v =
  distilled "viewcl.distill.maple" @@ fun () ->
  (* Yields the non-NULL leaf entries of a maple tree, in range order:
     reads pivots and slots from the real nodes via the target. *)
  let tgt = st.tgt in
  let mt = match mt_v.Target.typ with Ctype.Ptr _ -> Target.deref tgt mt_v | _ -> mt_v in
  let root = Target.as_int tgt (Target.member tgt mt "ma_root") in
  let mt_max = (1 lsl 56) - 1 in
  let is_node e = e land 2 <> 0 && e > 4096 in
  let to_node e = e land lnot 0xff in
  let node_type e = (e lsr 3) land 0xf in
  let acc = ref [] in
  let seen = Hashtbl.create 64 in
  let rec descend enc node_min node_max depth =
    let na = to_node enc in
    if
      Hashtbl.mem seen na || depth > st.limits.max_depth
      || Target.deadline_exceeded st.tgt
    then truncated st ~ctx:"MapleEntries traversal" na
    else begin
      Hashtbl.add seen na ();
      let leaf = node_type enc = 1 in
      let node = Target.obj (Ctype.Named "maple_node") na in
      let sub = Target.member tgt node (if leaf then "mr64" else "ma64") in
      let pivots = Target.member tgt sub "pivot" in
      let slots = Target.member tgt sub "slot" in
      let nslots = if leaf then 16 else 10 in
      let rec go i lo =
        if i < nslots && lo <= node_max then begin
          let hi =
            if i >= nslots - 1 then node_max
            else
              let p = Target.as_int tgt (Target.load tgt (Target.index tgt pivots i)) in
              if p = 0 then node_max else p
          in
          let v = Target.as_int tgt (Target.load tgt (Target.index tgt slots i)) in
          (if leaf then (if v <> 0 then acc := Vtgt (Target.ptr_to Ctype.Void v) :: !acc)
           else if is_node v then descend v lo hi (depth + 1));
          if hi < node_max then go (i + 1) (hi + 1)
        end
      in
      go 0 node_min
    end
  in
  if root <> 0 then
    if is_node root then descend root 0 mt_max 0
    else acc := [ Vtgt (Target.ptr_to Ctype.Void root) ];
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Core evaluation *)

let max_boxes = 20_000

let rec eval st env e : value =
  match e with
  | Cexpr src -> eval_cexpr st env src
  | Ref name -> (
      match lookup env name with
      | Some v -> v
      | None -> fail "unbound reference @%s" name)
  | Null_lit -> Vnull
  | Int_lit n -> Vtgt (Target.int_value n)
  | Str_lit s -> Vtgt (Target.str_value s)
  | Switch { scrutinee; cases; otherwise } -> (
      let sv = eval st env scrutinee in
      let matches case_v =
        match (sv, case_v) with
        | Vtgt { Target.loc = Target.Rstr a; _ }, Vtgt { Target.loc = Target.Rstr b; _ } -> a = b
        | a, b -> int_of_value st a = int_of_value st b
      in
      let rec try_cases = function
        | [] -> (
            match otherwise with
            | Some e -> eval st env e
            | None -> Vnull)
        | (labels, body) :: rest ->
            if List.exists (fun l -> matches (eval st env l)) labels then eval st env body
            else try_cases rest
      in
      try_cases cases)
  | For_each { src; var; body } ->
      let subject, elems = eval_iterable st env src in
      let members =
        List.concat_map
          (fun elem ->
            let env = (var, elem) :: env in
            let _, yields =
              List.fold_left
                (fun (env, acc) stmt ->
                  match stmt with
                  | Bind (n, e) -> ((n, eval st env e) :: env, acc)
                  | Yield e -> (env, eval st env e :: acc))
                (env, []) body
            in
            List.rev yields)
          elems
      in
      make_container st ?subject (container_label src) members
  | Apply { name; anchor; args } -> eval_apply st env name anchor args
  | Method { recv = "Array"; meth = "selectFrom"; args } -> (
      match args with
      | [ src; Str_lit def ] ->
          let srcv = eval st env src in
          let seeds = match srcv with Vbox id -> [ id ] | _ -> fail "selectFrom expects a box" in
          let ids = Vgraph.reachable st.graph seeds in
          let members =
            List.filter_map
              (fun id ->
                let b = Vgraph.get st.graph id in
                if b.Vgraph.bdef = def then Some (Vbox id) else None)
              ids
          in
          make_container st "Array" members
      | _ -> fail "Array.selectFrom(box, BoxDef)")
  | Method { recv; meth; _ } -> fail "unknown method %s.%s" recv meth
  | Anon_box { items; where } ->
      let this = match lookup env "this" with Some v -> v | None -> Vnull in
      build_box st env ~bdef:"" ~btype:"" ~addr:(match this with Vnull -> 0 | v -> addr_of_value st v)
        ~views:[ { vname = "default"; vparent = None; vitems = items; vwhere = [] } ]
        ~bwhere:where

and container_label = function
  | Apply { name; _ } -> name
  | Method { recv; _ } -> recv
  | Cexpr _ -> "Array"
  | _ -> "Container"

(* The struct the container constructor walked, as (type, address) —
   recorded on the container box so {!Sanity} checkers can re-validate
   the real structure behind it. *)
and subject_of st tv =
  match
    let v = match tv.Target.typ with Ctype.Ptr _ -> Target.deref st.tgt tv | _ -> tv in
    match v.Target.typ with
    | Ctype.Named n -> Some (n, Target.addr_of v)
    | _ -> None
  with
  | Some (_, 0) | None -> None
  | s -> s
  | exception _ -> None

and eval_iterable st env e : (string * int) option * value list =
  match e with
  | Apply { name = "List"; args; _ } ->
      let tv = target_arg st env args in
      (subject_of st tv, iter_list st tv)
  | Apply { name = "HList"; args; _ } ->
      let tv = target_arg st env args in
      (subject_of st tv, iter_hlist st tv)
  | Apply { name = "RBTree"; args; _ } ->
      let tv = target_arg st env args in
      (subject_of st tv, iter_rbtree st tv)
  | Apply { name = "XArray"; args; _ } ->
      let tv = target_arg st env args in
      (subject_of st tv, iter_xarray st tv)
  | Apply { name = "MapleEntries"; args; _ } ->
      let tv = target_arg st env args in
      (subject_of st tv, iter_maple st tv)
  | Apply { name = "Array"; args; _ } -> (None, iter_array st (List.map (eval st env) args))
  | Apply { name = "Range"; args = [ a; b ]; _ } ->
      let lo = int_of_value st (eval st env a) and hi = int_of_value st (eval st env b) in
      (None, List.init (max 0 (hi - lo)) (fun i -> Vtgt (Target.int_value (lo + i))))
  | _ -> (
      match eval st env e with
      | Vlist l -> (None, l)
      | Vbox id -> (None, List.map (fun m -> Vbox m) (Vgraph.get st.graph id).Vgraph.members)
      | v -> fail "cannot iterate over %s" (value_kind v))

and value_kind = function
  | Vtgt _ -> "a C value"
  | Vbox _ -> "a box"
  | Vlist _ -> "a container"
  | Vnull -> "NULL"

and target_arg st env args =
  match args with
  | [ a ] -> (
      match eval st env a with
      | Vtgt tv -> tv
      | Vnull -> Target.null_ptr
      | v -> fail "container constructor expects a C value, got %s" (value_kind v))
  | _ -> fail "container constructor expects one argument"

and make_container st ?subject label members =
  let ids =
    List.filter_map
      (function
        | Vbox id -> Some id
        | Vnull -> None
        | Vtgt tv when (match tv.Target.loc with Target.Rval 0 -> true | _ -> false) -> None
        | v -> fail "yield produced %s, expected a box" (value_kind v))
      members
  in
  let addr = match subject with Some (_, a) -> a | None -> 0 in
  let b = Vgraph.add_box st.graph ~btype:label ~bdef:"" ~addr ~size:0 ~container:true in
  (match subject with
  | Some (t, _) ->
      b.Vgraph.attrs.Vgraph.extra <- ("subject", t) :: b.Vgraph.attrs.Vgraph.extra
  | None -> ());
  b.Vgraph.members <- ids;
  Vgraph.set_view b "default" [];
  Vbox b.Vgraph.id

and eval_apply st env name anchor args =
  match Hashtbl.find_opt st.defs name with
  | Some def -> (
      (* Box construction. *)
      let argv = match args with [ a ] -> eval st env a | _ -> fail "%s(expr) takes one argument" name in
      if is_null st argv then Vnull
      else begin
        let addr = addr_of_value st argv in
        let addr =
          match anchor with
          | None -> addr
          | Some path ->
              (* container_of through the anchor path *)
              let comp, rest =
                match String.index_opt path '.' with
                | Some i -> (String.sub path 0 i, String.sub path (i + 1) (String.length path - i - 1))
                | None -> fail "anchor %S must be type.field" path
              in
              addr - Ctype.offsetof (Target.types st.tgt) comp rest
        in
        match cached_box st name def addr with
        | Some v -> v
        | None ->
            let this = Vtgt (Target.obj (Ctype.Named def.bctype) addr) in
            build_box st (("this", this) :: env) ~def ~bdef:name ~btype:def.bctype ~addr
              ~views:def.bviews ~bwhere:def.bwhere
      end)
  | None -> (
      (* Bare container constructors used without forEach: produce a plain
         container of raw entries is meaningless; treat as error except for
         known iterables which someone may bind then forEach later. *)
      match name with
      | "List" | "HList" | "RBTree" | "Array" | "XArray" | "MapleEntries" | "Range" ->
          Vlist (snd (eval_iterable st env (Apply { name; anchor; args })))
      | _ -> fail "unknown box definition or container %S" name)

(* The incremental-replot dispatch.  Three outcomes:
   - the entry was built (or adopted) earlier THIS run: plain memo hit,
     shared objects become shared boxes and cycles terminate;
   - the entry survives from a previous run and its whole subtree still
     matches live memory: {!adopt} it — the subtree is reused with
     zero target reads;
   - otherwise fall through to a rebuild, which happens in place under
     the existing box id so reused neighbours' links stay valid. *)
and cached_box st name def addr =
  match Hashtbl.find_opt st.cache.pc_entries (name, addr) with
  | None ->
      st.misses <- st.misses + 1;
      if Obs.enabled () then Obs.Counter.incr c_box_misses;
      None
  | Some e when e.e_run = st.cache.pc_run -> Some (Vbox e.e_box)
  | Some e ->
      if st.reuse_ok && e.e_vhash = Hashtbl.hash def && e.e_def = def && adopt st e
      then Some (Vbox e.e_box)
      else begin
        st.invalidated <- st.invalidated + 1;
        if Obs.enabled () then Obs.Counter.incr c_box_invalidated;
        None
      end

(* Adopt the subtree under [root_e] if every box reachable from it is
   still a faithful snapshot.  A memoized box is fresh when the page
   stamps its consistent section recorded are still current
   ({!Target.pages_current}) and it did not degrade ([e_faulty]).
   Containers without entries are walked through — their membership
   reads happened inside the enclosing box's section, so the enclosing
   stamps already cover them.  Anything else unmemoized (anon boxes own
   their reads but record no stamps) is conservatively stale.  Entries
   already stamped with the current run were rebuilt or adopted moments
   ago and need no descent.  One walk validates and collects; only a
   subtree that passes whole is stamped with the current run, each
   adopted box counting as a cache hit.  A failed root is remembered in
   [st.bad] so a later reference fails without a walk. *)
and adopt st root_e =
  let run = st.cache.pc_run in
  let seen = Hashtbl.create 32 in
  let rec walk fresh = function
    | [] -> Some fresh
    | id :: rest when Hashtbl.mem seen id -> walk fresh rest
    | id :: rest -> (
        Hashtbl.add seen id ();
        if Hashtbl.mem st.bad id then None
        else
          match (Hashtbl.find_opt st.cache.pc_by_box id, Vgraph.find st.graph id) with
          | _, None -> None
          | Some e, Some _ when e.e_run = run -> walk fresh rest
          | Some e, Some b ->
              if e.e_faulty || not (Target.pages_current st.tgt e.e_pages) then None
              else walk (e :: fresh) (List.rev_append (Vgraph.child_ids b) rest)
          | None, Some b when b.Vgraph.container ->
              walk fresh (List.rev_append (Vgraph.child_ids b) rest)
          | None, Some _ -> None)
  in
  match walk [] [ root_e.e_box ] with
  | None ->
      Hashtbl.replace st.bad root_e.e_box ();
      false
  | Some fresh ->
      List.iter
        (fun e ->
          e.e_run <- run;
          st.hits <- st.hits + 1;
          if Obs.enabled () then Obs.Counter.incr c_box_hits)
        fresh;
      true

and effective_items def_views vname =
  (* Resolve view inheritance: parent items first. *)
  let rec items_of vname seen =
    if List.mem vname seen then fail "view inheritance cycle at :%s" vname;
    match List.find_opt (fun v -> v.vname = vname) def_views with
    | None -> fail "no view :%s" vname
    | Some v -> (
        let own = (v.vitems, v.vwhere) in
        match v.vparent with
        | None -> [ own ]
        | Some p -> items_of p (vname :: seen) @ [ own ])
  in
  items_of vname []

and build_box ?def st env ~bdef ~btype ~addr ~views ~bwhere =
  if not (Obs.enabled ()) then build_box_raw ?def st env ~bdef ~btype ~addr ~views ~bwhere
  else
    Obs.with_span ~cat:"viewcl"
      ~attrs:
        [ ("def", (if bdef = "" then "(anon)" else bdef));
          ("type", btype); ("addr", Printf.sprintf "0x%x" addr) ]
      "viewcl.box"
      (fun () -> build_box_raw ?def st env ~bdef ~btype ~addr ~views ~bwhere)

and build_box_raw ?def st env ~bdef ~btype ~addr ~views ~bwhere =
  if st.box_budget <= 0 then fail "plot exceeds %d boxes; refine the ViewCL program" max_boxes;
  st.box_budget <- st.box_budget - 1;
  let size =
    if btype <> "" && Ctype.is_defined (Target.types st.tgt) btype then
      Ctype.sizeof (Target.types st.tgt) (Ctype.Named btype)
    else 0
  in
  (* An invalidated entry rebuilds IN PLACE: the box keeps its id, so
     links into it from adopted neighbours stay valid.  The entry is
     stamped with the current run BEFORE building so cyclic references
     back into this box hit the within-run path of {!cached_box},
     exactly like the old per-run memo. *)
  let b, entry =
    let reuse =
      if bdef = "" then None
      else
        match Hashtbl.find_opt st.cache.pc_entries (bdef, addr) with
        | Some e -> (
            match Vgraph.find st.graph e.e_box with
            | Some b when b.Vgraph.btype = btype && b.Vgraph.size = size -> Some (b, e)
            | Some _ | None ->
                (* The definition changed its C type since the entry was
                   built: btype/size are frozen at add_box and indexed
                   by name, so in-place reuse would leave the box (and
                   the by_name index) lying about its type.  Drop the
                   entry and allocate a fresh box below; the orphaned
                   box is unreachable and swept at end of run. *)
                Hashtbl.remove st.cache.pc_entries (bdef, addr);
                Hashtbl.remove st.cache.pc_by_box e.e_box;
                None)
        | None -> None
    in
    match reuse with
    | Some (b, e) ->
        Vgraph.reset_box b;
        (b, Some e)
    | None -> (
        let b = Vgraph.add_box st.graph ~btype ~bdef ~addr ~size ~container:false in
        match def with
        | Some d when bdef <> "" ->
            let e =
              { e_box = b.Vgraph.id; e_name = bdef; e_run = 0; e_vhash = Hashtbl.hash d;
                e_def = d; e_pages = []; e_faulty = false }
            in
            Hashtbl.replace st.cache.pc_entries (bdef, addr) e;
            Hashtbl.replace st.cache.pc_by_box e.e_box e;
            (b, Some e)
        | _ -> (b, None))
  in
  (match entry with
  | Some e ->
      e.e_run <- st.cache.pc_run;
      (* Poisoned until the extraction below completes: if the run
         raises out of build_box_raw (box budget, eval error), the
         half-built box must never pass {!adopt}'s check on its stale
         page stamps and be adopted by a later refresh as a faithful
         snapshot.  A clean extract restores validity at the end. *)
      e.e_faulty <- true
  | None -> ());
  (* Graceful degradation: collect the memory faults hit while building
     THIS box (nested boxes keep theirs — with_faults nests).  A faulting
     box stays in the plot, visibly broken, instead of aborting the
     extraction; ViewCL program errors (fail/Viewcl.Error) still abort. *)
  let build () =
    (* box-level where bindings *)
    let env = eval_bindings st env bwhere in
    (* Each declared view gets its items (inherited views prepended). *)
    List.iter
      (fun v ->
        let chains = effective_items views v.vname in
        let items =
          List.concat_map
            (fun (vitems, vwhere) ->
              let venv = eval_bindings st env vwhere in
              List.concat_map (eval_item st venv b) vitems)
            chains
        in
        Vgraph.set_view b v.vname items)
      views
  in
  (* Snapshot consistency: build inside a consistent section and, when a
     writer raced it (dirty pages at section end), discard the views and
     re-extract up to [max_retries] times.  Nested boxes own their reads
     (sections nest innermost-only) and are memoized, so a retry re-reads
     only THIS box's ranges.  [end_consistent] runs inside [with_faults]
     so the Torn faults belong to this box, not its parent. *)
  let attempt () =
    Target.with_faults st.tgt (fun () ->
        let sec = Target.begin_consistent st.tgt in
        match build () with
        | () ->
            let dirty = Target.end_consistent st.tgt sec in
            (dirty, Target.section_pages sec)
        | exception e ->
            ignore (Target.end_consistent st.tgt sec);
            raise e)
  in
  let rec extract n =
    let (dirty, pages), box_faults = attempt () in
    if dirty = [] then begin
      if n > 0 then st.repaired <- st.repaired + 1;
      (dirty, pages, box_faults)
    end
    else begin
      st.torn_sections <- st.torn_sections + 1;
      if n < st.limits.max_retries then begin
        st.retries <- st.retries + 1;
        b.Vgraph.views <- [];
        extract (n + 1)
      end
      else begin
        st.torn_boxes <- st.torn_boxes + 1;
        (dirty, pages, box_faults)
      end
    end
  in
  let dirty, pages, box_faults = extract 0 in
  (* Torn faults degrade to a [TORN] tag below, not a [BROKEN] one. *)
  let mem_faults = List.filter (function Target.Torn _ -> false | _ -> true) box_faults in
  (match mem_faults with
  | [] -> ()
  | f :: _ ->
      let n = List.length mem_faults in
      let reason = Target.fault_to_string f in
      let reason = if n > 1 then Printf.sprintf "%s (+%d more)" reason (n - 1) else reason in
      Vgraph.mark_broken b reason;
      b.Vgraph.views <-
        List.map
          (fun (vn, items) ->
            (vn, items @ [ Vgraph.Text { label = "!fault"; value = reason; raw = Vgraph.Fstr reason } ]))
          b.Vgraph.views);
  (match dirty with
  | [] -> ()
  | (lo, hi) :: more ->
      let reason =
        Printf.sprintf "raced by a writer: [0x%x,0x%x)%s still dirty after %d retries" lo hi
          (match more with [] -> "" | _ -> Printf.sprintf " (+%d more ranges)" (List.length more))
          st.limits.max_retries
      in
      Vgraph.mark_torn b reason;
      b.Vgraph.views <-
        List.map
          (fun (vn, items) ->
            (vn, items @ [ Vgraph.Text { label = "!torn"; value = reason; raw = Vgraph.Fstr reason } ]))
          b.Vgraph.views);
  (match entry with
  | None -> ()
  | Some e ->
      (match def with
      | Some d ->
          e.e_vhash <- Hashtbl.hash d;
          e.e_def <- d
      | None -> ());
      e.e_pages <- pages;
      e.e_faulty <- mem_faults <> [] || dirty <> [];
      st.rebuilt <- b.Vgraph.id :: st.rebuilt);
  Vbox b.Vgraph.id

and eval_bindings st env bindings =
  List.fold_left (fun env (n, e) -> (n, eval st env e) :: env) env bindings

and eval_item st env box it : Vgraph.item list =
  let this () =
    match lookup env "this" with
    | Some (Vtgt tv) -> tv
    | _ -> fail "no @this in scope for a path item"
  in
  match it with
  | I_text { dec; specs } ->
      List.map
        (fun { label; source } ->
          let tv =
            match source with
            | Path p -> Target.load st.tgt (Target.member_path st.tgt (this ()) p)
            | Texpr e -> (
                match eval st env e with
                | Vtgt tv -> tv
                | Vnull -> Target.null_ptr
                | Vbox id -> Target.int_value (Vgraph.get st.graph id).Vgraph.addr
                | Vlist _ -> fail "Text cannot display a container")
          in
          let text, raw = format_value st dec tv in
          Vgraph.record_field box label raw;
          Vgraph.Text { label; value = text; raw })
        specs
  | I_link { label; target } -> (
      match eval st env target with
      | Vnull ->
          Vgraph.record_field box label (Vgraph.Faddr 0);
          [ Vgraph.Link { label; target = None } ]
      | Vbox id ->
          Vgraph.record_field box label (Vgraph.Faddr (Vgraph.get st.graph id).Vgraph.addr);
          [ Vgraph.Link { label; target = Some id } ]
      | Vtgt tv when (match tv.Target.loc with Target.Rval 0 -> true | _ -> false) ->
          Vgraph.record_field box label (Vgraph.Faddr 0);
          [ Vgraph.Link { label; target = None } ]
      | Vtgt _ -> fail "Link %s must point at a box (or NULL)" label
      | Vlist _ -> fail "Link %s points at a container; use Container" label)
  | I_container { label; target } -> (
      match eval st env target with
      | Vbox id -> [ Vgraph.Inline { label; target = id } ]
      | Vlist members -> (
          match make_container st "Array" members with
          | Vbox id -> [ Vgraph.Inline { label; target = id } ]
          | _ -> assert false)
      | Vnull -> [ Vgraph.Text { label; value = "(empty)"; raw = Vgraph.Fstr "" } ]
      | Vtgt _ -> fail "Container %s expects a container value" label)

(* ------------------------------------------------------------------ *)
(* Program execution *)

type result = {
  graph : Vgraph.t;
  plots : Vgraph.box_id list;
  torn : int;  (** consistent sections that closed dirty (writer raced the walk) *)
  retried : int;  (** box re-extraction attempts performed *)
  repaired : int;  (** boxes whose retry produced a clean snapshot *)
  torn_boxes : int;  (** boxes degraded to [TORN] after the retry budget *)
  cache : plot_cache;  (** pass back to {!run_exn} for an incremental re-plot *)
  cache_hits : int;  (** boxes adopted from the previous run with zero reads *)
  cache_misses : int;  (** (def, addr) keys never built before *)
  cache_invalidated : int;  (** stale entries re-extracted in place *)
  rebuilt : Vgraph.box_id list;  (** memoized boxes extracted this run, ascending *)
}

let run_exn ?(cfg = default_config) ?(defs = []) ?(limits = default_limits) ?cache tgt program =
  Obs.with_span ~cat:"viewcl"
    ~attrs:[ ("stmts", string_of_int (List.length program)) ]
    "viewcl.run"
  @@ fun () ->
  let cache = match cache with Some c -> c | None -> create_cache () in
  cache.pc_run <- cache.pc_run + 1;
  let saved_roots = Vgraph.roots cache.pc_graph in
  Vgraph.clear_roots cache.pc_graph;
  let st =
    { tgt; cfg; graph = cache.pc_graph; defs = Hashtbl.create 32; cache;
      reuse_ok = not (Kmem.injection_active (Target.mem tgt));
      bad = Hashtbl.create 32; limits; box_budget = max_boxes;
      hits = 0; misses = 0; invalidated = 0; rebuilt = [];
      torn_sections = 0; retries = 0; repaired = 0; torn_boxes = 0 }
  in
  List.iter (fun d -> Hashtbl.replace st.defs d.bname d) defs;
  let env = ref [] in
  let plots = ref [] in
  (try
     List.iter
       (function
         | Define d -> Hashtbl.replace st.defs d.bname d
         | Top_bind (n, e) -> env := (n, eval st !env e) :: !env
         | Plot e -> (
             match eval st !env e with
             | Vbox id ->
                 Vgraph.set_root st.graph id;
                 plots := id :: !plots
             | Vnull -> ()
             | v -> fail "plot expects a box, got %s" (value_kind v)))
       program
   with e ->
     (* Roll the shared graph back to a displayable state: the previous
        plot's roots come back, so the pane is not left rootless.  Any
        box the failed run was mid-rebuilding is already poisoned
        ([e_faulty], set before its build), so no later refresh can
        adopt its reset contents as a valid snapshot — it re-extracts.
        Callers holding this cache should drop it (vrefresh does), so
        the next plot of the pane starts cold. *)
     Vgraph.set_roots cache.pc_graph saved_roots;
     raise e);
  (* Sweep: a box this run neither plotted nor evaluated — unreachable
     from the new roots and not stamped with the current run — is dead
     weight from earlier runs.  Dropping dead boxes (and their memo
     entries) bounds the persistent graph and the cache by the live
     plot, instead of accumulating every box ever extracted. *)
  let keep =
    Hashtbl.fold
      (fun id e acc -> if e.e_run = cache.pc_run then id :: acc else acc)
      cache.pc_by_box []
  in
  (match Vgraph.sweep st.graph ~keep with
  | [] -> ()
  | removed ->
      let dead = Hashtbl.create 16 in
      List.iter (fun id -> Hashtbl.replace dead id ()) removed;
      List.iter (Hashtbl.remove cache.pc_by_box) removed;
      let stale_keys =
        Hashtbl.fold
          (fun k e acc -> if Hashtbl.mem dead e.e_box then k :: acc else acc)
          cache.pc_entries []
      in
      List.iter (Hashtbl.remove cache.pc_entries) stale_keys);
  { graph = st.graph; plots = List.rev !plots;
    torn = st.torn_sections; retried = st.retries; repaired = st.repaired;
    torn_boxes = st.torn_boxes;
    cache = st.cache; cache_hits = st.hits; cache_misses = st.misses;
    cache_invalidated = st.invalidated; rebuilt = List.sort_uniq compare st.rebuilt }

(* Surface target-layer failures (bad member paths, derefs, ...) as
   ViewCL errors. *)
let run ?cfg ?defs ?limits ?cache tgt program =
  try run_exn ?cfg ?defs ?limits ?cache tgt program with Invalid_argument m -> fail "%s" m
