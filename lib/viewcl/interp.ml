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

(* Traversal bounds for container iteration.  A corrupted kernel can
   present a circular list or a self-referential tree; extraction must
   truncate (recording a {!Target.fault.Truncated} fault, which marks
   the owning box broken) rather than hang or overflow the stack. *)
let max_nodes = 4096
let max_depth = 64

(* How often a box whose consistent section came back dirty (a writer
   raced the walk) is re-extracted before degrading to a [TORN] box. *)
let max_retries = 2

type value =
  | Vtgt of Target.value
  | Vbox of Vgraph.box_id
  | Vlist of value list
  | Vnull

(* ------------------------------------------------------------------ *)
(* The cross-run box memo (incremental re-plot).

   One entry per (definition name, address), with everything needed to
   decide whether the box built last run is still a faithful snapshot:

   - [e_def]: the definition as built.  It is matched by identity
     against the cached program's, so the first run of a new source
     rebuilds every box in place;
   - [e_snap]: the snapshot of the consistent section the box built
     under ({!Target.snapshot}) — the byte extents its own reads
     covered, not its children's.  [None] while the box is mid-build or
     when the build recorded memory faults or closed dirty: degraded
     boxes are never reused, a refresh retries them.

   Within one run, [e_run = pc_run] is the memo-hit test.  Across runs,
   an entry whose own extents no write touched is kept — items and ids
   as they are — and only its stale descendants are rebuilt; a stale
   entry is re-extracted IN PLACE under its existing box id. *)
type entry = {
  e_box : Vgraph.box_id;
  mutable e_run : int;  (* run stamp when last built or kept *)
  mutable e_def : boxdef;
  mutable e_snap : Target.snapshot option;
}

type plot_cache = {
  pc_graph : Vgraph.t;
  pc_entries : (string * int, entry) Hashtbl.t;
  pc_by_box : (Vgraph.box_id, entry) Hashtbl.t;
  mutable pc_program : string * program;  (* the source last run and its parse *)
  pc_selected : (Vgraph.box_id, Vgraph.box_id * string) Hashtbl.t;
      (* [Array.selectFrom(seed, Def)] containers: their members come
         from the box graph under [seed], not from bytes *)
  mutable pc_run : int;
}

let create_cache () =
  { pc_graph = Vgraph.create (); pc_entries = Hashtbl.create 256;
    pc_by_box = Hashtbl.create 256; pc_program = ("", []);
    pc_selected = Hashtbl.create 4; pc_run = 0 }

let cache_boxes c = Hashtbl.fold (fun id _ acc -> id :: acc) c.pc_by_box [] |> List.sort compare

let cache_extents c id =
  match Hashtbl.find_opt c.pc_by_box id with
  | Some { e_snap = Some snap; _ } -> Target.snapshot_extents snap
  | Some _ | None -> []

let c_box_hits = Obs.Counter.make "cache.box_hits"
let c_box_misses = Obs.Counter.make "cache.box_misses"
let c_box_invalidated = Obs.Counter.make "cache.box_invalidated"

type state = {
  tgt : Target.t;
  cfg : config;
  graph : Vgraph.t;  (** = [cache.pc_graph] *)
  cache : plot_cache;
  reuse_ok : bool;
      (** cross-run reuse allowed: false while Kmem fault injection is
          armed (the injection LCG draws once per performed read, so
          skipping a subtree's reads would shift every later fault) *)
  mutable box_budget : int;
  (* cache accounting for this run *)
  mutable hits : int;  (** boxes kept from the previous run, zero reads *)
  mutable misses : int;  (** keys never built before *)
  mutable invalidated : int;  (** stale entries re-extracted in place *)
  mutable rebuilt : Vgraph.box_id list;  (** memoized boxes built this run *)
  (* snapshot-consistency accounting for the whole run *)
  mutable torn_sections : int;  (** consistent sections that came back dirty *)
  mutable retries : int;  (** re-extraction attempts performed *)
  mutable repaired : int;  (** sections (a box or a top-level binding) whose retry came back clean *)
  mutable torn_boxes : int;  (** boxes degraded to [TORN] (budget exhausted) *)
}

let truncated st ~ctx a = Target.record_fault st.tgt (Target.Truncated { at = a; ctx })

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

(* Identifiers written as [@x] inside ${...} resolve through the ViewCL
   environment; the parse checked that each is bound. *)
let cexpr_env st env name =
  if String.length name > 0 && name.[0] = '@' then
    Option.map (value_to_target st) (List.assoc_opt (String.sub name 1 (String.length name - 1)) env)
  else None

let eval_cexpr st env src ce =
  try Vtgt (Cexpr.eval ~env:(cexpr_env st env) st.tgt ce)
  with Cexpr.Eval_error m -> fail "in ${%s}: %s" src m

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
  | Some D_string ->
      let s = Target.as_string tgt tv in
      (s, Vgraph.Fstr s)
  | Some D_bool ->
      let b = Target.truthy tgt tv in
      ((if b then "true" else "false"), Vgraph.Fbool b)
  | Some D_char ->
      let c = as_i () land 0xff in
      (Printf.sprintf "%C" (Char.chr c), Vgraph.Fint c)
  | Some D_raw_ptr -> (Printf.sprintf "0x%x" (as_i ()), Vgraph.Faddr (as_i ()))
  | Some D_fptr ->
      let a = as_i () in
      (format_fptr st a, Vgraph.Faddr a)
  | Some (D_enum ty) -> (
      let v = as_i () in
      match Ctype.enum_name_of (Target.types tgt) ty v with
      | Some n -> (n, Vgraph.Fstr n)
      | None -> (string_of_int v, Vgraph.Fint v))
  | Some (D_flag table) ->
      let v = as_i () in
      (format_flags st table v, Vgraph.Fint v)
  | Some (D_emoji id) ->
      let v = as_i () in
      ((match List.assoc_opt id st.cfg.emojis with Some f -> f v | None -> string_of_int v), Vgraph.Fint v)
  | Some (D_int radix) ->
      let v = as_i () in
      let rec bits v acc = if v = 0 then acc else bits (v lsr 1) (string_of_int (v land 1) ^ acc) in
      ( (match radix with
        | Dec -> string_of_int v
        | Hex -> Printf.sprintf "0x%x" v
        | Oct -> Printf.sprintf "0o%o" v
        | Bin -> if v = 0 then "0b0" else "0b" ^ bits v ""),
        Vgraph.Fint v )

(* ------------------------------------------------------------------ *)
(* Containers *)

(* Container distillation spans: one per traversal, named after the
   constructor, so the trace shows where extraction time pools. *)
let distilled name f =
  if Obs.enabled () then Obs.with_span ~cat:"viewcl" name f else f ()

(* Follow [next] from [first] until [stop] or NULL, yielding each node
   as a pointer of type [node_ty]; a cycle, the node budget or a spent
   deadline truncates the walk. *)
let walk_chain st ~ctx ~stop node_ty first next =
  let seen = Hashtbl.create 64 in
  let rec go a acc n =
    if a = stop || a = 0 then List.rev acc
    else if
      Hashtbl.mem seen a || n >= max_nodes
      || Target.deadline_exceeded st.tgt
    then begin
      truncated st ~ctx a;
      List.rev acc
    end
    else begin
      Hashtbl.add seen a ();
      go (next a) (Vtgt (Target.ptr_to (Ctype.Named node_ty) a) :: acc) (n + 1)
    end
  in
  go first [] 0

(* The address behind an lvalue of, or a pointer to, a struct. *)
let addr_behind st v =
  match v.Target.typ with Ctype.Ptr _ -> Target.as_int st.tgt v | _ -> Target.addr_of v

let field_at st ty f a = Target.as_int st.tgt (Target.member st.tgt (Target.obj (Ctype.Named ty) a) f)

let iter_list st head_v =
  distilled "viewcl.distill.list" @@ fun () ->
  (* [head_v]: lvalue of (or pointer to) a list_head; yields node addrs. *)
  let head = addr_behind st head_v in
  let next = field_at st "list_head" "next" in
  walk_chain st ~ctx:"List traversal" ~stop:head "list_head" (next head) next

let iter_hlist st head_v =
  distilled "viewcl.distill.hlist" @@ fun () ->
  let first = field_at st "hlist_head" "first" (addr_behind st head_v) in
  walk_chain st ~ctx:"HList traversal" ~stop:0 "hlist_node" first
    (field_at st "hlist_node" "next")

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
      Hashtbl.mem seen a || depth > max_depth
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

let iter_array st arr count =
  distilled "viewcl.distill.array" @@ fun () ->
  let tv, n =
    match (arr, count) with
    | Vtgt ({ Target.typ = Ctype.Array (_, n); _ } as tv), None -> (tv, n)
    | Vtgt tv, Some count when Ctype.is_pointer tv.Target.typ -> (tv, int_of_value st count)
    | _, None -> fail "Array(..) expects an array lvalue (or Array(ptr, count))"
    | _, Some _ -> fail "Array(ptr, count) expects a pointer"
  in
  List.init n (fun i -> Vtgt (Target.load st.tgt (Target.index st.tgt tv i)))

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
          Hashtbl.mem seen na || depth > max_depth
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
      Hashtbl.mem seen na || depth > max_depth
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
(* Snapshot consistency *)

(* Run [f] inside a consistent section (seqlock-style) and, while a
   writer races it (a byte it read was written before the section
   closed), [reset] and run it again, up to [max_retries] times.  Nested
   boxes own their reads (sections nest innermost-only) and are
   memoized, so a retry re-reads only [f]'s own ranges.  The section
   closes inside [with_faults], so its Torn faults are [f]'s, not its
   caller's.  Returns [f]'s last result, the extents still dirty, the
   section and [f]'s faults. *)
let consistently st ~reset f =
  let attempt () =
    Target.with_faults st.tgt (fun () ->
        let sec = Target.begin_consistent st.tgt in
        match f () with
        | x -> (x, Target.end_consistent st.tgt sec, sec)
        | exception e ->
            ignore (Target.end_consistent st.tgt sec);
            raise e)
  in
  let rec go n =
    let ((_, dirty, _), _) as r = attempt () in
    if dirty <> [] then st.torn_sections <- st.torn_sections + 1
    else if n > 0 then st.repaired <- st.repaired + 1;
    if dirty = [] || n = max_retries then r
    else begin
      st.retries <- st.retries + 1;
      reset ();
      go (n + 1)
    end
  in
  go 0

(* Mark [b] and append the reason to every view. *)
let degrade b mark label reason =
  mark b reason;
  b.Vgraph.views <-
    List.map
      (fun (vn, items) -> (vn, items @ [ Vgraph.Text { label; value = reason; raw = Vgraph.Fstr reason } ]))
      b.Vgraph.views

(* Degrade [b] to [TORN] when its section stayed [dirty] through every
   retry. *)
let tear st b dirty =
  match dirty with
  | [] -> ()
  | (lo, hi) :: more ->
      st.torn_boxes <- st.torn_boxes + 1;
      degrade b Vgraph.mark_torn "!torn"
        (Printf.sprintf "raced by a writer: [0x%x,0x%x)%s still dirty after %d retries" lo hi
           (match more with [] -> "" | _ -> Printf.sprintf " (+%d more ranges)" (List.length more))
           max_retries)

(* ------------------------------------------------------------------ *)
(* Core evaluation *)

let max_boxes = 20_000

let rec eval st env e : value =
  match e with
  | Cexpr (src, ce) -> eval_cexpr st env src ce
  | Ref name -> List.assoc name env
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
      let label, subject, elems = eval_iterable st env src in
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
      Vbox (make_container st ?subject label members)
  | Box_of { def; anchor; arg } -> box_of st (Lazy.force def) anchor (eval st env arg)
  | Ctor c -> (match iterate st env c with _, _, elems -> Vlist elems)
  | Select_from { src; def } -> (
      let seed = match eval st env src with Vbox id -> id | _ -> fail "selectFrom expects a box" in
      let id = make_container st "Array" (List.map (fun id -> Vbox id) (select st seed def)) in
      Hashtbl.replace st.cache.pc_selected id (seed, def);
      Vbox id)
  | Anon_box def ->
      let addr = match List.assoc_opt "this" env with Some v -> addr_of_value st v | None -> 0 in
      build_box st env def ~addr

(* The boxes of definition [def] reachable from [seed]. *)
and select st seed def =
  List.filter
    (fun id -> (Vgraph.get st.graph id).Vgraph.bdef = def)
    (Vgraph.reachable st.graph [ seed ])

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

(* A forEach source: the label of the container it makes, the struct a
   constructor walked and the elements. *)
and eval_iterable st env e : string * (string * int) option * value list =
  match e with
  | Ctor c -> iterate st env c
  | _ -> (
      let label = match e with Select_from _ -> "Array" | _ -> "Container" in
      match eval st env e with
      | Vlist l -> (label, None, l)
      | Vbox id -> (label, None, List.map (fun m -> Vbox m) (Vgraph.get st.graph id).Vgraph.members)
      | v -> fail "cannot iterate over %s" (value_kind v))

and iterate st env c =
  let walk label iter e =
    let tv = target_arg st env e in
    (label, subject_of st tv, iter st tv)
  in
  match c with
  | List e -> walk "List" iter_list e
  | HList e -> walk "HList" iter_hlist e
  | RBTree e -> walk "RBTree" iter_rbtree e
  | XArray e -> walk "XArray" iter_xarray e
  | MapleEntries e -> walk "MapleEntries" iter_maple e
  | Array (arr, count) ->
      let arr = eval st env arr in
      ("Array", None, iter_array st arr (Option.map (eval st env) count))
  | Range (a, b) ->
      let lo = int_of_value st (eval st env a) and hi = int_of_value st (eval st env b) in
      ("Range", None, List.init (max 0 (hi - lo)) (fun i -> Vtgt (Target.int_value (lo + i))))

and value_kind = function
  | Vtgt _ -> "a C value"
  | Vbox _ -> "a box"
  | Vlist _ -> "a container"
  | Vnull -> "NULL"

and target_arg st env a =
  match eval st env a with
  | Vtgt tv -> tv
  | Vnull -> Target.null_ptr
  | v -> fail "container constructor expects a C value, got %s" (value_kind v)

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
  b.Vgraph.id

(* The box of [def] at [argv]'s address less [anchor] (container_of). *)
and box_of st def anchor argv =
  if is_null st argv then Vnull
  else
    let addr = addr_of_value st argv - anchor in
    match cached_box st def addr with Some v -> v | None -> build_def st def addr

(* The incremental-replot dispatch: an entry built or kept earlier THIS
   run is a plain memo hit (shared objects become shared boxes, cycles
   terminate); one from a previous run is kept if it can be ({!keep});
   otherwise the caller rebuilds it in place under its existing id. *)
and cached_box st def addr =
  match Hashtbl.find_opt st.cache.pc_entries (def.bname, addr) with
  | None ->
      st.misses <- st.misses + 1;
      if Obs.enabled () then Obs.Counter.incr c_box_misses;
      None
  | Some e when e.e_run = st.cache.pc_run -> Some (Vbox e.e_box)
  | Some e when e.e_def == def && keep st e -> Some (Vbox e.e_box)
  | Some _ ->
      invalidated st;
      None

and invalidated st =
  st.invalidated <- st.invalidated + 1;
  if Obs.enabled () then Obs.Counter.incr c_box_invalidated

(* Keep [e] if no write since its build touched the bytes its own
   section read ({!Target.revalidate}) and it did not degrade: its
   items and id stay as they are, and {!revisit} brings its descendants
   up to date.  False when [e] must be rebuilt: its bytes changed, or a
   descendant cannot be brought up to date under [e]'s links. *)
and keep st e =
  st.reuse_ok
  && (match e.e_snap with Some snap -> Target.revalidate st.tgt snap | None -> false)
  && begin
       e.e_run <- st.cache.pc_run;
       revisit st (Vgraph.get st.graph e.e_box)
       && begin
            st.hits <- st.hits + 1;
            if Obs.enabled () then Obs.Counter.incr c_box_hits;
            true
          end
     end

(* A definition's box depends on nothing but the definition, its
   address and the bytes it reads: its scope is [@this] and its own
   bindings ({!Ast.check_scope}).  So a stale memoized box rebuilds in
   place from its entry alone. *)
and build_def st def addr =
  build_box st [ ("this", Vtgt (Target.obj (Ctype.Named def.bctype) addr)) ] def ~addr

and rebuild st e =
  invalidated st;
  ignore (build_def st e.e_def (Vgraph.get st.graph e.e_box).Vgraph.addr)

(* Bring the children of a kept box up to date: a child entry with
   unchanged bytes is kept in turn, a stale one rebuilt in place from
   its definition, which is the cached parse's (its parent passed
   {!cached_box}'s identity test, and both built in one run).  A plain
   container's members were read by the box that built it, so a kept
   box vouches for them.  False when the kept box must be rebuilt after
   all: a child is an anonymous box (its reads are recorded nowhere),
   or an [Array.selectFrom] container no longer matches the graph it
   selects from. *)
and revisit st b = List.for_all (visit st) (Vgraph.child_ids b)

and visit st id =
  match Hashtbl.find_opt st.cache.pc_by_box id with
  | Some c when c.e_run = st.cache.pc_run -> true
  | Some c ->
      if not (keep st c) then rebuild st c;
      true
  | None -> (
      match (Vgraph.find st.graph id, Hashtbl.find_opt st.cache.pc_selected id) with
      | None, _ -> true
      | Some k, Some (seed, def) -> visit st seed && k.Vgraph.members = select st seed def
      | Some k, None -> k.Vgraph.container && revisit st k)

(* A box of [def] at [addr]; one of a definition (not an anonymous
   box, whose name is [""]) is memoized. *)
and build_box st env def ~addr =
  if not (Obs.enabled ()) then build_box_raw st env def ~addr
  else
    Obs.with_span ~cat:"viewcl"
      ~attrs:
        [ ("def", (if def.bname = "" then "(anon)" else def.bname));
          ("type", def.bctype); ("addr", Printf.sprintf "0x%x" addr) ]
      "viewcl.box"
      (fun () -> build_box_raw st env def ~addr)

and build_box_raw st env def ~addr =
  if st.box_budget <= 0 then fail "plot exceeds %d boxes; refine the ViewCL program" max_boxes;
  st.box_budget <- st.box_budget - 1;
  let bdef = def.bname and btype = def.bctype in
  let size = if btype = "" then 0 else Ctype.sizeof (Target.types st.tgt) (Ctype.Named btype) in
  (* An invalidated entry rebuilds IN PLACE: the box keeps its id, so
     links into it from adopted neighbours stay valid.  The entry is
     stamped with the current run BEFORE building so cyclic references
     back into this box hit the within-run path of {!cached_box}. *)
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
    | None ->
        let b = Vgraph.add_box st.graph ~btype ~bdef ~addr ~size ~container:false in
        if bdef = "" then (b, None)
        else begin
          let e = { e_box = b.Vgraph.id; e_run = 0; e_def = def; e_snap = None } in
          Hashtbl.replace st.cache.pc_entries (bdef, addr) e;
          Hashtbl.replace st.cache.pc_by_box e.e_box e;
          (b, Some e)
        end
  in
  (match entry with
  | Some e ->
      e.e_run <- st.cache.pc_run;
      (* Poisoned until the extraction below completes: if the run
         raises out of build_box_raw (box budget, eval error), the
         half-built box must never pass {!keep}'s check on its stale
         snapshot and be kept by a later refresh as a faithful one.  A
         clean extract restores validity at the end. *)
      e.e_snap <- None
  | None -> ());
  (* Graceful degradation: collect the memory faults hit while building
     THIS box (nested boxes keep theirs — with_faults nests).  A faulting
     box stays in the plot, visibly broken, instead of aborting the
     extraction; ViewCL program errors (fail/Viewcl.Error) still abort. *)
  let build () =
    (* box-level where bindings *)
    let env = eval_bindings st env def.bwhere in
    (* Each declared view gets its items (inherited views prepended). *)
    List.iter
      (fun v ->
        let items =
          List.concat_map
            (fun (vwhere, vitems) ->
              let venv = eval_bindings st env vwhere in
              List.concat_map (eval_item st venv b) vitems)
            v.vchain
        in
        Vgraph.set_view b v.vname items)
      def.bviews
  in
  let ((), dirty, sec), box_faults = consistently st ~reset:(fun () -> b.Vgraph.views <- []) build in
  (* Torn faults degrade to a [TORN] tag below, not a [BROKEN] one. *)
  let mem_faults = List.filter (function Target.Torn _ -> false | _ -> true) box_faults in
  (match mem_faults with
  | [] -> ()
  | f :: _ ->
      let n = List.length mem_faults in
      let reason = Target.fault_to_string f in
      degrade b Vgraph.mark_broken "!fault"
        (if n > 1 then Printf.sprintf "%s (+%d more)" reason (n - 1) else reason));
  tear st b dirty;
  (match entry with
  | None -> ()
  | Some e ->
      e.e_def <- def;
      if mem_faults = [] && dirty = [] then e.e_snap <- Some (Target.snapshot sec);
      st.rebuilt <- b.Vgraph.id :: st.rebuilt);
  Vbox b.Vgraph.id

and eval_bindings st env bindings =
  List.fold_left (fun env (n, e) -> (n, eval st env e) :: env) env bindings

and eval_item st env box it : Vgraph.item list =
  match it with
  | I_text { dec; specs } ->
      List.map
        (fun { label; source } ->
          let tv =
            match source with
            | Path (ty, p) ->
                (* the box shows [@this], at its address *)
                Target.load st.tgt (Target.member_path st.tgt (Target.obj ty box.Vgraph.addr) p)
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
      | Vlist members -> [ Vgraph.Inline { label; target = make_container st "Array" members } ]
      | Vnull -> [ Vgraph.Text { label; value = "(empty)"; raw = Vgraph.Fstr "" } ]
      | Vtgt _ -> fail "Container %s expects a container value" label)

(* ------------------------------------------------------------------ *)
(* Program execution *)

type result = {
  graph : Vgraph.t;
  plots : Vgraph.box_id list;
  torn : int;  (** consistent sections that closed dirty (writer raced the walk) *)
  retried : int;  (** re-extraction attempts performed (boxes and top-level bindings) *)
  repaired : int;  (** sections (a box or a top-level binding) whose retry came back clean *)
  torn_boxes : int;  (** boxes degraded to [TORN] after the retry budget *)
  cache : plot_cache;  (** pass back to {!run_exn} for an incremental re-plot *)
  cache_hits : int;  (** boxes kept from the previous run with zero reads *)
  cache_misses : int;  (** (def, addr) keys never built before *)
  cache_invalidated : int;  (** stale entries re-extracted in place *)
  rebuilt : Vgraph.box_id list;  (** memoized boxes extracted this run, ascending *)
}

let run_exn ~cfg cache tgt program =
  Obs.with_span ~cat:"viewcl"
    ~attrs:[ ("stmts", string_of_int (List.length program)) ]
    "viewcl.run"
  @@ fun () ->
  cache.pc_run <- cache.pc_run + 1;
  let saved_roots = Vgraph.roots cache.pc_graph in
  Vgraph.clear_roots cache.pc_graph;
  let st =
    { tgt; cfg; graph = cache.pc_graph; cache;
      reuse_ok = not (Kmem.injection_active (Target.mem tgt));
      box_budget = max_boxes;
      hits = 0; misses = 0; invalidated = 0; rebuilt = [];
      torn_sections = 0; retries = 0; repaired = 0; torn_boxes = 0 }
  in
  let env = ref [] in
  let plots = ref [] in
  (try
     List.iter
       (function
         | Define _ -> ()
         | Top_bind (n, e) ->
             (* a top-level container walk reads in its own section, and
                a walk still torn after the retries is tagged [TORN] *)
             let (v, dirty, _), _ = consistently st ~reset:ignore (fun () -> eval st !env e) in
             (match v with
             | Vbox id when (Vgraph.get st.graph id).Vgraph.container ->
                 tear st (Vgraph.get st.graph id) dirty
             | _ -> ());
             env := (n, v) :: !env
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
        ([e_snap] cleared before its build), so no later refresh can
        keep its reset contents as a valid snapshot — it re-extracts.
        Callers holding this cache should drop it (vrefresh does), so
        the next plot of the pane starts cold. *)
     Vgraph.set_roots cache.pc_graph saved_roots;
     raise e);
  (* Sweep: a box the new roots do not reach is dead weight, whether an
     earlier run built it or only a discarded torn attempt of this one.
     Dropping dead boxes (and their memo entries) bounds the persistent
     graph and the cache by the live plot, instead of accumulating every
     box ever extracted. *)
  (match Vgraph.sweep st.graph with
  | [] -> ()
  | removed ->
      let dead = Hashtbl.create 16 in
      List.iter (fun id -> Hashtbl.replace dead id ()) removed;
      List.iter (Hashtbl.remove cache.pc_by_box) removed;
      List.iter (Hashtbl.remove cache.pc_selected) removed;
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

(* A rerun of the cache's source reuses its parse; other text is parsed
   afresh.  Target-layer failures (bad member paths, derefs, ...)
   surface as ViewCL errors. *)
let run ?(cfg = default_config) ?cache tgt src =
  let cache = match cache with Some c -> c | None -> create_cache () in
  let program =
    match cache.pc_program with
    | last, program when last = src -> program
    | _ ->
        let program = Parser.parse_program (Target.types tgt) src in
        cache.pc_program <- (src, program);
        program
  in
  try run_exn ~cfg cache tgt program with Invalid_argument m -> fail "%s" m
