(** Abstract syntax of ViewCL (§2.2, Fig. 3 of the paper). *)

type decorator = string list
(** e.g. [["u64"; "x"]], [["enum"; "maple_type"]], [["flag"; "vm_flags"]] *)

type expr =
  | Cexpr of string * Cexpr.expr
      (** [${...}] — a C expression over the target: its source, for
          messages, and its parse *)
  | Ref of string  (** [@name]; [@this] is ["this"] *)
  | Apply of { name : string; anchor : (string * string) option; args : expr list }
      (** box construction or container constructor:
          [Task<task_struct.se.run_node>(@node)] (anchor
          [("task_struct", "se.run_node")]), [RBTree(@root)] *)
  | Method of { recv : string; meth : string; args : expr list }
      (** [Array.selectFrom(@mm_mt, VMArea)] *)
  | For_each of { src : expr; var : string; body : stmt list }
      (** [expr.forEach |x| { ... yield ... }] *)
  | Switch of { scrutinee : expr; cases : (expr list * expr) list; otherwise : expr option }
  | Anon_box of { items : item list; where : binding list }
      (** [Box [ ... ] where { ... }] *)
  | Null_lit
  | Int_lit of int
  | Str_lit of string

and stmt = Bind of binding | Yield of expr
and binding = string * expr

and item =
  | I_text of { dec : decorator option; specs : text_spec list }
  | I_link of { label : string; target : expr }
  | I_container of { label : string; target : expr }

and text_spec = { label : string; source : texpr }

and texpr =
  | Path of string  (** a dot-path from [@this]: [se.vruntime], [parent.pid] *)
  | Texpr of expr

type viewdecl = {
  vname : string;
  vparent : string option;  (** [:default => :sched] — parent view name *)
  vitems : item list;
  vwhere : binding list;
}

type boxdef = { bname : string; bctype : string; bviews : viewdecl list; bwhere : binding list }

type toplevel = Define of boxdef | Top_bind of binding | Plot of expr

type program = toplevel list

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* The [@name]s a C expression mentions. *)
let rec cexpr_refs acc : Cexpr.expr -> string list = function
  | Cexpr.Ident n when n <> "" && n.[0] = '@' -> String.sub n 1 (String.length n - 1) :: acc
  | Cexpr.(Ident _ | Int_lit _ | Str_lit _ | Char_lit _ | Sizeof_type _) -> acc
  | Cexpr.(Unary (_, e) | Cast (_, e) | Sizeof_expr e | Member (e, _) | Arrow (e, _)) ->
      cexpr_refs acc e
  | Cexpr.(Binary (_, a, b) | Index (a, b)) -> cexpr_refs (cexpr_refs acc a) b
  | Cexpr.Ternary (a, b, c) -> cexpr_refs (cexpr_refs (cexpr_refs acc a) b) c
  | Cexpr.Call (_, args) -> List.fold_left cexpr_refs acc args

module Names = Set.Make (String)

(** The definitions whose boxes depend on nothing but their definition
    and address.  A name resolves in the scope of the call, so a
    definition that reads a binding it does not make itself — or calls
    one that does before binding the name — depends on its caller's
    scope too.  Free names are a least fixpoint over the call graph;
    definitions sharing a name share their free names. *)
let closed_defs defs =
  let free = Hashtbl.create 16 in
  let callee name = Option.value ~default:Names.empty (Hashtbl.find_opt free name) in
  let refs bound names = Names.diff (Names.of_list names) bound in
  let union f = List.fold_left (fun acc x -> Names.union acc (f x)) Names.empty in
  let rec expr bound = function
    | Cexpr (_, ce) -> refs bound (cexpr_refs [] ce)
    | Ref n -> refs bound [ n ]
    | Apply { name; args; _ } -> Names.union (Names.diff (callee name) bound) (union (expr bound) args)
    | Method { args; _ } -> union (expr bound) args
    | For_each { src; var; body } -> Names.union (expr bound src) (stmts (Names.add var bound) body)
    | Switch { scrutinee; cases; otherwise } ->
        Names.union (expr bound scrutinee)
          (union (fun (ks, e) -> Names.union (union (expr bound) ks) (expr bound e)) cases
          |> Names.union (Option.fold ~none:Names.empty ~some:(expr bound) otherwise))
    | Anon_box { items; where } -> scope bound where items
    | Null_lit | Int_lit _ | Str_lit _ -> Names.empty
  and stmts bound = function
    | [] -> Names.empty
    | Bind (n, e) :: rest -> Names.union (expr bound e) (stmts (Names.add n bound) rest)
    | Yield e :: rest -> Names.union (expr bound e) (stmts bound rest)
  (* where-bindings evaluate in order, each seeing the ones before it *)
  and bind bound where =
    List.fold_left (fun (fv, b) (n, e) -> (Names.union fv (expr b e), Names.add n b)) (Names.empty, bound) where
  and scope bound where items =
    let fv, b = bind bound where in
    Names.union fv (union (item b) items)
  and item bound = function
    | I_text { specs; _ } ->
        union (fun s -> match s.source with Path _ -> Names.empty | Texpr e -> expr bound e) specs
    | I_link { target; _ } | I_container { target; _ } -> expr bound target
  in
  let def d =
    let fv, b = bind (Names.singleton "this") d.bwhere in
    Names.union fv (union (fun v -> scope b v.vwhere v.vitems) d.bviews)
  in
  let rec fix () =
    let changed =
      List.fold_left
        (fun changed d ->
          let fv = Names.union (callee d.bname) (def d) in
          if Names.equal fv (callee d.bname) then changed
          else begin
            Hashtbl.replace free d.bname fv;
            true
          end)
        false defs
    in
    if changed then fix ()
  in
  fix ();
  List.filter_map (fun d -> if Names.is_empty (callee d.bname) then Some d.bname else None) defs
