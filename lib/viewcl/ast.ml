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

(** Names resolve where they are written.  [check_scope line bound s]
    returns the top-level names bound after statement [s], given the
    [bound] before it, and fails with [line N: unbound reference @name]
    at the first [@name] (also one inside a [${...}]) that [s] reads out
    of scope.  A definition's scope is [@this], then its box-level
    where bindings in order, then each view's own, and its [forEach]
    variables: no caller's binding and no top-level one reaches it. *)
let check_scope line bound =
  let use bound n = if not (Names.mem n bound) then fail "line %d: unbound reference @%s" line n in
  let rec expr bound = function
    | Cexpr (_, ce) -> List.iter (use bound) (List.rev (cexpr_refs [] ce))
    | Ref n -> use bound n
    | Apply { args; _ } | Method { args; _ } -> List.iter (expr bound) args
    | For_each { src; var; body } ->
        expr bound src;
        ignore (List.fold_left stmt (Names.add var bound) body)
    | Switch { scrutinee; cases; otherwise } ->
        expr bound scrutinee;
        List.iter (fun (ks, e) -> List.iter (expr bound) ks; expr bound e) cases;
        Option.iter (expr bound) otherwise
    | Anon_box { items; where } -> scope bound where items
    | Null_lit | Int_lit _ | Str_lit _ -> ()
  and stmt bound = function Bind b -> bind bound b | Yield e -> expr bound e; bound
  (* where-bindings evaluate in order, each seeing the ones before it *)
  and bind bound (n, e) = expr bound e; Names.add n bound
  and scope bound where items = List.iter (item (List.fold_left bind bound where)) items
  and item bound = function
    | I_text { specs; _ } ->
        List.iter (fun s -> match s.source with Path _ -> () | Texpr e -> expr bound e) specs
    | I_link { target; _ } | I_container { target; _ } -> expr bound target
  in
  function
  | Define d ->
      let b = List.fold_left bind (Names.singleton "this") d.bwhere in
      List.iter (fun v -> scope b v.vwhere v.vitems) d.bviews;
      bound
  | Top_bind b -> bind bound b
  | Plot e -> expr bound e; bound
