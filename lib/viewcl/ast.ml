(** Abstract syntax of ViewCL (§2.2, Fig. 3 of the paper), its names resolved. *)

type radix = Dec | Hex | Oct | Bin

(** Text decorators (Table 1). *)
type decorator =
  | D_string | D_bool | D_char | D_raw_ptr | D_fptr
  | D_enum of string  (** a registered enum *)
  | D_flag of string  (** a bit-flag table of the run's config *)
  | D_emoji of string  (** an emoji renderer of the run's config *)
  | D_int of radix  (** an integer kind ([u8] .. [u64], [s8] .. [s64]) *)

type expr =
  | Cexpr of string * Cexpr.expr
      (** [${...}] — a C expression over the target: its source, for
          messages, and its parse *)
  | Ref of string  (** [@name]; [@this] is ["this"] *)
  | Box_of of { def : boxdef Lazy.t; anchor : int; arg : expr }
      (** [Task<task_struct.se.run_node>(@node)]: a box at [@node] less
          the anchor's offset; [def], maybe defined later, is forced at
          the end of the parse *)
  | Ctor of ctor  (** a container constructor: [RBTree(@root)] *)
  | Select_from of { src : expr; def : string }
      (** [Array.selectFrom(@mm_mt, VMArea)]: [def] names a definition *)
  | For_each of { src : expr; var : string; body : stmt list }
      (** [expr.forEach |x| { ... yield ... }] *)
  | Switch of { scrutinee : expr; cases : (expr list * expr) list; otherwise : expr option }
  | Anon_box of boxdef
      (** [Box [ ... ] where { ... }]: one view, no name and no C type *)
  | Null_lit
  | Int_lit of int
  | Str_lit of string

and ctor =
  | List of expr | HList of expr | RBTree of expr | XArray of expr | MapleEntries of expr
  | Array of expr * expr option  (** an array lvalue, or a pointer and a count *)
  | Range of expr * expr

and stmt = Bind of binding | Yield of expr
and binding = string * expr

and item =
  | I_text of { dec : decorator option; specs : text_spec list }
  | I_link of { label : string; target : expr }
  | I_container of { label : string; target : expr }

and text_spec = { label : string; source : texpr }

and texpr =
  | Path of Ctype.t * string list  (** from [@this], of that C type: [parent.pid] *)
  | Texpr of expr

and viewdecl = {
  vname : string;
  vparent : string option;  (** [:default => :sched] — parent view name *)
  vitems : item list;
  vwhere : binding list;
  vchain : (binding list * item list) list;
      (** [vwhere] and [vitems] of its ancestors, root first, then its own *)
}

and boxdef = { bname : string; bctype : string; bviews : viewdecl list; bwhere : binding list }

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
    variables: no caller's binding and no top-level one reaches it.
    No binding may be named [this]: a path item reads from the object
    its box shows. *)
let check_scope line bound =
  let use bound n = if not (Names.mem n bound) then fail "line %d: unbound reference @%s" line n in
  let name bound n =
    if n = "this" then fail "line %d: @this cannot be rebound" line;
    Names.add n bound
  in
  let rec expr bound = function
    | Cexpr (_, ce) -> List.iter (use bound) (List.rev (cexpr_refs [] ce))
    | Ref n -> use bound n
    | Box_of { arg = e; _ } | Select_from { src = e; _ }
    | Ctor (List e | HList e | RBTree e | XArray e | MapleEntries e | Array (e, None)) ->
        expr bound e
    | Ctor (Array (a, Some b) | Range (a, b)) -> expr bound a; expr bound b
    | For_each { src; var; body } ->
        expr bound src;
        ignore (List.fold_left stmt (name bound var) body)
    | Switch { scrutinee; cases; otherwise } ->
        expr bound scrutinee;
        List.iter (fun (ks, e) -> List.iter (expr bound) ks; expr bound e) cases;
        Option.iter (expr bound) otherwise
    | Anon_box d -> def bound d
    | Null_lit | Int_lit _ | Str_lit _ -> ()
  and stmt bound = function Bind b -> bind bound b | Yield e -> expr bound e; bound
  (* where-bindings evaluate in order, each seeing the ones before it *)
  and bind bound (n, e) = expr bound e; name bound n
  (* a box sees the bindings in scope, then its own where bindings,
     then each view's own *)
  and def bound d =
    let bound = List.fold_left bind bound d.bwhere in
    List.iter (fun v -> List.iter (item (List.fold_left bind bound v.vwhere)) v.vitems) d.bviews
  and item bound = function
    | I_text { specs; _ } ->
        List.iter (fun s -> match s.source with Path _ -> () | Texpr e -> expr bound e) specs
    | I_link { target; _ } | I_container { target; _ } -> expr bound target
  in
  function
  | Define d -> def (Names.singleton "this") d; bound
  | Top_bind b -> bind bound b
  | Plot e -> expr bound e; bound
