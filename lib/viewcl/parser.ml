(** Recursive-descent parser for ViewCL. *)

open Ast

type state = {
  reg : Ctype.registry;  (* for casts in [${...}], member paths, anchors and enums *)
  mutable toks : (Lexer.token * int) list;
  mutable at : int;  (* the line of the statement being read, for resolution errors *)
  mutable this : Ctype.t option;  (* the type of [@this]: the define's, none at top level *)
  defs : (string, boxdef) Hashtbl.t;
  mutable uses : (int * string * boxdef Lazy.t) list;  (* definitions named so far *)
}

let peek st = match st.toks with [] -> (Lexer.Eof, 0) | t :: _ -> t
let tok st = fst (peek st)
let line st = snd (peek st)
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let expect st p =
  match tok st with
  | Lexer.Punct q when q = p -> advance st
  | t -> fail "line %d: expected %S, got %s" (line st) p (Lexer.pp_token t)

let expect_id st =
  match tok st with
  | Lexer.Id s -> advance st; s
  | t -> fail "line %d: expected identifier, got %s" (line st) (Lexer.pp_token t)

let expect_kw st kw =
  match tok st with
  | Lexer.Id s when s = kw -> advance st
  | t -> fail "line %d: expected %S, got %s" (line st) kw (Lexer.pp_token t)

(* A dot-path: ident (. ident)*.  Indexing needs ${...}. *)
let parse_path st first =
  let rec go acc =
    if tok st = Lexer.Punct "." then begin
      advance st;
      go (expect_id st :: acc)
    end
    else List.rev acc
  in
  go [ first ]

(* The type of member [path] of a [ty] value.  With [deref], a step
   also goes through a pointer to a struct, as {!Target.member} does;
   without, only through embedded ones, as [container_of] does. *)
let member_type st ~deref ty path =
  List.fold_left
    (fun ty f ->
      let comp = match ty with Ctype.Named n -> n | Ctype.Ptr (Ctype.Named n) when deref -> n | _ -> "" in
      match if Ctype.is_defined st.reg comp then Ctype.field_opt st.reg comp f else None with
      | Some fd -> fd.Ctype.ftyp
      | None -> fail "line %d: no member %s in %s" st.at f (if comp = "" then Ctype.to_string ty else comp))
    ty path

let path_item st path =
  match st.this with
  | Some ty -> ignore (member_type st ~deref:true ty path); Path (ty, path)
  | None -> fail "line %d: path %s has no @this in scope" st.at (String.concat "." path)

(* A definition named in the program, resolved once the whole program
   is read: definitions may come later and be mutually recursive. *)
let use_def st name =
  let d = lazy (Hashtbl.find st.defs name) in
  st.uses <- (st.at, name, d) :: st.uses;
  d

(* Each view's inherited chain, computed once: its ancestors' where
   bindings and items, root first, then its own. *)
let with_chains st views =
  let rec chain seen (name, parent, items, where) =
    (match parent with
    | None -> []
    | Some p when List.mem p seen -> fail "line %d: view inheritance cycle at :%s" st.at p
    | Some p -> (
        match List.find_opt (fun (n, _, _, _) -> n = p) views with
        | Some v -> chain (p :: seen) v
        | None -> fail "line %d: view :%s inherits unknown view :%s" st.at name p))
    @ [ (where, items) ]
  in
  List.map
    (fun ((vname, vparent, vitems, vwhere) as v) ->
      { vname; vparent; vitems; vwhere; vchain = chain [ vname ] v })
    views

let int_kinds = [ "u8"; "u16"; "u32"; "u64"; "s8"; "s16"; "s32"; "s64" ]

(* <kind> or <kind:arg>; the lexer reads ':arg' as a view name. *)
let parse_decorator st =
  advance st;
  let kind = expect_id st in
  let arg = match tok st with Lexer.View_name a -> advance st; Some a | _ -> None in
  expect st ">";
  match (kind, arg) with
  | "string", None -> D_string
  | "bool", None -> D_bool
  | "char", None -> D_char
  | "raw_ptr", None -> D_raw_ptr
  | "fptr", None -> D_fptr
  | "enum", Some t when Ctype.is_defined st.reg t && Ctype.kind_of st.reg t = Ctype.Enum_kind ->
      D_enum t
  | "enum", Some t -> fail "line %d: unknown enum %s" st.at t
  | "flag", Some id -> D_flag id
  | "emoji", Some id -> D_emoji id
  | ik, (None | Some ("d" | "x" | "o" | "b")) when List.mem ik int_kinds ->
      D_int (match arg with Some "x" -> Hex | Some "o" -> Oct | Some "b" -> Bin | _ -> Dec)
  | _ ->
      fail "line %d: unknown decorator <%s%s>" st.at kind
        (match arg with Some a -> ":" ^ a | None -> "")

let rec parse_expr st =
  let e = parse_primary st in
  parse_postfix st e

and parse_postfix st e =
  match tok st with
  | Lexer.Punct "." -> (
      advance st;
      let meth = expect_id st in
      match meth with
      | "forEach" ->
          expect st "|";
          let var = expect_id st in
          expect st "|";
          expect st "{";
          let body = parse_stmts st in
          expect st "}";
          parse_postfix st (For_each { src = e; var; body })
      | m -> fail "line %d: unknown method %S" (line st) m)
  | _ -> e

and parse_stmts st =
  let rec go acc =
    match tok st with
    | Lexer.Punct "}" -> List.rev acc
    | Lexer.Id "yield" ->
        advance st;
        let e = parse_expr st in
        go (Yield e :: acc)
    | Lexer.Id name when (match st.toks with _ :: (Lexer.Punct "=", _) :: _ -> true | _ -> false) ->
        advance st;
        advance st;
        let e = parse_expr st in
        go (Bind (name, e) :: acc)
    | t -> fail "line %d: expected binding or yield, got %s" (line st) (Lexer.pp_token t)
  in
  go []

and parse_primary st =
  match tok st with
  | Lexer.Cexpr s -> (
      match Cexpr.parse st.reg s with
      | ce -> advance st; Cexpr (s, ce)
      | exception Cexpr.Parse_error m ->
          fail "line %d: in ${%s}: parse error: %s" (line st) s m)
  | Lexer.Ref name -> advance st; Ref name
  | Lexer.Int n -> advance st; Int_lit n
  | Lexer.Str s -> advance st; Str_lit s
  | Lexer.Id "NULL" -> advance st; Null_lit
  | Lexer.Id "switch" ->
      advance st;
      let scrutinee = parse_expr st in
      expect st "{";
      let cases = ref [] and otherwise = ref None in
      let rec go () =
        match tok st with
        | Lexer.Punct "}" -> advance st
        | Lexer.Id "case" ->
            advance st;
            let rec labels acc =
              let l = parse_expr st in
              match tok st with
              | Lexer.Punct "," -> advance st; labels (l :: acc)
              | Lexer.Punct ":" -> advance st; List.rev (l :: acc)
              | t -> fail "line %d: expected ',' or ':' after case label, got %s" (line st)
                       (Lexer.pp_token t)
            in
            let ls = labels [] in
            let body = parse_expr st in
            cases := (ls, body) :: !cases;
            go ()
        | Lexer.Id "otherwise" ->
            advance st;
            expect st ":";
            otherwise := Some (parse_expr st);
            go ()
        | t -> fail "line %d: expected case/otherwise, got %s" (line st) (Lexer.pp_token t)
      in
      go ();
      Switch { scrutinee; cases = List.rev !cases; otherwise = !otherwise }
  | Lexer.Id "Box" ->
      (* Anonymous box: Box [ items ] (where { bindings })? *)
      advance st;
      expect st "[";
      let items = parse_items st in
      expect st "]";
      let bwhere = parse_where_opt st in
      Anon_box { bname = ""; bctype = ""; bviews = with_chains st [ ("default", None, items, []) ]; bwhere }
  | Lexer.Id name -> (
      advance st;
      match tok st with
      | Lexer.Punct "<" ->
          (* Construct with anchor: Task<task_struct.se.run_node>(@node) *)
          advance st;
          let ty = expect_id st in
          if tok st <> Lexer.Punct "." then fail "line %d: anchor %S must be type.field" (line st) ty;
          advance st;
          let field = parse_path st (expect_id st) in
          expect st ">";
          expect st "(";
          ignore (member_type st ~deref:false (Ctype.Named ty) field);
          let anchor = Ctype.offsetof st.reg ty (String.concat "." field) in
          (match apply st name (parse_args st) with
          | Box_of b -> Box_of { b with anchor }
          | _ -> fail "line %d: a container takes no anchor" st.at)
      | Lexer.Punct "(" ->
          advance st;
          apply st name (parse_args st)
      | Lexer.Punct "." when (match st.toks with _ :: (Lexer.Id m, _) :: _ -> m <> "forEach" | _ -> false) ->
          advance st;
          let meth = expect_id st in
          if (name, meth) <> ("Array", "selectFrom") then
            fail "line %d: unknown method %s.%s" st.at name meth;
          expect st "(";
          let src = parse_expr st in
          expect st ",";
          let def = expect_id st in
          expect st ")";
          ignore (use_def st def);
          Select_from { src; def }
      | _ -> fail "line %d: expected '(' or '<' after %S" (line st) name)
  | t -> fail "line %d: unexpected %s in expression" (line st) (Lexer.pp_token t)

(* A container constructor, its arity checked, or a box definition. *)
and apply st name args =
  let one () = match args with [ a ] -> a | _ -> fail "line %d: %s takes 1 argument" st.at name in
  match (name, args) with
  | "List", _ -> Ctor (List (one ()))
  | "HList", _ -> Ctor (HList (one ()))
  | "RBTree", _ -> Ctor (RBTree (one ()))
  | "XArray", _ -> Ctor (XArray (one ()))
  | "MapleEntries", _ -> Ctor (MapleEntries (one ()))
  | "Array", [ a ] -> Ctor (Array (a, None))
  | "Array", [ a; n ] -> Ctor (Array (a, Some n))
  | "Array", _ -> fail "line %d: Array takes 1 or 2 arguments" st.at
  | "Range", [ lo; hi ] -> Ctor (Range (lo, hi))
  | "Range", _ -> fail "line %d: Range takes 2 arguments" st.at
  | _ -> Box_of { def = use_def st name; anchor = 0; arg = one () }

and parse_args st =
  (* after '(' *)
  if tok st = Lexer.Punct ")" then (advance st; [])
  else
    let rec go acc =
      let a = parse_expr st in
      match tok st with
      | Lexer.Punct "," -> advance st; go (a :: acc)
      | Lexer.Punct ")" -> advance st; List.rev (a :: acc)
      | t -> fail "line %d: expected ',' or ')', got %s" (line st) (Lexer.pp_token t)
    in
    go []

and parse_items st =
  let rec go acc =
    match tok st with
    | Lexer.Punct "]" -> List.rev acc
    | Lexer.Id "Text" ->
        advance st;
        let dec = if tok st = Lexer.Punct "<" then Some (parse_decorator st) else None in
        (* Either: Text a, b.c, d   or   Text label: <path|expr> *)
        let first = expect_id st in
        if tok st = Lexer.Punct ":" then begin
          advance st;
          let source =
            match tok st with
            | Lexer.Cexpr _ | Lexer.Ref _ | Lexer.Id "switch" -> Texpr (parse_expr st)
            | Lexer.Id p ->
                advance st;
                path_item st (parse_path st p)
            | t -> fail "line %d: expected path or expression, got %s" (line st) (Lexer.pp_token t)
          in
          go (I_text { dec; specs = [ { label = first; source } ] } :: acc)
        end
        else begin
          let rec specs p =
            let spec = { label = String.concat "." p; source = path_item st p } in
            if tok st <> Lexer.Punct "," then [ spec ]
            else (advance st; spec :: specs (parse_path st (expect_id st)))
          in
          go (I_text { dec; specs = specs (parse_path st first) } :: acc)
        end
    | Lexer.Id "Link" ->
        advance st;
        let label = String.concat "." (parse_path st (expect_id st)) in
        expect st "->";
        let target = parse_expr st in
        go (I_link { label; target } :: acc)
    | Lexer.Id "Container" ->
        advance st;
        let label = expect_id st in
        expect st ":";
        let target = parse_expr st in
        go (I_container { label; target } :: acc)
    | t -> fail "line %d: expected item (Text/Link/Container), got %s" (line st) (Lexer.pp_token t)
  in
  go []

and parse_where_opt st =
  if tok st <> Lexer.Id "where" then []
  else begin
    advance st;
    expect st "{";
    let where = List.map (function Bind b -> b | Yield _ -> fail "line %d: yield in where" st.at) (parse_stmts st) in
    expect st "}";
    where
  end

(* define NAME as Box<ctype> ( [items] | { :views } ) (where {..})? *)
let parse_define st =
  expect_kw st "define";
  let bname = expect_id st in
  (match bname with
  | "List" | "HList" | "RBTree" | "Array" | "XArray" | "MapleEntries" | "Range" ->
      fail "line %d: %s is a container constructor" st.at bname
  | _ -> if Hashtbl.mem st.defs bname then fail "line %d: duplicate define %s" st.at bname);
  expect_kw st "as";
  expect_kw st "Box";
  expect st "<";
  let bctype = expect_id st in
  expect st ">";
  if not (Ctype.is_defined st.reg bctype) then fail "line %d: unknown type %s" st.at bctype;
  st.this <- Some (Ctype.Named bctype);
  let views =
    match tok st with
    | Lexer.Punct "[" ->
        advance st;
        let items = parse_items st in
        expect st "]";
        [ ("default", None, items, []) ]
    | Lexer.Punct "{" ->
        advance st;
        let rec go views =
          match tok st with
          | Lexer.Punct "}" -> advance st; List.rev views
          | Lexer.View_name v1 ->
              advance st;
              let vname, vparent =
                if tok st <> Lexer.Punct "=>" then (v1, None)
                else begin
                  advance st;
                  match tok st with
                  | Lexer.View_name v2 -> advance st; (v2, Some v1)
                  | t -> fail "line %d: expected view name after '=>', got %s" (line st)
                           (Lexer.pp_token t)
                end
              in
              expect st "[";
              let items = parse_items st in
              expect st "]";
              let vwhere = parse_where_opt st in
              go ((vname, vparent, items, vwhere) :: views)
          | t -> fail "line %d: expected view declaration, got %s" (line st) (Lexer.pp_token t)
        in
        go []
    | t -> fail "line %d: expected '[' or '{' in define, got %s" (line st) (Lexer.pp_token t)
  in
  let bwhere = parse_where_opt st in
  let d = { bname; bctype; bviews = with_chains st views; bwhere } in
  Hashtbl.add st.defs bname d;
  Define d

(* Each statement is scope-checked as it is parsed: [bound] holds the
   top-level bindings made so far.  Definitions resolve once the whole
   program is read. *)
let parse_program reg src =
  let st =
    { reg; toks = Lexer.tokenize src; at = 0; this = None; defs = Hashtbl.create 16; uses = [] }
  in
  let rec go bound acc =
    st.at <- line st;
    st.this <- None;
    let next s = go (check_scope st.at bound s) (s :: acc) in
    match tok st with
    | Lexer.Eof -> List.rev acc
    | Lexer.Id "define" -> next (parse_define st)
    | Lexer.Id "plot" ->
        advance st;
        next (Plot (parse_expr st))
    | Lexer.Id name when (match st.toks with _ :: (Lexer.Punct "=", _) :: _ -> true | _ -> false) ->
        advance st;
        advance st;
        next (Top_bind (name, parse_expr st))
    | t -> fail "line %d: expected define/binding/plot, got %s" (line st) (Lexer.pp_token t)
  in
  let program = go Names.empty [] in
  List.iter
    (fun (at, name, d) ->
      if Hashtbl.mem st.defs name then ignore (Lazy.force d)
      else fail "line %d: unknown box definition %s" at name)
    (List.rev st.uses);
  program
