(** Recursive-descent parser for ViewCL. *)

open Ast

type state = { reg : Ctype.registry (* for casts in [${...}] *); mutable toks : (Lexer.token * int) list }

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

(* A dot-path: ident (. ident)* — also allows [n] to become path steps?
   Paths stay simple; indexing needs ${...}. *)
let parse_path st first =
  let buf = Buffer.create 16 in
  Buffer.add_string buf first;
  let rec go () =
    if tok st = Lexer.Punct "." then begin
      advance st;
      Buffer.add_char buf '.';
      Buffer.add_string buf (expect_id st);
      go ()
    end
  in
  go ();
  Buffer.contents buf

(* Decorator contents: everything between < and >, e.g. u64:x, enum:foo. *)
let parse_decorator st =
  (* at '<' *)
  advance st;
  let parts = ref [] in
  let rec go () =
    match tok st with
    | Lexer.Punct ">" -> advance st
    | Lexer.Id s ->
        advance st;
        parts := s :: !parts;
        go ()
    | Lexer.View_name s ->
        (* ':x' lexed as a view token inside <u64:x>. *)
        advance st;
        parts := s :: !parts;
        go ()
    | Lexer.Punct ":" -> advance st; go ()
    | Lexer.Int n -> advance st; parts := string_of_int n :: !parts; go ()
    | t -> fail "line %d: bad decorator token %s" (line st) (Lexer.pp_token t)
  in
  go ();
  List.rev !parts

let container_ctors = [ "List"; "HList"; "RBTree"; "Array"; "XArray"; "MapleEntries"; "Range" ]

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
      let where = parse_where_opt st in
      Anon_box { items; where }
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
          let args = parse_args st in
          Apply { name; anchor = Some (ty, field); args }
      | Lexer.Punct "(" ->
          advance st;
          let args = parse_args st in
          Apply { name; anchor = None; args }
      | Lexer.Punct "." when (match st.toks with _ :: (Lexer.Id m, _) :: _ -> m <> "forEach" | _ -> false) ->
          advance st;
          let meth = expect_id st in
          expect st "(";
          let args = parse_args st in
          Method { recv = name; meth; args }
      | _ -> fail "line %d: expected '(' or '<' after %S" (line st) name)
  | t -> fail "line %d: unexpected %s in expression" (line st) (Lexer.pp_token t)

and parse_args st =
  (* after '(' *)
  if tok st = Lexer.Punct ")" then (advance st; [])
  else
    let rec go acc =
      let a =
        (* Bare identifiers as arguments name box definitions
           (Array.selectFrom(@x, VMArea)). *)
        match (tok st, st.toks) with
        | Lexer.Id name, _ :: (Lexer.Punct ("," | ")"), _) :: _ when name <> "NULL" ->
            advance st;
            Str_lit name
        | _ -> parse_expr st
      in
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
        (* Either: Text a, b, c   or   Text label: <path|expr> *)
        let first = expect_id st in
        if tok st = Lexer.Punct ":" then begin
          advance st;
          let source =
            match tok st with
            | Lexer.Cexpr _ | Lexer.Ref _ | Lexer.Id "switch" -> Texpr (parse_expr st)
            | Lexer.Id p ->
                advance st;
                Path (parse_path st p)
            | t -> fail "line %d: expected path or expression, got %s" (line st) (Lexer.pp_token t)
          in
          go (I_text { dec; specs = [ { label = first; source } ] } :: acc)
        end
        else begin
          let specs = ref [ { label = first; source = Path (parse_path st first) } ] in
          (* first may itself continue as a path *)
          (match !specs with
          | [ { label; source = Path p } ] when p <> label ->
              specs := [ { label = p; source = Path p } ]
          | _ -> ());
          while tok st = Lexer.Punct "," do
            advance st;
            let p0 = expect_id st in
            let p = parse_path st p0 in
            specs := { label = p; source = Path p } :: !specs
          done;
          go (I_text { dec; specs = List.rev !specs } :: acc)
        end
    | Lexer.Id "Link" ->
        advance st;
        let label = expect_id st in
        let label = parse_path st label in
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
  match tok st with
  | Lexer.Id "where" ->
      advance st;
      expect st "{";
      let rec go acc =
        match tok st with
        | Lexer.Punct "}" -> advance st; List.rev acc
        | Lexer.Id name ->
            advance st;
            expect st "=";
            let e = parse_expr st in
            go ((name, e) :: acc)
        | t -> fail "line %d: expected binding in where, got %s" (line st) (Lexer.pp_token t)
      in
      go []
  | _ -> []

(* define NAME as Box<ctype> ( [items] | { :views } ) (where {..})? *)
let parse_define st =
  expect_kw st "define";
  let bname = expect_id st in
  expect_kw st "as";
  expect_kw st "Box";
  expect st "<";
  let bctype = expect_id st in
  expect st ">";
  match tok st with
  | Lexer.Punct "[" ->
      advance st;
      let items = parse_items st in
      expect st "]";
      let bwhere = parse_where_opt st in
      Define
        { bname; bctype; bwhere;
          bviews = [ { vname = "default"; vparent = None; vitems = items; vwhere = [] } ] }
  | Lexer.Punct "{" ->
      advance st;
      let views = ref [] in
      let rec go () =
        match tok st with
        | Lexer.Punct "}" -> advance st
        | Lexer.View_name v1 -> (
            advance st;
            match tok st with
            | Lexer.Punct "=>" ->
                advance st;
                let v2 =
                  match tok st with
                  | Lexer.View_name v -> advance st; v
                  | t -> fail "line %d: expected view name after '=>', got %s" (line st)
                           (Lexer.pp_token t)
                in
                expect st "[";
                let items = parse_items st in
                expect st "]";
                let vwhere = parse_where_opt st in
                views := { vname = v2; vparent = Some v1; vitems = items; vwhere } :: !views;
                go ()
            | Lexer.Punct "[" ->
                advance st;
                let items = parse_items st in
                expect st "]";
                let vwhere = parse_where_opt st in
                views := { vname = v1; vparent = None; vitems = items; vwhere } :: !views;
                go ()
            | t -> fail "line %d: expected '[' or '=>', got %s" (line st) (Lexer.pp_token t))
        | t -> fail "line %d: expected view declaration, got %s" (line st) (Lexer.pp_token t)
      in
      go ();
      let bwhere = parse_where_opt st in
      Define { bname; bctype; bviews = List.rev !views; bwhere }
  | t -> fail "line %d: expected '[' or '{' in define, got %s" (line st) (Lexer.pp_token t)

(* Each statement is scope-checked as it is parsed: [bound] holds the
   top-level bindings made so far. *)
let parse_program reg src =
  let st = { reg; toks = Lexer.tokenize src } in
  let rec go bound acc =
    let at = line st in
    let next s = go (check_scope at bound s) (s :: acc) in
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
  go Names.empty []
