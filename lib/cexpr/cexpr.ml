type unop = Neg | Not | Bnot | Deref | Addr

type binop =
  | Add | Sub | Mul | Div | Mod
  | Shl | Shr | Band | Bor | Bxor
  | Eq | Ne | Lt | Gt | Le | Ge
  | Land | Lor

type expr =
  | Int_lit of int
  | Str_lit of string
  | Char_lit of char
  | Ident of string
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Ternary of expr * expr * expr
  | Cast of Ctype.t * expr
  | Sizeof_type of Ctype.t
  | Sizeof_expr of expr
  | Call of string * expr list
  | Member of expr * string
  | Arrow of expr * string
  | Index of expr * expr

exception Parse_error of string
exception Eval_error of string

let parse_fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt
let eval_fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token =
  | TInt of int
  | TStr of string
  | TChar of char
  | TId of string
  | TPunct of string
  | TEof

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '@'
let is_id_char c = is_id_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if is_digit c then begin
      let j = ref !i in
      let hex = c = '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') in
      if hex then j := !i + 2;
      while
        !j < n
        && (is_digit src.[!j]
           || (hex && ((src.[!j] >= 'a' && src.[!j] <= 'f') || (src.[!j] >= 'A' && src.[!j] <= 'F')))
           || src.[!j] = 'u' || src.[!j] = 'U' || src.[!j] = 'l' || src.[!j] = 'L')
      do
        incr j
      done;
      let lit = String.sub src !i (!j - !i) in
      let lit =
        let rec strip s =
          let l = String.length s in
          if l > 0 && (let c = s.[l - 1] in c = 'u' || c = 'U' || c = 'l' || c = 'L') then
            strip (String.sub s 0 (l - 1))
          else s
        in
        strip lit
      in
      (match int_of_string_opt lit with
      | Some v -> push (TInt v)
      | None -> parse_fail "bad integer literal %S" lit);
      i := !j
    end
    else if is_id_start c then begin
      let j = ref (!i + 1) in
      while !j < n && is_id_char src.[!j] do incr j done;
      push (TId (String.sub src !i (!j - !i)));
      i := !j
    end
    else if c = '"' then begin
      let buf = Buffer.create 8 in
      let j = ref (!i + 1) in
      while !j < n && src.[!j] <> '"' do
        if src.[!j] = '\\' && !j + 1 < n then begin
          (match src.[!j + 1] with
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | '0' -> Buffer.add_char buf '\000'
          | c -> Buffer.add_char buf c);
          j := !j + 2
        end
        else begin
          Buffer.add_char buf src.[!j];
          incr j
        end
      done;
      if !j >= n then parse_fail "unterminated string literal";
      push (TStr (Buffer.contents buf));
      i := !j + 1
    end
    else if c = '\'' then begin
      if !i + 3 < n && src.[!i + 1] = '\\' && src.[!i + 3] = '\'' then begin
        let ch =
          match src.[!i + 2] with
          | 'n' -> '\n' | 't' -> '\t' | '0' -> '\000' | c -> c
        in
        push (TChar ch);
        i := !i + 4
      end
      else if !i + 2 < n && src.[!i + 2] = '\'' then begin
        push (TChar src.[!i + 1]);
        i := !i + 3
      end
      else parse_fail "bad char literal"
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "->" | "<<" | ">>" | "<=" | ">=" | "==" | "!=" | "&&" | "||" ->
          push (TPunct two);
          i := !i + 2
      | _ ->
          (match c with
          | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '~' | '!' | '<' | '>' | '(' | ')'
          | '[' | ']' | '.' | ',' | '?' | ':' ->
              push (TPunct (String.make 1 c))
          | c -> parse_fail "unexpected character %C" c);
          incr i
    end
  done;
  push TEof;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent) *)

type pstate = { reg : Ctype.registry; mutable toks : token list }

let peek_tok ps = match ps.toks with [] -> TEof | t :: _ -> t
let peek2_tok ps = match ps.toks with _ :: t :: _ -> t | _ -> TEof
let advance ps = match ps.toks with [] -> () | _ :: r -> ps.toks <- r

let expect ps p =
  match peek_tok ps with
  | TPunct q when q = p -> advance ps
  | t ->
      parse_fail "expected %S, got %s" p
        (match t with
        | TPunct q -> Printf.sprintf "%S" q
        | TId s -> Printf.sprintf "identifier %S" s
        | TInt v -> Printf.sprintf "int %d" v
        | TStr s -> Printf.sprintf "string %S" s
        | TChar c -> Printf.sprintf "char %C" c
        | TEof -> "end of input")

let base_type_names =
  [ ("void", Ctype.Void); ("bool", Ctype.Bool); ("char", Ctype.char); ("short", Ctype.short);
    ("int", Ctype.int); ("long", Ctype.long); ("u8", Ctype.u8); ("u16", Ctype.u16);
    ("u32", Ctype.u32); ("u64", Ctype.u64); ("s8", Ctype.i8); ("s16", Ctype.i16);
    ("s32", Ctype.i32); ("s64", Ctype.i64); ("size_t", Ctype.size_t) ]

(* Try to parse a type name at the current position: [struct foo], plain
   base names, [unsigned int], registered composite names — followed by any
   number of [*]. Returns None (without consuming) if this is not a type. *)
let try_parse_type ps =
  let starts_type = function
    | TId ("struct" | "union" | "enum" | "unsigned" | "signed") -> true
    | TId name ->
        List.mem_assoc name base_type_names || Ctype.is_defined ps.reg name
    | _ -> false
  in
  if not (starts_type (peek_tok ps)) then None
  else begin
    let base =
      match peek_tok ps with
      | TId ("struct" | "union" | "enum") -> (
          advance ps;
          match peek_tok ps with
          | TId name ->
              advance ps;
              Ctype.Named name
          | _ -> parse_fail "expected tag name after struct/union/enum")
      | TId "unsigned" -> (
          advance ps;
          match peek_tok ps with
          | TId "char" -> advance ps; Ctype.uchar
          | TId "short" -> advance ps; Ctype.ushort
          | TId "int" -> advance ps; Ctype.uint
          | TId "long" -> advance ps; Ctype.ulong
          | _ -> Ctype.uint)
      | TId "signed" -> (
          advance ps;
          match peek_tok ps with
          | TId "char" -> advance ps; Ctype.char
          | TId "int" -> advance ps; Ctype.int
          | TId "long" -> advance ps; Ctype.long
          | _ -> Ctype.int)
      | TId name when List.mem_assoc name base_type_names ->
          advance ps;
          let t = List.assoc name base_type_names in
          (* "long long" *)
          if name = "long" && peek_tok ps = TId "long" then (advance ps; Ctype.llong) else t
      | TId name ->
          advance ps;
          Ctype.Named name
      | _ -> assert false
    in
    let rec stars t =
      match peek_tok ps with
      | TPunct "*" ->
          advance ps;
          stars (Ctype.Ptr t)
      | _ -> t
    in
    Some (stars base)
  end

let rec parse_expr ps = parse_ternary ps

and parse_ternary ps =
  let c = parse_binary ps 0 in
  match peek_tok ps with
  | TPunct "?" ->
      advance ps;
      let t = parse_expr ps in
      expect ps ":";
      let e = parse_ternary ps in
      Ternary (c, t, e)
  | _ -> c

and binop_table =
  (* (token, op, precedence); higher binds tighter *)
  [ ("||", Lor, 1); ("&&", Land, 2); ("|", Bor, 3); ("^", Bxor, 4); ("&", Band, 5);
    ("==", Eq, 6); ("!=", Ne, 6); ("<", Lt, 7); (">", Gt, 7); ("<=", Le, 7); (">=", Ge, 7);
    ("<<", Shl, 8); (">>", Shr, 8); ("+", Add, 9); ("-", Sub, 9);
    ("*", Mul, 10); ("/", Div, 10); ("%", Mod, 10) ]

and parse_binary ps min_prec =
  let lhs = parse_unary ps in
  let rec loop lhs =
    match peek_tok ps with
    | TPunct p -> (
        match List.find_opt (fun (q, _, prec) -> q = p && prec >= min_prec) binop_table with
        | Some (_, op, prec) ->
            advance ps;
            let rhs = parse_binary ps (prec + 1) in
            loop (Binary (op, lhs, rhs))
        | None -> lhs)
    | _ -> lhs
  in
  loop lhs

and parse_unary ps =
  match peek_tok ps with
  | TPunct "-" -> advance ps; Unary (Neg, parse_unary ps)
  | TPunct "+" -> advance ps; parse_unary ps
  | TPunct "!" -> advance ps; Unary (Not, parse_unary ps)
  | TPunct "~" -> advance ps; Unary (Bnot, parse_unary ps)
  | TPunct "*" -> advance ps; Unary (Deref, parse_unary ps)
  | TPunct "&" -> advance ps; Unary (Addr, parse_unary ps)
  | TId "sizeof" -> (
      advance ps;
      expect ps "(";
      match try_parse_type ps with
      | Some t ->
          expect ps ")";
          Sizeof_type t
      | None ->
          let e = parse_expr ps in
          expect ps ")";
          Sizeof_expr e)
  | TPunct "(" -> (
      (* Either a cast or a parenthesized expression. *)
      let saved = ps.toks in
      advance ps;
      match try_parse_type ps with
      | Some t when peek_tok ps = TPunct ")" ->
          advance ps;
          Cast (t, parse_unary ps)
      | _ ->
          ps.toks <- saved;
          parse_postfix ps)
  | _ -> parse_postfix ps

and parse_postfix ps =
  let e = parse_primary ps in
  let rec loop e =
    match peek_tok ps with
    | TPunct "." -> (
        advance ps;
        match peek_tok ps with
        | TId f ->
            advance ps;
            loop (Member (e, f))
        | _ -> parse_fail "expected field name after '.'")
    | TPunct "->" -> (
        advance ps;
        match peek_tok ps with
        | TId f ->
            advance ps;
            loop (Arrow (e, f))
        | _ -> parse_fail "expected field name after '->'")
    | TPunct "[" ->
        advance ps;
        let idx = parse_expr ps in
        expect ps "]";
        loop (Index (e, idx))
    | _ -> e
  in
  loop e

and parse_primary ps =
  match peek_tok ps with
  | TInt v -> advance ps; Int_lit v
  | TStr s -> advance ps; Str_lit s
  | TChar c -> advance ps; Char_lit c
  | TId name when peek2_tok ps = TPunct "(" ->
      advance ps;
      advance ps;
      let rec args acc =
        if peek_tok ps = TPunct ")" then (advance ps; List.rev acc)
        else
          let a = parse_expr ps in
          match peek_tok ps with
          | TPunct "," -> advance ps; args (a :: acc)
          | TPunct ")" -> advance ps; List.rev (a :: acc)
          | _ -> parse_fail "expected ',' or ')' in call arguments"
      in
      Call (name, args [])
  | TId name -> advance ps; Ident name
  | TPunct "(" ->
      advance ps;
      let e = parse_expr ps in
      expect ps ")";
      e
  | TEof -> parse_fail "unexpected end of expression"
  | TPunct p -> parse_fail "unexpected %S" p

let parse reg src =
  let ps = { reg; toks = tokenize src } in
  let e = parse_expr ps in
  (match peek_tok ps with
  | TEof -> ()
  | _ -> parse_fail "trailing tokens in %S" src);
  e

(* ------------------------------------------------------------------ *)
(* Evaluator *)

type env = string -> Target.value option

let empty_env _ = None

let pointee_size tgt t =
  match t with
  | Ctype.Ptr Ctype.Void | Ctype.Ptr (Ctype.Func _) -> 1
  | Ctype.Ptr inner -> Ctype.sizeof (Target.types tgt) inner
  | _ -> 1

let rec eval ?(env = empty_env) tgt e =
  let ev e = eval ~env tgt e in
  let as_i e = Target.as_int tgt (ev e) in
  match e with
  | Int_lit v -> Target.int_value v
  | Str_lit s -> Target.str_value s
  | Char_lit c -> { Target.typ = Ctype.char; loc = Target.Rval (Char.code c) }
  | Ident name -> (
      match env name with
      | Some v -> v
      | None -> (
          match Target.lookup_symbol tgt name with
          | Some v -> v
          | None -> (
              match name with
              | "true" -> Target.bool_value true
              | "false" -> Target.bool_value false
              | _ -> eval_fail "unknown identifier %S" name)))
  | Unary (Neg, e) -> Target.int_value (-as_i e)
  | Unary (Not, e) -> Target.bool_value (not (Target.truthy tgt (ev e)))
  | Unary (Bnot, e) -> Target.int_value (lnot (as_i e))
  | Unary (Deref, e) -> Target.deref tgt (ev e)
  | Unary (Addr, e) ->
      let v = ev e in
      { Target.typ = Ctype.Ptr v.Target.typ; loc = Target.Rval (Target.addr_of v) }
  | Binary (op, a, b) -> eval_binary ~env tgt op a b
  | Ternary (c, t, e) -> if Target.truthy tgt (ev c) then ev t else ev e
  | Cast (t, e) -> Target.cast tgt t (ev e)
  | Sizeof_type t -> Target.int_value (Ctype.sizeof (Target.types tgt) t)
  | Sizeof_expr e -> Target.int_value (Ctype.sizeof (Target.types tgt) (ev e).Target.typ)
  | Call (name, args) -> (
      match Target.lookup_helper tgt name with
      | Some h -> h tgt (List.map ev args)
      | None -> eval_fail "unknown function %S" name)
  | Member (e, f) -> Target.member tgt (ev e) f
  | Arrow (e, f) -> Target.member tgt (ev e) f
  | Index (e, i) -> Target.index tgt (ev e) (as_i i)

and eval_binary ~env tgt op a b =
  let ev e = eval ~env tgt e in
  match op with
  | Land -> Target.bool_value (Target.truthy tgt (ev a) && Target.truthy tgt (ev b))
  | Lor -> Target.bool_value (Target.truthy tgt (ev a) || Target.truthy tgt (ev b))
  | _ -> (
      let va = ev a and vb = ev b in
      let ia () = Target.as_int tgt va and ib () = Target.as_int tgt vb in
      let bool_ b = Target.bool_value b in
      match op with
      | Eq -> (
          (* String equality is meaningful for helper results. *)
          match (va.Target.loc, vb.Target.loc) with
          | Target.Rstr x, Target.Rstr y -> bool_ (x = y)
          | _ -> bool_ (ia () = ib ()))
      | Ne -> (
          match (va.Target.loc, vb.Target.loc) with
          | Target.Rstr x, Target.Rstr y -> bool_ (x <> y)
          | _ -> bool_ (ia () <> ib ()))
      | Lt -> bool_ (ia () < ib ())
      | Gt -> bool_ (ia () > ib ())
      | Le -> bool_ (ia () <= ib ())
      | Ge -> bool_ (ia () >= ib ())
      | Add ->
          if Ctype.is_pointer va.Target.typ then
            { va with loc = Target.Rval (ia () + (ib () * pointee_size tgt va.Target.typ)) }
          else if Ctype.is_pointer vb.Target.typ then
            { vb with loc = Target.Rval (ib () + (ia () * pointee_size tgt vb.Target.typ)) }
          else Target.int_value (ia () + ib ())
      | Sub ->
          if Ctype.is_pointer va.Target.typ && Ctype.is_pointer vb.Target.typ then
            Target.int_value ((ia () - ib ()) / pointee_size tgt va.Target.typ)
          else if Ctype.is_pointer va.Target.typ then
            { va with loc = Target.Rval (ia () - (ib () * pointee_size tgt va.Target.typ)) }
          else Target.int_value (ia () - ib ())
      | Mul -> Target.int_value (ia () * ib ())
      | Div ->
          let d = ib () in
          if d = 0 then eval_fail "division by zero" else Target.int_value (ia () / d)
      | Mod ->
          let d = ib () in
          if d = 0 then eval_fail "modulo by zero" else Target.int_value (ia () mod d)
      | Shl -> Target.int_value (ia () lsl ib ())
      | Shr -> Target.int_value (ia () lsr ib ())
      | Band -> Target.int_value (ia () land ib ())
      | Bor -> Target.int_value (ia () lor ib ())
      | Bxor -> Target.int_value (ia () lxor ib ())
      | Land | Lor -> assert false)

(* Public entry point: surface target-layer failures (bad member, deref of
   non-pointer, ...) uniformly as Eval_error. *)
let eval ?env tgt e =
  try eval ?env tgt e with Invalid_argument m -> raise (Eval_error m)

let eval_string ?env tgt src = eval ?env tgt (parse (Target.types tgt) src)

(* ------------------------------------------------------------------ *)
(* Printer *)

let unop_str = function Neg -> "-" | Not -> "!" | Bnot -> "~" | Deref -> "*" | Addr -> "&"

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Shl -> "<<" | Shr -> ">>" | Band -> "&" | Bor -> "|" | Bxor -> "^"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Gt -> ">" | Le -> "<=" | Ge -> ">="
  | Land -> "&&" | Lor -> "||"

let rec pp ppf = function
  | Int_lit v -> Format.pp_print_int ppf v
  | Str_lit s -> Format.fprintf ppf "%S" s
  | Char_lit c -> Format.fprintf ppf "%C" c
  | Ident s -> Format.pp_print_string ppf s
  | Unary (op, e) -> Format.fprintf ppf "%s(%a)" (unop_str op) pp e
  | Binary (op, a, b) -> Format.fprintf ppf "(%a %s %a)" pp a (binop_str op) pp b
  | Ternary (c, t, e) -> Format.fprintf ppf "(%a ? %a : %a)" pp c pp t pp e
  | Cast (t, e) -> Format.fprintf ppf "((%s)%a)" (Ctype.to_string t) pp e
  | Sizeof_type t -> Format.fprintf ppf "sizeof(%s)" (Ctype.to_string t)
  | Sizeof_expr e -> Format.fprintf ppf "sizeof(%a)" pp e
  | Call (f, args) ->
      Format.fprintf ppf "%s(%a)" f
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp)
        args
  | Member (e, f) -> Format.fprintf ppf "%a.%s" pp e f
  | Arrow (e, f) -> Format.fprintf ppf "%a->%s" pp e f
  | Index (e, i) -> Format.fprintf ppf "%a[%a]" pp e pp i

let to_string e = Format.asprintf "%a" pp e
