(** ViewCL lexer. [${...}] escapes are captured raw (brace-balanced),
    at the line they open on, for the parser to hand to {!Cexpr.parse};
    [@name] references and [:view] names are single tokens; [//]
    comments run to end of line. *)

type token =
  | Id of string
  | View_name of string  (** [:default] *)
  | Ref of string  (** [@this], [@node] *)
  | Cexpr of string  (** raw contents of [${...}] *)
  | Int of int
  | Str of string
  | Punct of string
  | Eof

let pp_token = function
  | Id s -> Printf.sprintf "identifier %S" s
  | View_name s -> Printf.sprintf "view :%s" s
  | Ref s -> Printf.sprintf "@%s" s
  | Cexpr s -> Printf.sprintf "${%s}" s
  | Int n -> string_of_int n
  | Str s -> Printf.sprintf "%S" s
  | Punct p -> Printf.sprintf "%S" p
  | Eof -> "end of input"

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_digit c = c >= '0' && c <= '9'
let is_id_char c = is_id_start c || is_digit c

(** Tokenize; raises {!Ast.Error} with a line number on bad input. *)
let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let push t = toks := (t, !line) :: !toks in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '$' && peek 1 = Some '{' then begin
      (* Capture raw C expression, balancing braces. *)
      let start = !line in
      let j = ref (!i + 2) in
      let depth = ref 1 in
      let buf = Buffer.create 32 in
      while !j < n && !depth > 0 do
        (match src.[!j] with
        | '{' -> incr depth; Buffer.add_char buf '{'
        | '}' -> decr depth; if !depth > 0 then Buffer.add_char buf '}'
        | '\n' -> incr line; Buffer.add_char buf '\n'
        | c -> Buffer.add_char buf c);
        incr j
      done;
      if !depth > 0 then Ast.fail "line %d: unterminated ${...}" !line;
      toks := (Cexpr (Buffer.contents buf), start) :: !toks;
      i := !j
    end
    else if c = '@' then begin
      let j = ref (!i + 1) in
      while !j < n && is_id_char src.[!j] do incr j done;
      if !j = !i + 1 then Ast.fail "line %d: bare '@'" !line;
      push (Ref (String.sub src (!i + 1) (!j - !i - 1)));
      i := !j
    end
    else if c = ':' && (match peek 1 with Some c -> is_id_start c | None -> false)
            (* ':' directly followed by an identifier is a view name only in
               positions where the parser expects one; we lex it as a view
               token and let the parser reinterpret when needed. *)
    then begin
      let j = ref (!i + 1) in
      while !j < n && is_id_char src.[!j] do incr j done;
      push (View_name (String.sub src (!i + 1) (!j - !i - 1)));
      i := !j
    end
    else if is_digit c then begin
      let j = ref !i in
      let hex = c = '0' && (peek 1 = Some 'x' || peek 1 = Some 'X') in
      if hex then j := !i + 2;
      while
        !j < n
        && (is_digit src.[!j]
           || (hex && ((src.[!j] >= 'a' && src.[!j] <= 'f') || (src.[!j] >= 'A' && src.[!j] <= 'F'))))
      do incr j done;
      (match int_of_string_opt (String.sub src !i (!j - !i)) with
      | Some v -> push (Int v)
      | None -> Ast.fail "line %d: bad integer" !line);
      i := !j
    end
    else if is_id_start c then begin
      let j = ref (!i + 1) in
      while !j < n && is_id_char src.[!j] do incr j done;
      push (Id (String.sub src !i (!j - !i)));
      i := !j
    end
    else if c = '"' then begin
      let buf = Buffer.create 8 in
      let j = ref (!i + 1) in
      while !j < n && src.[!j] <> '"' do
        Buffer.add_char buf src.[!j];
        incr j
      done;
      if !j >= n then Ast.fail "line %d: unterminated string" !line;
      push (Str (Buffer.contents buf));
      i := !j + 1
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "->" | "=>" ->
          push (Punct two);
          i := !i + 2
      | _ ->
          (match c with
          | '{' | '}' | '[' | ']' | '(' | ')' | '<' | '>' | ',' | ':' | '=' | '.' | '|' ->
              push (Punct (String.make 1 c))
          | c -> Ast.fail "line %d: unexpected character %C" !line c);
          incr i
    end
  done;
  push Eof;
  List.rev !toks
