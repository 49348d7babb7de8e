(** A small JSON implementation (parser + printer).

    The one JSON codec of the libraries: protocol messages, graphs, WAL
    records, metrics and Chrome traces are all built as {!t}.  Supports
    the full JSON grammar except surrogate pairs in \u escapes (a lone
    half decodes to U+FFFD); numbers are parsed as OCaml floats with an
    integer fast path. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Printer *)

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s

(* JSON has no non-finite numbers: nan has no value to carry and prints
   as null, the infinities saturate to the largest decade a double
   holds.  A finite float prints in the fewest of 15..17 significant
   digits that parse back to the same double. *)
let float_to_string f =
  if Float.is_nan f then "null"
  else if f = Float.infinity then "1e308"
  else if f = Float.neg_infinity then "-1e308"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.16g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string v =
  let buf = Buffer.create 256 in
  let str s =
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  in
  let seq f l = List.iteri (fun i x -> if i > 0 then Buffer.add_char buf ','; f x) l in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_to_string f)
    | String s -> str s
    | List l -> Buffer.add_char buf '['; seq go l; Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        seq (fun (k, v) -> str k; Buffer.add_char buf ':'; go v) kvs;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser *)

type pstate = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  skip_ws st;
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | Some d -> fail "expected %C at offset %d, got %C" c st.pos d
  | None -> fail "expected %C at end of input" c

let parse_string_body st =
  (* [pos] is just after the opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | Some 'u' ->
            if st.pos + 4 >= String.length st.src then fail "bad \\u escape";
            let hex = String.sub st.src (st.pos + 1) 4 in
            let code =
              match int_of_string_opt ("0x" ^ hex) with
              | Some c when not (String.contains hex '_') -> c
              | _ -> fail "bad \\u escape %S at offset %d" hex st.pos
            in
            (* a lone surrogate half (pairs are not joined) is no scalar value *)
            Buffer.add_utf_8_uchar buf
              (if Uchar.is_valid code then Uchar.of_int code else Uchar.rep);
            st.pos <- st.pos + 5;
            go ()
        | Some c ->
            Buffer.add_char buf
              (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | 'b' -> '\b' | 'f' -> '\012' | c -> c);
            st.pos <- st.pos + 1;
            go ()
        | None -> fail "unterminated escape")
    | Some c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some '"' ->
      st.pos <- st.pos + 1;
      String (parse_string_body st)
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then (st.pos <- st.pos + 1; Obj [])
      else begin
        let rec members acc =
          skip_ws st;
          expect st '"';
          let k = parse_string_body st in
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; members ((k, v) :: acc)
          | Some '}' -> st.pos <- st.pos + 1; List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}' at offset %d" st.pos
        in
        Obj (members [])
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then (st.pos <- st.pos + 1; List [])
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; elements (v :: acc)
          | Some ']' -> st.pos <- st.pos + 1; List.rev (v :: acc)
          | _ -> fail "expected ',' or ']' at offset %d" st.pos
        in
        List (elements [])
      end
  | Some ('t' | 'f' | 'n' as c) ->
      let word, v =
        match c with 't' -> ("true", Bool true) | 'f' -> ("false", Bool false) | _ -> ("null", Null)
      in
      let n = String.length word in
      if String.length st.src - st.pos >= n && String.sub st.src st.pos n = word then begin
        st.pos <- st.pos + n;
        v
      end
      else fail "bad literal at offset %d" st.pos
  | Some _ ->
      let start = st.pos in
      while
        st.pos < String.length st.src
        && match st.src.[st.pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do
        st.pos <- st.pos + 1
      done;
      if st.pos = start then fail "unexpected character at offset %d" start;
      let lit = String.sub st.src start (st.pos - start) in
      (match int_of_string_opt lit with
      | Some n -> Int n
      | None -> (
          match float_of_string_opt lit with
          | Some f -> Float f
          | None -> fail "bad number %S" lit))

let parse src =
  let st = { src; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then fail "trailing input at offset %d" st.pos;
  v

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let member_exn key j =
  match member key j with
  | Some v -> v
  | None -> fail "missing member %S" key

let to_int = function Int n -> n | Float f -> int_of_float f | _ -> fail "expected int"
let to_float = function Int n -> float_of_int n | Float f -> f | _ -> fail "expected number"
let to_str = function String s -> s | _ -> fail "expected string"
let to_list = function List l -> l | _ -> fail "expected list"
let to_bool = function Bool b -> b | _ -> fail "expected bool"
