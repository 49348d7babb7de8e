(** ViewQL — the View Query Language (paper §2.3).

    An SQL-like language over an extracted {!Vgraph}: [SELECT] picks box
    sets (by type, by [type.field] projection, from [*], a named set, or
    [REACHABLE(set)], optionally filtered by [WHERE]); [UPDATE ... WITH]
    assigns display attributes ([view], [trimmed], [collapsed],
    [direction]). Set operators [\ ] (difference), [&] (intersection) and
    [UNION] combine named sets. Nested queries are (deliberately) not
    supported, mirroring the paper's design. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* AST *)

type value = Vint of int | Vstr of string | Vbool of bool | Vnull

type cmp = Eq | Ne | Lt | Gt | Le | Ge

type cond =
  | Cmp of string * cmp * value  (** member op literal *)
  | And of cond * cond
  | Or of cond * cond

type set_expr =
  | Named of string
  | Diff of set_expr * set_expr
  | Inter of set_expr * set_expr
  | Union of set_expr * set_expr

type source =
  | All
  | From_set of set_expr
  | Reachable of set_expr  (** everything reachable through links + members *)
  | Is_inside of set_expr
      (** the paper's object-set operator: boxes *contained* in a set's
          boxes — container members and inlined boxes, transitively, but
          not boxes merely pointed at by links *)

type select_spec = {
  bind : string;
  sel_type : string;
  sel_field : string option;  (** [maple_node.slots] / [file->pagecache] *)
  src : source;
  alias : string option;
  where : cond option;
}

type stmt =
  | Select of select_spec
  | Update of { target : set_expr; attrs : (string * string) list }

type program = stmt list

(* ------------------------------------------------------------------ *)
(* Lexer *)

type token = Tid of string | Tint of int | Tstr of string | Tpunct of string | Teof

let keywords = [ "SELECT"; "FROM"; "WHERE"; "UPDATE"; "WITH"; "AS"; "AND"; "OR"; "UNION";
                 "INTERSECT"; "REACHABLE"; "IS_INSIDE"; "NULL" ]

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  let is_id c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then
      while !i < n && src.[!i] <> '\n' do incr i done
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then
      while !i < n && src.[!i] <> '\n' do incr i done
    else if (c >= '0' && c <= '9')
            || (c = '-' && !i + 1 < n && src.[!i + 1] >= '0' && src.[!i + 1] <= '9') then begin
      let j = ref (!i + 1) in
      while
        !j < n
        && (is_id src.[!j] || src.[!j] = 'x' || src.[!j] = 'X')
      do incr j done;
      (match int_of_string_opt (String.sub src !i (!j - !i)) with
      | Some v -> push (Tint v)
      | None -> fail "bad number in ViewQL near %S" (String.sub src !i (!j - !i)));
      i := !j
    end
    else if is_id c then begin
      let j = ref (!i + 1) in
      while !j < n && is_id src.[!j] do incr j done;
      let word = String.sub src !i (!j - !i) in
      let upper = String.uppercase_ascii word in
      push (Tid (if List.mem upper keywords then upper else word));
      i := !j
    end
    else if c = '"' || c = '\'' then begin
      let quote = c in
      let j = ref (!i + 1) in
      let buf = Buffer.create 8 in
      while !j < n && src.[!j] <> quote do
        Buffer.add_char buf src.[!j];
        incr j
      done;
      if !j >= n then fail "unterminated string in ViewQL";
      push (Tstr (Buffer.contents buf));
      i := !j + 1
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "==" | "!=" | "<=" | ">=" | "->" ->
          push (Tpunct two);
          i := !i + 2
      | _ ->
          (match c with
          | '=' | '<' | '>' | '\\' | '&' | '|' | '(' | ')' | ':' | ',' | '*' | '.' ->
              push (Tpunct (String.make 1 c))
          | c -> fail "unexpected character %C in ViewQL" c);
          incr i
    end
  done;
  push Teof;
  List.rev !toks

(* ------------------------------------------------------------------ *)
(* Parser *)

type pstate = { mutable toks : token list }

let peek st = match st.toks with [] -> Teof | t :: _ -> t
let next2 st = match st.toks with _ :: t :: _ -> t | _ -> Teof
let advance st = match st.toks with [] -> () | _ :: r -> st.toks <- r

let expect_punct st p =
  match peek st with
  | Tpunct q when q = p -> advance st
  | _ -> fail "ViewQL: expected %S" p

let expect_id st =
  match peek st with
  | Tid s -> advance st; s
  | _ -> fail "ViewQL: expected identifier"

let rec parse_set st =
  let lhs =
    match peek st with
    | Tid name when not (List.mem name keywords) ->
        advance st;
        Named name
    | Tpunct "(" ->
        advance st;
        let s = parse_set st in
        expect_punct st ")";
        s
    | _ -> fail "ViewQL: expected a set name"
  in
  match peek st with
  | Tpunct "\\" -> advance st; Diff (lhs, parse_set st)
  | Tpunct "&" | Tid "INTERSECT" -> advance st; Inter (lhs, parse_set st)
  | Tpunct "|" | Tid "UNION" -> advance st; Union (lhs, parse_set st)
  | _ -> lhs

let parse_value st =
  match peek st with
  | Tint v -> advance st; Vint v
  | Tstr s -> advance st; Vstr s
  | Tid "NULL" -> advance st; Vnull
  | Tid "true" -> advance st; Vbool true
  | Tid "false" -> advance st; Vbool false
  | Tid s -> advance st; Vstr s
  | _ -> fail "ViewQL: expected a literal value"

let parse_cmp st =
  match peek st with
  | Tpunct "==" | Tpunct "=" -> advance st; Eq
  | Tpunct "!=" -> advance st; Ne
  | Tpunct "<" -> advance st; Lt
  | Tpunct ">" -> advance st; Gt
  | Tpunct "<=" -> advance st; Le
  | Tpunct ">=" -> advance st; Ge
  | _ -> fail "ViewQL: expected comparison operator"

let rec parse_cond st =
  let rec parse_and () =
    let lhs = parse_atom () in
    if peek st = Tid "AND" then begin
      advance st;
      And (lhs, parse_and ())
    end
    else lhs
  and parse_atom () =
    match peek st with
    | Tpunct "(" ->
        advance st;
        let c = parse_cond st in
        expect_punct st ")";
        c
    | Tid member when not (List.mem member keywords) ->
        advance st;
        let op = parse_cmp st in
        let v = parse_value st in
        Cmp (member, op, v)
    | _ -> fail "ViewQL: expected condition"
  in
  let lhs = parse_and () in
  if peek st = Tid "OR" then begin
    advance st;
    Or (lhs, parse_cond st)
  end
  else lhs

let parse_select st bind =
  (* at SELECT *)
  advance st;
  let sel_type = expect_id st in
  let sel_field =
    match peek st with
    | Tpunct "." | Tpunct "->" ->
        advance st;
        Some (expect_id st)
    | _ -> None
  in
  (match peek st with Tid "FROM" -> advance st | _ -> fail "ViewQL: expected FROM");
  let src =
    match peek st with
    | Tpunct "*" ->
        advance st;
        All
    | Tid "REACHABLE" ->
        advance st;
        expect_punct st "(";
        let s = parse_set st in
        expect_punct st ")";
        Reachable s
    | Tid "IS_INSIDE" ->
        advance st;
        expect_punct st "(";
        let s = parse_set st in
        expect_punct st ")";
        Is_inside s
    | _ -> From_set (parse_set st)
  in
  let alias =
    match peek st with
    | Tid "AS" ->
        advance st;
        Some (expect_id st)
    | _ -> None
  in
  let where =
    match peek st with
    | Tid "WHERE" ->
        advance st;
        Some (parse_cond st)
    | _ -> None
  in
  Select { bind; sel_type; sel_field; src; alias; where }

let parse_update st =
  (* at UPDATE *)
  advance st;
  let target = parse_set st in
  (match peek st with Tid "WITH" -> advance st | _ -> fail "ViewQL: expected WITH");
  let rec attrs acc =
    let name = expect_id st in
    expect_punct st ":";
    let v =
      match peek st with
      | Tid s -> advance st; s
      | Tstr s -> advance st; s
      | Tint n -> advance st; string_of_int n
      | _ -> fail "ViewQL: expected attribute value"
    in
    if peek st = Tpunct "," then begin
      advance st;
      attrs ((name, v) :: acc)
    end
    else List.rev ((name, v) :: acc)
  in
  Update { target; attrs = attrs [] }

let parse src =
  let st = { toks = tokenize src } in
  let rec go acc =
    match peek st with
    | Teof -> List.rev acc
    | Tid "UPDATE" -> go (parse_update st :: acc)
    | Tid name when not (List.mem name keywords) && next2 st = Tpunct "=" ->
        advance st;
        advance st;
        if peek st <> Tid "SELECT" then fail "ViewQL: expected SELECT after '%s ='" name;
        go (parse_select st name :: acc)
    | Tid "SELECT" -> go (parse_select st "_" :: acc)
    | _ -> fail "ViewQL: expected statement"
  in
  go []

(* ------------------------------------------------------------------ *)
(* Engine *)

type session = { graph : Vgraph.t; sets : (string, Vgraph.box_id list) Hashtbl.t }

let make_session graph = { graph; sets = Hashtbl.create 16 }

let get_set s name =
  match Hashtbl.find_opt s.sets name with
  | Some ids -> ids
  | None -> fail "ViewQL: unknown set %S" name

(* Set operators test membership through a hashtable of the right-hand
   side (and, for UNION, of the left), not [List.mem] — interactive sets
   over big plots made the old quadratic versions the dominant exec
   cost. *)
let id_set ids =
  let h = Hashtbl.create (List.length ids * 2) in
  List.iter (fun id -> Hashtbl.replace h id ()) ids;
  h

let rec eval_set s = function
  | Named n -> get_set s n
  | Diff (a, b) ->
      let bs = id_set (eval_set s b) in
      List.filter (fun id -> not (Hashtbl.mem bs id)) (eval_set s a)
  | Inter (a, b) ->
      let bs = id_set (eval_set s b) in
      List.filter (fun id -> Hashtbl.mem bs id) (eval_set s a)
  | Union (a, b) ->
      let as_ = eval_set s a in
      let seen = id_set as_ in
      as_ @ List.filter (fun id -> not (Hashtbl.mem seen id)) (eval_set s b)

let fval_matches op (fv : Vgraph.fval) (v : value) =
  let cmp_int a b =
    match op with
    | Eq -> a = b
    | Ne -> a <> b
    | Lt -> a < b
    | Gt -> a > b
    | Le -> a <= b
    | Ge -> a >= b
  in
  match (fv, v) with
  | Vgraph.Fint a, Vint b -> cmp_int a b
  | Vgraph.Faddr a, Vint b -> cmp_int a b
  | Vgraph.Faddr a, Vnull -> cmp_int a 0
  | Vgraph.Fint a, Vnull -> cmp_int a 0
  | Vgraph.Fbool a, Vbool b -> cmp_int (Bool.to_int a) (Bool.to_int b)
  | Vgraph.Fbool a, Vint b -> cmp_int (Bool.to_int a) b
  | Vgraph.Fstr a, Vstr b -> (
      match op with
      | Eq -> a = b
      | Ne -> a <> b
      | Lt -> a < b
      | Gt -> a > b
      | Le -> a <= b
      | Ge -> a >= b)
  | Vgraph.Fstr a, Vnull -> ( match op with Eq -> a = "" | Ne -> a <> "" | _ -> false)
  | Vgraph.Fint a, Vbool b -> cmp_int a (Bool.to_int b)
  | Vgraph.Faddr _, (Vstr _ | Vbool _)
  | Vgraph.Fint _, Vstr _
  | Vgraph.Fbool _, (Vstr _ | Vnull)
  | Vgraph.Fstr _, (Vint _ | Vbool _) -> false

let rec eval_cond s alias (b : Vgraph.box) = function
  | And (x, y) -> eval_cond s alias b x && eval_cond s alias b y
  | Or (x, y) -> eval_cond s alias b x || eval_cond s alias b y
  | Cmp (member, op, v) -> (
      (* The alias (or the box's own type/def name) compares the box's
         address: WHERE vma != 0x55... *)
      if Some member = alias || member = b.Vgraph.btype || member = b.Vgraph.bdef then
        fval_matches op (Vgraph.Faddr b.Vgraph.addr) v
      else
        match Vgraph.field b member with
        | Some fv -> fval_matches op fv v
        | None -> false)

(* Containment closure: members of containers and inlined boxes, links
   excluded. *)
let inside g seeds =
  let seen = Hashtbl.create 32 in
  let rec go id =
    match Vgraph.find g id with
    | None -> ()
    | Some b ->
        let kids =
          b.Vgraph.members
          @ List.filter_map
              (function Vgraph.Inline { target; _ } -> Some target | _ -> None)
              (Vgraph.current_items b)
        in
        List.iter
          (fun kid ->
            if not (Hashtbl.mem seen kid) then begin
              Hashtbl.add seen kid ();
              go kid
            end)
          kids
  in
  List.iter go seeds;
  Hashtbl.fold (fun id () acc -> id :: acc) seen [] |> List.sort compare

let select_boxes s { sel_type; sel_field; src; alias; where; _ } =
  let of_type =
    match src with
    (* [FROM *] answers straight from the graph's name index instead of
       scanning every box: one bucket probe, ids already ascending. *)
    | All when sel_type <> "*" -> Vgraph.ids_of_type s.graph sel_type
    | All -> List.map (fun b -> b.Vgraph.id) (Vgraph.boxes s.graph)
    | From_set se | Reachable se | Is_inside se ->
        let candidates =
          match src with
          | From_set _ -> eval_set s se
          | Reachable _ -> Vgraph.reachable s.graph (eval_set s se)
          | _ -> inside s.graph (eval_set s se)
        in
        List.filter
          (fun id ->
            let b = Vgraph.get s.graph id in
            sel_type = "*" || b.Vgraph.btype = sel_type || b.Vgraph.bdef = sel_type)
          candidates
  in
  let projected =
    match sel_field with
    | None -> of_type
    | Some f ->
        (* project: the boxes referenced by item [f] of each selected box *)
        List.concat_map
          (fun id ->
            let b = Vgraph.get s.graph id in
            List.filter_map
              (function
                | Vgraph.Link { label; target = Some t } when label = f -> Some t
                | Vgraph.Inline { label; target } when label = f -> Some target
                | _ -> None)
              (Vgraph.current_items b))
          of_type
  in
  match where with
  | None -> projected
  | Some c -> List.filter (fun id -> eval_cond s alias (Vgraph.get s.graph id) c) projected

let apply_attr g id (name, v) =
  let b = Vgraph.get g id in
  let a = b.Vgraph.attrs in
  match name with
  | "view" -> a.Vgraph.view <- v
  | "trimmed" -> a.Vgraph.trimmed <- v = "true"
  | "collapsed" -> a.Vgraph.collapsed <- v = "true"
  | "shrinked" | "shrunk" -> a.Vgraph.collapsed <- v = "true"
  | "direction" ->
      a.Vgraph.direction <- (if v = "vertical" then Vgraph.Vertical else Vgraph.Horizontal)
  | other ->
      (* a re-applied binding leaves the list (and the box's card) as is *)
      if List.assoc_opt other a.Vgraph.extra <> Some v then
        a.Vgraph.extra <- (other, v) :: List.remove_assoc other a.Vgraph.extra

(** Execute a parsed program; returns the number of boxes updated. *)
let exec_program s prog =
  let updated = ref 0 in
  List.iter
    (function
      | Select ({ bind; _ } as sel) -> Hashtbl.replace s.sets bind (select_boxes s sel)
      | Update { target; attrs } ->
          let ids = eval_set s target in
          updated := !updated + List.length ids;
          List.iter (fun id -> List.iter (apply_attr s.graph id) attrs) ids)
    prog;
  !updated

(** Parse and execute [src] against [graph]. Named sets persist in the
    session across calls (interactive refinement). *)
let exec s src =
  Obs.with_span ~cat:"viewql" "viewql.exec" (fun () -> exec_program s (parse src))

let run graph src =
  let s = make_session graph in
  let n = exec s src in
  (s, n)
