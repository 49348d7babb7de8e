(** Natural-language to ViewQL synthesis (the paper's *vchat* command).

    The paper uses DeepSeek-V2 with an in-context-learning prompt; we
    substitute a deterministic rule-based synthesizer over the same
    vocabulary so that the Table 3 experiment is reproducible offline.
    An [llm] callback can be plugged in to use a real model instead of
    the rules; it receives the paper's prompt, {!prompt_template}
    instantiated with the request. *)

let prompt_template =
  {|A kernel object graph is extracted from a running Linux kernel.
The vertices are denoted by Box (objects), and the edges are Links (pointers).
- Each box has a type and members, and may have the following attributes:
  view (string), trimmed (bool), collapsed (bool), direction (string).
- Each member is either a text (a named scalar value) or a link to another box.
A domain-specific language ViewQL, whose syntax is similar to SQL database
query languages, can be applied to the kernel object graph.
The ViewQL only has two types of statements:
- name = SELECT <type>[.field] FROM <*|set|REACHABLE(set)> [AS alias] [WHERE cond]
- UPDATE <set-expression> WITH attr: value
Set expressions support difference (\), intersection (&) and UNION.
Here are some examples:
Example 1: select all cfs_rq boxes and change their views to sched_tree.
  a = SELECT cfs_rq FROM *
  UPDATE a WITH view: sched_tree
Example 2: collapse all tasks that have no address space.
  a = SELECT task_struct FROM * WHERE mm == NULL
  UPDATE a WITH collapsed: true
I intend to {{desc}}. Synthesize a ViewQL program.|}

let prompt_for desc =
  Str.global_replace (Str.regexp_string "{{desc}}") desc prompt_template

(* ------------------------------------------------------------------ *)
(* Vocabulary *)

(* Kernel type names and their informal aliases. *)
let type_aliases =
  [ ("task", "task_struct"); ("tasks", "task_struct"); ("process", "task_struct");
    ("processes", "task_struct"); ("task_struct", "task_struct");
    ("task_structs", "task_struct");
    ("vma", "vm_area_struct"); ("vmas", "vm_area_struct");
    ("vm_area_struct", "vm_area_struct"); ("vm_area_structs", "vm_area_struct");
    ("memory area", "vm_area_struct"); ("memory areas", "vm_area_struct");
    ("maple_node", "maple_node"); ("maple_nodes", "maple_node");
    ("superblock", "super_block"); ("superblocks", "super_block");
    ("super_block", "super_block");
    ("socket", "sock"); ("sockets", "sock");
    ("page", "page"); ("pages", "page");
    ("pid hash table entry", "upid"); ("pid hash table entries", "upid");
    ("irq descriptor", "irq_desc"); ("irq descriptors", "irq_desc");
    ("irq_desc", "irq_desc");
    ("sigaction", "k_sigaction"); ("sigactions", "k_sigaction");
    ("file", "file"); ("files", "file");
    ("mm_struct", "mm_struct"); ("list", "List"); ("lists", "List");
    ("superblock list", "List"); ("super_block list", "List");
    ("red-black tree", "RBTree"); ("rbtree", "RBTree");
    ("xa_node", "xa_node"); ("xa_nodes", "xa_node");
    ("pipe", "pipe_inode_info"); ("pipes", "pipe_inode_info") ]

(* Field-name aliases appearing in natural descriptions. *)
let field_aliases =
  [ ("address space", "mm"); ("memory mapping", "mm"); ("mm", "mm");
    ("action", "action"); ("block device", "s_bdev"); ("s_bdev", "s_bdev");
    ("write buffer", "wqlen"); ("receive buffer", "rqlen");
    ("handler", "handler"); ("file", "vm_file"); ("pid", "pid"); ("ppid", "ppid");
    ("address", "addr") ]

exception Cannot_synthesize of string

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* Word-boundary match: "pages" must not match inside "nrpages". *)
let contains_word hay needle =
  let lh = String.length hay and ln = String.length needle in
  let is_word c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' in
  let rec go i =
    if i + ln > lh then false
    else if
      String.sub hay i ln = needle
      && (i = 0 || not (is_word hay.[i - 1]))
      && (i + ln = lh || not (is_word hay.[i + ln]))
    then true
    else go (i + 1)
  in
  ln > 0 && go 0

let lower = String.lowercase_ascii

(* Find the first (longest) alias mentioned in the description. *)
let find_alias table desc =
  let cands = List.filter (fun (a, _) -> contains_word desc (lower a)) table in
  match List.sort (fun (a, _) (b, _) -> compare (String.length b) (String.length a)) cands with
  | (a, t) :: _ -> Some (a, t)
  | [] -> None

(* ------------------------------------------------------------------ *)
(* Clause analysis *)

type action = Collapse | Trim | Set_view of string | Set_direction of string

let re_view = Str.regexp "view[ :]+\"?\\([A-Za-z_][A-Za-z0-9_]*\\)\"?"
let re_show_view = Str.regexp "\"?\\([A-Za-z_][A-Za-z0-9_]*\\)\"?[ ]+view"
let re_hex = Str.regexp "0x[0-9a-fA-F]+"
let re_number = Str.regexp "\\b\\([0-9]+\\)\\b"
let re_field_eq = Str.regexp "\\([a-z_][a-z0-9_]*\\) *\\(==\\|!=\\|is not\\|is\\) *\\([A-Za-z0-9_]+\\)"

let detect_action desc =
  if contains desc "collapse" || contains desc "shrink" then Some Collapse
  else if contains desc "trim" || contains desc "invisible" || contains desc "hide"
          || contains desc "remove" then Some Trim
  else if contains desc "vertical" || contains desc "top-down" then
    Some (Set_direction "vertical")
  else if contains desc "horizontal" then Some (Set_direction "horizontal")
  else if Str.string_match (Str.regexp ".*display") desc 0 || contains desc "view" then
    (* display view "x" / with the x view *)
    try
      ignore (Str.search_forward re_view desc 0);
      Some (Set_view (Str.matched_group 1 desc))
    with Not_found -> (
      try
        ignore (Str.search_forward re_show_view desc 0);
        Some (Set_view (Str.matched_group 1 desc))
      with Not_found -> None)
  else None

(* Detect a WHERE condition from the clause text. *)
let detect_cond desc =
  let neg = contains desc "not " || contains desc "no " || contains desc "without"
            || contains desc "empty" || contains desc "n't" in
  (* "address is not 0x..." *)
  let hex =
    try
      ignore (Str.search_forward re_hex desc 0);
      Some (Str.matched_string desc)
    with Not_found -> None
  in
  match hex with
  | Some h when contains desc "address" || contains desc "whose address" ->
      Some (Printf.sprintf "addr %s %s" (if neg then "!=" else "==") h)
  | _ -> (
      (* explicit field comparisons, e.g. "pid == 2", "action is not
         configured" *)
      try
        ignore (Str.search_forward re_field_eq desc 0);
        let f = Str.matched_group 1 desc and op = Str.matched_group 2 desc in
        let v = Str.matched_group 3 desc in
        let explicit = op = "==" || op = "!=" in
        let op = match op with "is" -> "==" | "is not" -> "!=" | o -> o in
        (* "configured"/"set" mean non-NULL: "is not configured" = NULL. *)
        let op, v =
          match lower v with
          | "configured" | "set" -> ((if op = "==" then "!=" else "=="), "NULL")
          | "null" | "nil" | "empty" -> (op, "NULL")
          | _ -> (op, v)
        in
        if explicit || v = "NULL"
           || List.mem f (List.map snd field_aliases)
           || f = "pid" || f = "ppid" then
          Some (Printf.sprintf "%s %s %s" f op v)
        else raise Not_found
      with Not_found -> (
        match find_alias field_aliases desc with
        | Some (_, "wqlen") when contains desc "both" && contains desc "empty" ->
            Some "wqlen == 0 AND rqlen == 0"
        | Some (alias, field) ->
            let mentions_null =
              contains desc "no " || contains desc "non-null" || contains desc "not null"
              || contains desc "null" || contains desc "not configured"
              || contains desc "non-configured" || contains desc "not connected"
              || contains desc "has no" || contains desc "have no"
            in
            ignore alias;
            if not mentions_null then None
            else if contains desc "non-null" || contains desc "not null" then
              Some (Printf.sprintf "%s != NULL" field)
            else Some (Printf.sprintf "%s == NULL" field)
        | None -> (
            (* "that have no memory mapping" handled above; pid lists *)
            if contains desc "writable" then
              Some
                (if contains desc "not writable" || contains desc "non-writable" then
                   "is_writable != true"
                 else "is_writable == true")
            else
              try
                ignore (Str.search_forward re_number desc 0);
                let n = Str.matched_group 1 desc in
                if contains desc "pid" then
                  Some (Printf.sprintf "pid == %s OR ppid == %s" n n)
                else None
              with Not_found -> None)))

(* Split the description into independent clauses. *)
let clauses desc =
  Str.split (Str.regexp "\\(, and \\|; \\| and \\|, \\)") desc

let attr_of_action = function
  | Collapse -> ("collapsed", "true")
  | Trim -> ("trimmed", "true")
  | Set_view v -> ("view", v)
  | Set_direction d -> ("direction", d)

(** Synthesize a ViewQL program from a natural-language [desc]. The
    optional [llm] callback (prompt -> program) takes precedence, modelling
    a real model behind the same interface. *)
let synthesize ?llm desc =
  match llm with
  | Some f -> f (prompt_for desc)
  | None ->
      let stmts = ref [] in
      let var = ref 0 in
      let emit ?field ty cond action =
        incr var;
        let name = Printf.sprintf "s%d" !var in
        let what = match field with Some f -> ty ^ "." ^ f | None -> ty in
        let sel =
          match cond with
          | Some c -> Printf.sprintf "%s = SELECT %s FROM * WHERE %s" name what c
          | None -> Printf.sprintf "%s = SELECT %s FROM *" name what
        in
        let attr, v = attr_of_action action in
        stmts := Printf.sprintf "UPDATE %s WITH %s: %s" name attr v :: sel :: !stmts
      in
      (* "the <field> of <type>" projects onto a member's target boxes. *)
      let re_projection = Str.regexp "the \\([a-z_][a-z0-9_]*\\) of" in
      (* A clause may carry only the subject ("find all X whose ...") with
         the action in the next one ("... and collapse them"). *)
      let pending = ref None in
      List.iter
        (fun clause ->
          let clause = lower (String.trim clause) in
          if clause = "" then ()
          else begin
            let action = detect_action clause in
            let subject =
              match find_alias type_aliases clause with
              | Some (_, ty) ->
                  let field =
                    try
                      ignore (Str.search_forward re_projection clause 0);
                      Some (Str.matched_group 1 clause)
                    with Not_found -> None
                  in
                  let cond = if field = None then detect_cond clause else None in
                  Some (ty, field, cond)
              | None -> None
            in
            match (action, subject) with
            | Some action, Some (ty, field, cond) ->
                emit ?field ty cond action;
                pending := Some (ty, field, cond)
            | Some action, None -> (
                (* anaphora: "... and collapse them" *)
                match !pending with
                | Some (ty, field, cond) -> emit ?field ty cond action
                | None -> ())
            | None, Some subj -> pending := Some subj
            | None, None -> ()
          end)
        (clauses (lower desc));
      if !stmts = [] then raise (Cannot_synthesize desc);
      String.concat "\n" (List.rev !stmts)
