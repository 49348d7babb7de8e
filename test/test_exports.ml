(* Every export has a caller.  Lists each [val] of [lib/*/*.mli] that no
   file outside its own [.ml] calls, across lib/, bin/, bench/, perf/ and
   examples/ (test/ does not count as a caller), and fails on any name
   the allowlist below does not cover.  The scan is lexical but follows
   submodule paths ([Obs.Metrics.observe]), [open]/[include] and local
   opens ([M.(...)]), and module aliases ([module C = Workload.Campaign]
   in a file, [module Interp = Interp] re-exports across files); an
   opened module counts every bare identifier of the file as a possible
   use of it, so the scan errs on the side of "used". *)

type tok = U of string | L of string | Dot | Open_paren | Eq | Colon | Other

let is_ident_char c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false

let is_op_char c = String.contains "!$%&*+-./:<=>?@^|~#" c

(* Tokens of an OCaml source, with comments, strings, quoted strings and
   character literals dropped. *)
let lex s =
  let n = String.length s in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let rec string_end i =
    if i >= n then n
    else match s.[i] with '\\' -> string_end (i + 2) | '"' -> i + 1 | _ -> string_end (i + 1)
  in
  let rec comment_end i depth =
    if i + 1 >= n then n
    else if s.[i] = '(' && s.[i + 1] = '*' then comment_end (i + 2) (depth + 1)
    else if s.[i] = '*' && s.[i + 1] = ')' then
      if depth = 1 then i + 2 else comment_end (i + 2) (depth - 1)
    else if s.[i] = '"' then comment_end (string_end (i + 1)) depth
    else comment_end (i + 1) depth
  in
  let span_while i p =
    let j = ref i in
    while !j < n && p s.[!j] do incr j done;
    !j
  in
  (* [{id|...|id}], or [None] when the brace opens a record *)
  let quoted_end i =
    let j = span_while (i + 1) (fun c -> (c >= 'a' && c <= 'z') || c = '_') in
    if j < n && s.[j] = '|' then
      let close = "|" ^ String.sub s (i + 1) (j - i - 1) ^ "}" in
      let m = String.length close in
      let rec find k =
        if k + m > n then n else if String.sub s k m = close then k + m else find (k + 1)
      in
      Some (find (j + 1))
    else None
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '(' when i + 1 < n && s.[i + 1] = '*' -> go (comment_end (i + 2) 1)
      | '"' -> go (string_end (i + 1))
      | '{' -> (
          match quoted_end i with
          | Some j -> go j
          | None ->
              push Other;
              go (i + 1))
      | '\'' when i + 1 < n && s.[i + 1] = '\\' ->
          go (span_while (i + 2) (fun c -> c <> '\'') + 1)
      | '\'' when i + 2 < n && s.[i + 2] = '\'' -> go (i + 3)
      | 'a' .. 'z' | '_' ->
          let j = span_while i is_ident_char in
          push (L (String.sub s i (j - i)));
          go j
      | 'A' .. 'Z' ->
          let j = span_while i is_ident_char in
          push (U (String.sub s i (j - i)));
          go j
      | '0' .. '9' -> go (span_while i (fun c -> is_ident_char c || c = '.'))
      | '(' ->
          push Open_paren;
          go (i + 1)
      | c when is_op_char c ->
          let j = span_while i is_op_char in
          push
            (match String.sub s i (j - i) with
            | "." -> Dot
            | "=" -> Eq
            | ":" -> Colon
            | _ -> Other);
          go j
      | _ ->
          (if not (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t' || s.[i] = '\r') then push Other);
          go (i + 1)
  in
  go 0;
  Array.of_list (List.rev !toks)

type file = { path : string; modname : string; toks : tok array }

let file_of ~path contents =
  let base = Filename.remove_extension (Filename.basename path) in
  { path; modname = String.capitalize_ascii base; toks = lex contents }

(* [U a; Dot; U b; ...] from [i]: the module path and the index after it. *)
let read_path toks i =
  let n = Array.length toks in
  let rec go i acc =
    match toks.(i) with
    | U m when i + 2 < n && toks.(i + 1) = Dot && (match toks.(i + 2) with U _ -> true | _ -> false)
      ->
        go (i + 2) (m :: acc)
    | U m -> (List.rev (m :: acc), i + 1)
    | _ -> (List.rev acc, i)
  in
  go i []

(* The exported values of an interface, as full paths
   ([["Obs"; "Metrics"; "observe"]]): [val]s at top level or inside
   [module M : sig ... end], not inside module types. *)
let exports f =
  let n = Array.length f.toks in
  let out = ref [] in
  (* enclosing [sig]/[struct]/... blocks, innermost first; [None] for a
     block whose values are not exported under a name *)
  let rec go i stack pending =
    if i < n then
      match f.toks.(i) with
      | L "module" when i + 3 < n && f.toks.(i + 2) = Colon && f.toks.(i + 3) = L "sig" -> (
          match f.toks.(i + 1) with
          | U m -> go (i + 3) stack (Some m)
          | _ -> go (i + 1) stack None)
      | L "sig" -> go (i + 1) (pending :: stack) None
      | L ("struct" | "object" | "begin") -> go (i + 1) (None :: stack) None
      | L "end" -> go (i + 1) (match stack with _ :: s -> s | [] -> []) None
      | L ("val" | "external") when i + 1 < n -> (
          match f.toks.(i + 1) with
          | L v when List.for_all Option.is_some stack ->
              out := ((f.modname :: List.rev_map Option.get stack) @ [ v ]) :: !out;
              go (i + 2) stack None
          | _ -> go (i + 1) stack None)
      | _ -> go (i + 1) stack None
  in
  go 0 [] None;
  List.rev !out

(* [module X = A.B] aliases of a file: X -> [A; B]. *)
let aliases f =
  let n = Array.length f.toks in
  let rec go i acc =
    if i + 3 >= n then acc
    else
      match (f.toks.(i), f.toks.(i + 1), f.toks.(i + 2), f.toks.(i + 3)) with
      | L "module", U x, Eq, U _ ->
          let p, j = read_path f.toks (i + 3) in
          if j < n && (f.toks.(j) = Open_paren || f.toks.(j) = Dot) then go (i + 1) acc
          else go j ((x, p) :: acc)
      | _ -> go (i + 1) acc
  in
  go 0 []

(* Every full path a file may use, given the cross-file re-exports
   [global] ([["Viewcl"; "Interp"] -> ["Interp"]]). *)
let uses ~global f =
  let local = aliases f in
  let rec resolve fuel p =
    if fuel = 0 then p
    else
      match p with
      | m :: rest when List.mem_assoc m local && List.assoc m local <> [ m ] ->
          resolve (fuel - 1) (List.assoc m local @ rest)
      | a :: b :: rest when List.mem_assoc [ a; b ] global ->
          resolve (fuel - 1) (List.assoc [ a; b ] global @ rest)
      | _ -> p
  in
  let resolve = resolve 8 in
  let n = Array.length f.toks in
  let qualified = ref [] and opened = ref [] and bare = ref [] in
  let rec go i =
    if i < n then
      match f.toks.(i) with
      | L ("open" | "include") ->
          let j = if i + 1 < n && f.toks.(i + 1) = Other then i + 2 else i + 1 in
          let p, j = read_path f.toks j in
          if p <> [] then opened := resolve p :: !opened;
          go (max j (i + 1))
      | U _
        when not (i >= 2 && f.toks.(i - 1) = Dot && match f.toks.(i - 2) with U _ -> true | _ -> false)
        ->
          let p, j = read_path f.toks i in
          if j + 1 < n && f.toks.(j) = Dot then (
            match f.toks.(j + 1) with
            | L v -> qualified := (p, v) :: !qualified
            | Open_paren | Other -> opened := resolve p :: !opened
            | _ -> ());
          go j
      | L v when not (i >= 1 && f.toks.(i - 1) = Dot) ->
          bare := v :: !bare;
          go (i + 1)
      | _ -> go (i + 1)
  in
  go 0;
  let used = Hashtbl.create 256 in
  let add p = Hashtbl.replace used (String.concat "." p) () in
  List.iter (fun (p, v) -> add (resolve p @ [ v ])) !qualified;
  List.iter
    (fun o ->
      List.iter (fun v -> add (o @ [ v ])) !bare;
      List.iter (fun (p, v) -> add (resolve (o @ p) @ [ v ])) !qualified)
    !opened;
  used

(* The exports of [lib/*/*.mli] among [files] (paths relative to the
   repo root) that nothing outside their own [.ml] uses, sorted. *)
let unused files =
  let files = List.map (fun (path, contents) -> file_of ~path contents) files in
  let global =
    List.concat_map
      (fun f -> List.map (fun (x, p) -> ([ f.modname; x ], p)) (aliases f))
      files
  in
  let is_lib_mli f =
    Filename.check_suffix f.path ".mli"
    && match String.split_on_char '/' f.path with [ "lib"; _; _ ] -> true | _ -> false
  in
  let callers =
    List.filter_map
      (fun f -> if Filename.check_suffix f.path ".ml" then Some (f.path, uses ~global f) else None)
      files
  in
  List.concat_map
    (fun mli ->
      let own = Filename.remove_extension mli.path ^ ".ml" in
      List.filter_map
        (fun p ->
          let id = String.concat "." p in
          if List.exists (fun (path, used) -> path <> own && Hashtbl.mem used id) callers
          then None
          else Some id)
        (exports mli))
    (List.filter is_lib_mli files)
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* The allowlist *)

(* The library surface a downstream user adopts (DESIGN §1): every
   export of these is API, called or not. *)
let surface = [ "ctype"; "cexpr"; "viewcl"; "viewql"; "vgraph"; "render" ]

(* Exports outside the surface that only tests call, each with the test
   or seam that needs it. *)
let allowlist =
  [ (* seams that let a test inject a fault *)
    ("Durable.set_crash", "test_durable: arms a crash at a record boundary");
    ("Durable.crashed", "test_durable: observes the armed crash firing");
    ("Durable.disk_image", "test_durable: what a reboot reads after the crash");
    ("Kmem.poison_range", "test_faults: injects a use-after-free poison range");
    ("Kmem.flip_bits", "test_faults: injects a bit flip");
    ("Kmem.log_capacity", "test_kmem: overflows one page's write log");
    ("Transport.default_policy", "test_transport, test_session: base of a test policy");
    (* reference readers the tests compare the simulated kernel against *)
    ("Krbtree.validate", "test_kcontainers, test_kernel: raising rbtree reference check");
    ("Kmm.vmas", "test_kernel: the VMA shadow list the maple-tree read side must equal");
    ("Klist.nodes", "test_kcontainers: list order after add/del");
    ("Khlist.nodes", "test_kcontainers: hlist order after add/del");
    ("Ksched.queued_tasks", "test_kernel: the CFS timeline in vruntime order");
    ("Kirq.actions", "test_kernel: the shared-IRQ action chain");
    ("Knet.queue_skbs", "test_kernel: the skbs linked on a receive queue");
    ("Kobj.kset_members", "test_kernel: the kobjects linked in a kset");
    ("Kpagecache.pages", "test_kernel: the pages cached under a mapping");
    ("Kpid.find_pid", "test_kernel, test_khelpers: the pid hash read path");
    ("Kpipe.buffers", "test_kernel: the buffers of a pipe");
    ("Ksignal.handler_of", "test_kernel: the installed sigaction handler");
    ("Ksignal.pending_signals", "test_kernel: the queued sigqueues");
    ("Kswap.areas", "test_kernel: the registered swap areas");
    ("Ktask.comm", "test_kernel: a task's comm");
    ("Ktask.threads", "test_kernel: a thread group in order");
    ("Ktimer.pending", "test_kernel: the armed timers of a CPU");
    ("Kvfs.lookup_path", "test_kernel: dentry path lookup");
    ("Kvfs.superblocks", "test_kernel: the mounted superblocks");
    ("Kworkqueue.pending", "test_kernel: the queued works of a pool");
    ("Kxarray.count", "test_kcontainers: xarray entry count against a model");
    ("Kmm.find_vma", "test_kernel: maple-tree VMA lookup");
    ("Kmm.rmap_walk", "test_kernel: page -> VMA reverse map");
    ("Kslab.caches", "test_kernel: the registered kmem caches");
    ("Kslab.slab_inuse", "test_kernel: the packed inuse bitfield of a slab");
    ("Workload.leaders", "test_kernel: workload determinism across seeds");
    ("Target.call_helper", "test_kernel: evaluates the task_state helper");
    (* kernel operations that no workload performs yet, kept with their tests *)
    ("Kanon.clone_into", "test_kernel: fork-style anon_vma sharing (Fig 17-1)");
    ("Kbuddy.alloc_pages", "test_kernel: buddy split at any order");
    ("Kbuddy.free_pages", "test_kernel: buddy coalescing on free");
    ("Kbuddy.total_free_pages", "test_kernel: buddy page conservation");
    ("Kslab.cache_alloc", "test_kernel: slab object allocation (Fig 8-4)");
    ("Kslab.cache_free", "test_kernel: slab object free and freelist reuse");
    ("Krbtree.insert", "test_kcontainers, test_sanity: builds uncached trees");
    ("Krbtree.erase", "test_kcontainers: uncached rbtree erase");
    ("Krbtree.root_node", "test_sanity: reaches a node to corrupt");
    ("Krbtree.left", "test_sanity: reaches a node to corrupt");
    ("Kmaple.is_node", "test_kmaple, test_sanity: encoded-pointer tag");
    ("Kmaple.leaf_pivot", "test_sanity: reads the pivot it corrupts");
    ("Kmaple.maple_arange_64", "test_kmaple: expected root node type");
    ("Kxarray.mk_node", "test_kcontainers: xarray node pointer tagging");
    ("Kmem.kernel_base", "test_kmem, test_kcontainers, test_kmaple, test_sanity: address base");
    ("Kmem.live_bytes", "test_kmem: allocator accounting");
    ("Ksyscall.files_of", "test_kernel, test_viewcl: a task's files_struct");
    ("Ksyscall.stack_top", "test_kernel: the stack VMA's address");
    (* pure laws and introspection of the server layers *)
    ("Transport.backoff_ms", "test_transport: the backoff schedule replays from its seed");
    ("Transport.ewma_alpha", "test_health: the EWMA decay law");
    ("Transport.ewma_step", "test_health: the EWMA decay law");
    ("Target.consistent", "test_sanity: consistent sections in isolation");
    ("Panel.compact_journal", "test_session: compaction replays to the same panel");
    ("Panel.layout", "test_render_panel, test_session: the split tree");
    ("Session.fault_journal", "test_session, test_health: per-session fault isolation");
    ("Session.reads_used", "test_session, test_health: read-budget spend");
    ("Session.retry_tokens", "test_health: the retry token bucket");
    ("Session.last_recovery", "test_durable: the recovery report");
    ("Durable.last_gen", "test_durable: compaction keeps generations");
    ("Workload.Chaos.mutate", "test_cache: steps the chaos mutator by hand");
    ("Obs.events", "test_obs, test_trace: the raw event ring");
    ("Obs.current_depth", "test_obs: span nesting");
    ("Obs.Counter.value", "test_obs: counter handles read back");
    ("Obs.Metrics.bucket_of", "test_obs: histogram bucket geometry");
    ("Obs.Metrics.bucket_lo", "test_obs: histogram bucket geometry");
    ("Obs.Metrics.bucket_hi", "test_obs: histogram bucket geometry");
    ("Obs.Metrics.quantile", "test_obs: quantile monotonicity");
    ("Obs.Metrics.gauges", "test_trace: gauge registry");
    ("Obs.Profile.breakdown", "test_trace: per-attr span aggregates") ]

let scanned_roots = [ "lib"; "bin"; "bench"; "perf"; "examples" ]

let rec walk dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' then []
         else if Sys.is_directory path then walk path
         else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli" then
           [ path ]
         else [])

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The scanned sources, with paths relative to the repo root.  Under
   [dune runtest] the test runs in [_build/default/test] and its dune
   [deps] copy the sources next to it. *)
let repo_sources () =
  let root = if Sys.file_exists "../lib/kmem/kmem.mli" then ".." else "." in
  List.concat_map
    (fun r ->
      List.map
        (fun p ->
          let skip = String.length root + 1 in
          let rel = String.sub p skip (String.length p - skip) in
          (rel, read_file p))
        (walk (Filename.concat root r)))
    scanned_roots

let surface_module id sources =
  (* the directory of the interface that declares [id]'s module *)
  let m = String.uncapitalize_ascii (List.hd (String.split_on_char '.' id)) in
  List.exists
    (fun (path, _) ->
      match String.split_on_char '/' path with
      | [ "lib"; dir; file ] -> file = m ^ ".mli" && List.mem dir surface
      | _ -> false)
    sources

let test_every_export_has_a_caller () =
  let sources = repo_sources () in
  let unused = unused sources in
  let unlisted =
    List.filter
      (fun id -> not (surface_module id sources || List.mem_assoc id allowlist))
      unused
  in
  if unlisted <> [] then
    Alcotest.failf
      "%d exported values have no caller outside their own .ml; hide or delete them, or \
       allowlist them with a reason:\n  %s"
      (List.length unlisted) (String.concat "\n  " unlisted);
  let stale = List.filter (fun (id, _) -> not (List.mem id unused)) allowlist in
  if stale <> [] then
    Alcotest.failf "allowlisted exports that are gone or now have a caller:\n  %s"
      (String.concat "\n  " (List.map fst stale))

(* A planted unused export is reported, and the forms a caller can take
   (qualified submodule path, open, local open, alias) are all seen. *)
let test_planted_export_reported () =
  let mli =
    {|(** doc with a fake [val in_comment : int] *)
val direct : int
val planted : int
val via_open : int
val via_local_open : int
module Sub : sig
  val via_alias : int
  val planted_sub : int
end
module type S = sig val not_an_export : int end|}
  in
  let ml =
    {|let direct = 1 let planted = 2 let via_open = 3 let via_local_open = 4
module Sub = struct let via_alias = 5 let planted_sub = planted end|}
  in
  let caller =
    {|let a = Fake.direct
let b = Fake.(via_local_open + 1)
module F = Fake.Sub
let c = F.via_alias
let d = "Fake.planted"
open Fake
let e = via_open|}
  in
  let got =
    unused
      [ ("lib/fake/fake.mli", mli); ("lib/fake/fake.ml", ml); ("bin/caller.ml", caller) ]
  in
  Alcotest.(check (list string))
    "exactly the planted exports" [ "Fake.Sub.planted_sub"; "Fake.planted" ] got

let suite =
  [ Alcotest.test_case "planted unused export is reported" `Quick test_planted_export_reported;
    Alcotest.test_case "every export has a caller" `Quick test_every_export_has_a_caller ]
