(** ViewCL — the View Construction Language (paper §2.2).

    [parse] turns program text into an AST; [run] parses and evaluates it
    against a live target and returns the extracted object graph.
    Programs are lists of [define]d Box types, top-level bindings and
    [plot] statements; see {!Ast} for the full syntax. *)

module Ast = Ast
module Dpool = Dpool

exception Error = Ast.Error

type config = Interp.config = {
  flags : (string * (int * string) list) list;
  emojis : (string * (int -> string)) list;
}

let default_config = Interp.default_config

let parse = Parser.parse_program

type cache = Interp.plot_cache

type result = Interp.result = {
  graph : Vgraph.t;
  plots : Vgraph.box_id list;
  torn : int;
  retried : int;
  repaired : int;
  torn_boxes : int;
  cache : cache;
  cache_hits : int;
  cache_misses : int;
  cache_invalidated : int;
  rebuilt : Vgraph.box_id list;
}

let create_cache = Interp.create_cache
let cache_boxes = Interp.cache_boxes
let cache_extents = Interp.cache_extents

let run = Interp.run

(** Count non-blank, non-comment source lines (the paper's Table 2 LoC
    metric for ViewCL programs). *)
let loc_of src =
  String.split_on_char '\n' src
  |> List.filter (fun l ->
         let l = String.trim l in
         l <> "" && not (String.length l >= 2 && l.[0] = '/' && l.[1] = '/'))
  |> List.length
