(* --compare A.jsonl B.jsonl: every workload x end-to-end metric of run
   set B against run set A (the baseline), judged with the bounds that
   BENCHMARK.json fixes.

   A metric is
   - "worse" when B's median is worse than A's by more than the bound;
   - "unresolved" when either set's spread (interquartile range over
     median) is wider than the bound, unless every B run reads better
     than every A run ("better");
   - otherwise "within bound" (or "better" when it improved by more than
     the bound). *)

type bound = { name : string; lower_is_better : bool; bound : float }

let read_lines file =
  String.split_on_char '\n' (Durable.read_file file)
  |> List.filter (fun l -> String.trim l <> "")

let to_float = function
  | Json.Float f -> f
  | Json.Int n -> float_of_int n
  | _ -> raise (Json.Parse_error "expected a number")

let bounds file =
  let j = Json.parse (Durable.read_file file) in
  List.map
    (fun e ->
      { name = Json.to_str (Json.member_exn "name" e);
        lower_is_better = Json.to_str (Json.member_exn "better" e) = "lower";
        bound = to_float (Json.member_exn "bound" e) })
    (Json.to_list (Json.member_exn "end_to_end" j))

(* (workload, metric name, value) for every untraced run in the file. *)
let runs file =
  List.concat_map
    (fun line ->
      let j = Json.parse line in
      let traced = match Json.member "trace" j with Some (Json.Int 1) -> true | _ -> false in
      if traced then []
      else
        let w = Json.to_str (Json.member_exn "workload" j) in
        match Json.member_exn "metrics" (Json.member_exn "result" j) with
        | Json.Obj kvs -> List.map (fun (k, v) -> (w, k, to_float (Json.member_exn "value" v))) kvs
        | _ -> raise (Json.Parse_error "metrics is not an object"))
    (read_lines file)

let values rs w k =
  List.filter_map (fun (w', k', v) -> if w = w' && k = k' then Some v else None) rs

let verdict b xa xb =
  let ma = Stats.median_list xa and mb = Stats.median_list xb in
  let worse_by =
    if b.lower_is_better then Stats.ratio (mb -. ma) ma else Stats.ratio (ma -. mb) ma
  in
  let better x y = if b.lower_is_better then x < y else x > y in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) xa) xb in
  let spread = Float.max (Stats.spread xa) (Stats.spread xb) in
  let v =
    if spread > b.bound then if all_better then "better" else "unresolved"
    else if worse_by > b.bound then "worse"
    else if -.worse_by > b.bound then "better"
    else "within bound"
  in
  (ma, mb, worse_by, spread, v)

(* Prints the table; true when nothing is worse or unresolved. *)
let run ~bench a b =
  let bs = bounds bench and ra = runs a and rb = runs b in
  let workloads = List.sort_uniq compare (List.map (fun (w, _, _) -> w) ra) in
  Printf.printf "%-13s %-14s %12s %12s %8s %7s %6s  %s\n" "workload" "metric" "median A"
    "median B" "worse by" "spread" "bound" "verdict";
  List.fold_left
    (fun ok w ->
      List.fold_left
        (fun ok bd ->
          let xa = values ra w bd.name and xb = values rb w bd.name in
          if xa = [] || xb = [] then begin
            Printf.printf "%-13s %-14s missing from %s\n" w bd.name (if xa = [] then a else b);
            false
          end
          else begin
            let ma, mb, worse_by, spread, v = verdict bd xa xb in
            Printf.printf "%-13s %-14s %12.4f %12.4f %7.1f%% %6.1f%% %5.0f%%  %s\n" w bd.name ma mb
              (100. *. worse_by) (100. *. spread) (100. *. bd.bound) v;
            ok && (v = "within bound" || v = "better")
          end)
        ok bs)
    true workloads
