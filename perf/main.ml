(* The repo benchmark.  See perf/README.md.

     main.exe --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
              [--record FILE]
     main.exe --smoke
     main.exe --compare A.jsonl B.jsonl

   The last line of a run's standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Untraced, the
   metrics are the end-to-end ones; traced (--trace 1), the per-layer
   ledger, also written to perf/out/<workload>.trace.json. *)

open Workloads

type metric = { key : string; unit_ : string; value : float }

let m key unit_ value = { key; unit_; value }
let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

type result = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  errors : string list;
}

let result_json r =
  Json.Obj
    [ ("correct", Json.Bool r.correct); ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun x ->
               (x.key, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]))
             r.metrics) ) ]

let print_result r =
  List.iter (fun x -> Printf.printf "  %-36s %14.6f %s\n" x.key x.value x.unit_) r.metrics;
  List.iter (Printf.printf "  error: %s\n") (List.rev r.errors);
  print_endline (Json.to_string (result_json r))

let finish (w : workload) (env : Meter.t) metrics =
  { workload = w.name; correct = env.failed = 0 && env.checks > 0; attempted = env.ops;
    failed = env.failed; metrics; errors = env.errors }

(* ------------------------------------------------------------------ *)
(* Untraced: the end-to-end metrics *)

let end_to_end (w : workload) ~seed ~seconds =
  let env =
    Meter.create ~seed ~setups:5 ~min_units:w.min_units ~window_s:seconds ~traced:false
      ~counting:false ()
  in
  w.run env;
  let q = Meter.unit_quantile env in
  let ops = float_of_int env.ops in
  let served = env.ops - env.shed - env.failed in
  let units = Stats.length env.unit_ms in
  Printf.printf
    "workload %s  seed %d  domains %d  units %d  ops %d  shed %d  checks %d (%d skipped)\n"
    w.name seed (Viewcl.Dpool.default_domains ()) units env.ops env.shed env.checks env.skipped;
  Printf.printf
    "  op_ms_p50/p90: median over %d units of each unit's quantile, %d ops in all\n\
    \  op_ms_p99 %.4f ms over all ops (diagnostic, not gated)\n\
    \  setup_s: median of %d set-ups\n"
    units env.ops (Stats.quantile env.op_ms 0.99) (List.length env.setup_s);
  finish w env
    [ m "ops_per_s" "1/s" (Stats.ratio ops (env.op_ms_sum /. 1000.));
      m "op_ms_p50" "ms" (q 0.5);
      m "op_ms_p90" "ms" (q 0.9);
      m "served_ratio" "ratio" (Stats.ratio (float_of_int served) ops);
      m "setup_s" "s" (Stats.median_list env.setup_s);
      m "peak_heap_mb" "MB" (mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)) ]

(* ------------------------------------------------------------------ *)
(* Traced: the per-layer ledger *)

(* Share of the traced ops' wall time that the bench-side layer spans
   directly under them cover. *)
let coverage (env : Meter.t) = Stats.ratio env.child_span_ms env.op_span_ms

let min_coverage = 0.9

let span_json (s : Meter.span) =
  Json.Obj
    [ ("name", Json.String s.name); ("start_ms", Json.Float s.t0); ("end_ms", Json.Float s.t1);
      ("id", Json.Int s.id); ("parent", Json.Int s.parent); ("op", Json.Int s.op) ]

(* Per call name: count, total and self time of the retained spans. *)
let layer_rows (env : Meter.t) =
  let child = Hashtbl.create 1024 and rows = Hashtbl.create 16 in
  let get tbl k d = Option.value ~default:d (Hashtbl.find_opt tbl k) in
  List.iter
    (fun (s : Meter.span) -> Hashtbl.replace child s.parent (s.t1 -. s.t0 +. get child s.parent 0.))
    env.spans;
  List.iter
    (fun (s : Meter.span) ->
      let d = s.t1 -. s.t0 in
      let n, tot, self = get rows s.name (0, 0., 0.) in
      Hashtbl.replace rows s.name (n + 1, tot +. d, self +. d -. get child s.id 0.))
    env.spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) rows [] |> List.sort compare

let write_trace (w : workload) ~seed (a : Meter.t) (b : Meter.t) metrics =
  let obj kvs = Json.Obj kvs in
  let layers =
    List.map
      (fun (name, (n, tot, self)) ->
        obj
          [ ("name", Json.String name); ("count", Json.Int n); ("total_ms", Json.Float tot);
            ("self_ms", Json.Float self);
            ("p50_ms", Json.Float (Stats.quantile (Meter.samples b name) 0.5)) ])
      (layer_rows b)
  in
  let profile =
    List.map
      (fun (r : Obs.Profile.row) ->
        obj
          [ ("name", Json.String r.pname); ("count", Json.Int r.pcount);
            ("total_ms", Json.Float r.ptotal_ms); ("self_ms", Json.Float r.pself_ms) ])
      (Obs.Profile.rows ())
  in
  let counters =
    Hashtbl.fold (fun k v acc -> (k, Json.Float v) :: acc) a.counts [] |> List.sort compare
  in
  let doc =
    obj
      [ ("workload", Json.String w.name); ("seed", Json.Int seed);
        ("untraced_units", Json.Int (Stats.length a.unit_ms));
        ("traced_units", Json.Int (Stats.length b.unit_ms));
        ("counted_ops", Json.Int a.counted_ops); ("counters", obj counters);
        ("span_coverage", Json.Float (coverage b)); ("layers", Json.List layers);
        ("obs_profile", Json.List profile);
        ( "metrics",
          obj (List.map (fun x -> (x.key, obj [ ("value", Json.Float x.value) ])) metrics) );
        ("spans", Json.List (List.rev_map span_json b.spans)) ]
  in
  let dir = Filename.concat "perf" "out" in
  if not (Sys.file_exists "perf") then Sys.mkdir "perf" 0o755;
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let file = Filename.concat dir (w.name ^ ".trace.json") in
  Durable.write_file file (Json.to_string doc);
  file

(* Phase A runs untraced with the counters on; phase B reruns its first
   fifth (whole units, from a fresh set-up) traced, with Obs on during
   its ops. *)
let traced_phases (w : workload) ~seed ~seconds ~min_units =
  let a =
    Meter.create ~seed ~setups:1 ~min_units ~window_s:(seconds *. 0.6) ~traced:false
      ~counting:true ()
  in
  w.run a;
  let k = max 1 (Stats.length a.unit_ms / 5) in
  Obs.reset ();
  let b =
    Meter.create ~seed ~setups:1 ~min_units:k ~max_units:k ~window_s:0. ~traced:true
      ~counting:false ()
  in
  w.run b;
  (a, b)

let per_layer ~seed (a : Meter.t) (b : Meter.t) =
  let c = Meter.count a in
  let per_op name = Stats.ratio (c name) (float_of_int a.counted_ops) in
  let p50 env name = Stats.quantile (Meter.samples env name) 0.5 in
  let share x y = Stats.ratio (c x) (c x +. c y) in
  let k = Stats.length b.unit_ms in
  let first_units (env : Meter.t) =
    Array.fold_left ( +. ) 0. (Array.sub (Stats.to_array env.unit_ms) 0 k)
  in
  let self_us_per_op name =
    match Obs.Profile.find name with
    | Some r -> Stats.ratio (r.pself_ms *. 1000.) (float_of_int b.ops)
    | None -> 0.
  in
  Workloads.cexpr_probe b ~seed;
  [ m "viewcl.extract_ms_p50" "ms" (p50 b "Viewcl.run");
    m "viewcl.boxes_per_op" "count" (per_op "viewcl.boxes");
    m "viewcl.box_cache_hit_ratio" "ratio"
      (Stats.ratio (c "viewcl.box_hits")
         (c "viewcl.box_hits" +. c "viewcl.box_misses" +. c "viewcl.box_invalidated"));
    m "viewcl.rebuilt_per_op" "count" (per_op "viewcl.rebuilt");
    m "viewcl.box_self_us_per_op" "us" (self_us_per_op "viewcl.box");
    m "target.reads_per_op" "count" (per_op "target.reads");
    m "target.bytes_per_op" "B" (per_op "target.bytes");
    m "target.coalesced_per_op" "count" (per_op "target.coalesced");
    m "target.read_cache_hit_ratio" "ratio" (share "target.cache_hits" "target.cache_misses");
    m "target.faults_per_op" "count" (per_op "target.faults");
    m "target.read_self_us_per_op" "us" (self_us_per_op "target.read");
    m "transport.fetches_per_op" "count" (per_op "transport.fetches");
    m "transport.attempts_per_op" "count" (per_op "transport.attempts");
    m "transport.useful_ratio" "ratio"
      (Stats.ratio (c "transport.fetches") (c "transport.attempts"));
    m "transport.retries_per_op" "count" (per_op "transport.retries");
    m "transport.short_circuits_per_op" "count" (per_op "transport.short_circuits");
    m "transport.wire_ms_per_op" "ms" (per_op "transport.wire_ms");
    m "transport.fetch_self_us_per_op" "us" (self_us_per_op "transport.fetch");
    m "cexpr.eval_us_p50" "us" (p50 b "Cexpr.eval");
    m "viewql.refine_ms_p50" "ms" (p50 b "Panel.refine");
    m "viewql.boxes_updated_per_op" "count" (per_op "viewql.updated");
    m "vchat.synth_us_p50" "us" (1000. *. p50 b "Vchat.synthesize");
    m "render.ms_p50" "ms" (p50 b "Render.ascii");
    m "render.kb_per_op" "KiB" (per_op "render.bytes" /. 1024.);
    m "kernel.step_ms_p50" "ms" (p50 a "Workload.step");
    m "kmem.writes_per_step" "count" (Stats.ratio (c "kmem.writes") (c "kernel.steps"));
    m "session.rejected_ratio" "ratio" (per_op "session.rejections");
    m "session.hedged_per_kop" "count" (1000. *. per_op "session.hedged");
    m "session.stale_renders_per_kop" "count" (1000. *. per_op "session.stale_renders");
    m "durable.records_per_op" "count" (per_op "durable.records");
    m "gc.minor_mb_per_op" "MB" (mb_of_words (per_op "gc.minor_words"));
    m "gc.promoted_mb_per_op" "MB" (mb_of_words (per_op "gc.promoted_words"));
    m "gc.major_per_kop" "count" (1000. *. per_op "gc.major");
    m "obs.overhead_ratio" "ratio" (Stats.ratio (first_units b) (first_units a));
    m "obs.dropped_events" "count" (float_of_int (Obs.dropped ()));
    m "obs.span_coverage" "ratio" (coverage b) ]

(* Both phases' ops and oracle checks count; a cold plot whose layer
   spans miss more than a tenth of its wall is a broken ledger. *)
let traced_result (w : workload) ~seed ~seconds ~min_units =
  let a, b = traced_phases w ~seed ~seconds ~min_units in
  let metrics = per_layer ~seed a b in
  let cov = coverage b in
  let covered = w.name <> "cold_plot" || cov >= min_coverage in
  let r = finish w a metrics in
  ( { r with
      correct = r.correct && b.failed = 0 && b.checks > 0 && covered;
      attempted = r.attempted + b.ops;
      failed = r.failed + b.failed;
      errors =
        (if covered then [] else [ Printf.sprintf "span coverage %.3f < %.2f" cov min_coverage ])
        @ b.errors @ r.errors },
    a,
    b )

let trace (w : workload) ~seed ~seconds =
  let r, a, b = traced_result w ~seed ~seconds ~min_units:w.min_units in
  let file = write_trace w ~seed a b r.metrics in
  Printf.printf
    "workload %s  seed %d  domains %d  untraced units %d (%d counted ops)  traced units %d\n"
    w.name seed (Viewcl.Dpool.default_domains ()) (Stats.length a.unit_ms) a.counted_ops
    (Stats.length b.unit_ms);
  Printf.printf "  bench-side layer spans cover %.1f%% of op wall; ledger in %s\n"
    (100. *. coverage b) file;
  r

(* ------------------------------------------------------------------ *)

let record file ~seed ~traced r =
  let line =
    Json.Obj
      [ ("workload", Json.String r.workload); ("seed", Json.Int seed);
        ("trace", Json.Int (if traced then 1 else 0)); ("result", result_json r) ]
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  output_string oc (Json.to_string line ^ "\n");
  close_out oc

(* Every workload at a few units, untraced then traced, oracle on: the
   test-suite guard that the benchmark still runs and still checks. *)
let smoke () =
  List.map
    (fun (w : workload) ->
      let r, _, _ = traced_result w ~seed:7 ~seconds:0. ~min_units:w.smoke_units in
      Printf.printf "smoke %-13s %5d ops  %s\n" w.name r.attempted
        (if r.correct then "ok" else "FAILED");
      List.iter (Printf.printf "  error: %s\n") (List.rev r.errors);
      r.correct)
    Workloads.all
  |> List.for_all Fun.id

let () =
  (* one domain: an environment variable must not swap in the pool path *)
  Unix.putenv "VISUALINUX_DOMAINS" "1";
  let workload = ref "" and seed = ref 7 and seconds = ref 20. and traced = ref 0 in
  let record_to = ref "" and smoke_mode = ref false and cmp = ref [] in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME cold_plot|step_refresh|refine|fleet|all");
      ("--seed", Arg.Set_int seed, "N input seed (default 7)");
      ("--seconds", Arg.Set_float seconds, "S measuring window per run (default 20)");
      ("--trace", Arg.Set_int traced, "0|1 per-layer ledger instead of end-to-end metrics");
      ("--record", Arg.Set_string record_to, "FILE append each result to a JSON-lines file");
      ("--smoke", Arg.Set smoke_mode, " every workload at a few units, oracle on");
      ( "--compare",
        Arg.Tuple [ Arg.String (fun a -> cmp := [ a ]); Arg.String (fun b -> cmp := !cmp @ [ b ]) ],
        "A B judge run set B against run set A with the BENCHMARK.json bounds" ) ]
  in
  let usage = "main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let code =
    match (!cmp, !smoke_mode) with
    | [ a; b ], _ -> if Compare.run ~bench:"BENCHMARK.json" a b then 0 else 1
    | _, true -> if smoke () then 0 else 1
    | _ -> (
        let chosen =
          if !workload = "all" then Workloads.all
          else List.filter (fun (w : workload) -> w.name = !workload) Workloads.all
        in
        match chosen with
        | [] ->
            prerr_endline usage;
            2
        | ws ->
            List.fold_left
              (fun code w ->
                let r =
                  if !traced = 1 then trace w ~seed:!seed ~seconds:!seconds
                  else end_to_end w ~seed:!seed ~seconds:!seconds
                in
                if !record_to <> "" then record !record_to ~seed:!seed ~traced:(!traced = 1) r;
                print_result r;
                if r.correct then code else 1)
              0 ws)
  in
  exit code
