(* The observability substrate (ISSUE 3): span nesting invariants,
   log2-histogram bucket geometry and quantile monotonicity, ring-buffer
   overflow semantics, Chrome-trace JSON well-formedness (via the Json
   parser), and the disabled-mode zero-cost contract. *)

(* Every test runs against a clean, enabled registry and leaves the
   global switch off, so no other suite sees stray spans or counters. *)
let with_obs ?(enabled = true) f =
  Obs.reset ();
  Obs.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Spans *)

let test_span_nesting () =
  with_obs (fun () ->
      let r =
        Obs.with_span "outer" (fun () ->
            Obs.with_span "inner" (fun () -> Obs.current_depth ()))
      in
      Alcotest.(check int) "depth inside inner" 2 r;
      Alcotest.(check int) "all spans closed" 0 (Obs.current_depth ());
      let spans = Obs.span_events () in
      Alcotest.(check int) "two spans recorded" 2 (List.length spans);
      (* spans are recorded at END, so inner precedes outer *)
      let inner = List.nth spans 0 and outer = List.nth spans 1 in
      Alcotest.(check string) "inner first" "inner" inner.Obs.sname;
      Alcotest.(check string) "outer second" "outer" outer.Obs.sname;
      Alcotest.(check int) "outer at depth 0" 0 outer.Obs.sdepth;
      Alcotest.(check int) "inner at depth 1" 1 inner.Obs.sdepth;
      (* child interval within the parent interval *)
      Alcotest.(check bool) "child starts after parent" true
        (inner.Obs.st0_ms >= outer.Obs.st0_ms);
      Alcotest.(check bool) "child ends before parent" true
        (inner.Obs.st0_ms +. inner.Obs.sdur_ms
        <= outer.Obs.st0_ms +. outer.Obs.sdur_ms +. 1e-9);
      (* self time excludes the nested child *)
      Alcotest.(check bool) "parent self <= dur - child dur" true
        (outer.Obs.sself_ms <= outer.Obs.sdur_ms -. inner.Obs.sdur_ms +. 1e-9))

let test_span_end_on_exception () =
  with_obs (fun () ->
      (try Obs.with_span "boom" (fun () -> failwith "no") with Failure _ -> ());
      Alcotest.(check int) "span recorded despite raise" 1 (Obs.spans_total ());
      Alcotest.(check int) "stack unwound" 0 (Obs.current_depth ()))

let test_profile_aggregation () =
  with_obs (fun () ->
      for _ = 1 to 5 do
        Obs.with_span "walk" (fun () -> ())
      done;
      match Obs.Profile.find "walk" with
      | None -> Alcotest.fail "no profile row for walk"
      | Some r ->
          Alcotest.(check int) "count aggregated" 5 r.Obs.Profile.pcount;
          Alcotest.(check bool) "total >= self" true
            (r.Obs.Profile.ptotal_ms >= r.Obs.Profile.pself_ms))

let test_clock_monotonic () =
  let t0 = Obs.Clock.now_ms () in
  let rec spin n acc = if n = 0 then acc else spin (n - 1) (acc + n) in
  ignore (spin 10000 0);
  let t1 = Obs.Clock.now_ms () in
  Alcotest.(check bool) "clock never decreases" true (t1 >= t0);
  Alcotest.(check bool) "elapsed non-negative" true (Obs.Clock.elapsed_ms t0 >= 0.)

(* The clock's running max is shared across domains: no reader on any
   domain may see time go backwards. *)
let test_clock_concurrent_monotone () =
  let worst = Atomic.make 0. in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let prev = ref (Obs.Clock.now_ms ()) in
            for _ = 1 to 10_000 do
              let t = Obs.Clock.now_ms () in
              if t < !prev then Atomic.set worst (!prev -. t);
              prev := t
            done;
            !prev))
  in
  let finals = List.map Domain.join domains in
  Alcotest.(check (float 0.)) "no domain saw time go backwards" 0. (Atomic.get worst);
  let now = Obs.Clock.now_ms () in
  List.iter (fun f -> Alcotest.(check bool) "running max holds" true (now >= f)) finals

(* ------------------------------------------------------------------ *)
(* Ring buffer *)

let test_ring_overflow_keeps_newest () =
  with_obs (fun () ->
      Obs.set_ring_capacity 8;
      for i = 1 to 20 do
        Obs.instant (Printf.sprintf "ev%d" i)
      done;
      Alcotest.(check int) "ring holds capacity" 8 (Obs.event_count ());
      Alcotest.(check int) "overflow counted" 12 (Obs.dropped ());
      let names =
        List.map
          (function Obs.Instant { iname; _ } -> iname | Obs.Span s -> s.Obs.sname)
          (Obs.events ())
      in
      Alcotest.(check (list string)) "newest 8 survive, oldest first"
        [ "ev13"; "ev14"; "ev15"; "ev16"; "ev17"; "ev18"; "ev19"; "ev20" ]
        names;
      (* restore the default capacity for the other tests *)
      Obs.set_ring_capacity 32768)

let test_spans_total_survives_eviction () =
  with_obs (fun () ->
      Obs.set_ring_capacity 4;
      for _ = 1 to 10 do
        Obs.with_span "s" (fun () -> ())
      done;
      Alcotest.(check int) "aggregate count survives" 10 (Obs.spans_total ());
      Alcotest.(check int) "ring truncated" 4 (Obs.event_count ());
      (match Obs.Profile.find "s" with
      | Some r -> Alcotest.(check int) "profile sees all 10" 10 r.Obs.Profile.pcount
      | None -> Alcotest.fail "profile row missing");
      Obs.set_ring_capacity 32768)

(* ------------------------------------------------------------------ *)
(* Metrics: counters and gauges *)

let test_counters_and_gauges () =
  with_obs (fun () ->
      Obs.Metrics.incr "c";
      Obs.Metrics.incr ~by:4 "c";
      Alcotest.(check int) "counter sums" 5 (Obs.Metrics.counter "c");
      Alcotest.(check int) "unknown counter is 0" 0 (Obs.Metrics.counter "nope");
      let h = Obs.Counter.make "c" in
      Obs.Counter.add h 10;
      Alcotest.(check int) "handle shares the counter" 15 (Obs.Metrics.counter "c");
      Alcotest.(check int) "handle reads back" 15 (Obs.Counter.value h);
      Obs.Metrics.set_gauge "g" 2.5;
      Alcotest.(check (option (float 1e-9))) "gauge set" (Some 2.5) (Obs.Metrics.gauge "g"))

(* ------------------------------------------------------------------ *)
(* Metrics: histogram geometry and quantiles *)

let bucket_boundaries_exact =
  QCheck.Test.make ~name:"bucket boundaries: lo inclusive, hi exclusive" ~count:200
    QCheck.(int_range 1 62)
    (fun i ->
      let lo = Obs.Metrics.bucket_lo i and hi = Obs.Metrics.bucket_hi i in
      Obs.Metrics.bucket_of lo = i
      && Obs.Metrics.bucket_of (hi *. (1. -. epsilon_float)) = i
      && Obs.Metrics.bucket_of hi = i + 1)

let bucket_of_total =
  QCheck.Test.make ~name:"bucket_of: every non-negative float lands in a bucket"
    ~count:500 QCheck.(pos_float)
    (fun v ->
      let i = Obs.Metrics.bucket_of v in
      0 <= i && i <= 63
      && (i = 63 || v < Obs.Metrics.bucket_hi i)
      && v >= Obs.Metrics.bucket_lo i)

let quantiles_monotone =
  QCheck.Test.make ~name:"quantiles: monotone in q, clamped to [min,max]" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (float_bound_exclusive 1000.))
    (fun samples ->
      Obs.reset ();
      Obs.set_enabled true;
      List.iter (fun v -> Obs.Metrics.observe "h" (Float.abs v)) samples;
      let q p = Option.get (Obs.Metrics.quantile "h" p) in
      let qs = List.map q [ 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ] in
      let rec monotone = function
        | a :: (b :: _ as tl) -> a <= b && monotone tl
        | _ -> true
      in
      let s = Option.get (Obs.Metrics.summary "h") in
      Obs.set_enabled false;
      Obs.reset ();
      monotone qs
      && List.for_all (fun v -> v >= s.Obs.Metrics.minv && v <= s.Obs.Metrics.maxv) qs
      && s.Obs.Metrics.count = List.length samples)

let test_summary_known_values () =
  with_obs (fun () ->
      (* 100 samples of 1.0: every quantile must be within [min,max] = 1.0 *)
      for _ = 1 to 100 do
        Obs.Metrics.observe "ones" 1.0
      done;
      match Obs.Metrics.summary "ones" with
      | None -> Alcotest.fail "summary missing"
      | Some s ->
          Alcotest.(check int) "count" 100 s.Obs.Metrics.count;
          Alcotest.(check (float 1e-9)) "sum" 100.0 s.Obs.Metrics.sum;
          Alcotest.(check (float 1e-9)) "p50 clamps to the exact value" 1.0 s.Obs.Metrics.p50;
          Alcotest.(check (float 1e-9)) "p99 clamps to the exact value" 1.0 s.Obs.Metrics.p99)

(* ------------------------------------------------------------------ *)
(* Exporters *)

let test_chrome_trace_parses () =
  with_obs (fun () ->
      Obs.with_span ~attrs:[ ("k", "v\"with\nquotes") ] "outer" (fun () ->
          Obs.instant ~cat:"test" "tick");
      let j = Json.parse (Obs.chrome_trace ()) in
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          Alcotest.(check int) "both events exported" 2 (List.length evs);
          List.iter
            (fun ev ->
              match (Json.member "ph" ev, Json.member "ts" ev) with
              | Some (Json.String ph), Some (Json.Int _ | Json.Float _) ->
                  Alcotest.(check bool) "ph is X or i" true (ph = "X" || ph = "i")
              | _ -> Alcotest.fail "event missing ph/ts")
            evs
      | _ -> Alcotest.fail "no traceEvents array")

let test_metrics_json_parses () =
  with_obs (fun () ->
      Obs.Metrics.incr ~by:3 "reads";
      Obs.Metrics.observe "lat" 5.0;
      Obs.with_span "s" (fun () -> ());
      let j = Json.parse (Obs.metrics_json ~extra:[ ("mode", "test") ] ()) in
      (match Json.member_exn "counters" j with
      | Json.Obj kvs ->
          Alcotest.(check bool) "counter exported" true
            (List.assoc_opt "reads" kvs = Some (Json.Int 3))
      | _ -> Alcotest.fail "counters not an object");
      (match Json.member_exn "histograms" j with
      | Json.Obj [ ("lat", Json.Obj fields) ] ->
          Alcotest.(check bool) "histogram has p95" true
            (List.mem_assoc "p95" fields && List.mem_assoc "count" fields)
      | _ -> Alcotest.fail "histograms malformed");
      match Json.member "meta" j with
      | Some (Json.Obj kvs) ->
          Alcotest.(check bool) "meta passthrough" true
            (List.assoc_opt "mode" kvs = Some (Json.String "test"))
      | _ -> Alcotest.fail "meta missing")

(* ------------------------------------------------------------------ *)
(* Disabled mode: zero events, zero drift *)

let test_disabled_zero_cost () =
  with_obs ~enabled:false (fun () ->
      let r = Obs.with_span "s" (fun () -> 42) in
      Alcotest.(check int) "with_span passes the value through" 42 r;
      Obs.instant "i";
      Obs.Metrics.incr "c";
      Obs.Metrics.observe "h" 1.0;
      Obs.Metrics.set_gauge "g" 1.0;
      let h = Obs.Counter.make "c2" in
      Obs.Counter.incr h;
      Alcotest.(check int) "no events" 0 (Obs.event_count ());
      Alcotest.(check int) "no spans" 0 (Obs.spans_total ());
      Alcotest.(check int) "counter did not drift" 0 (Obs.Metrics.counter "c");
      Alcotest.(check int) "handle did not drift" 0 (Obs.Counter.value h);
      Alcotest.(check bool) "no histogram" true (Obs.Metrics.summary "h" = None);
      Alcotest.(check bool) "no gauge" true (Obs.Metrics.gauge "g" = None);
      Alcotest.(check (list string)) "no profile rows" []
        (List.map (fun r -> r.Obs.Profile.pname) (Obs.Profile.rows ())))

let test_disabled_stack_instrumentation_silent () =
  (* the instrumented stack records nothing while the switch is off *)
  with_obs ~enabled:false (fun () ->
      let k = Kstate.boot () in
      let w = Workload.create k in
      Workload.run w;
      let s = Visualinux.attach k in
      let _, _, stats = Visualinux.vplot s {|define B as Box<task_struct> [
  Text pid
]
plot B(${&init_task})
|} in
      Alcotest.(check int) "plot_stats.spans is 0" 0 stats.Visualinux.spans;
      Alcotest.(check int) "no trace minted" 0 stats.Visualinux.trace_id;
      Alcotest.(check int) "no events leaked" 0 (Obs.event_count ());
      Alcotest.(check int) "no counters leaked" 0 (Obs.Metrics.counter "target.reads"))

let test_enabled_stack_records_spans () =
  with_obs (fun () ->
      let k = Kstate.boot () in
      let w = Workload.create k in
      Workload.run w;
      let s = Visualinux.attach k in
      let _, _, stats = Visualinux.vplot s {|define B as Box<task_struct> [
  Text pid
]
plot B(${&init_task})
|} in
      Alcotest.(check bool) "spans recorded" true (stats.Visualinux.spans > 0);
      Alcotest.(check bool) "the plot's spans carry its trace id" true
        (stats.Visualinux.trace_id <> 0
        && List.exists
             (fun (sp : Obs.span) -> sp.Obs.strace = stats.Visualinux.trace_id)
             (Obs.span_events ()));
      Alcotest.(check bool) "obs counts the reads" true (Obs.Metrics.counter "target.reads" > 0);
      Alcotest.(check bool) "viewcl.run span present" true
        (Obs.Profile.find "viewcl.run" <> None);
      Alcotest.(check bool) "core.vplot span present" true
        (Obs.Profile.find "core.vplot" <> None))

(* ------------------------------------------------------------------ *)

let qt t = QCheck_alcotest.to_alcotest t

let suite =
  [ Alcotest.test_case "span nesting: depth, order, containment, self-time" `Quick
      test_span_nesting;
    Alcotest.test_case "span end matches begin even on exceptions" `Quick
      test_span_end_on_exception;
    Alcotest.test_case "profile rows aggregate across spans" `Quick test_profile_aggregation;
    Alcotest.test_case "clock is monotone" `Quick test_clock_monotonic;
    Alcotest.test_case "clock: concurrent running max" `Quick test_clock_concurrent_monotone;
    Alcotest.test_case "ring overflow keeps the newest events" `Quick
      test_ring_overflow_keeps_newest;
    Alcotest.test_case "aggregates survive ring eviction" `Quick
      test_spans_total_survives_eviction;
    Alcotest.test_case "counters, handles, gauges" `Quick test_counters_and_gauges;
    qt bucket_boundaries_exact;
    qt bucket_of_total;
    qt quantiles_monotone;
    Alcotest.test_case "quantiles clamp to [min,max] on constant data" `Quick
      test_summary_known_values;
    Alcotest.test_case "Chrome trace JSON parses (ph/ts per event)" `Quick
      test_chrome_trace_parses;
    Alcotest.test_case "metrics JSON parses (counters/histograms/meta)" `Quick
      test_metrics_json_parses;
    Alcotest.test_case "disabled: zero events, zero counter drift" `Quick
      test_disabled_zero_cost;
    Alcotest.test_case "disabled: instrumented stack is silent" `Quick
      test_disabled_stack_instrumentation_silent;
    Alcotest.test_case "enabled: vplot records spans through the stack" `Quick
      test_enabled_stack_records_spans ]
