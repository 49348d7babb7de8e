(* Fleet-wide causal tracing and the SLO burn-rate engine (ISSUE 8):
   every admitted op yields exactly one root [session.op] span with a
   distinct nonzero trace id, and every hedge / canary / retry span of
   that trace is link-reachable from the root (qcheck, over random
   gray-failure rates); hedge and canary links are non-vacuous and
   surface as Chrome flow events; refusals emit a typed instant
   carrying the would-be trace id; disabled-mode runs stay
   byte-identical with zero observability drift; the multi-window burn
   math, breach/clear escalation, eviction-proof attr breakdowns,
   histogram exemplars and the Prometheus exporter. *)

let fig name = (Option.get (Scripts.find name)).Scripts.source

let boot () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  k

let admitted = function
  | Session.Admitted x -> x
  | Session.Rejected { reason } ->
      Alcotest.failf "unexpected rejection: %s" (Session.reason_to_string reason)

(* Clean, enabled registry with a ring big enough that no span of the
   scenario is evicted (link reachability needs every endpoint); the
   switch is left off afterwards so no other suite sees stray spans. *)
let with_obs ?(enabled = true) ?(cap = 1 lsl 17) f =
  let cap0 = Obs.ring_capacity () in
  Obs.reset ();
  Obs.set_ring_capacity cap;
  Obs.set_enabled enabled;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.set_ring_capacity cap0;
      Obs.reset ())
    f

(* A two-target fleet: [t1] possibly gray, [t2] its healthy replica,
   alice homed on t1 and bob on t2. Returns (srv, t1, alice, bob). *)
let fleet ?(seed = 3) kernel =
  let srv = Session.create kernel in
  let t1 = Transport.create ~seed Transport.qemu_local in
  let t2 = Transport.create ~seed:(seed + 1) Transport.qemu_local in
  Session.add_target srv ~transport:t1 "t1";
  Session.add_target srv ~transport:t2 "t2";
  let a = admitted (Session.open_session ~target:"t1" srv "alice") in
  let b = admitted (Session.open_session ~target:"t2" srv "bob") in
  Target.set_read_cache (Option.get (Session.vis srv a)).Visualinux.target false;
  (srv, t1, a, b)

(* ------------------------------------------------------------------ *)
(* The root-span / link-reachability contract (qcheck) *)

(* Spans reachable from [root] over child edges (sparent) plus link
   edges, restricted to one trace's spans. *)
let reachable spans links root =
  let children = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.span) ->
      if s.Obs.sparent <> 0 then
        Hashtbl.replace children s.Obs.sparent
          (s.Obs.sid :: (Option.value ~default:[] (Hashtbl.find_opt children s.Obs.sparent))))
    spans;
  let seen = Hashtbl.create 64 in
  let rec go id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      List.iter go (Option.value ~default:[] (Hashtbl.find_opt children id));
      List.iter
        (fun (l : Obs.Trace.link) -> if l.Obs.Trace.lfrom = id then go l.Obs.Trace.lto)
        links
    end
  in
  go root;
  seen

let trace_contract =
  QCheck.Test.make
    ~name:
      "trace: one root session.op per admitted op; hedge/canary/retry link-reachable"
    ~count:6
    QCheck.(pair (int_bound 1_000_000) (int_bound 15))
    (fun (seed, pct) ->
      with_obs (fun () ->
          let kernel = boot () in
          let srv, t1, a, b = fleet ~seed:(1 + (seed mod 997)) kernel in
          let rate = float_of_int pct /. 100. in
          Transport.set_base_faults t1
            { Transport.stall_rate = rate; drop_rate = rate; disconnect_rate = 0. };
          let ops = ref 0 in
          let count = function Session.Admitted _ -> incr ops | Session.Rejected _ -> () in
          for _ = 1 to 5 do
            count (Session.vplot srv a (fig "3-4"));
            count (Session.vplot srv b (fig "3-4"))
          done;
          let spans = Obs.span_events () in
          let links = Obs.Trace.links () in
          let roots =
            List.filter (fun (s : Obs.span) -> s.Obs.sname = "session.op") spans
          in
          (* exactly one root per admitted op, each on a distinct
             nonzero trace *)
          let tids = List.map (fun (s : Obs.span) -> s.Obs.strace) roots in
          let one_per_op = List.length roots = !ops in
          let distinct =
            List.for_all (fun t -> t <> 0) tids
            && List.length (List.sort_uniq compare tids) = List.length tids
          in
          (* every hedge / canary / retry span of a trace hangs off its
             root via child edges and/or links *)
          let covered =
            List.for_all
              (fun (root : Obs.span) ->
                let mine =
                  List.filter (fun (s : Obs.span) -> s.Obs.strace = root.Obs.strace) spans
                in
                let seen = reachable mine links root.Obs.sid in
                List.for_all
                  (fun (s : Obs.span) ->
                    match s.Obs.sname with
                    | "session.hedge" | "session.canary" | "transport.retry" ->
                        Hashtbl.mem seen s.Obs.sid
                    | _ -> true)
                  mine)
              roots
          in
          if not (one_per_op && distinct && covered) then
            QCheck.Test.fail_reportf
              "ops=%d roots=%d distinct=%b covered=%b (rate %.2f)" !ops
              (List.length roots) distinct covered rate;
          true))

(* ------------------------------------------------------------------ *)
(* Hedge + canary links are non-vacuous and become Chrome flow events *)

let test_hedge_canary_links () =
  with_obs (fun () ->
      let kernel = boot () in
      let srv, t1, a, _ = fleet kernel in
      Transport.set_base_faults t1
        { Transport.stall_rate = 0.12; drop_rate = 0.12; disconnect_rate = 0. };
      let rec drive n =
        if Session.counter srv a "hedged.ops" > 0 then ()
        else if n = 0 then Alcotest.fail "no op was ever hedged"
        else begin
          ignore (admitted (Session.vplot srv a (fig "3-4")));
          drive (n - 1)
        end
      in
      drive 20;
      let spans = Obs.span_events () in
      let by_id = Hashtbl.create 256 in
      List.iter (fun (s : Obs.span) -> Hashtbl.replace by_id s.Obs.sid s) spans;
      let name_of id =
        match Hashtbl.find_opt by_id id with
        | Some s -> s.Obs.sname
        | None -> "<evicted>"
      in
      let links = Obs.Trace.links () in
      let kinds k = List.filter (fun (l : Obs.Trace.link) -> l.Obs.Trace.lkind = k) links in
      (match kinds "hedge" with
      | [] -> Alcotest.fail "no hedge link recorded"
      | l :: _ ->
          Alcotest.(check string) "hedge link leaves the root op span"
            "session.op" (name_of l.Obs.Trace.lfrom);
          Alcotest.(check string) "hedge link lands on the hedge span"
            "session.hedge" (name_of l.Obs.Trace.lto));
      (match kinds "canary" with
      | [] -> Alcotest.fail "no canary link recorded"
      | l :: _ ->
          Alcotest.(check string) "canary link leaves the root op span"
            "session.op" (name_of l.Obs.Trace.lfrom);
          Alcotest.(check string) "canary link lands on the canary span"
            "session.canary" (name_of l.Obs.Trace.lto));
      (* the exporter turns each link into a ph:"s" / ph:"f" flow pair *)
      let trace = Obs.chrome_trace () in
      let has s =
        let re = Str.regexp_string s in
        try ignore (Str.search_forward re trace 0); true with Not_found -> false
      in
      Alcotest.(check bool) "flow start for the hedge link" true
        (has "\"name\":\"hedge\",\"cat\":\"link\",\"ph\":\"s\"");
      Alcotest.(check bool) "flow finish for the hedge link" true
        (has "\"name\":\"hedge\",\"cat\":\"link\",\"ph\":\"f\"");
      Alcotest.(check bool) "flow start for the canary link" true
        (has "\"name\":\"canary\",\"cat\":\"link\",\"ph\":\"s\""))

let test_retry_link () =
  with_obs (fun () ->
      let kernel = boot () in
      let srv = Session.create kernel in
      let tr = Transport.create ~seed:11 Transport.qemu_local in
      Session.add_target srv ~transport:tr "wire";
      let a = admitted (Session.open_session ~target:"wire" srv "alice") in
      Transport.set_base_faults tr
        { Transport.stall_rate = 0.; drop_rate = 0.3; disconnect_rate = 0. };
      let rec drive n =
        if List.exists (fun (l : Obs.Trace.link) -> l.Obs.Trace.lkind = "retry")
             (Obs.Trace.links ())
        then ()
        else if n = 0 then Alcotest.fail "no retry link after 20 lossy plots"
        else begin
          ignore (Session.vplot srv a (fig "3-4"));
          drive (n - 1)
        end
      in
      drive 20;
      let spans = Obs.span_events () in
      let by_id = Hashtbl.create 256 in
      List.iter (fun (s : Obs.span) -> Hashtbl.replace by_id s.Obs.sid s) spans;
      let l =
        List.find (fun (l : Obs.Trace.link) -> l.Obs.Trace.lkind = "retry")
          (Obs.Trace.links ())
      in
      (match Hashtbl.find_opt by_id l.Obs.Trace.lto with
      | Some s ->
          Alcotest.(check string) "retry link lands on a transport.retry span"
            "transport.retry" s.Obs.sname
      | None -> Alcotest.fail "retry link target span evicted"))

(* ------------------------------------------------------------------ *)
(* Refusals stay attributable: typed instant with the would-be trace *)

let test_refusal_instant () =
  with_obs (fun () ->
      let kernel = boot () in
      let srv = Session.create kernel in
      let tr = Transport.create ~seed:5 Transport.qemu_local in
      Session.add_target srv ~transport:tr "wire";
      (match Session.vplot srv 999 (fig "3-4") with
      | Session.Rejected { reason = Session.Unknown_session 999 } -> ()
      | _ -> Alcotest.fail "expected Unknown_session refusal");
      let refusals =
        List.filter_map
          (function
            | Obs.Instant { iname = "session.refused"; iattrs; _ } -> Some iattrs
            | _ -> None)
          (Obs.events ())
      in
      match refusals with
      | [ attrs ] ->
          Alcotest.(check (option string)) "typed reason" (Some "unknown_session")
            (List.assoc_opt "reason" attrs);
          let tid = Option.value ~default:"0" (List.assoc_opt "trace" attrs) in
          Alcotest.(check bool) "carries a nonzero would-be trace id" true
            (tid <> "0" && tid <> "")
      | l -> Alcotest.failf "expected exactly one refusal instant, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Disabled mode: byte-identical renders, zero drift *)

let test_disabled_byte_identical_zero_drift () =
  (* run the same seeded gray-failure fleet twice; obs off must leave
     no trace of itself and change no rendered byte *)
  let run ~enabled =
    with_obs ~enabled (fun () ->
        let kernel = boot () in
        let srv, t1, a, b = fleet kernel in
        Transport.set_base_faults t1
          { Transport.stall_rate = 0.12; drop_rate = 0.12; disconnect_rate = 0. };
        let out = ref [] in
        for _ = 1 to 8 do
          let _, ra, _ = admitted (Session.vplot srv a (fig "3-4")) in
          let _, rb, _ = admitted (Session.vplot srv b (fig "3-4")) in
          out := Render.canonical rb.Viewcl.graph :: Render.canonical ra.Viewcl.graph :: !out
        done;
        let drift =
          ( Obs.spans_total (), Obs.event_count (),
            List.length (Obs.Trace.links ()),
            (* pre-made Counter handles stay registered at 0 *)
            List.fold_left (fun acc (_, v) -> acc + v) 0 (Obs.Metrics.counters ()),
            List.length (Obs.Metrics.gauges ()), Obs.Trace.mint () )
        in
        (List.rev !out, drift))
  in
  let off, (spans, events, links, counters, gauges, mint) = run ~enabled:false in
  Alcotest.(check int) "no spans while disabled" 0 spans;
  Alcotest.(check int) "no buffered events while disabled" 0 events;
  Alcotest.(check int) "no links while disabled" 0 links;
  Alcotest.(check int) "no counter ticks while disabled" 0 counters;
  Alcotest.(check int) "no gauges while disabled" 0 gauges;
  Alcotest.(check int) "mint yields 0 while disabled" 0 mint;
  let on, _ = run ~enabled:true in
  Alcotest.(check (list string)) "renders byte-identical with obs on vs off" off on

(* ------------------------------------------------------------------ *)
(* SLO burn math: multi-window min rule, escalation, recovery *)

let test_slo_burn_windows () =
  with_obs (fun () ->
      Obs.Slo.clear ();
      Obs.Slo.register
        { Obs.Slo.oname = "unit.avail";
          okind = Obs.Slo.Good_bad { good = "u.good"; bad = "u.bad" };
          otarget = 0.9 };
      let g name = Option.get (Obs.Metrics.gauge name) in
      let near msg expect got = Alcotest.(check (float 1e-9)) msg expect got in
      (* epoch 1: 10 good, 0 bad — quiet *)
      Obs.Metrics.incr ~by:10 "u.good";
      Obs.Slo.tick ();
      near "quiet epoch burns nothing" 0. (g "slo.unit.avail.burn_rate");
      (* epoch 2: 8 good, 2 bad — fast window burns 2x, but the slow
         8-epoch window has only burned 1x; the alert rate is the min *)
      Obs.Metrics.incr ~by:8 "u.good";
      Obs.Metrics.incr ~by:2 "u.bad";
      Obs.Slo.tick ();
      near "fast window: (2/10)/0.1" 2. (g "slo.unit.avail.burn_fast");
      near "slow window: (2/20)/0.1" 1. (g "slo.unit.avail.burn_slow");
      near "burn_rate = min(fast, slow)" 1. (g "slo.unit.avail.burn_rate");
      near "error budget fully spent" 0. (g "slo.unit.avail.budget_remaining");
      Alcotest.(check int) "escalation recorded once" 1
        (Obs.Metrics.counter "slo.breaches");
      let sev () =
        (List.find (fun (s : Obs.Slo.status) -> s.Obs.Slo.slo = "unit.avail")
           (Obs.Slo.status ()))
          .Obs.Slo.severity
      in
      Alcotest.(check string) "burn >= 1 pages at warn" "warn" (sev ());
      Alcotest.(check bool) "breach instant emitted" true
        (List.exists
           (function Obs.Instant { iname = "slo.breach"; _ } -> true | _ -> false)
           (Obs.events ()));
      (* epoch 3: clean again — both windows drop under 1x, recovery *)
      Obs.Metrics.incr ~by:10 "u.good";
      Obs.Slo.tick ();
      near "fast window back to 0" 0. (g "slo.unit.avail.burn_fast");
      Alcotest.(check string) "severity back to ok" "ok" (sev ());
      Alcotest.(check bool) "clear instant emitted" true
        (List.exists
           (function Obs.Instant { iname = "slo.clear"; _ } -> true | _ -> false)
           (Obs.events ()));
      Alcotest.(check int) "no double-counted escalation" 1
        (Obs.Metrics.counter "slo.breaches"))

(* ------------------------------------------------------------------ *)
(* Attr breakdowns survive ring eviction (satellite c) *)

let test_breakdown_survives_eviction () =
  with_obs ~cap:8 (fun () ->
      for _ = 1 to 100 do
        Obs.with_span ~attrs:[ ("target", "tA") ] "x.read" (fun () -> ())
      done;
      for _ = 1 to 50 do
        Obs.with_span ~attrs:[ ("target", "tB") ] "x.read" (fun () -> ())
      done;
      Alcotest.(check bool) "the tiny ring actually evicted" true (Obs.dropped () > 0);
      Alcotest.(check int) "ring holds only the newest 8" 8 (Obs.event_count ());
      let count name =
        match
          List.find_opt (fun (r : Obs.Profile.row) -> r.Obs.Profile.pname = name)
            (Obs.Profile.breakdown ())
        with
        | Some r -> r.Obs.Profile.pcount
        | None -> 0
      in
      Alcotest.(check int) "per-target tA count complete" 100 (count "x.read{target=tA}");
      Alcotest.(check int) "per-target tB count complete" 50 (count "x.read{target=tB}");
      match Obs.Profile.find "x.read" with
      | Some r -> Alcotest.(check int) "base aggregate complete" 150 r.Obs.Profile.pcount
      | None -> Alcotest.fail "base aggregate missing")

(* ------------------------------------------------------------------ *)
(* Histogram exemplars + the Prometheus exporter *)

let test_exemplars_and_prometheus () =
  with_obs (fun () ->
      let tid = Obs.Trace.mint () in
      Alcotest.(check bool) "mint yields distinct nonzero ids" true
        (tid <> 0 && Obs.Trace.mint () <> tid);
      Obs.Trace.with_trace tid (fun () -> Obs.Metrics.observe "u.lat_ms" 7.0);
      (* no ambient trace: the tail bucket gets no exemplar *)
      Obs.Metrics.observe "u.lat_ms" 900.0;
      (match Obs.Metrics.exemplars "u.lat_ms" with
      | [ (bucket, t, v) ] ->
          Alcotest.(check int) "exemplar in the sample's bucket"
            (Obs.Metrics.bucket_of 7.0) bucket;
          Alcotest.(check int) "exemplar remembers the ambient trace" tid t;
          Alcotest.(check (float 1e-9)) "exemplar remembers the value" 7.0 v
      | l -> Alcotest.failf "expected exactly one exemplar, got %d" (List.length l));
      (match Obs.Metrics.top_exemplar "u.lat_ms" with
      | Some (t, v) ->
          Alcotest.(check int) "top exemplar: highest traced bucket" tid t;
          Alcotest.(check (float 1e-9)) "top exemplar value" 7.0 v
      | None -> Alcotest.fail "no top exemplar");
      Obs.Metrics.incr ~by:3 "u.ops";
      Obs.Metrics.set_gauge "u.load" 0.5;
      let prom = Obs.prometheus () in
      let has s =
        let re = Str.regexp_string s in
        try ignore (Str.search_forward re prom 0); true with Not_found -> false
      in
      Alcotest.(check bool) "counter exposed" true (has "# TYPE u_ops counter\nu_ops 3");
      Alcotest.(check bool) "gauge exposed" true (has "# TYPE u_load gauge");
      Alcotest.(check bool) "histogram exposed as a summary" true
        (has "# TYPE u_lat_ms summary");
      Alcotest.(check bool) "quantile series present" true
        (has "u_lat_ms{quantile=\"0.95\"}");
      Alcotest.(check bool) "count series present" true (has "u_lat_ms_count 2"))

(* ------------------------------------------------------------------ *)

let qt t = QCheck_alcotest.to_alcotest t

let suite =
  [ qt trace_contract;
    Alcotest.test_case "hedge + canary links -> Chrome flow events" `Quick
      test_hedge_canary_links;
    Alcotest.test_case "retry link lands on the replacing attempt" `Quick
      test_retry_link;
    Alcotest.test_case "refusal instant carries the would-be trace id" `Quick
      test_refusal_instant;
    Alcotest.test_case "disabled mode: byte-identical renders, zero drift" `Quick
      test_disabled_byte_identical_zero_drift;
    Alcotest.test_case "slo: multi-window burn, breach/clear escalation" `Quick
      test_slo_burn_windows;
    Alcotest.test_case "breakdowns survive ring eviction" `Quick
      test_breakdown_survives_eviction;
    Alcotest.test_case "exemplars + prometheus exposition" `Quick
      test_exemplars_and_prometheus ]
