(* The resilient remote-target transport (ISSUE 2): deterministic
   backoff, bounded retries, the circuit breaker's zero-read guarantee,
   the per-plot deadline budget, and crash-safe panel sessions — after
   a disconnect mid-extraction, replaying the journal reproduces the
   pre-crash panes (same pane ids, same box ids). *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let session () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  (k, Visualinux.attach k)

let drop_everything =
  { Transport.stall_rate = 0.; drop_rate = 1.0; disconnect_rate = 0. }

(* ------------------------------------------------------------------ *)
(* Backoff *)

let backoff_deterministic =
  QCheck.Test.make ~name:"backoff schedule: deterministic, jitter-bounded, capped"
    ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_bound 12))
    (fun (seed, attempt) ->
      let p = Transport.default_policy in
      let b1 = Transport.backoff_ms p ~seed ~attempt in
      let b2 = Transport.backoff_ms p ~seed ~attempt in
      let raw = p.Transport.backoff_base_ms *. (p.Transport.backoff_factor ** float_of_int attempt) in
      let capped = Float.min raw p.Transport.backoff_max_ms in
      b1 = b2
      && b1 >= (capped *. (1. -. p.Transport.jitter)) -. 1e-9
      && b1 <= (capped *. (1. +. p.Transport.jitter)) +. 1e-9)

let test_backoff_schedule_replays () =
  (* the whole schedule, not just one delay, is a function of the seed *)
  let sched seed =
    List.init 8 (fun a -> Transport.backoff_ms Transport.default_policy ~seed ~attempt:a)
  in
  Alcotest.(check bool) "same seed, same schedule" true (sched 42 = sched 42);
  Alcotest.(check bool) "different seeds, different jitter" true (sched 42 <> sched 43)

(* ------------------------------------------------------------------ *)
(* Retry cap *)

let retries_never_exceed_cap =
  QCheck.Test.make ~name:"retries never exceed the cap (and a refused fetch never reads)"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_bound 5))
    (fun (seed, max_retries) ->
      let policy =
        { Transport.default_policy with Transport.max_retries; breaker_threshold = 1000 }
      in
      let tr = Transport.create ~seed ~policy ~faults:drop_everything Transport.qemu_local in
      let calls = ref 0 in
      let r = Transport.fetch tr ~bytes:8 (fun () -> incr calls) in
      let sn = Transport.snapshot tr in
      r = Error Transport.Retries_exhausted
      && !calls = 0
      && sn.Transport.attempts = max_retries + 1
      && sn.Transport.retries = max_retries)

let retry_cap_under_partial_loss =
  QCheck.Test.make ~name:"per-fetch attempts <= cap+1 at any drop rate" ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_bound 99))
    (fun (seed, pct) ->
      let tr =
        Transport.create ~seed
          ~policy:{ Transport.default_policy with Transport.breaker_threshold = 1000 }
          ~faults:{ Transport.stall_rate = 0.; drop_rate = float_of_int pct /. 100.; disconnect_rate = 0. }
          Transport.qemu_local
      in
      let cap = Transport.default_policy.Transport.max_retries in
      let ok = ref true in
      for _ = 1 to 50 do
        let before = (Transport.snapshot tr).Transport.attempts in
        ignore (Transport.fetch tr ~bytes:8 (fun () -> ()));
        let spent = (Transport.snapshot tr).Transport.attempts - before in
        if spent < 1 || spent > cap + 1 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Circuit breaker *)

let test_breaker_zero_reads () =
  let policy =
    { Transport.default_policy with
      Transport.max_retries = 0; breaker_threshold = 3; breaker_cooldown_ms = 1e12 }
  in
  let tr = Transport.create ~seed:1 ~policy ~faults:drop_everything Transport.qemu_local in
  for _ = 1 to 3 do
    ignore (Transport.fetch tr ~bytes:8 (fun () -> ()))
  done;
  Alcotest.(check bool) "breaker tripped Open" true (Transport.breaker tr = Transport.Open);
  let sn0 = Transport.snapshot tr in
  let calls = ref 0 in
  for _ = 1 to 50 do
    match Transport.fetch tr ~bytes:8 (fun () -> incr calls) with
    | Error Transport.Breaker_open -> ()
    | _ -> Alcotest.fail "open breaker must refuse with Breaker_open"
  done;
  let sn1 = Transport.snapshot tr in
  Alcotest.(check int) "thunk never ran" 0 !calls;
  Alcotest.(check int) "zero wire attempts while open" sn0.Transport.attempts
    sn1.Transport.attempts;
  Alcotest.(check int) "all 50 short-circuited"
    (sn0.Transport.short_circuits + 50)
    sn1.Transport.short_circuits

let test_breaker_zero_kmem_reads () =
  (* same guarantee measured at the bottom of the stack: an open breaker
     means Kmem's read counter does not move *)
  let _, s = session () in
  let tgt = s.Visualinux.target in
  let policy =
    { Transport.default_policy with
      Transport.max_retries = 0; breaker_threshold = 2; breaker_cooldown_ms = 1e12 }
  in
  let tr = Transport.create ~seed:5 ~policy ~faults:drop_everything Transport.qemu_local in
  Target.set_transport tgt tr;
  let init = Option.get (Target.lookup_symbol tgt "init_task") in
  for _ = 1 to 2 do
    ignore (Target.as_int tgt (Target.member tgt init "pid"))
  done;
  Alcotest.(check bool) "breaker tripped" true (Transport.breaker tr = Transport.Open);
  let reads0 = (Target.stats tgt).Target.reads in
  let faults0 = Target.fault_count tgt in
  for _ = 1 to 25 do
    Alcotest.(check int) "refused read yields 0" 0
      (Target.as_int tgt (Target.member tgt init "pid"))
  done;
  Alcotest.(check int) "Kmem read counter froze" reads0 (Target.stats tgt).Target.reads;
  Alcotest.(check bool) "refusals recorded as Link_lost faults" true
    (Target.fault_count tgt > faults0);
  (match List.rev (Target.faults tgt) with
  | Target.Link_lost { detail; _ } :: _ ->
      Alcotest.(check string) "fault names the breaker" "breaker-open" detail
  | _ -> Alcotest.fail "expected a Link_lost fault on top")

let test_breaker_half_open_recovery () =
  let policy =
    { Transport.default_policy with
      Transport.max_retries = 0; breaker_threshold = 2; breaker_cooldown_ms = 10. }
  in
  let tr = Transport.create ~seed:2 ~policy ~faults:drop_everything Transport.qemu_local in
  for _ = 1 to 2 do
    ignore (Transport.fetch tr ~bytes:8 (fun () -> ()))
  done;
  Alcotest.(check bool) "Open after threshold" true (Transport.breaker tr = Transport.Open);
  (* heal the link; the first refused fetch charges nothing, so push the
     clock past the cooldown with a reconnect resync *)
  Transport.set_base_faults tr Transport.no_faults;
  Transport.reconnect tr;
  Alcotest.(check bool) "Half_open after resync" true
    (Transport.breaker tr = Transport.Half_open);
  (match Transport.fetch tr ~bytes:8 (fun () -> 99) with
  | Ok v -> Alcotest.(check int) "probe read went through" 99 v
  | Error e -> Alcotest.fail (Transport.error_to_string e));
  Alcotest.(check bool) "Closed after successful probe" true
    (Transport.breaker tr = Transport.Closed)

(* ------------------------------------------------------------------ *)
(* Deadline budget *)

let test_deadline_budget () =
  let _, s = session () in
  let sc = Option.get (Scripts.find "9-2") in
  (* unconstrained extraction over the serial link *)
  let tr = Transport.create Transport.kgdb_rpi400 in
  Target.set_transport s.Visualinux.target tr;
  let _, _, full = Visualinux.plot_figure s sc in
  (* a fresh session under a tight budget degrades but completes; the
     read cache stays off so every field read is its own round-trip —
     the budget must bite mid-extraction, not be amortized away by
     struct-granular coalescing *)
  let _, s2 = session () in
  let tr2 = Transport.create Transport.kgdb_rpi400 in
  Transport.with_allowance tr2 { Transport.open_allowance with plot_deadline_ms = Some 40. }
  @@ fun () ->
  Target.set_transport s2.Visualinux.target tr2;
  Target.set_read_cache s2.Visualinux.target false;
  let _, res2, tight = Visualinux.plot_figure s2 sc in
  Alcotest.(check bool) "budget run yields fewer boxes" true
    (tight.Visualinux.boxes < full.Visualinux.boxes);
  Alcotest.(check bool) "still produced a plot" true (tight.Visualinux.boxes > 0);
  let sn = Option.get tight.Visualinux.link in
  Alcotest.(check bool) "deadline refusals counted" true (sn.Transport.deadline_hits > 0);
  Alcotest.(check bool) "Timed_out faults in the journal" true
    (List.exists
       (function Target.Timed_out _ -> true | _ -> false)
       (Target.faults s2.Visualinux.target));
  (* over-budget boxes are marked broken, not dropped silently *)
  Alcotest.(check bool) "broken boxes tagged" true
    (List.exists (fun b -> Vgraph.broken b <> None) (Vgraph.boxes res2.Viewcl.graph));
  Alcotest.(check bool) "budget accounting visible" true (Transport.deadline_exceeded tr2)

let plots_survive_any_fault_rate =
  QCheck.Test.make ~name:"extraction never raises over a faulty link" ~count:8
    QCheck.(pair (int_bound 1_000_000) (int_bound 30))
    (fun (seed, pct) ->
      let _, s = session () in
      let tr =
        Transport.create ~seed
          ~faults:(Transport.faults_of_rate (float_of_int pct /. 100.))
          Transport.kgdb_rpi400
      in
      Transport.with_allowance tr
        { Transport.open_allowance with plot_deadline_ms = Some 500. }
      @@ fun () ->
      Target.set_transport s.Visualinux.target tr;
      let sc = Option.get (Scripts.find "3-4") in
      let _, _, stats = Visualinux.plot_figure s sc in
      if Transport.link tr = Transport.Down then Transport.reconnect tr;
      stats.Visualinux.boxes >= 0)

(* ------------------------------------------------------------------ *)
(* Crash-safe sessions: journal, recover, refresh *)

let box_ids g = List.map (fun b -> b.Vgraph.id) (Vgraph.boxes g)

let build_multi_pane s =
  let sc34 = Option.get (Scripts.find "3-4") in
  let sc71 = Option.get (Scripts.find "7-1") in
  let pane1, _, _ = Visualinux.plot_figure s sc34 in
  (match
     Visualinux.vctrl s
       (Visualinux.Split
          { pane = pane1.Panel.pid; dir = `Vertical; program = sc71.Scripts.source })
   with
  | Visualinux.Opened _ -> ()
  | _ -> Alcotest.fail "split failed");
  ignore
    (Visualinux.vctrl s
       (Visualinux.Apply
          { pane = pane1.Panel.pid;
            viewql = "a = SELECT task_struct FROM * WHERE pid > 3\nUPDATE a WITH collapsed: true" }));
  let picked =
    match box_ids pane1.Panel.graph with a :: b :: _ -> [ a; b ] | l -> l
  in
  (match Visualinux.vctrl s (Visualinux.Select { pane = pane1.Panel.pid; boxes = picked }) with
  | Visualinux.Opened _ -> ()
  | _ -> Alcotest.fail "select failed")

let pane_fingerprints s =
  List.map
    (fun id ->
      let p = Panel.pane s.Visualinux.panel id in
      (id, box_ids p.Panel.graph, p.Panel.history))
    (Panel.pane_ids s.Visualinux.panel)

let test_recover_reproduces_session () =
  let kernel = Kstate.boot () in
  let w = Workload.create kernel in
  Workload.run w;
  let tr = Transport.create Transport.qemu_local in
  let s = Visualinux.attach ~transport:tr kernel in
  build_multi_pane s;
  let before = pane_fingerprints s in
  Alcotest.(check int) "multi-pane session built" 3 (List.length before);
  (* the crash: link dies, then an extraction is attempted mid-flight *)
  Transport.disconnect tr;
  Panel.mark_all_stale s.Visualinux.panel;
  let sc71 = Option.get (Scripts.find "7-1") in
  let crash_pane, _, _ = Visualinux.plot_figure s sc71 in
  Alcotest.(check bool) "mid-crash plot degraded, not raised" true
    (Vgraph.box_count crash_pane.Panel.graph < 5);
  (* recover: reconnect + journal replay *)
  let stale = Visualinux.recover s in
  Alcotest.(check int) "nothing stale once the link is back" 0 stale;
  Alcotest.(check bool) "link resynced" true (Transport.link tr = Transport.Up);
  let after = pane_fingerprints s in
  Alcotest.(check int) "all panes back (incl. the mid-crash one)" 4 (List.length after);
  List.iter
    (fun (id, ids, hist) ->
      match List.find_opt (fun (id', _, _) -> id' = id) after with
      | None -> Alcotest.fail (Printf.sprintf "pane %d lost in recovery" id)
      | Some (_, ids', hist') ->
          Alcotest.(check (list int))
            (Printf.sprintf "pane %d: same box ids" id)
            ids ids';
          Alcotest.(check (list string))
            (Printf.sprintf "pane %d: same ViewQL history" id)
            hist hist')
    before;
  (* the pane whose extraction the crash ruined is now fully extracted *)
  let _, crash_ids, _ = List.nth after 3 in
  Alcotest.(check bool) "crashed pane re-extracted" true (List.length crash_ids > 5);
  (* the refinement replayed: collapsed tasks are collapsed again *)
  let p1 = Panel.pane s.Visualinux.panel 1 in
  Alcotest.(check bool) "ViewQL effects reproduced" true
    (List.exists
       (fun b -> b.Vgraph.attrs.Vgraph.collapsed)
       (Vgraph.boxes p1.Panel.graph))

let test_recover_while_down_then_refresh () =
  let kernel = Kstate.boot () in
  let w = Workload.create kernel in
  Workload.run w;
  let tr = Transport.create Transport.qemu_local in
  let s = Visualinux.attach ~transport:tr kernel in
  build_multi_pane s;
  let ops = Panel.journal s.Visualinux.panel in
  (* link still down at recovery time: panes come back STALE, ids intact *)
  Transport.disconnect tr;
  let panel, stale = Panel.recover ~extract:(fun _ -> None) ops in
  s.Visualinux.panel <- panel;
  Alcotest.(check bool) "primary panes stale" true (stale >= 2);
  Alcotest.(check (list int)) "pane ids preserved though extraction failed"
    [ 1; 2; 3 ] (Panel.pane_ids panel);
  (match Visualinux.render_pane s 1 with
  | Some out -> Alcotest.(check bool) "stale pane tagged in render" true (contains out "[STALE]")
  | None -> Alcotest.fail "pane 1 must render");
  (* link comes back: refresh re-extracts and replays each pane's history *)
  Transport.reconnect tr;
  let refreshed = Visualinux.refresh_stale s in
  Alcotest.(check bool) "stale primaries refreshed" true (List.length refreshed >= 2);
  Alcotest.(check (list int)) "no stale primaries left" []
    (List.filter
       (fun id ->
         let p = Panel.pane s.Visualinux.panel id in
         p.Panel.stale
         && match p.Panel.kind with Panel.Primary _ -> true | Panel.Secondary _ -> false)
       (Panel.pane_ids s.Visualinux.panel));
  let p1 = Panel.pane s.Visualinux.panel 1 in
  Alcotest.(check bool) "pane live with real boxes" true (Vgraph.box_count p1.Panel.graph > 5);
  Alcotest.(check bool) "history replayed on refresh" true
    (List.exists (fun b -> b.Vgraph.attrs.Vgraph.collapsed) (Vgraph.boxes p1.Panel.graph));
  (match Visualinux.render_pane s 1 with
  | Some out -> Alcotest.(check bool) "STALE tag gone" false (contains out "[STALE]")
  | None -> Alcotest.fail "pane 1 must render")

let test_journal_json_roundtrip () =
  let _, s = session () in
  build_multi_pane s;
  Panel.close s.Visualinux.panel 3;
  let ops = Panel.journal s.Visualinux.panel in
  let ops' = Panel.journal_of_json (Json.parse (Json.to_string (Panel.journal_to_json s.Visualinux.panel))) in
  Alcotest.(check int) "op count survives json" (List.length ops) (List.length ops');
  Alcotest.(check bool) "ops survive json round-trip" true (ops = ops')

let suite =
  [ QCheck_alcotest.to_alcotest backoff_deterministic;
    Alcotest.test_case "backoff schedule replays from its seed" `Quick
      test_backoff_schedule_replays;
    QCheck_alcotest.to_alcotest retries_never_exceed_cap;
    QCheck_alcotest.to_alcotest retry_cap_under_partial_loss;
    Alcotest.test_case "open breaker: zero underlying reads" `Quick test_breaker_zero_reads;
    Alcotest.test_case "open breaker: Kmem counter frozen, faults typed" `Quick
      test_breaker_zero_kmem_reads;
    Alcotest.test_case "breaker: Open -> Half_open -> Closed" `Quick
      test_breaker_half_open_recovery;
    Alcotest.test_case "deadline budget truncates, never blocks" `Quick test_deadline_budget;
    QCheck_alcotest.to_alcotest plots_survive_any_fault_rate;
    Alcotest.test_case "recover after disconnect: same panes, same box ids" `Quick
      test_recover_reproduces_session;
    Alcotest.test_case "recover while down: stale panes, then refresh" `Quick
      test_recover_while_down_then_refresh;
    Alcotest.test_case "journal JSON round-trip" `Quick test_journal_json_roundtrip ]
