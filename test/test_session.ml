(* The multi-session server (ISSUE 6): fault isolation (one session's
   fault storm/breaker-Open leaves other sessions' rendered bytes,
   fault journals and counters identical to solo runs), typed admission
   control (capacity, budgets, quarantine — never an exception),
   degradation-fair scheduling, journal compaction replay-equivalence,
   and crash-safe fleet recovery. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let boot () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  k

let fig name = (Option.get (Scripts.find name)).Scripts.source
let ql_collapse = "a = SELECT mid FROM *\nUPDATE a WITH collapsed: true"

let pane_state vis =
  List.map
    (fun id ->
      let p = Panel.pane vis.Visualinux.panel id in
      (id, List.map (fun b -> b.Vgraph.id) (Vgraph.boxes p.Panel.graph), Render.canonical p.Panel.graph))
    (Panel.pane_ids vis.Visualinux.panel)

let admitted = function
  | Session.Admitted x -> x
  | Session.Rejected { reason } ->
      Alcotest.failf "unexpected rejection: %s" (Session.reason_to_string reason)

(* ------------------------------------------------------------------ *)
(* Journal compaction: replay equivalence *)

(* Random op soup over a small id space: plenty of dangling references,
   open/close churn and panes that survive. *)
let op_gen =
  QCheck.Gen.(
    let id = int_range 1 8 in
    list_size (int_range 0 40)
      (frequency
         [ (3, return (Panel.Jopen { program = "p" }));
           ( 2,
             map2
               (fun at h ->
                 Panel.Jsplit
                   { dir = (if h then `Horizontal else `Vertical); at; program = "q" })
               id bool );
           (2, map (fun from_ -> Panel.Jselect { from_; picked = [] }) id);
           (2, map (fun at -> Panel.Jrefine { at; viewql = ql_collapse }) id);
           (3, map (fun id -> Panel.Jclose { id }) id) ]))

let arb_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Panel.Jopen _ -> "open"
             | Panel.Jsplit { at; _ } -> Printf.sprintf "split@%d" at
             | Panel.Jselect { from_; _ } -> Printf.sprintf "sel@%d" from_
             | Panel.Jrefine { at; _ } -> Printf.sprintf "ref@%d" at
             | Panel.Jclose { id } -> Printf.sprintf "close@%d" id
             | Panel.Jreserve { n } -> Printf.sprintf "skip%d" n)
           ops))
    op_gen

(* What a replay must reproduce: the split tree, and per pane its kind
   (program, or source + picked boxes) and ViewQL history. *)
let panel_shape t =
  ( Panel.layout t,
    List.map
      (fun id ->
        let p = Panel.pane t id in
        (id, p.Panel.kind, p.Panel.history))
      (Panel.pane_ids t) )

let compaction_replay_equivalence =
  QCheck.Test.make ~name:"compacted journal replays to the identical panel" ~count:200
    arb_ops
    (fun ops ->
      let extract _ = Some (Vgraph.create ()) in
      let t1, _ = Panel.recover ~extract ops in
      let compacted = Panel.compact_journal ops in
      let t2, _ = Panel.recover ~extract compacted in
      List.length compacted <= List.length ops
      && Panel.pane_ids t1 = Panel.pane_ids t2
      && panel_shape t1 = panel_shape t2)

let test_compaction_drops_churn () =
  (* open/close churn around one survivor: everything but the survivor's
     ops and one coalesced reserve must go *)
  let churn i = [ Panel.Jopen { program = "x" }; Panel.Jclose { id = i } ] in
  let ops = List.concat (List.init 10 (fun i -> churn (i + 1))) @ [ Panel.Jopen { program = "keep" } ] in
  let compacted = Panel.compact_journal ops in
  Alcotest.(check int) "churn collapses to reserve + survivor" 2 (List.length compacted);
  (match compacted with
  | [ Panel.Jreserve { n }; Panel.Jopen { program } ] ->
      Alcotest.(check int) "reserve skips all churned ids" 10 n;
      Alcotest.(check string) "survivor kept" "keep" program
  | _ -> Alcotest.fail "expected [reserve; open]");
  let extract _ = Some (Vgraph.create ()) in
  let t, _ = Panel.recover ~extract compacted in
  Alcotest.(check (list int)) "survivor keeps its original id" [ 11 ] (Panel.pane_ids t)

let test_auto_compaction_bounds_journal () =
  (* 2000 churn ops against the 512-op compaction limit *)
  let t = Panel.create () in
  for _ = 1 to 1000 do
    let p = Panel.open_primary t ~program:"x" (Vgraph.create ()) in
    Panel.close t p.Panel.pid
  done;
  Alcotest.(check bool) "journal stays bounded under churn" true
    (List.length (Panel.journal t) <= 513);
  let p = Panel.open_primary t ~program:"live" (Vgraph.create ()) in
  Alcotest.(check int) "ids keep advancing past reserved ranges" 1001 p.Panel.pid;
  let t2, _ = Panel.recover ~extract:(fun _ -> Some (Vgraph.create ())) (Panel.journal t) in
  Alcotest.(check (list int)) "recovery reproduces the surviving pane id" [ 1001 ]
    (Panel.pane_ids t2)

(* ------------------------------------------------------------------ *)
(* Fault isolation: a storm in one session leaves another bit-identical *)

(* Drive the same op sequence for the observed session in both servers;
   the second server also hosts a storming neighbour interleaved
   between every step. *)
let isolation_under_fault_storm =
  QCheck.Test.make ~name:"fault storm in one session: neighbour bit-identical to solo"
    ~count:3
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let kernel = boot () in
      let mk_server () =
        let srv = Session.create kernel in
        let policy =
          { Transport.default_policy with Transport.breaker_threshold = 1_000_000 }
        in
        let tr = Transport.create ~seed ~policy Transport.qemu_local in
        Session.add_target srv ~transport:tr "wire";
        srv
      in
      let observe srv sid =
        ( pane_state (Option.get (Session.vis srv sid)),
          Session.fault_journal srv sid |> List.map Target.fault_to_string,
          Session.counters srv sid )
      in
      (* solo run *)
      let solo = mk_server () in
      let a = admitted (Session.open_session ~target:"wire" solo "alice") in
      Target.set_read_cache (Option.get (Session.vis solo a)).Visualinux.target false;
      let steps srv sid storm =
        let pane, _, _ = admitted (Session.vplot srv sid ~title:"t" (fig "3-4")) in
        storm ();
        ignore (admitted (Session.vctrl srv sid (Visualinux.Apply { pane = pane.Panel.pid; viewql = ql_collapse })));
        storm ();
        ignore (admitted (Session.vrefresh srv sid ~pane:pane.Panel.pid));
        storm ()
      in
      steps solo a (fun () -> ());
      (* shared run: bob storms between every one of alice's steps *)
      let shared = mk_server () in
      let a' = admitted (Session.open_session ~target:"wire" shared "alice") in
      Target.set_read_cache (Option.get (Session.vis shared a')).Visualinux.target false;
      (* stalls and drops but no disconnects: this test isolates the
         fault-journal/counter plumbing; breaker-Open and link-loss
         degradation get their own deterministic test below.  The drop
         rate must be high enough that at least one read exhausts the
         retry budget (drop_rate^(max_retries+1) per read) for every
         transport seed, or the non-vacuity check below flakes. *)
      let b =
        admitted
          (Session.open_session ~target:"wire"
             ~faults:{ Transport.stall_rate = 0.3; drop_rate = 0.6; disconnect_rate = 0. }
             shared "bob")
      in
      let storm () = ignore (Session.vplot shared b (fig "7-1")) in
      steps shared a' storm;
      (* bob really did take faults (the storm is not vacuous)... *)
      Session.counter shared b "faults" > 0
      (* ...and alice cannot tell: same pane bytes, same fault journal,
         same private counters *)
      && observe solo a = observe shared a')

let test_breaker_open_quarantine_and_fair_recovery () =
  let kernel = boot () in
  (* solo baseline for alice's pane bytes *)
  let solo = Session.create kernel in
  Session.add_target solo ~transport:(Transport.create ~seed:7 Transport.qemu_local) "wire";
  let sa = admitted (Session.open_session ~target:"wire" solo "alice") in
  let p0, _, _ = admitted (Session.vplot solo sa (fig "3-4")) in
  ignore (admitted (Session.vrefresh solo sa ~pane:p0.Panel.pid));
  let solo_state = pane_state (Option.get (Session.vis solo sa)) in
  (* shared server: alice + carol healthy, bob's link drops everything *)
  let srv = Session.create kernel in
  Session.add_target srv ~transport:(Transport.create ~seed:7 Transport.qemu_local) "wire";
  let a = admitted (Session.open_session ~target:"wire" srv "alice") in
  let b =
    admitted
      (Session.open_session ~target:"wire"
         ~faults:{ Transport.stall_rate = 0.; drop_rate = 1.0; disconnect_rate = 0. }
         srv "bob")
  in
  let c = admitted (Session.open_session ~target:"wire" srv "carol") in
  let pa, _, _ = admitted (Session.vplot srv a (fig "3-4")) in
  let pc, _, _ = admitted (Session.vplot srv c (fig "7-1")) in
  ignore pc;
  (* bob's storm trips the shared breaker: the target quarantines *)
  ignore (Session.vplot srv b (fig "9-2"));
  (match Session.target_health srv "wire" with
  | `Quarantine prober -> Alcotest.(check int) "first prober elected round-robin" a prober
  | _ -> Alcotest.fail "breaker-Open must quarantine the target");
  (* non-probers are refused with a typed reason, never an exception *)
  (match Session.vplot srv b (fig "9-2") with
  | Session.Rejected { reason = Session.Quarantined { target; prober } } ->
      Alcotest.(check string) "refusal names the target" "wire" target;
      Alcotest.(check int) "refusal names the prober" a prober
  | Session.Rejected { reason } ->
      Alcotest.failf "wrong reason: %s" (Session.reason_to_string reason)
  | Session.Admitted _ -> Alcotest.fail "non-prober must be refused during quarantine");
  Alcotest.(check bool) "refused session counts its rejection" true
    (Session.counter srv b "rejections" > 0);
  (* the refused sessions degrade to stale renders, they do not go dark *)
  (match Session.render srv c pc.Panel.pid with
  | Some out -> Alcotest.(check bool) "carol serves [STALE] panes" true (contains out "[STALE]")
  | None -> Alcotest.fail "carol must still render");
  (* bob's fault condition clears (otherwise his first re-admitted op
     would — correctly — re-trip the quarantine) *)
  Session.set_faults srv b Transport.no_faults;
  (* the prober's traffic heals the link: quarantine -> probation *)
  ignore (admitted (Session.vrefresh srv a ~pane:pa.Panel.pid));
  (match Session.target_health srv "wire" with
  | `Probation waiting ->
      Alcotest.(check (list int)) "probation queue is the non-probers, in order"
        [ b; c ] waiting
  | _ -> Alcotest.fail "successful probe must open probation");
  (* re-admission is staggered: carol (not head) is still refused... *)
  (match Session.vplot srv c (fig "7-1") with
  | Session.Rejected { reason = Session.Quarantined _ } -> ()
  | _ -> Alcotest.fail "non-head waiter must wait its turn");
  (* ...bob (head) gets back in, which admits one waiter per op *)
  (match Session.vplot srv b (fig "9-2") with
  | Session.Admitted _ -> ()
  | Session.Rejected { reason } ->
      Alcotest.failf "head waiter refused: %s" (Session.reason_to_string reason));
  (match Session.vplot srv c (fig "7-1") with
  | Session.Admitted _ -> ()
  | Session.Rejected { reason } ->
      Alcotest.failf "second waiter refused after one op: %s"
        (Session.reason_to_string reason));
  Alcotest.(check bool) "target healthy again" true
    (Session.target_health srv "wire" = `Healthy);
  (* through the whole storm+recovery, alice's pane is bit-identical to
     her solo run *)
  let shared_state =
    List.filter (fun (id, _, _) -> id = pa.Panel.pid)
      (pane_state (Option.get (Session.vis srv a)))
  in
  Alcotest.(check bool) "alice's pane bytes identical to solo" true
    (shared_state = List.filter (fun (id, _, _) -> id = p0.Panel.pid) solo_state);
  Alcotest.(check (list string)) "alice's fault journal identical to solo"
    (List.map Target.fault_to_string (Session.fault_journal solo sa))
    (List.map Target.fault_to_string (Session.fault_journal srv a))

(* ------------------------------------------------------------------ *)
(* A refused refresh serves [STALE] *)

(* The first line of a render is its header: [== title ==], tagged
   [STALE] when the pane predates the target's current state. *)
let header txt = List.hd (String.split_on_char '\n' txt)

let test_refused_refresh_is_stale () =
  (* dead link: the refresh is admitted, but the link is down, so
     nothing was re-extracted *)
  let kernel = Kstate.boot () in
  let w = Workload.create kernel in
  Workload.run w;
  let srv = Session.create kernel in
  let tr = Transport.create ~seed:7 Transport.qemu_local in
  Session.add_target srv ~transport:tr "wire";
  let a = admitted (Session.open_session ~target:"wire" srv "alice") in
  let p, _, _ = admitted (Session.vplot srv a (fig "3-4")) in
  Workload.step w;
  Transport.disconnect tr;
  Alcotest.(check bool) "the refresh is admitted with nothing served" true
    (Session.vrefresh srv a ~pane:p.Panel.pid = Session.Admitted None);
  let txt = Option.get (Session.render srv a p.Panel.pid) in
  Alcotest.(check bool) "the header carries [STALE]" true (contains (header txt) "[STALE]");
  Alcotest.(check int) "one stale render" 1 (Session.counter srv a "stale.renders");
  (* shed: a Degraded target with no replica refuses a light session *)
  let srv = Session.create kernel in
  let tr = Transport.create ~seed:5 Transport.qemu_local in
  Session.add_target srv ~transport:tr "wire";
  let a = admitted (Session.open_session ~target:"wire" ~weight:4 srv "alice") in
  let b = admitted (Session.open_session ~target:"wire" srv "bob") in
  Target.set_read_cache (Option.get (Session.vis srv a)).Visualinux.target false;
  let pb, _, _ = admitted (Session.vplot srv b (fig "3-4")) in
  Transport.set_base_faults tr
    { Transport.stall_rate = 0.10; drop_rate = 0.10; disconnect_rate = 0. };
  let rec warm n =
    if n = 0 then Alcotest.fail "target never reached Degraded"
    else if Session.target_health srv "wire" <> `Degraded then begin
      ignore (Session.vplot srv a (fig "3-4"));
      warm (n - 1)
    end
  in
  warm 24;
  (match Session.vrefresh srv b ~pane:pb.Panel.pid with
  | Session.Rejected { reason = Session.Shed _ } -> ()
  | _ -> Alcotest.fail "bob's refresh must be shed");
  let txt = Option.get (Session.render srv b pb.Panel.pid) in
  Alcotest.(check bool) "the shed pane's header carries [STALE]" true
    (contains (header txt) "[STALE]");
  Alcotest.(check int) "one stale render after the shed" 1
    (Session.counter srv b "stale.renders");
  (* the next served refresh clears the tag *)
  Transport.set_base_faults tr Transport.no_faults;
  let rec served n =
    if n = 0 then Alcotest.fail "bob's refresh was never served again"
    else
      match Session.vrefresh srv b ~pane:pb.Panel.pid with
      | Session.Admitted (Some _) -> ()
      | _ ->
          ignore (Session.vplot srv a (fig "3-4"));
          served (n - 1)
  in
  served 80;
  Alcotest.(check bool) "a served refresh clears [STALE]" false
    (contains (header (Option.get (Session.render srv b pb.Panel.pid))) "[STALE]")

(* ------------------------------------------------------------------ *)
(* Admission control *)

let test_capacity_and_budgets () =
  let kernel = boot () in
  let srv = Session.create ~capacity:2 kernel in
  Session.add_target srv ~transport:(Transport.create Transport.qemu_local) "wire";
  let _a = admitted (Session.open_session ~target:"wire" srv "a") in
  let b =
    admitted
      (Session.open_session ~target:"wire"
         ~budget:(Session.budget ~max_reads:40 ()) srv "b")
  in
  (* every field read must be its own round-trip, or struct-granular
     coalescing amortizes the whole plot under the budget *)
  Target.set_read_cache (Option.get (Session.vis srv b)).Visualinux.target false;
  (match Session.open_session srv "c" with
  | Session.Rejected { reason = Session.Capacity { limit } } ->
      Alcotest.(check int) "capacity reason carries the limit" 2 limit
  | _ -> Alcotest.fail "over-capacity open must be a typed rejection");
  (match Session.open_session ~target:"nope" srv "c" with
  | Session.Rejected { reason = Session.Unknown_target _ } -> ()
  | _ -> Alcotest.fail "unknown target must be a typed rejection");
  (* the first plot is admitted and the budget bites mid-plot at the
     fetch boundary: refused reads degrade to Timed_out faults *)
  let _, res, _ = admitted (Session.vplot srv b (fig "9-2")) in
  Alcotest.(check bool) "budgeted plot still produced boxes" true
    (Vgraph.box_count res.Viewcl.graph > 0);
  Alcotest.(check bool) "gate refusals counted" true
    (Session.counter srv b "budget.refusals" > 0);
  Alcotest.(check bool) "refused reads degrade to Timed_out faults" true
    (List.exists
       (function Target.Timed_out _ -> true | _ -> false)
       (Session.fault_journal srv b));
  Alcotest.(check bool) "budget spend is tracked" true (Session.reads_used srv b >= 40);
  (* once spent, the next op is refused up front — typed, no exception *)
  (match Session.vplot srv b (fig "9-2") with
  | Session.Rejected { reason = Session.Reads_exhausted { used; limit } } ->
      Alcotest.(check int) "limit echoed" 40 limit;
      Alcotest.(check bool) "usage echoed" true (used >= limit)
  | _ -> Alcotest.fail "exhausted budget must be a typed rejection");
  (* a new epoch renews the budget *)
  Session.begin_epoch srv b;
  (match Session.vplot srv b (fig "9-2") with
  | Session.Admitted _ -> ()
  | Session.Rejected { reason } ->
      Alcotest.failf "fresh epoch refused: %s" (Session.reason_to_string reason));
  Alcotest.(check bool) "epoch counter moved" true (Session.counter srv b "epochs" = 1)

(* ------------------------------------------------------------------ *)
(* Cross-session cache sharing (the intended coupling) *)

let test_cross_session_cache_hits () =
  let kernel = boot () in
  let mk () =
    let srv = Session.create kernel in
    Session.add_target srv ~transport:(Transport.create Transport.qemu_local) "wire";
    srv
  in
  (* a plot self-hits pages it re-reads, so "first plot hits" is never
     zero; the cross-session effect is the *extra* hits (and saved wire
     reads) b gets when a has already walked the same structures *)
  let solo = mk () in
  let b0 = admitted (Session.open_session ~target:"wire" solo "b") in
  ignore (admitted (Session.vplot solo b0 (fig "3-4")));
  let shared = mk () in
  let a = admitted (Session.open_session ~target:"wire" shared "a") in
  let b = admitted (Session.open_session ~target:"wire" shared "b") in
  ignore (admitted (Session.vplot shared a (fig "3-4")));
  ignore (admitted (Session.vplot shared b (fig "3-4")));
  Alcotest.(check bool) "b hits a's warmed cache beyond its solo self-hits" true
    (Session.counter shared b "cache.hits" > Session.counter solo b0 "cache.hits");
  Alcotest.(check bool) "and spends fewer wire reads than solo" true
    (Session.counter shared b "reads" < Session.counter solo b0 "reads");
  (* recovering one session must not rewind the shared target's read-cache
     counters: every session's counters are deltas of them *)
  let tgt = (Option.get (Session.vis shared b)).Visualinux.target in
  let cs0 = Target.cache_stats tgt in
  ignore (admitted (Session.recover_session shared b));
  let cs1 = Target.cache_stats tgt in
  Alcotest.(check bool) "recovery leaves counters non-negative and cache stats monotone" true
    (List.for_all
       (fun sid -> List.for_all (fun (_, v) -> v >= 0) (Session.counters shared sid))
       [ a; b ]
    && cs1.Target.hits >= cs0.Target.hits
    && cs1.Target.misses >= cs0.Target.misses)

(* ------------------------------------------------------------------ *)
(* Crash-safe fleet recovery *)

let test_fleet_recovery () =
  let kernel = boot () in
  let mk () =
    let srv = Session.create kernel in
    Session.add_target srv ~transport:(Transport.create ~seed:11 Transport.qemu_local) "wire";
    srv
  in
  let srv = mk () in
  let a = admitted (Session.open_session ~target:"wire" srv "alice") in
  let b =
    admitted
      (Session.open_session ~target:"wire"
         ~budget:(Session.budget ~max_reads:100_000 ()) srv "bob")
  in
  let pa, _, _ = admitted (Session.vplot srv a (fig "3-4")) in
  ignore
    (admitted
       (Session.vctrl srv a
          (Visualinux.Split
             { pane = pa.Panel.pid; dir = `Vertical; program = fig "7-1" })));
  ignore
    (admitted
       (Session.vctrl srv a (Visualinux.Apply { pane = pa.Panel.pid; viewql = ql_collapse })));
  let pb1, _, _ = admitted (Session.vplot srv b (fig "9-2")) in
  let pb2, _, _ = admitted (Session.vplot srv b (fig "7-1")) in
  ignore (admitted (Session.vctrl srv b (Visualinux.Close { pane = pb1.Panel.pid })));
  ignore pb2;
  let before =
    List.map (fun sid -> (sid, pane_state (Option.get (Session.vis srv sid))))
      (Session.session_ids srv)
  in
  let image = Session.fleet_image srv in
  (* the server dies; a fresh one recovers the whole fleet *)
  let srv2 = mk () in
  let recovered =
    List.map
      (fun r ->
        if r.Session.rsalvage <> Session.Replayed then
          Alcotest.failf "session %S came back %s" r.Session.rname
            (Session.salvage_label r.Session.rsalvage);
        (r.Session.rsid, r.Session.rstale))
      (Session.recover_durable srv2 image).Session.rsessions
  in
  Alcotest.(check (list int)) "every session re-admitted under its old sid" [ a; b ]
    (List.map fst recovered);
  List.iter
    (fun (sid, stale) ->
      Alcotest.(check int) (Printf.sprintf "session %d: no stale panes" sid) 0 stale)
    recovered;
  let after =
    List.map (fun sid -> (sid, pane_state (Option.get (Session.vis srv2 sid))))
      (Session.session_ids srv2)
  in
  Alcotest.(check bool) "pane ids, box ids and pane bytes all reproduced" true
    (before = after);
  (* budgets and fault configs travel with the fleet *)
  Alcotest.(check bool) "budgets restored" true
    ((Option.get (Session.budget_of srv2 b)).Session.max_reads = Some 100_000)

(* ------------------------------------------------------------------ *)
(* Obs export: breaker state and cache hit rate as gauges *)

let test_obs_gauges () =
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () -> Obs.set_enabled was)
    (fun () ->
      let kernel = boot () in
      let srv = Session.create kernel in
      Session.add_target srv ~transport:(Transport.create Transport.qemu_local) "wire";
      let a = admitted (Session.open_session ~target:"wire" srv "a") in
      ignore (admitted (Session.vplot srv a (fig "3-4")));
      Alcotest.(check (option (float 0.))) "breaker gauge exported (closed=0)" (Some 0.)
        (Obs.Metrics.gauge "transport.breaker_state");
      ignore (admitted (Session.vplot srv a (fig "3-4")));
      (match Obs.Metrics.gauge "cache.hit_rate" with
      | Some r -> Alcotest.(check bool) "hit-rate gauge in (0,1]" true (r > 0. && r <= 1.)
      | None -> Alcotest.fail "cache.hit_rate gauge must be exported");
      Alcotest.(check bool) "per-session counters mirrored into obs" true
        (Obs.Metrics.counter (Printf.sprintf "session.%d.plots" a) = 2))

(* ------------------------------------------------------------------ *)
(* The fleet dashboard *)

(* vtop (also `server status`) shows every target with its link and
   health state, a quarantine included, and every session with its op
   and rejection counts.  With observability off its registered SLOs
   are fed by nothing: the SLO column prints "-", and the header names
   the command that turns observability on. *)
let test_vtop_shows_fleet () =
  let kernel = boot () in
  let srv = Session.create kernel in
  let tr = Transport.create ~seed:9 Transport.qemu_local in
  Session.add_target srv ~transport:tr "wire";
  let a = admitted (Session.open_session ~target:"wire" srv "alice") in
  let b = admitted (Session.open_session ~target:"wire" srv "bob") in
  let c = admitted (Session.open_session srv "carol") in
  let panes =
    List.map (fun sid -> (sid, (fun (p, _, _) -> p.Panel.pid) (admitted (Session.vplot srv sid (fig "3-4"))))) [ a; b; c ]
  in
  let apply sid =
    Session.vctrl srv sid (Visualinux.Apply { pane = List.assoc sid panes; viewql = ql_collapse })
  in
  (* the link dies; alice's next op lands the target in quarantine, and
     the session that is not probing is refused *)
  Transport.disconnect tr;
  ignore (apply a);
  let prober =
    match Session.target_health srv "wire" with
    | `Quarantine p -> p
    | _ -> Alcotest.fail "expected the wire target quarantined"
  in
  let refused = if prober = a then b else a in
  (match apply refused with
  | Session.Rejected _ ->
      Alcotest.(check int) "the refusal is counted" 1 (Session.counter srv refused "rejections")
  | Session.Admitted _ -> Alcotest.fail "a non-prober op on a quarantined target must be refused");
  ignore (admitted (apply c));
  Alcotest.(check bool) "observability is off" false (Obs.enabled ());
  Session.register_slos srv;
  let top = Fun.protect ~finally:Obs.Slo.clear (fun () -> Session.vtop srv) in
  Alcotest.(check bool) "the header names vprof on" true
    (contains (List.hd (String.split_on_char '\n' top)) "(vprof on)");
  let rows =
    List.map
      (fun l -> List.filter (( <> ) "") (String.split_on_char ' ' l))
      (String.split_on_char '\n' top)
  in
  let row key = List.find_opt (function k :: _ -> k = key | [] -> false) rows in
  (match row "wire" with
  | Some (_ :: state :: _ :: _ :: link :: _) ->
      Alcotest.(check string) "wire state" (Printf.sprintf "QUAR(p%d)" prober) state;
      Alcotest.(check string) "wire link profile" "gdb-qemu" link
  | _ -> Alcotest.fail "no row for target wire");
  (match row "t0" with
  | Some (_ :: state :: _ :: _ :: link :: _) ->
      Alcotest.(check string) "t0 state" "healthy" state;
      Alcotest.(check string) "t0 link" "local" link
  | _ -> Alcotest.fail "no row for target t0");
  List.iter
    (fun sid ->
      match row (string_of_int sid) with
      | Some (_ :: name :: _ :: _ :: ops :: _ :: rej :: _ as r) ->
          Alcotest.(check (option string)) "name" (Session.session_name srv sid) (Some name);
          Alcotest.(check string) "ops" (string_of_int (Session.counter srv sid "ops")) ops;
          Alcotest.(check string) "rejections"
            (string_of_int (Session.counter srv sid "rejections")) rej;
          Alcotest.(check string) "no SLO burn without observability" "-"
            (List.nth r (List.length r - 1))
      | _ -> Alcotest.failf "no row for session %d" sid)
    [ a; b; c ]

(* ------------------------------------------------------------------ *)
(* Per-op link config stays with its op *)

let wire_server () =
  let kernel = boot () in
  let srv = Session.create kernel in
  Session.add_target srv ~transport:(Transport.create ~seed:7 Transport.qemu_local) "wire";
  srv

(* bob's per-plot deadline is his alone: once his op is over, alice's
   pane renders without a budget line, while bob's own still has one *)
let test_deadline_does_not_leak () =
  let srv = wire_server () in
  let a = admitted (Session.open_session ~target:"wire" srv "alice") in
  let pa, _, _ = admitted (Session.vplot srv a (fig "3-4")) in
  let b =
    admitted
      (Session.open_session ~target:"wire"
         ~budget:(Session.budget ~plot_deadline_ms:250. ()) srv "bob")
  in
  let pb, _, _ = admitted (Session.vplot srv b (fig "7-1")) in
  Alcotest.(check bool) "alice's pane shows no budget" false
    (contains (Option.get (Session.render srv a pa.Panel.pid)) "budget");
  Alcotest.(check bool) "bob's pane shows his own budget" true
    (contains (Option.get (Session.render srv b pb.Panel.pid)) "budget 0.")

(* bob's budget line shows bob's own last plot spend: another session
   plotting on the shared link since does not change it *)
let test_budget_shows_own_spend () =
  let srv = wire_server () in
  let a = admitted (Session.open_session ~target:"wire" srv "alice") in
  let b =
    admitted
      (Session.open_session ~target:"wire"
         ~budget:(Session.budget ~plot_deadline_ms:250. ()) srv "bob")
  in
  let pb, _, _ = admitted (Session.vplot srv b (fig "7-1")) in
  let budget () =
    let out = Option.get (Session.render srv b pb.Panel.pid) in
    ignore (Str.search_forward (Str.regexp "budget [0-9.]+/250.0 ms") out 0);
    Str.matched_string out
  in
  let own = budget () in
  Alcotest.(check bool) "bob's plot spent wire time" false (own = "budget 0.0/250.0 ms");
  let _ = admitted (Session.vplot srv a (fig "3-4")) in
  Alcotest.(check string) "still bob's own spend after alice's plot" own (budget ())

(* a wire-ms budget bites mid-op at the fetch boundary, and a sibling
   on the same link plots exactly what it plots alone *)
let test_wire_budget_refuses_mid_op () =
  let srv = wire_server () in
  let solo = wire_server () in
  let s = admitted (Session.open_session ~target:"wire" solo "ref") in
  Target.set_read_cache (Option.get (Session.vis solo s)).Visualinux.target false;
  let _, solo_res, _ = admitted (Session.vplot solo s (fig "9-2")) in
  let a = admitted (Session.open_session ~target:"wire" srv "alice") in
  let b =
    admitted
      (Session.open_session ~target:"wire" ~budget:(Session.budget ~max_sim_ms:2.0 ()) srv
         "bob")
  in
  Target.set_read_cache (Option.get (Session.vis srv b)).Visualinux.target false;
  let _, res_b, _ = admitted (Session.vplot srv b (fig "9-2")) in
  Alcotest.(check bool) "the wire budget refused reads" true
    (Session.counter srv b "budget.refusals" > 0);
  Alcotest.(check bool) "fewer boxes than an unbudgeted plot" true
    (Vgraph.box_count res_b.Viewcl.graph < Vgraph.box_count solo_res.Viewcl.graph);
  Alcotest.(check bool) "the spend reached the limit" true (Session.wire_ms srv b >= 2.0);
  let _, res_a, _ = admitted (Session.vplot srv a (fig "9-2")) in
  Alcotest.(check int) "the sibling is never refused" 0
    (Session.counter srv a "budget.refusals");
  Alcotest.(check (list string)) "the sibling takes no faults" []
    (List.map Target.fault_to_string (Session.fault_journal srv a));
  Alcotest.(check string) "the sibling's plot matches the solo plot"
    (Render.canonical solo_res.Viewcl.graph) (Render.canonical res_a.Viewcl.graph)

(* a session's per-plot deadline truncates its extraction with
   Timed_out faults *)
let test_session_deadline_truncates () =
  let srv = wire_server () in
  let a = admitted (Session.open_session ~target:"wire" srv "alice") in
  Target.set_read_cache (Option.get (Session.vis srv a)).Visualinux.target false;
  let _, full, _ = admitted (Session.vplot srv a (fig "9-2")) in
  let b =
    admitted
      (Session.open_session ~target:"wire"
         ~budget:(Session.budget ~plot_deadline_ms:2.0 ()) srv "bob")
  in
  let _, cut, _ = admitted (Session.vplot srv b (fig "9-2")) in
  Alcotest.(check bool) "fewer boxes than the unlimited plot" true
    (Vgraph.box_count cut.Viewcl.graph < Vgraph.box_count full.Viewcl.graph);
  Alcotest.(check bool) "still produced a plot" true (Vgraph.box_count cut.Viewcl.graph > 0);
  Alcotest.(check bool) "Timed_out faults in bob's journal" true
    (List.exists
       (function Target.Timed_out _ -> true | _ -> false)
       (Session.fault_journal srv b));
  Alcotest.(check bool) "refusals counted" true (Session.counter srv b "budget.refusals" > 0);
  Alcotest.(check (list string)) "alice took no faults" []
    (List.map Target.fault_to_string (Session.fault_journal srv a))

(* retry tokens: one earned per op (up to the burst), one spent per
   retry, a denial once the bucket is empty — pinned at fixed seeds, a
   light drop rate first and then a heavy one *)
let test_retry_tokens_seeded () =
  let srv = wire_server () in
  let b =
    admitted
      (Session.open_session ~target:"wire"
         ~budget:(Session.budget ~retry_burst:6 ())
         ~faults:{ Transport.stall_rate = 0.; drop_rate = 0.003; disconnect_rate = 0. }
         srv "bob")
  in
  Target.set_read_cache (Option.get (Session.vis srv b)).Visualinux.target false;
  ignore (admitted (Session.vplot srv b (fig "3-4")));
  let after1 = Session.retry_tokens srv b and denied1 = Session.counter srv b "retry.denied" in
  Session.set_faults srv b { Transport.stall_rate = 0.; drop_rate = 0.2; disconnect_rate = 0. };
  ignore (admitted (Session.vplot srv b (fig "7-1")));
  Alcotest.(check (list int)) "tokens and denials after each op" [ 4; 0; 0; 14 ]
    [ after1; denied1; Session.retry_tokens srv b; Session.counter srv b "retry.denied" ]

let suite =
  [ QCheck_alcotest.to_alcotest compaction_replay_equivalence;
    Alcotest.test_case "compaction: churn collapses to a reserve" `Quick
      test_compaction_drops_churn;
    Alcotest.test_case "auto-compaction bounds the journal" `Quick
      test_auto_compaction_bounds_journal;
    QCheck_alcotest.to_alcotest isolation_under_fault_storm;
    Alcotest.test_case "breaker-Open: quarantine, stale service, fair re-admission" `Quick
      test_breaker_open_quarantine_and_fair_recovery;
    Alcotest.test_case "a refused refresh serves [STALE]" `Quick
      test_refused_refresh_is_stale;
    Alcotest.test_case "admission: capacity + budgets are typed rejections" `Quick
      test_capacity_and_budgets;
    Alcotest.test_case "cross-session cache hits" `Quick test_cross_session_cache_hits;
    Alcotest.test_case "fleet recovery reproduces pane and box ids" `Quick
      test_fleet_recovery;
    Alcotest.test_case "obs gauges: breaker state, cache hit rate" `Quick test_obs_gauges;
    Alcotest.test_case "vtop shows every target and session" `Quick test_vtop_shows_fleet;
    Alcotest.test_case "a session's deadline does not leak into another's pane" `Quick
      test_deadline_does_not_leak;
    Alcotest.test_case "a pane's budget line shows its own session's spend" `Quick
      test_budget_shows_own_spend;
    Alcotest.test_case "a wire-ms budget refuses mid-op, sibling unaffected" `Quick
      test_wire_budget_refuses_mid_op;
    Alcotest.test_case "a session deadline truncates with Timed_out faults" `Quick
      test_session_deadline_truncates;
    Alcotest.test_case "retry tokens after seeded ops" `Quick test_retry_tokens_seeded ]
