(* Adaptive target health: the EWMA decay law and the hysteresis of
   the target-health machine (qcheck), retry-budget
   exhaustion degrading to Timed_out faults instead of raising,
   the weighted-shed starvation bound, hedged failover producing
   byte-identical renders with the sick breaker still Closed, the
   Half_open-canary read charging the acting session's epoch read
   budget, and the campaign DSL parser. *)

let fig name = (Option.get (Scripts.find name)).Scripts.source
let ql_collapse = "a = SELECT mid FROM *\nUPDATE a WITH collapsed: true"

let boot () =
  let k = Kstate.boot () in
  let w = Workload.create k in
  Workload.run w;
  k

let admitted = function
  | Session.Admitted x -> x
  | Session.Rejected { reason } ->
      Alcotest.failf "unexpected rejection: %s" (Session.reason_to_string reason)

(* ------------------------------------------------------------------ *)
(* The EWMA decay law (pure) *)

let ewma_monotone_decay =
  QCheck.Test.make ~name:"ewma: clean reads decay the fault rate geometrically"
    ~count:200
    QCheck.(pair (int_bound 1000) (int_bound 60))
    (fun (mills, n) ->
      let x0 = float_of_int mills /. 1000. in
      let rec go x i acc =
        if i = n then List.rev acc
        else
          let x' = Transport.ewma_step x ~ok:true in
          go x' (i + 1) (x' :: acc)
      in
      let xs = go x0 0 [] in
      (* each step is exactly (1-alpha)*x: monotone non-increasing,
         never negative, and after n steps the closed form holds *)
      let rec chain prev = function
        | [] -> true
        | x :: rest -> x <= prev && x >= 0. && chain x rest
      in
      let monotone = chain x0 xs in
      let closed_form =
        match List.rev xs with
        | [] -> true
        | last :: _ ->
            let expect = x0 *. ((1. -. Transport.ewma_alpha) ** float_of_int n) in
            Float.abs (last -. expect) < 1e-9
      in
      monotone && closed_form)

let ewma_converges_to_observed_rate =
  QCheck.Test.make ~name:"ewma: converges toward the observed fault rate"
    ~count:100
    QCheck.(pair (int_bound 1_000_000) (int_range 1 9))
    (fun (seed, tenths) ->
      (* a deterministic 10-slot duty cycle with [tenths] faults: the
         EWMA must settle within the band around tenths/10 and stay in
         [0,1] the whole way *)
      let rate = float_of_int tenths /. 10. in
      let x = ref (float_of_int (seed mod 2)) in
      let in_range = ref true in
      for i = 0 to 399 do
        let ok = i mod 10 >= tenths in
        x := Transport.ewma_step !x ~ok;
        if !x < 0. || !x > 1. then in_range := false
      done;
      !in_range && Float.abs (!x -. rate) < 0.35)

(* ------------------------------------------------------------------ *)
(* Hysteresis: the health machine cannot flap within one window *)

(* An op by [actor] on a wire that is up with its breaker closed. *)
let obs ?(actor = 1) ?(live = [ (1, 1) ]) ?(recovered = true) fr =
  { Health.actor; live; link_bad = false; link_recovered = recovered; fault_rate = fr }

let same_mode a b =
  match (a, b) with
  | Health.Healthy, Health.Healthy
  | Health.Degraded _, Health.Degraded _
  | Health.Quarantine _, Health.Quarantine _
  | Health.Probation _, Health.Probation _ ->
      true
  | _ -> false

(* Healthy <-> Degraded and Degraded -> Quarantine: the transitions the
   fault EWMA drives (quarantine exit is the link-recovery rule). *)
let ewma_driven a b =
  match (a, b) with
  | Health.Healthy, Health.Degraded _
  | Health.Degraded _, (Health.Healthy | Health.Quarantine _) ->
      true
  | _ -> false

let health_no_flap_within_window =
  QCheck.Test.make
    ~name:"health grade: no two transitions within one hysteresis window"
    ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 120) (int_bound 1000))
    (fun frs ->
      let st = ref { Health.initial with since = Health.window } in
      let since = ref Health.window in
      let gaps_ok = ref true in
      List.iter
        (fun m ->
          let st', _ = Health.step !st (obs (float_of_int m /. 1000.)) in
          incr since;
          if not (same_mode !st.Health.mode st'.Health.mode) then begin
            (* a transition fired; if the EWMA drove it, the machine must
               have seen a full window of observations since the previous one *)
            if ewma_driven !st.Health.mode st'.Health.mode && !since < Health.window then
              gaps_ok := false;
            since := 0
          end;
          st := st')
        frs;
      !gaps_ok)

let health_step_frozen_inside_window =
  QCheck.Test.make ~name:"health grade: step is the identity while since < window"
    ~count:300
    QCheck.(pair (int_bound 1000) (int_bound (Health.window - 2)))
    (fun (mills, since) ->
      (* [since] observations have passed since the last transition, so
         the next one still falls inside the window *)
      let fr = float_of_int mills /. 1000. in
      let next ?actor ?live mode =
        let st = { Health.initial with mode; since } in
        (fst (Health.step st (obs ?actor ?live fr))).Health.mode
      in
      List.for_all (fun mode -> next mode = mode) [ Health.Healthy; Health.Degraded [] ]
      &&
      (* Quarantine ignores the window: it is left by the link-recovery
         rule alone, on a non-prober's op exactly when fr <= sick_lo *)
      let q = Health.Quarantine { prober = 1; probes = 0 } in
      (next ~actor:2 ~live:[ (1, 1); (2, 1) ] q = q) = (fr > Health.sick_lo))

let test_health_bands () =
  let open Health in
  let step ?(o = fun fr -> obs fr) mode fr =
    (fst (step { initial with mode; since = window } (o fr))).mode
  in
  Alcotest.(check bool) "clean wire stays Fine" true (step Healthy 0.0 = Healthy);
  Alcotest.(check bool) "Fine -> Degraded at degrade_hi" true
    (step Healthy degrade_hi = Degraded []);
  Alcotest.(check bool) "Degraded holds between the bands" true
    (step (Degraded []) ((degrade_lo +. sick_hi) /. 2.) = Degraded []);
  Alcotest.(check bool) "Degraded -> Fine only at degrade_lo" true
    (step (Degraded []) degrade_lo = Healthy
    && step (Degraded []) (degrade_lo +. 0.01) = Degraded []);
  Alcotest.(check bool) "Degraded -> Sick at sick_hi" true
    (match step (Degraded []) sick_hi with Quarantine _ -> true | _ -> false);
  (* quarantine exit: alice (1) probes while bob (2) acts *)
  let q = Quarantine { prober = 1; probes = 0 } in
  let bob recovered fr = obs ~actor:2 ~live:[ (1, 1); (2, 1) ] ~recovered fr in
  Alcotest.(check bool)
    "Quarantine exits only at fr <= sick_lo with the link Up and the breaker Closed, not above"
    true
    (step ~o:(bob true) q sick_lo = Probation { waiting = [ 2 ]; skips = 0 }
    && step ~o:(bob true) q (sick_lo +. 0.01) = q
    && step ~o:(bob false) q sick_lo = q)

(* ------------------------------------------------------------------ *)
(* Model check: random interleavings against the machine's invariants *)

type input =
  | Admit of int * bool  (* a live session (by index) knocks; is a replica up? *)
  | Observe of int * int  (* a live session's op left this fault EWMA (mills) *)
  | Fault of int  (* the wire's fault EWMA that admitted ops see (mills) *)
  | Link of bool * bool  (* link_bad, link_recovered *)
  | Open of int  (* a session of this weight opens *)
  | Close of int
  | Reweight of int * int

let input_gen =
  let open QCheck.Gen in
  let mills = oneof [ int_bound 1000; int_bound 300 ] in
  frequency
    [ (8, map2 (fun i r -> Admit (i, r)) (int_bound 7) (frequencyl [ (3, false); (1, true) ]));
      (2, map2 (fun i m -> Observe (i, m)) (int_bound 7) mills);
      (2, map (fun m -> Fault m) mills);
      (1, oneofl [ Link (true, false); Link (false, true); Link (false, false) ]);
      (2, map (fun w -> Open w) (int_range 1 4));
      (1, map (fun i -> Close i) (int_bound 7));
      (1, map2 (fun i w -> Reweight (i, w)) (int_bound 7) (int_range 1 4)) ]

let input_to_string = function
  | Admit (i, r) -> Printf.sprintf "admit#%d%s" i (if r then "+replica" else "")
  | Observe (i, m) -> Printf.sprintf "observe#%d@%d" i m
  | Fault m -> Printf.sprintf "fault@%d" m
  | Link (b, r) -> Printf.sprintf "link(bad=%b,recovered=%b)" b r
  | Open w -> Printf.sprintf "open(w%d)" w
  | Close i -> Printf.sprintf "close#%d" i
  | Reweight (i, w) -> Printf.sprintf "reweight#%d(w%d)" i w

let arb_inputs =
  QCheck.make
    ~print:(fun l -> String.concat " " (List.map input_to_string l))
    QCheck.Gen.(list_size (int_range 0 80) input_gen)

(* How often each interesting event fired across the whole run, so the
   model check can prove it was not vacuous. *)
let coverage : (string, int) Hashtbl.t = Hashtbl.create 8
let cover k =
  Hashtbl.replace coverage k (1 + Option.value ~default:0 (Hashtbl.find_opt coverage k))

let model_holds inputs =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let st = ref Health.initial and live = ref [] and next = ref 1 in
  let fr = ref 0. and bad = ref false and recovered = ref true in
  (* observations since the last transition [step] made *)
  let since = ref Health.window in
  (* consecutive sheds per sid within one Degraded episode at a fixed stride *)
  let streak = Hashtbl.create 8 in
  let pick i = List.nth !live (i mod List.length !live) in
  let step actor fault_rate =
    let m0 = !st.Health.mode in
    let st', _ =
      Health.step !st
        { Health.actor; live = !live; link_bad = !bad; link_recovered = !recovered; fault_rate }
    in
    let m1 = st'.Health.mode in
    incr since;
    if not (same_mode m0 m1) then begin
      (match (m0, m1) with
      | Health.Degraded _, Health.Quarantine _ when !bad -> ()
      | _ ->
          if ewma_driven m0 m1 && !since < Health.window then
            fail "EWMA-driven transition %d observations after the previous one" !since);
      cover "transition";
      since := 0
    end;
    (match m0 with
    | Health.Probation { waiting; _ } when not !bad -> (
        match (waiting, m1) with
        | ([] | [ _ ]), Health.Healthy -> ()
        | _ :: rest, Health.Probation p when p.waiting = rest -> cover "readmitted"
        | _ -> fail "probation did not re-admit exactly one waiter")
    | _ -> ());
    st := st'
  in
  let admit sid w replica =
    let m0 = !st.Health.mode in
    let r, st' = Health.route !st ~live:!live sid ~replica in
    st := st';
    (match (m0, r) with
    | Health.Probation { waiting = head :: _; _ }, Ok d when sid = head ->
        if not d.Health.readmit then fail "probation head %d admitted without readmit" sid
    | Health.Probation { waiting = head :: _; _ }, Error _ when sid = head ->
        fail "probation head %d refused" sid
    | _ -> ());
    match (m0, r) with
    | _, Ok d ->
        Hashtbl.remove streak sid;
        if d.Health.hedge then cover "hedged";
        step sid !fr
    | Health.Degraded _, Error (Health.Shed { deficit }) when not replica ->
        if deficit <= 0 then fail "shed with deficit %d" deficit;
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt streak sid) in
        Hashtbl.replace streak sid n;
        let stride = Health.stride !live in
        if n > (stride + w - 1) / w then
          fail "weight-%d session %d shed %d times in a row (stride %d)" w sid n stride;
        cover "shed"
    | (Health.Quarantine _ | Health.Probation _), Error (Health.Quarantined { prober })
      when not replica ->
        if not (List.mem_assoc prober !live) then fail "refusal names dead prober %d" prober;
        cover "quarantined"
    | _, Error _ -> fail "refusal of session %d in the wrong mode" sid
  in
  let membership_changed () = Hashtbl.reset streak in
  List.iter
    (fun input ->
      (match input with
      | Admit (i, replica) when !live <> [] ->
          let sid, w = pick i in
          admit sid w replica
      | Observe (i, m) when !live <> [] -> step (fst (pick i)) (float_of_int m /. 1000.)
      | Fault m -> fr := float_of_int m /. 1000.
      | Link (b, r) ->
          bad := b;
          recovered := r
      | Open w ->
          live := !live @ [ (!next, w) ];
          incr next;
          membership_changed ()
      | Close i when !live <> [] ->
          let sid, _ = pick i in
          live := List.remove_assoc sid !live;
          st := Health.leave !st sid ~live:!live;
          membership_changed ()
      | Reweight (i, w) when !live <> [] ->
          let sid, _ = pick i in
          live := List.map (fun (s, w0) -> (s, if s = sid then w else w0)) !live;
          membership_changed ()
      | _ -> ());
      (* invariants over the state after every input *)
      let is_live s = List.mem_assoc s !live in
      match !st.Health.mode with
      | Health.Healthy -> Hashtbl.reset streak
      | Health.Degraded credits ->
          cover "degraded";
          if not (List.for_all (fun (s, c) -> is_live s && c >= 0) credits) then
            fail "credits name a closed session or went negative"
      | Health.Quarantine { prober; _ } ->
          cover "quarantine";
          Hashtbl.reset streak;
          if not (is_live prober) then fail "quarantine prober %d is not live" prober
      | Health.Probation { waiting; _ } ->
          cover "probation";
          Hashtbl.reset streak;
          if waiting = [] || not (List.for_all is_live waiting) then
            fail "probation queue is empty or names a closed session";
          if List.length (List.sort_uniq compare waiting) <> List.length waiting then
            fail "probation queue repeats a session")
    inputs;
  true

let health_model_check =
  QCheck.Test.make ~name:"health machine: model check over random interleavings"
    ~count:10_000 arb_inputs model_holds

let test_health_model_check () =
  Hashtbl.reset coverage;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 7 |]) health_model_check;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "the run exercised %s" k)
        true
        (Hashtbl.mem coverage k))
    [ "degraded"; "shed"; "hedged"; "quarantine"; "quarantined"; "probation"; "readmitted";
      "transition" ]

(* ------------------------------------------------------------------ *)
(* Retry budgets: exhaustion degrades, never raises *)

let test_retry_budget_exhaustion () =
  let kernel = boot () in
  let srv = Session.create kernel in
  let tr = Transport.create ~seed:23 Transport.qemu_local in
  Session.add_target srv ~transport:tr "wire";
  (* bob's overlay drops most replies; with a zero-capacity retry bucket
     every would-be retry is denied at the gate *)
  let b =
    admitted
      (Session.open_session ~target:"wire"
         ~budget:(Session.budget ~retry_burst:0 ())
         ~faults:{ Transport.stall_rate = 0.; drop_rate = 0.6; disconnect_rate = 0. }
         srv "bob")
  in
  Target.set_read_cache (Option.get (Session.vis srv b)).Visualinux.target false;
  let _, res, _ = admitted (Session.vplot srv b (fig "3-4")) in
  Alcotest.(check bool) "plot still produced boxes" true
    (Vgraph.box_count res.Viewcl.graph > 0);
  Alcotest.(check bool) "denials counted" true (Session.counter srv b "retry.denied" > 0);
  Alcotest.(check bool) "denied reads degrade to Timed_out faults" true
    (List.exists
       (function Target.Timed_out _ -> true | _ -> false)
       (Session.fault_journal srv b));
  let snap = Transport.snapshot tr in
  Alcotest.(check bool) "transport mirrors the denials" true
    (snap.Transport.retry_denials > 0);
  Alcotest.(check int) "a denied retry was never attempted" 0 snap.Transport.retries;
  (* the budget refused, not the link: no breaker accounting *)
  Alcotest.(check bool) "breaker untouched" true
    (Transport.breaker tr = Transport.Closed && snap.Transport.breaker_trips = 0);
  Alcotest.(check int) "zero-capacity bucket stays empty" 0 (Session.retry_tokens srv b);
  (* a solo session-fault storm is overlay-attributed: the wire's own
     health EWMA must not have learned anything from it *)
  Alcotest.(check (float 1e-9)) "overlay faults never feed the wire EWMA" 0.
    (Transport.ewma tr).Transport.ew_fault_rate

(* ------------------------------------------------------------------ *)
(* Weighted shedding: the starvation bound *)

let test_weighted_shed_starvation_bound () =
  let kernel = boot () in
  let srv = Session.create kernel in
  let tr = Transport.create ~seed:5 Transport.qemu_local in
  Session.add_target srv ~transport:tr "wire";
  let a = admitted (Session.open_session ~target:"wire" ~weight:4 srv "alice") in
  let b = admitted (Session.open_session ~target:"wire" srv "bob") in
  let c = admitted (Session.open_session ~target:"wire" srv "carol") in
  (* every read must touch the wire, or the shared cache starves the
     health EWMA of samples *)
  Target.set_read_cache (Option.get (Session.vis srv a)).Visualinux.target false;
  (* each driven op is a fresh plot: an incremental refresh of an
     unchanged pane performs almost no wire reads, which would starve
     the EWMA of samples *)
  let op sid = Session.vplot srv sid (fig "3-4") in
  (* gray weather on the wire itself: stalls and drops at 0.10 each keep
     the per-attempt fault EWMA between degrade_hi and sick_hi *)
  Transport.set_base_faults tr
    { Transport.stall_rate = 0.10; drop_rate = 0.10; disconnect_rate = 0. };
  let rec warm n =
    if n = 0 then Alcotest.fail "target never reached Degraded"
    else begin
      List.iter (fun sid -> ignore (op sid)) [ a; b; c ];
      if Session.target_health srv "wire" <> `Degraded then warm (n - 1)
    end
  in
  warm 12;
  (* with weights 4/1/1 the stride is 2 * mean weight = 4: alice's
     balance always covers it; bob and carol are knocked back at most
     ceil(stride/weight) = 4 times before admission *)
  let sheds = ref 0 in
  let admit_within sid bound =
    let rec knock k =
      if k > bound then
        Alcotest.failf "session %d starved past its bound of %d" sid bound
      else
        match op sid with
        | Session.Admitted _ -> k - 1
        | Session.Rejected { reason = Session.Shed { deficit; _ } } ->
            Alcotest.(check bool) "shed deficit is positive" true (deficit > 0);
            incr sheds;
            knock (k + 1)
        | Session.Rejected { reason } ->
            Alcotest.failf "unexpected rejection: %s" (Session.reason_to_string reason)
    in
    knock 1
  in
  for _ = 1 to 6 do
    Alcotest.(check int) "weight-4 alice is never shed" 0 (admit_within a 1);
    ignore (admit_within b 4);
    ignore (admit_within c 4)
  done;
  Alcotest.(check bool) "shedding was exercised (non-vacuous)" true (!sheds > 0);
  Alcotest.(check bool) "weights are visible" true (Session.weight_of srv a = 4)

(* ------------------------------------------------------------------ *)
(* Hedged failover: byte-identical, breaker never opens *)

let test_hedged_failover_byte_identical () =
  let kernel = boot () in
  (* solo baseline over a perfectly healthy wire *)
  let solo = Session.create kernel in
  Session.add_target solo ~transport:(Transport.create ~seed:3 Transport.qemu_local) "w";
  let s = admitted (Session.open_session ~target:"w" solo "ref") in
  let _, solo_res, _ = admitted (Session.vplot solo s (fig "3-4")) in
  (* shared server: t1 turns gray, t2 is its healthy replica *)
  let srv = Session.create kernel in
  let t1 = Transport.create ~seed:3 Transport.qemu_local in
  let t2 = Transport.create ~seed:4 Transport.qemu_local in
  Session.add_target srv ~transport:t1 "t1";
  Session.add_target srv ~transport:t2 "t2";
  let a = admitted (Session.open_session ~target:"t1" srv "alice") in
  Target.set_read_cache (Option.get (Session.vis srv a)).Visualinux.target false;
  Transport.set_base_faults t1
    { Transport.stall_rate = 0.12; drop_rate = 0.12; disconnect_rate = 0. };
  let rec drive n last =
    if Session.counter srv a "hedged.ops" > 0 then last
    else if n = 0 then Alcotest.fail "no op was ever hedged"
    else
      let _, res, _ = admitted (Session.vplot srv a (fig "3-4")) in
      drive (n - 1) (Some res)
  in
  let hedged = Option.get (drive 20 None) in
  Alcotest.(check bool) "t1 is Degraded, not quarantined" true
    (Session.target_health srv "t1" = `Degraded);
  Alcotest.(check string) "hedged render byte-identical to the healthy solo plot"
    (Render.canonical solo_res.Viewcl.graph) (Render.canonical hedged.Viewcl.graph);
  let snap = Transport.snapshot t1 in
  Alcotest.(check bool) "rerouted before the breaker ever opened" true
    (snap.Transport.breaker_trips = 0 && Transport.breaker t1 = Transport.Closed);
  Alcotest.(check bool) "the canary kept probing the sick wire" true
    (Session.counter srv a "canaries" > 0);
  (* the hedge must come home: recovery drains the EWMA via canaries *)
  Transport.set_base_faults t1 Transport.no_faults;
  let rec recover n =
    if Session.target_health srv "t1" = `Healthy then ()
    else if n = 0 then Alcotest.fail "t1 never recovered after the weather cleared"
    else begin
      ignore (admitted (Session.vplot srv a (fig "3-4")));
      recover (n - 1)
    end
  in
  recover 60

(* ------------------------------------------------------------------ *)
(* The probe canary charges the acting session's epoch read budget *)

let test_canary_charges_read_budget () =
  let kernel = boot () in
  let srv = Session.create kernel in
  let tr = Transport.create ~seed:9 Transport.qemu_local in
  Session.add_target srv ~transport:tr "wire";
  let a = admitted (Session.open_session ~target:"wire" srv "alice") in
  let b = admitted (Session.open_session ~target:"wire" srv "bob") in
  let pa, _, _ = admitted (Session.vplot srv a (fig "3-4")) in
  let pb, _, _ = admitted (Session.vplot srv b (fig "3-4")) in
  (* the link dies; the next op lands the target in quarantine *)
  Transport.disconnect tr;
  ignore (Session.vctrl srv a (Visualinux.Apply { pane = pa.Panel.pid; viewql = ql_collapse }));
  let prober =
    match Session.target_health srv "wire" with
    | `Quarantine p -> p
    | h ->
        Alcotest.failf "expected quarantine, target is %s"
          (match h with
          | `Healthy -> "healthy" | `Degraded -> "degraded"
          | `Probation _ -> "probation" | `Quarantine _ -> "quarantine")
  in
  (* a fresh epoch zeroes the prober's read spend, so the only wire
     reads its next (read-free) ctrl op can charge are the canary's *)
  Session.begin_epoch srv prober;
  let canaries0 = Session.counter srv prober "canaries" in
  let pane = if prober = a then pa.Panel.pid else pb.Panel.pid in
  ignore (admitted (Session.vctrl srv prober (Visualinux.Apply { pane; viewql = ql_collapse })));
  Alcotest.(check bool) "the probe fired a canary read" true
    (Session.counter srv prober "canaries" > canaries0);
  Alcotest.(check bool) "and the canary counted against the epoch read budget" true
    (Session.reads_used srv prober >= 1)

(* ------------------------------------------------------------------ *)
(* The campaign DSL parser *)

let test_campaign_parse () =
  let module C = Workload.Campaign in
  let c =
    C.parse
      (String.concat "\n"
         [ "# gray ramp";
           "campaign demo";
           "targets t1 t2   # replica pair";
           "sessions 4";
           "weights 4 1";
           "ops 120";
           "at 1  phase baseline";
           "at 40 fault_rate t1 0.18";
           "at 40 phase ramp";
           "at 90 recover t1";
           "";
           "expect p95_ratio 1.25";
           "expect availability.ramp 0.9" ])
  in
  Alcotest.(check string) "name" "demo" c.C.cname;
  Alcotest.(check (list string)) "targets" [ "t1"; "t2" ] c.C.ctargets;
  Alcotest.(check int) "sessions" 4 c.C.csessions;
  Alcotest.(check int) "ops" 120 c.C.cops;
  Alcotest.(check (list int)) "explicit weights" [ 4; 1 ] c.C.cweights;
  Alcotest.(check int) "weight_at pads with 1s" 1 (C.weight_at c 3);
  Alcotest.(check int) "weight_at reads the list" 4 (C.weight_at c 0);
  Alcotest.(check (list string)) "events at one mark keep file order"
    [ "fault_rate t1 0.18"; "phase ramp" ]
    (List.map C.event_to_string (C.events_at c 40));
  Alcotest.(check int) "no events off-mark" 0 (List.length (C.events_at c 41));
  Alcotest.(check (list string)) "expects preserved"
    [ "p95_ratio"; "availability.ramp" ]
    (List.map fst c.C.expects);
  Alcotest.(check bool) "marks ascending" true
    (let marks = List.map fst c.C.events in
     List.sort compare marks = marks)

let test_campaign_parse_errors () =
  let module C = Workload.Campaign in
  let line_of input =
    match C.parse input with
    | exception C.Parse_error { line; _ } -> line
    | _ -> Alcotest.fail "bad campaign accepted"
  in
  Alcotest.(check int) "unknown directive carries its line" 2
    (line_of "campaign x\nbogus t1");
  Alcotest.(check int) "bad op mark" 1 (line_of "at soon phase p");
  Alcotest.(check int) "bad fault rate" 3
    (line_of "campaign x\nops 10\nat 2 fault_rate t1 lots");
  Alcotest.(check int) "unknown event" 1 (line_of "at 2 explode t1")

let suite =
  [ QCheck_alcotest.to_alcotest ewma_monotone_decay;
    QCheck_alcotest.to_alcotest ewma_converges_to_observed_rate;
    QCheck_alcotest.to_alcotest health_no_flap_within_window;
    QCheck_alcotest.to_alcotest health_step_frozen_inside_window;
    Alcotest.test_case "health grade bands + hysteresis thresholds" `Quick
      test_health_bands;
    Alcotest.test_case "health machine: model check, 10k seeded interleavings" `Quick
      test_health_model_check;
    Alcotest.test_case "retry-budget exhaustion degrades to Timed_out" `Quick
      test_retry_budget_exhaustion;
    Alcotest.test_case "weighted shed: ceil(stride/weight) starvation bound" `Quick
      test_weighted_shed_starvation_bound;
    Alcotest.test_case "hedged failover: byte-identical, breaker Closed" `Quick
      test_hedged_failover_byte_identical;
    Alcotest.test_case "quarantine canary charges the epoch read budget" `Quick
      test_canary_charges_read_budget;
    Alcotest.test_case "campaign DSL: parse" `Quick test_campaign_parse;
    Alcotest.test_case "campaign DSL: parse errors carry line numbers" `Quick
      test_campaign_parse_errors ]
