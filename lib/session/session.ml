(** Multi-session server implementation.  See session.mli for the
    contract; the mechanics in one paragraph: every session op (a) is
    admission-checked against capacity, budgets and the target's
    quarantine state, (b) runs the underlying {!Visualinux} command
    under the session's {!Transport.allowance} (fault overlay, per-plot
    deadline, read/wire budget, retry tokens) on the shared transport,
    (c) captures the op's fault, read, retry, cache-stat and wire-time
    deltas into the session's private accounting, and (d) feeds what the op left on the link to the
    target's {!Health} machine and carries out the effects it returns. *)

type sid = int

(* ------------------------------------------------------------------ *)
(* Budgets *)

type budget = {
  max_reads : int option;
  max_sim_ms : float option;
  plot_deadline_ms : float option;
  retry_burst : int option;
}

let unlimited =
  { max_reads = None; max_sim_ms = None; plot_deadline_ms = None; retry_burst = None }

let budget ?max_reads ?max_sim_ms ?plot_deadline_ms ?retry_burst () =
  { max_reads; max_sim_ms; plot_deadline_ms; retry_burst }

(* ------------------------------------------------------------------ *)
(* Admission *)

type reason =
  | Capacity of { limit : int }
  | Unknown_session of sid
  | Unknown_target of string
  | Reads_exhausted of { used : int; limit : int }
  | Budget_exhausted of { used_ms : float; limit_ms : float }
  | Quarantined of { target : string; prober : sid }
  | Shed of { target : string; deficit : int }

let reason_to_string = function
  | Capacity { limit } -> Printf.sprintf "capacity: server full (%d sessions)" limit
  | Unknown_session sid -> Printf.sprintf "unknown session %d" sid
  | Unknown_target t -> Printf.sprintf "unknown target %S" t
  | Reads_exhausted { used; limit } ->
      Printf.sprintf "read budget exhausted (%d/%d this epoch)" used limit
  | Budget_exhausted { used_ms; limit_ms } ->
      Printf.sprintf "wire budget exhausted (%.1f/%.1f ms this epoch)" used_ms limit_ms
  | Quarantined { target; prober } ->
      Printf.sprintf "target %S quarantined; session %d is probing" target prober
  | Shed { target; deficit } ->
      Printf.sprintf "target %S degraded; load shed (%d credit short)" target deficit

type 'a outcome = Admitted of 'a | Rejected of { reason : reason }

(* ------------------------------------------------------------------ *)
(* Server state *)

type shared = {
  tname : string;
  target : Target.t;
  mutable health : Health.state;  (* assigned only by [apply] *)
  mutable qspan : int;  (* op span that parked the target in quarantine *)
}

type sess = {
  sid : sid;
  name : string;
  vis : Visualinux.session;
  shared : shared;
  mutable sfaults : Transport.faults;  (* the fault overlay of its ops *)
  mutable sbudget : budget;
  mutable weight : int;  (* fair-admission priority weight, >= 1 *)
  mutable rb_tokens : int;  (* retry-budget tokens left (when capped) *)
  mutable sreads : int;  (* reads charged this epoch *)
  mutable ssim_ms : float;  (* wire ms charged this epoch *)
  mutable flog_rev : Target.fault list;  (* per-session fault journal, newest first *)
  mutable opno : int;  (* panel ops journaled to the WAL, a per-session chain *)
  tab : (string, int) Hashtbl.t;  (* private counter namespace *)
}

(* How a session came through durable recovery (see recover_durable):
   its op chain replayed whole, a damaged chain replayed up to the
   break, or its very identity lost to corruption — quarantined on
   arrival, panes rebuilt [STALE] with ids preserved. *)
type salvage = Replayed | Salvaged of { dropped : int } | Quarantined_stale

type srecovery = {
  rsid : sid;
  rname : string;
  rtarget : string;
  rsalvage : salvage;
  rops : int;  (* ops replayed into the session *)
  rstale : int;  (* panes stale after recovery *)
}

type recovery = { rreport : Durable.report; rsessions : srecovery list; rms : float }

type server = {
  kernel : Kstate.t;
  cap : int;
  mutable next_sid : sid;
  sessions : (sid, sess) Hashtbl.t;
  targets : (string, shared) Hashtbl.t;
  mutable torder : string list;  (* registration order, oldest first *)
  mutable wal : Durable.t option;  (* attached durable journal, if any *)
  mutable wal_limit : int;  (* tail records that trigger a snapshot compaction *)
  mutable last_recovery : recovery option;
}

let default_target = "t0"

let create ?(capacity = 8) kernel =
  let srv =
    { kernel; cap = capacity; next_sid = 1; sessions = Hashtbl.create 8;
      targets = Hashtbl.create 4; torder = []; wal = None; wal_limit = 256;
      last_recovery = None }
  in
  Hashtbl.replace srv.targets default_target
    { tname = default_target; target = Khelpers.attach kernel; health = Health.initial;
      qspan = 0 };
  srv.torder <- [ default_target ];
  srv

let add_target srv ?transport name =
  if Hashtbl.mem srv.targets name then
    invalid_arg (Printf.sprintf "Session.add_target: duplicate target %S" name);
  let target = Khelpers.attach srv.kernel in
  Option.iter (Target.set_transport target) transport;
  Hashtbl.replace srv.targets name
    { tname = name; target; health = Health.initial; qspan = 0 };
  srv.torder <- srv.torder @ [ name ]

type health = [ `Healthy | `Degraded | `Quarantine of sid | `Probation of sid list ]

let shared_of srv name =
  match Hashtbl.find_opt srv.targets name with
  | Some sh -> sh
  | None -> invalid_arg (Printf.sprintf "Session: unknown target %S" name)

let target_health srv name : health =
  match (shared_of srv name).health.Health.mode with
  | Health.Healthy -> `Healthy
  | Health.Degraded _ -> `Degraded
  | Health.Quarantine q -> `Quarantine q.prober
  | Health.Probation p -> `Probation p.waiting

(* ------------------------------------------------------------------ *)
(* Per-session counters *)

let ns sess key = Printf.sprintf "session.%d.%s" sess.sid key

let bump ?(by = 1) sess key =
  if by <> 0 then begin
    Hashtbl.replace sess.tab key (by + Option.value ~default:0 (Hashtbl.find_opt sess.tab key));
    if Obs.enabled () then Obs.Metrics.incr ~by (ns sess key)
  end

let session_ids srv =
  Hashtbl.fold (fun sid _ acc -> sid :: acc) srv.sessions [] |> List.sort compare

let counters srv sid =
  match Hashtbl.find_opt srv.sessions sid with
  | None -> []
  | Some sess ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) sess.tab []
      |> List.sort (fun (a, _) (b, _) -> compare a b)

let counter srv sid key =
  match Hashtbl.find_opt srv.sessions sid with
  | None -> 0
  | Some sess -> Option.value ~default:0 (Hashtbl.find_opt sess.tab key)

let fault_journal srv sid =
  match Hashtbl.find_opt srv.sessions sid with
  | None -> []
  | Some sess -> List.rev sess.flog_rev

let wire_ms srv sid =
  match Hashtbl.find_opt srv.sessions sid with None -> 0. | Some s -> s.ssim_ms

let reads_used srv sid =
  match Hashtbl.find_opt srv.sessions sid with None -> 0 | Some s -> s.sreads

(* ------------------------------------------------------------------ *)
(* Durable WAL journaling.

   When a Durable store is attached, every fleet lifecycle event
   (open/close/config/quarantine) and every checkpointed panel op is
   appended as a typed record; past [wal_limit] tail records the stream
   compacts into a snapshot segment (a save_fleet image — its journals
   already Jreserve-compacted by the panel layer) plus a fresh tail.
   Recovery (recover_durable, further down) fsck's the image and
   replays per-session op chains. *)

(* [f] of member [k] of [j], or [d] when [j] has no such member. *)
let field j k f d = Option.fold ~none:d ~some:f (Json.member k j)

let faults_json (f : Transport.faults) =
  Json.Obj
    [ ("stall", Json.Float f.Transport.stall_rate); ("drop", Json.Float f.Transport.drop_rate);
      ("disconnect", Json.Float f.Transport.disconnect_rate) ]

let budget_json b =
  let opt f = Option.fold ~none:Json.Null ~some:f in
  let int n = Json.Int n and float x = Json.Float x in
  Json.Obj
    [ ("max_reads", opt int b.max_reads); ("max_sim_ms", opt float b.max_sim_ms);
      ("plot_deadline_ms", opt float b.plot_deadline_ms); ("retry_burst", opt int b.retry_burst) ]

(* Record kinds.  The payloads are JSON; the framing/checksums live in
   {!Durable}, which treats both kind and payload as opaque. *)
let k_open = 1
let k_close = 2
let k_config = 3
let k_quarantine = 4
let k_op = 5
let k_snapshot = 6

let wal_append srv ~kind payload =
  match srv.wal with
  | None -> ()
  | Some d -> ignore (Durable.append d ~kind ~payload:(Json.to_string payload))

(* One session entry: the k_open payload, and with [~snapshot] an entry
   of the snapshot payload, which adds the opno and the full op
   journal.  Recovery reads both back in fleet_entry_of_json. *)
let entry_json ~snapshot sess =
  let only_snapshot kvs = if snapshot then kvs else [] in
  Json.Obj
    ([ ("sid", Json.Int sess.sid); ("name", Json.String sess.name);
       ("target", Json.String sess.shared.tname); ("weight", Json.Int sess.weight) ]
    @ only_snapshot [ ("opno", Json.Int sess.opno) ]
    @ [ ("budget", budget_json sess.sbudget); ("faults", faults_json sess.sfaults) ]
    @ only_snapshot [ ("jn", Panel.journal_to_json sess.vis.Visualinux.panel) ])

(* The snapshot payload: every open session's entry. *)
let save_fleet srv =
  Json.to_string
    (Json.Obj
       [ ( "fleet",
           Json.List
             (List.map
                (fun sid -> entry_json ~snapshot:true (Hashtbl.find srv.sessions sid))
                (session_ids srv)) ) ])

let wal_snapshot srv =
  match srv.wal with
  | None -> ()
  | Some d -> Durable.compact d ~kind:k_snapshot ~payload:(save_fleet srv)

let fleet_image srv =
  let d = Durable.create () in
  ignore (Durable.append d ~kind:k_snapshot ~payload:(save_fleet srv));
  Durable.contents d

let maybe_snapshot srv =
  match srv.wal with
  | Some d when Durable.tail_records d > srv.wal_limit -> wal_snapshot srv
  | _ -> ()

(* Mirror the session's panel-op stream into the WAL.  Re-armed after
   every admitted op because an in-session recovery replaces the panel
   object (and with it the hook). *)
let arm_wal_hook srv sess =
  if srv.wal <> None then
    Panel.set_op_hook sess.vis.Visualinux.panel
      (Some
         (fun op ->
           sess.opno <- sess.opno + 1;
           wal_append srv ~kind:k_op
             (Json.Obj
                [ ("sid", Json.Int sess.sid); ("opno", Json.Int sess.opno);
                  ("op", Panel.op_to_json op) ]);
           maybe_snapshot srv))

(* A session's config after a change: budget, weight and fault rates. *)
let wal_config srv sess =
  wal_append srv ~kind:k_config
    (Json.Obj
       [ ("sid", Json.Int sess.sid); ("budget", budget_json sess.sbudget);
         ("weight", Json.Int sess.weight); ("faults", faults_json sess.sfaults) ])

let attach_wal srv d =
  srv.wal <- Some d;
  wal_snapshot srv;
  Hashtbl.iter (fun _ sess -> arm_wal_hook srv sess) srv.sessions

let wal_of srv = srv.wal
let set_wal_snapshot_limit srv n = srv.wal_limit <- max 1 n
let last_recovery srv = srv.last_recovery

let corrupt_wal srv =
  match srv.wal with
  | None -> false
  | Some d ->
      (* prefer a journaled op whose owner has a {e later} op on record:
         the fsck gap then surfaces as a hole in that session's opno
         chain and the salvage is typed.  Corrupting a session's final
         op is indistinguishable from a (legitimately lossy) torn tail. *)
      let sid_of payload =
        try field (Json.parse payload) "sid" Json.to_int (-1) with Json.Parse_error _ -> -1
      in
      let ops =
        List.filter_map
          (fun (k, p) -> if k = k_op then Some (sid_of p) else None)
          (Durable.record_log d)
      in
      let rec pick i = function
        | [] -> None
        | s :: rest -> if List.mem s rest then Some i else pick (i + 1) rest
      in
      Durable.corrupt ~kind:k_op ?victim:(pick 0 ops) d

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

(* The target's open sessions and their weights, by sid. *)
let live_on srv sh =
  Hashtbl.fold (fun sid s acc -> if s.shared == sh then (sid, s.weight) :: acc else acc)
    srv.sessions []
  |> List.sort compare

let obs_state sh label =
  if Obs.enabled () then begin
    Obs.instant ~cat:"session" ~attrs:[ ("target", sh.tname) ] label;
    Obs.Metrics.incr (Printf.sprintf "server.%s" label)
  end

(* Install the health machine's next state and carry out the effects it
   asked for.  The only place a target's state is assigned. *)
let apply srv sh (st, effects) =
  sh.health <- st;
  List.iter
    (function
      | Health.Enter_quarantine { prober; stale } ->
          (* remember which op parked the target, so the probation
             re-admission that eventually follows can link back to it *)
          sh.qspan <- Obs.Trace.current_span ();
          obs_state sh "quarantine.enter";
          wal_append srv ~kind:k_quarantine
            (Json.Obj [ ("target", Json.String sh.tname); ("prober", Json.Int prober) ]);
          Hashtbl.iter
            (fun sid s ->
              if List.mem sid stale then begin
                Panel.mark_all_stale s.vis.Visualinux.panel;
                bump s "stale.epochs"
              end)
            srv.sessions
      | Health.Enter_degraded -> obs_state sh "degrade.enter"
      | Health.Exit_degraded -> obs_state sh "degrade.exit"
      | Health.Exit_quarantine -> obs_state sh "quarantine.exit"
      | Health.Probe sid ->
          Option.iter (fun s -> bump s "probes") (Hashtbl.find_opt srv.sessions sid))
    effects

let sessions_gauge srv =
  if Obs.enabled () then
    Obs.Metrics.set_gauge "server.sessions" (float_of_int (Hashtbl.length srv.sessions))

let mk_session srv ~sid ~budget ~faults ~weight ~tname name =
  let sh = shared_of srv tname in
  let vis = Visualinux.attach ~target:sh.target srv.kernel in
  let sess =
    { sid; name; vis; shared = sh; sfaults = faults; sbudget = budget;
      weight = max 1 weight; rb_tokens = Option.value ~default:0 budget.retry_burst;
      sreads = 0; ssim_ms = 0.; flog_rev = []; opno = 0; tab = Hashtbl.create 16 }
  in
  Hashtbl.replace srv.sessions sid sess;
  if sid >= srv.next_sid then srv.next_sid <- sid + 1;
  sessions_gauge srv;
  sess

let open_session ?(budget = unlimited) ?(faults = Transport.no_faults) ?(weight = 1)
    ?(target = default_target) srv name =
  if not (Hashtbl.mem srv.targets target) then Rejected { reason = Unknown_target target }
  else if Hashtbl.length srv.sessions >= srv.cap then
    Rejected { reason = Capacity { limit = srv.cap } }
  else begin
    let sess = mk_session srv ~sid:srv.next_sid ~budget ~faults ~weight ~tname:target name in
    if Obs.enabled () then
      Obs.instant ~cat:"session"
        ~attrs:[ ("sid", string_of_int sess.sid); ("name", name); ("target", target) ]
        "session.open";
    if srv.wal <> None then begin
      wal_append srv ~kind:k_open (entry_json ~snapshot:false sess);
      arm_wal_hook srv sess
    end;
    Admitted sess.sid
  end

let close_session srv sid =
  match Hashtbl.find_opt srv.sessions sid with
  | None -> ()
  | Some sess ->
      wal_append srv ~kind:k_close (Json.Obj [ ("sid", Json.Int sid) ]);
      Panel.set_op_hook sess.vis.Visualinux.panel None;
      Hashtbl.remove srv.sessions sid;
      sessions_gauge srv;
      let sh = sess.shared in
      apply srv sh (Health.leave sh.health sid ~live:(live_on srv sh), [])

let session_name srv sid =
  Option.map (fun s -> s.name) (Hashtbl.find_opt srv.sessions sid)

let vis srv sid = Option.map (fun s -> s.vis) (Hashtbl.find_opt srv.sessions sid)

let set_budget srv sid b =
  Option.iter
    (fun s ->
      s.sbudget <- b;
      s.rb_tokens <- Option.value ~default:0 b.retry_burst;
      wal_config srv s)
    (Hashtbl.find_opt srv.sessions sid)

let budget_of srv sid =
  Option.map (fun s -> s.sbudget) (Hashtbl.find_opt srv.sessions sid)

let set_faults srv sid f =
  Option.iter
    (fun s ->
      s.sfaults <- f;
      wal_config srv s)
    (Hashtbl.find_opt srv.sessions sid)

let set_weight srv sid w =
  Option.iter
    (fun s ->
      s.weight <- max 1 w;
      wal_config srv s)
    (Hashtbl.find_opt srv.sessions sid)

let weight_of srv sid =
  match Hashtbl.find_opt srv.sessions sid with None -> 1 | Some s -> s.weight

let retry_tokens srv sid =
  match Hashtbl.find_opt srv.sessions sid with None -> 0 | Some s -> s.rb_tokens

let begin_epoch srv sid =
  Option.iter
    (fun s ->
      s.sreads <- 0;
      s.ssim_ms <- 0.;
      s.rb_tokens <- Option.value ~default:0 s.sbudget.retry_burst;
      List.iter (Hashtbl.remove s.tab) [ "cache.hits"; "cache.misses" ];
      bump s "epochs")
    (Hashtbl.find_opt srv.sessions sid)

(* ------------------------------------------------------------------ *)
(* Target health *)

let link_bad tr = Transport.link tr = Transport.Down || Transport.breaker tr = Transport.Open

let link_recovered tr =
  Transport.link tr = Transport.Up && Transport.breaker tr = Transport.Closed

(* Feed the health machine what [sess]'s (admitted) op left on the shared
   link: the hard breaker/link verdict and the wire's fault EWMA. *)
let update_health srv sh sess =
  Option.iter
    (fun tr ->
      apply srv sh
        (Health.step sh.health
           { Health.actor = sess.sid; live = live_on srv sh;
             link_bad = link_bad tr; link_recovered = link_recovered tr;
             fault_rate = (Transport.ewma tr).Transport.ew_fault_rate }))
    (Target.transport sh.target)

(* A healthy stand-in for a sick target: another registered target with
   a live wire (transportless locals are never hedge candidates).  All
   targets attach the same kernel image, so a hedged read returns the
   exact bytes the home target would have — the campaign bench asserts
   the rendered panes byte-identical. *)
let healthy_replica srv sh =
  List.find_map
    (fun name ->
      let cand = Hashtbl.find srv.targets name in
      if
        cand != sh && cand.health.Health.mode = Health.Healthy
        &&
        match Target.transport cand.target with
        | Some tr -> link_recovered tr
        | None -> false
      then Some cand
      else None)
    srv.torder

(* What [sess]'s op may spend on the link: its fault overlay, per-plot
   deadline, what is left of its epoch read and wire budgets, and its
   retry tokens. *)
let allowance sess =
  let b = sess.sbudget in
  { Transport.faults = sess.sfaults; plot_deadline_ms = b.plot_deadline_ms;
    max_fetches = Option.map (fun lim -> lim - sess.sreads) b.max_reads;
    max_wire_ms = Option.map (fun lim -> (sess.ssim_ms, lim)) b.max_sim_ms;
    retry_tokens = Option.map (fun _ -> sess.rb_tokens) b.retry_burst;
    plot_spent_ms = sess.vis.Visualinux.plot_spent_ms }

let with_allowance sess tr_opt f =
  match tr_opt with Some tr -> Transport.with_allowance tr (allowance sess) f | None -> f ()

(* The probe read, charged to the acting session: bring a dead link /
   open breaker back to Half_open first (a refused fetch charges
   nothing, so cooldown alone never elapses), then fire one 8-byte
   canary under the session's own fault config and no budget.  The
   canary's reads and wire ms land on the session's epoch budget — a
   Half_open breaker's probe is real traffic, not free — and its outcome
   feeds the wire's health EWMA, which is what eventually satisfies the
   quarantine-exit decay gate. *)
let fire_canary sess sh =
  match Target.transport sh.target with
  | None -> ()
  | Some tr ->
      if link_bad tr then Transport.reconnect tr;
      let s0 = Transport.snapshot tr in
      Transport.with_allowance tr { Transport.open_allowance with faults = sess.sfaults }
        (fun () ->
          Transport.begin_plot tr;
          ignore (Transport.fetch tr ~bytes:8 (fun () -> ())));
      let s1 = Transport.snapshot tr in
      let dr = s1.Transport.reads_ok - s0.Transport.reads_ok in
      sess.sreads <- sess.sreads + dr;
      sess.ssim_ms <- sess.ssim_ms +. (s1.Transport.sim_ms -. s0.Transport.sim_ms);
      bump ~by:dr sess "reads";
      bump sess "canaries"

(* Admission + routing against the target's health, as the machine
   decides it given whether a healthy replica exists: [Ok (hedge, d)]
   names the replica the op is hedged to, if any. *)
let degradation_route srv sh sess =
  let rep = healthy_replica srv sh in
  let r, st = Health.route sh.health ~live:(live_on srv sh) sess.sid ~replica:(rep <> None) in
  apply srv sh (st, []);
  match r with
  | Ok d -> Ok ((if d.Health.hedge then rep else None), d)
  | Error (Health.Shed { deficit }) -> Error (Shed { target = sh.tname; deficit })
  | Error (Health.Quarantined { prober }) -> Error (Quarantined { target = sh.tname; prober })

let budget_block sess =
  match sess.sbudget.max_reads with
  | Some limit when sess.sreads >= limit ->
      Some (Reads_exhausted { used = sess.sreads; limit })
  | _ -> (
      match sess.sbudget.max_sim_ms with
      | Some limit_ms when sess.ssim_ms >= limit_ms ->
          Some (Budget_exhausted { used_ms = sess.ssim_ms; limit_ms })
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* The isolated op wrapper *)

let health_gauges srv sh =
  if Obs.enabled () then begin
    (match Target.transport sh.target with
    | Some tr ->
        let e = Transport.ewma tr in
        Obs.Metrics.set_gauge
          (Printf.sprintf "health.%s.ewma_fault_rate" sh.tname)
          e.Transport.ew_fault_rate;
        Obs.Metrics.set_gauge
          (Printf.sprintf "health.%s.ewma_latency_ms" sh.tname)
          e.Transport.ew_latency_ms
    | None -> ());
    Obs.Metrics.set_gauge
      (Printf.sprintf "health.%s.state" sh.tname)
      (match sh.health.Health.mode with
      | Health.Healthy -> 0.
      | Health.Degraded _ -> 1.
      | Health.Quarantine _ -> 2.
      | Health.Probation _ -> 3.);
    let n =
      Hashtbl.fold
        (fun _ sh acc ->
          match sh.health.Health.mode with Health.Quarantine _ -> acc + 1 | _ -> acc)
        srv.targets 0
    in
    Obs.Metrics.set_gauge "session.quarantined_targets" (float_of_int n)
  end

(* Run [f] under the session's allowance on the op's transport (the
   home link, or the healthy replica [hedge]'s), then capture this op's
   deltas (faults, reads, wire ms, retries, cache stats) into the
   session's private accounting — restoring the home transport on a
   hedged op, on every path, {e before} the health update reads the
   home wire's state. *)
let run_isolated srv ~hedge sess f =
  let sh = sess.shared in
  let tgt = sh.target in
  let home_tr = Target.transport tgt in
  Option.iter
    (fun rep -> Option.iter (Target.set_transport tgt) (Target.transport rep.target))
    hedge;
  let tr_opt = Target.transport tgt in
  (* token-bucket refill: one retry token earned per op, up to the cap *)
  (match sess.sbudget.retry_burst with
  | Some cap -> if sess.rb_tokens < cap then sess.rb_tokens <- sess.rb_tokens + 1
  | None -> ());
  let snap0 = Option.map Transport.snapshot tr_opt in
  let cs0 = Target.cache_stats tgt in
  (* the global fault journal is drained per op (see below), so the op's
     faults are exactly [Target.faults tgt] afterwards *)
  Target.clear_faults tgt;
  let t0 = Obs.Clock.now_ms () in
  let finish () =
    let wall = Obs.Clock.elapsed_ms t0 in
    let faults = Target.faults tgt in
    Target.clear_faults tgt;
    sess.flog_rev <- List.rev_append faults sess.flog_rev;
    bump ~by:(List.length faults) sess "faults";
    let cs1 = Target.cache_stats tgt in
    bump ~by:(cs1.Target.hits - cs0.Target.hits) sess "cache.hits";
    bump ~by:(cs1.Target.misses - cs0.Target.misses) sess "cache.misses";
    bump sess "ops";
    let sim_delta =
      match (tr_opt, snap0) with
      | Some tr, Some s0 ->
          let s1 = Transport.snapshot tr in
          bump ~by:(s1.Transport.reads_ok - s0.Transport.reads_ok) sess "reads";
          bump ~by:(s1.Transport.deadline_hits - s0.Transport.deadline_hits) sess
            "budget.refusals";
          if sess.sbudget.retry_burst <> None then
            sess.rb_tokens <- sess.rb_tokens - (s1.Transport.retries - s0.Transport.retries);
          bump ~by:(s1.Transport.retry_denials - s0.Transport.retry_denials) sess
            "retry.denied";
          sess.sreads <- sess.sreads + (s1.Transport.reads_ok - s0.Transport.reads_ok);
          let d = s1.Transport.sim_ms -. s0.Transport.sim_ms in
          sess.ssim_ms <- sess.ssim_ms +. d;
          d
      | _ -> 0.
    in
    if Obs.enabled () then Obs.Metrics.observe (ns sess "op_ms") (wall +. sim_delta);
    if Option.is_some hedge then begin
      bump sess "hedged.ops";
      Option.iter (Target.set_transport tgt) home_tr
    end;
    update_health srv sh sess;
    health_gauges srv sh
  in
  (* a hedged op's wire work runs under its own span, linked from the
     ambient op span so Perfetto draws the op -> replica-wire arrow *)
  let f =
    match hedge with
    | Some rep when Obs.enabled () ->
        let op = Obs.Trace.current_span () in
        fun () ->
          Obs.with_span ~cat:"session"
            ~attrs:[ ("replica", rep.tname); ("target", sh.tname) ]
            "session.hedge"
            (fun () ->
              Obs.Trace.link ~kind:"hedge" ~from_span:op
                ~to_span:(Obs.Trace.current_span ());
              f ())
    | _ -> f
  in
  match with_allowance sess tr_opt f with
  | x ->
      finish ();
      x
  | exception e ->
      finish ();
      raise e

let reason_label = function
  | Capacity _ -> "capacity"
  | Unknown_session _ -> "unknown_session"
  | Unknown_target _ -> "unknown_target"
  | Reads_exhausted _ -> "reads_exhausted"
  | Budget_exhausted _ -> "budget_exhausted"
  | Quarantined _ -> "quarantined"
  | Shed _ -> "shed"

(* Full admission pipeline for one v-command.  Every attempt mints a
   trace id up front; an admitted op runs inside a root [session.op]
   span carrying it (the ambient trace then flows into every transport/
   target/viewcl span the op opens), and a refusal emits a typed
   [session.refused] instant carrying the would-be trace id so shed
   traffic is still attributable. *)
let admit srv sid kind f =
  let tid = Obs.Trace.mint () in
  let refused sess_opt reason =
    Option.iter (fun sess -> bump sess "rejections") sess_opt;
    if Obs.enabled () then
      Obs.instant ~cat:"session"
        ~attrs:
          [ ("sid", string_of_int sid); ("kind", kind);
            ("trace", string_of_int tid); ("reason", reason_label reason) ]
        "session.refused";
    Rejected { reason }
  in
  match Hashtbl.find_opt srv.sessions sid with
  | None -> refused None (Unknown_session sid)
  | Some sess -> (
      match budget_block sess with
      | Some reason -> refused (Some sess) reason
      | None -> (
          match degradation_route srv sess.shared sess with
          | Error reason -> refused (Some sess) reason
          | Ok (hedge, d) ->
              let r =
                Obs.Trace.with_trace tid (fun () ->
                    Obs.with_span ~cat:"session"
                      ~attrs:
                        [ ("sid", string_of_int sid); ("kind", kind);
                          ("target", sess.shared.tname);
                          ("route",
                           match hedge with
                           | None -> "home"
                           | Some rep -> "hedged:" ^ rep.tname) ]
                      "session.op"
                      (fun () ->
                        let op = Obs.Trace.current_span () in
                        (* a probation re-admission links back to the op
                           that parked the target *)
                        if d.Health.readmit && sess.shared.qspan <> 0 then
                          Obs.Trace.link ~kind:"probation" ~from_span:sess.shared.qspan
                            ~to_span:op;
                        if d.Health.canary then
                          Obs.with_span ~cat:"session"
                            ~attrs:[ ("target", sess.shared.tname) ]
                            "session.canary"
                            (fun () ->
                              Obs.Trace.link ~kind:"canary" ~from_span:op
                                ~to_span:(Obs.Trace.current_span ());
                              fire_canary sess sess.shared);
                        run_isolated srv ~hedge sess (fun () -> f sess)))
              in
              bump sess kind;
              (* an in-session recovery replaces the panel object; keep
                 the WAL tap on whatever panel the op left behind *)
              arm_wal_hook srv sess;
              Admitted r))

(* ------------------------------------------------------------------ *)
(* v-commands *)

let vplot srv sid ?title src =
  admit srv sid "plots" (fun sess -> Visualinux.vplot sess.vis ?title src)

(* A refused refresh leaves the pane showing an older state: say so. *)
let vrefresh srv sid ~pane =
  let r = admit srv sid "refreshes" (fun sess -> Visualinux.vrefresh sess.vis ~pane) in
  (match (r, Hashtbl.find_opt srv.sessions sid) with
  | Rejected _, Some s -> Visualinux.mark_stale s.vis ~pane
  | _ -> ());
  r

let vctrl srv sid cmd = admit srv sid "ctrls" (fun sess -> Visualinux.vctrl sess.vis cmd)

let vverify srv sid ~pane =
  admit srv sid "verifies" (fun sess -> Visualinux.vverify sess.vis ~pane)

let render srv sid pane =
  match Hashtbl.find_opt srv.sessions sid with
  | None -> None
  | Some sess ->
      (* the pane's link line shows this session's own deadline *)
      let r =
        with_allowance sess (Target.transport sess.shared.target) (fun () ->
            Visualinux.render_pane sess.vis pane)
      in
      if r <> None then begin
        bump sess "renders";
        match Panel.pane_opt sess.vis.Visualinux.panel pane with
        | Some p when p.Panel.stale -> bump sess "stale.renders"
        | _ -> ()
      end;
      r

let recover_session srv sid =
  admit srv sid "recovers" (fun sess -> Visualinux.recover sess.vis)

let refresh_stale srv sid =
  admit srv sid "refreshes" (fun sess -> Visualinux.refresh_stale sess.vis)

let budget_of_json j =
  let opt f k = match Json.member k j with None | Some Json.Null -> None | Some v -> Some (f v) in
  { max_reads = opt Json.to_int "max_reads"; max_sim_ms = opt Json.to_float "max_sim_ms";
    plot_deadline_ms = opt Json.to_float "plot_deadline_ms";
    retry_burst = opt Json.to_int "retry_burst" }

let faults_of_json j =
  let f k = field j k Json.to_float 0. in
  { Transport.stall_rate = f "stall"; drop_rate = f "drop"; disconnect_rate = f "disconnect" }

(* One saved session, as parsed from a save_fleet snapshot entry or a
   WAL k_open payload (which just lacks "opno" and "jn"). *)
type fleet_entry = {
  fe_sid : int;
  fe_name : string;
  fe_target : string;
  fe_weight : int;
  fe_budget : budget;
  fe_faults : Transport.faults;
  fe_ops : Panel.op list;
  fe_opno : int;
}

let fleet_entry_of_json e =
  let ops = field e "jn" Panel.journal_of_json [] in
  { fe_sid = field e "sid" Json.to_int 0; fe_name = field e "name" Json.to_str "?";
    fe_target = field e "target" Json.to_str default_target;
    fe_weight = field e "weight" Json.to_int 1; fe_budget = field e "budget" budget_of_json unlimited;
    fe_faults = field e "faults" faults_of_json Transport.no_faults; fe_ops = ops;
    fe_opno = field e "opno" Json.to_int (List.length ops) }

(* ------------------------------------------------------------------ *)
(* Durable recovery: fsck the image, then replay per-session op chains.

   The plan phase is pure: start from the last intact snapshot record,
   apply the tail events, and track each session's opno chain.  A
   contiguous chain replays whole; a chain with a hole (fsck skipped
   the record) is cut at the break — replaying past a missing
   pane-creating op would shift every later pane id, so the intact
   prefix is replayed and the rest dropped, panes marked [STALE].  Ops
   whose open/snapshot record was itself destroyed belong to a "ghost"
   session: identity lost, it comes back quarantined with stale panes
   while its neighbours recover bit-identically. *)

type plan_entry = {
  mutable e_cfg : fleet_entry;
  mutable e_ops_rev : Panel.op list;  (* chain-intact ops, newest first *)
  mutable e_next : int;  (* next expected opno *)
  mutable e_dropped : int;  (* ops dropped: gap, duplicate, post-break *)
  mutable e_ghost : bool;  (* config lost to corruption *)
  mutable e_broken : bool;  (* opno chain broke mid-stream *)
}

let plan_image image =
  let report, recs = Durable.fsck image in
  let snap_idx = ref (-1) in
  List.iteri
    (fun i (r : Durable.record) -> if r.Durable.rkind = k_snapshot then snap_idx := i)
    recs;
  let entries : (int, plan_entry) Hashtbl.t = Hashtbl.create 8 in
  let add_entry ?(ghost = false) fe =
    Hashtbl.replace entries fe.fe_sid
      { e_cfg = fe; e_ops_rev = List.rev fe.fe_ops; e_next = fe.fe_opno + 1;
        e_dropped = 0; e_ghost = ghost; e_broken = false }
  in
  let ghost sid =
    add_entry ~ghost:true
      { fe_sid = sid; fe_name = Printf.sprintf "sid%d?" sid;
        fe_target = default_target; fe_weight = 1; fe_budget = unlimited;
        fe_faults = Transport.no_faults; fe_ops = []; fe_opno = 0 };
    Hashtbl.find entries sid
  in
  (* base state: the last snapshot that survived fsck (if any) *)
  (if !snap_idx >= 0 then
     let snap = List.nth recs !snap_idx in
     try
       match Json.member "fleet" (Json.parse snap.Durable.rpayload) with
       | Some (Json.List l) -> List.iter (fun e -> add_entry (fleet_entry_of_json e)) l
       | _ -> ()
     with _ -> ());
  (* tail events *)
  let sid_of j = Option.map Json.to_int (Json.member "sid" j) in
  let apply_op payload =
    let j = Json.parse payload in
    match sid_of j with
    | None -> ()
    | Some sid -> (
        let opno = field j "opno" Json.to_int 0 in
        let op = Option.bind (Json.member "op" j) Panel.op_of_json in
        let e = match Hashtbl.find_opt entries sid with Some e -> e | None -> ghost sid in
        if e.e_ghost then (
          (* a ghost's ids are untrustworthy anyway: keep what we have *)
          match op with
          | Some op -> e.e_ops_rev <- op :: e.e_ops_rev
          | None -> e.e_dropped <- e.e_dropped + 1)
        else if e.e_broken then e.e_dropped <- e.e_dropped + 1
        else
          match op with
          | Some op when opno = e.e_next ->
              e.e_ops_rev <- op :: e.e_ops_rev;
              e.e_next <- e.e_next + 1
          | _ ->
              (* hole or duplicate in the chain: cut here *)
              e.e_broken <- true;
              e.e_dropped <- e.e_dropped + 1)
  in
  List.iteri
    (fun i (r : Durable.record) ->
      if i > !snap_idx then
        try
          if r.Durable.rkind = k_open then
            add_entry (fleet_entry_of_json (Json.parse r.Durable.rpayload))
          else if r.Durable.rkind = k_close then (
            match sid_of (Json.parse r.Durable.rpayload) with
            | Some sid -> Hashtbl.remove entries sid
            | None -> ())
          else if r.Durable.rkind = k_config then (
            (* field by field: a budget-only record (the older form)
               leaves weight and faults as they were *)
            let j = Json.parse r.Durable.rpayload in
            Option.iter
              (fun e ->
                let c = e.e_cfg in
                e.e_cfg <-
                  { c with
                    fe_budget = field j "budget" budget_of_json c.fe_budget;
                    fe_weight = field j "weight" Json.to_int c.fe_weight;
                    fe_faults = field j "faults" faults_of_json c.fe_faults })
              (Option.bind (sid_of j) (Hashtbl.find_opt entries)))
          else if r.Durable.rkind = k_op then apply_op r.Durable.rpayload
          (* k_quarantine and unknown kinds are informational *)
        with _ -> ())
    recs;
  let plan = Hashtbl.fold (fun _ e acc -> e :: acc) entries [] in
  (report, List.sort (fun a b -> compare a.e_cfg.fe_sid b.e_cfg.fe_sid) plan)

let classify e =
  if e.e_ghost then Quarantined_stale
  else if e.e_broken || e.e_dropped > 0 then Salvaged { dropped = e.e_dropped }
  else Replayed

let fsck_image image =
  let report, plan = plan_image image in
  ( report,
    List.map
      (fun e ->
        { rsid = e.e_cfg.fe_sid; rname = e.e_cfg.fe_name; rtarget = e.e_cfg.fe_target;
          rsalvage = classify e; rops = List.length e.e_ops_rev; rstale = 0 })
      plan )

let recover_durable srv image =
  let t0 = Obs.Clock.now_ms () in
  let report, plan = plan_image image in
  (* rebuild a layout with every extraction refused: panes exist, ids
     preserved by replay order, all [STALE] — no admission, no wire *)
  let stale_rebuild sid ops =
    match Hashtbl.find_opt srv.sessions sid with
    | None -> 0
    | Some sess ->
        let panel, _ = Panel.recover ~extract:(fun _ -> None) ops in
        sess.vis.Visualinux.panel <- panel;
        Panel.mark_all_stale panel;
        bump sess "recovers";
        bump sess "stale.epochs";
        List.length (Panel.stale_ids panel)
  in
  let run_entry e =
    let fe = e.e_cfg in
    let ops = List.rev e.e_ops_rev in
    let target =
      if Hashtbl.mem srv.targets fe.fe_target then fe.fe_target else default_target
    in
    Obs.with_span ~cat:"session"
      ~attrs:[ ("name", fe.fe_name); ("target", target) ]
      "session.recovered"
      (fun () ->
        match
          open_session ~budget:fe.fe_budget ~faults:fe.fe_faults ~weight:fe.fe_weight
            ~target srv fe.fe_name
        with
        | Rejected _ ->
            (* capacity: the entry cannot come back at all *)
            { rsid = 0; rname = fe.fe_name; rtarget = target;
              rsalvage = Quarantined_stale; rops = 0; rstale = 0 }
        | Admitted sid ->
            Option.iter
              (fun s -> s.opno <- (if e.e_ghost then List.length ops else e.e_next - 1))
              (Hashtbl.find_opt srv.sessions sid);
            let salv = classify e in
            let rstale =
              if e.e_ghost then stale_rebuild sid ops
              else
                match
                  admit srv sid "recovers" (fun sess -> Visualinux.recover ~ops sess.vis)
                with
                | Admitted stale ->
                    if salv <> Replayed then (
                      match Hashtbl.find_opt srv.sessions sid with
                      | Some sess ->
                          (* data was lost: every surviving pane may
                             predate the crash point — say so *)
                          Panel.mark_all_stale sess.vis.Visualinux.panel;
                          bump sess "stale.epochs";
                          List.length (Panel.stale_ids sess.vis.Visualinux.panel)
                      | None -> stale)
                    else stale
                | Rejected _ ->
                    (* the target is quarantined mid-recovery: serve the
                       layout [STALE] like any other quarantined session *)
                    stale_rebuild sid ops
            in
            { rsid = sid; rname = fe.fe_name; rtarget = target; rsalvage = salv;
              rops = List.length ops; rstale })
  in
  let rsessions = List.map run_entry plan in
  let rms = Obs.Clock.elapsed_ms t0 in
  let rcv = { rreport = report; rsessions; rms } in
  srv.last_recovery <- Some rcv;
  if Obs.enabled () then begin
    let sum f = List.fold_left (fun a r -> a + f r) 0 rsessions in
    let replayed_ops = sum (fun r -> match r.rsalvage with Replayed -> r.rops | _ -> 0) in
    let salvaged_ops = sum (fun r -> match r.rsalvage with Replayed -> 0 | _ -> r.rops) in
    let dropped = List.fold_left (fun a e -> a + e.e_dropped) 0 plan in
    let degraded = sum (fun r -> if r.rsalvage = Replayed then 0 else 1) in
    Obs.Metrics.incr ~by:replayed_ops "recovery.records_replayed";
    Obs.Metrics.incr ~by:(report.Durable.records_skipped + dropped) "recovery.records_skipped";
    Obs.Metrics.incr ~by:salvaged_ops "recovery.records_salvaged";
    Obs.Metrics.incr ~by:(List.length rsessions) "recovery.sessions_total";
    Obs.Metrics.incr ~by:(List.length rsessions - degraded) "recovery.sessions_replayed";
    Obs.Metrics.incr ~by:degraded "recovery.sessions_degraded";
    Obs.Metrics.observe "recovery.ms" rms
  end;
  rcv

let salvage_label = function
  | Replayed -> "replayed"
  | Salvaged { dropped } ->
      Printf.sprintf "salvaged (%d op%s dropped)" dropped (if dropped = 1 then "" else "s")
  | Quarantined_stale -> "quarantined [STALE]"

let recovery_to_string r =
  let b = Buffer.create 256 in
  Printf.bprintf b "%s\n" (Durable.report_to_string r.rreport);
  List.iter
    (fun s ->
      Printf.bprintf b "session %d %-12s on %-6s: %-24s %d op%s, %d stale pane%s\n" s.rsid
        (Printf.sprintf "%S" s.rname)
        s.rtarget (salvage_label s.rsalvage) s.rops
        (if s.rops = 1 then "" else "s")
        s.rstale
        (if s.rstale = 1 then "" else "s"))
    r.rsessions;
  Printf.bprintf b "%d session%s recovered in %.1f ms\n" (List.length r.rsessions)
    (if List.length r.rsessions = 1 then "" else "s")
    r.rms;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* SLOs + the vtop dashboard *)

(* The fleet's declarative objectives, one set per live session plus
   one per target, all evaluated from counters/gauges the admission
   path already maintains — registration is idempotent, so calling
   this again after opening more sessions only adds the new ones. *)
let register_slos srv =
  List.iter
    (fun sid ->
      let n fmt = Printf.sprintf fmt sid in
      Obs.Slo.register
        { Obs.Slo.oname = n "s%d.availability";
          okind = Obs.Slo.Good_bad { good = n "session.%d.ops"; bad = n "session.%d.rejections" };
          otarget = 0.95 };
      Obs.Slo.register
        { Obs.Slo.oname = n "s%d.clean_reads";
          okind = Obs.Slo.Bad_total { bad = n "session.%d.faults"; total = n "session.%d.reads" };
          otarget = 0.99 };
      Obs.Slo.register
        { Obs.Slo.oname = n "s%d.op_p95";
          okind = Obs.Slo.Histogram_le { histo = n "session.%d.op_ms"; threshold_ms = 100. };
          otarget = 0.95 };
      Obs.Slo.register
        { Obs.Slo.oname = n "s%d.staleness";
          okind =
            Obs.Slo.Bad_total
              { bad = n "session.%d.stale.renders"; total = n "session.%d.renders" };
          otarget = 0.90 })
    (session_ids srv);
  List.iter
    (fun tname ->
      Obs.Slo.register
        { Obs.Slo.oname = Printf.sprintf "t.%s.healthy" tname;
          okind =
            Obs.Slo.Gauge_le
              { gauge = Printf.sprintf "health.%s.state" tname; threshold = 0.5 };
          otarget = 0.90 })
    srv.torder;
  (* fleet-wide: recoveries must bring sessions back whole, not
     salvaged or quarantined *)
  Obs.Slo.register
    { Obs.Slo.oname = "fleet.recovery";
      okind =
        Obs.Slo.Bad_total
          { bad = "recovery.sessions_degraded"; total = "recovery.sessions_total" };
      otarget = 0.90 }

(* The worst SLO row for one session: (max burn, worst severity). *)
let slo_worst_for prefix =
  List.fold_left
    (fun (burn, sev) (r : Obs.Slo.status) ->
      if String.length r.Obs.Slo.slo >= String.length prefix
         && String.sub r.Obs.Slo.slo 0 (String.length prefix) = prefix
      then
        ( Float.max burn r.Obs.Slo.burn_rate,
          if r.Obs.Slo.severity = "page" || sev = "page" then "page"
          else if r.Obs.Slo.severity = "warn" || sev = "warn" then "warn"
          else sev )
      else (burn, sev))
    (0., "ok")

(* Live ASCII fleet dashboard: one render of everything the fleet
   knows about itself — target health, per-session vitals, SLO burn,
   and the slowest recent traces with their causal links. *)
let vtop ?(top = 5) srv =
  Obs.Slo.tick ();
  let b = Buffer.create 2048 in
  let nsess = Hashtbl.length srv.sessions in
  Printf.bprintf b "vtop — %d/%d session%s, %d target%s" nsess srv.cap
    (if nsess = 1 then "" else "s")
    (List.length srv.torder)
    (if List.length srv.torder = 1 then "" else "s");
  if Obs.enabled () then
    Printf.bprintf b " | obs ring %d/%d (%d dropped)" (Obs.event_count ())
      (Obs.ring_capacity ()) (Obs.dropped ())
  else Buffer.add_string b " | observability OFF (vprof on)";
  Buffer.add_char b '\n';
  (* --- targets --- *)
  Printf.bprintf b "%-8s %-10s %-7s %-7s %-11s %-7s %s\n" "TARGET" "STATE" "FAULT"
    "LAT_MS" "LINK" "WIRE" "CACHE";
  List.iter
    (fun tname ->
      let sh = shared_of srv tname in
      let state =
        match sh.health.Health.mode with
        | Health.Healthy -> "healthy"
        | Health.Degraded _ -> "DEGRADED"
        | Health.Quarantine q -> Printf.sprintf "QUAR(p%d)" q.prober
        | Health.Probation p -> Printf.sprintf "prob(%d)" (List.length p.waiting)
      in
      let fault, lat, link, wire =
        match Target.transport sh.target with
        | None -> ("-", "-", "local", "-")
        | Some tr ->
            let e = Transport.ewma tr in
            ( Printf.sprintf "%.3f" e.Transport.ew_fault_rate,
              Printf.sprintf "%.2f" e.Transport.ew_latency_ms,
              (Transport.profile_of tr).Transport.pname,
              Printf.sprintf "%s/%s"
                (match Transport.link tr with Transport.Up -> "up" | Transport.Down -> "down")
                (match Transport.breaker tr with
                | Transport.Closed -> "cl"
                | Transport.Open -> "OPEN"
                | Transport.Half_open -> "half") )
      in
      let cs = Target.cache_stats sh.target in
      let tot = cs.Target.hits + cs.Target.misses in
      Printf.bprintf b "%-8s %-10s %-7s %-7s %-11s %-7s %d/%d hit%s\n" tname state fault
        lat link wire cs.Target.hits tot
        (if tot = 0 then "" else Printf.sprintf " (%.0f%%)" (100. *. float_of_int cs.Target.hits /. float_of_int tot)))
    srv.torder;
  (* --- last durable recovery, if any --- *)
  (match srv.last_recovery with
  | None -> ()
  | Some r ->
      let n l = List.length (List.filter l r.rsessions) in
      Printf.bprintf b
        "recovery: %d replayed / %d salvaged / %d quarantined | %d records ok, %d skipped, %d torn bytes | %.1f ms\n"
        (n (fun s -> s.rsalvage = Replayed))
        (n (fun s -> match s.rsalvage with Salvaged _ -> true | _ -> false))
        (n (fun s -> s.rsalvage = Quarantined_stale))
        r.rreport.Durable.records_ok r.rreport.Durable.records_skipped
        r.rreport.Durable.torn_bytes r.rms);
  (* --- sessions --- *)
  let slo_rows = Obs.Slo.status () in
  Printf.bprintf b "%-4s %-10s %-6s %-2s %-6s %-6s %-5s %-5s %-12s %-6s %s\n" "SID"
    "NAME" "TGT" "W" "OPS" "FAULTS" "REJ" "RTOK" "BUDGET" "HIT%" "SLO";
  List.iter
    (fun sid ->
      let sess = Hashtbl.find srv.sessions sid in
      let c k = Option.value ~default:0 (Hashtbl.find_opt sess.tab k) in
      let hits = c "cache.hits" and misses = c "cache.misses" in
      let hitp =
        if hits + misses = 0 then "-"
        else Printf.sprintf "%.0f" (100. *. float_of_int hits /. float_of_int (hits + misses))
      in
      let budget_s =
        match (sess.sbudget.max_reads, sess.sbudget.max_sim_ms) with
        | None, None -> "unlim"
        | Some l, _ -> Printf.sprintf "%d/%dr" sess.sreads l
        | None, Some m -> Printf.sprintf "%.0f/%.0fms" sess.ssim_ms m
      in
      let burn, sev = slo_worst_for (Printf.sprintf "s%d." sid) slo_rows in
      let slo_s =
        (* with observability off no counter feeds the SLOs *)
        if slo_rows = [] || not (Obs.enabled ()) then "-"
        else Printf.sprintf "%.2fx %s" burn (if sev = "ok" then "" else String.uppercase_ascii sev)
      in
      Printf.bprintf b "%-4d %-10s %-6s %-2d %-6d %-6d %-5d %-5d %-12s %-6s %s\n" sid
        sess.name sess.shared.tname sess.weight (c "ops") (c "faults") (c "rejections")
        sess.rb_tokens budget_s hitp (String.trim slo_s))
    (session_ids srv);
  (* --- SLO table + slowest traces (observability on only) --- *)
  if Obs.enabled () then begin
    if slo_rows <> [] then begin
      Buffer.add_string b (Obs.Slo.report ());
      Buffer.add_char b '\n'
    end;
    (* span id -> trace id, from the surviving ring, to attribute links *)
    let span_trace = Hashtbl.create 256 in
    let ops =
      List.filter
        (fun (s : Obs.span) ->
          Hashtbl.replace span_trace s.Obs.sid s.Obs.strace;
          s.Obs.sname = "session.op")
        (Obs.span_events ())
    in
    let links_of tid =
      let tbl = Hashtbl.create 4 in
      List.iter
        (fun (l : Obs.Trace.link) ->
          let owner id = Option.value ~default:0 (Hashtbl.find_opt span_trace id) in
          if owner l.Obs.Trace.lfrom = tid || owner l.Obs.Trace.lto = tid then
            Hashtbl.replace tbl l.Obs.Trace.lkind
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l.Obs.Trace.lkind)))
        (Obs.Trace.links ());
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort compare
      |> List.map (fun (k, v) -> if v = 1 then k else Printf.sprintf "%s x%d" k v)
    in
    let slowest =
      List.sort (fun (a : Obs.span) bs -> compare bs.Obs.sdur_ms a.Obs.sdur_ms) ops
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    (match take top slowest with
    | [] -> ()
    | rows ->
        Printf.bprintf b "slowest traces (of %d op spans in ring):\n" (List.length ops);
        List.iter
          (fun (s : Obs.span) ->
            let attr k = Option.value ~default:"?" (List.assoc_opt k s.Obs.sattrs) in
            let links = links_of s.Obs.strace in
            Printf.bprintf b "  trace %-5d %7.2f ms  sid %-3s %-5s route %-10s%s\n"
              s.Obs.strace s.Obs.sdur_ms (attr "sid") (attr "kind") (attr "route")
              (if links = [] then "" else "  links: " ^ String.concat ", " links))
          rows)
  end;
  Buffer.contents b
