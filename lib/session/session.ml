(** Multi-session server implementation.  See session.mli for the
    contract; the mechanics in one paragraph: every session op (a) is
    admission-checked against capacity, budgets and the target's
    quarantine state, (b) swaps the session's fault config, per-plot
    deadline and a budget gate onto the shared transport, (c) runs the
    underlying {!Visualinux} command, (d) captures the op's fault,
    read, cache-stat and wire-time deltas into the session's private
    accounting, and (e) advances the target's Healthy -> Quarantine ->
    Probation state machine from the breaker/link state the op left
    behind. *)

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

(* Quarantine/probation/degradation bookkeeping for one shared target. *)
type qstate = { mutable prober : sid; mutable probes : int }
type pstate = { mutable waiting : sid list; mutable skips : int }

(* Degraded: the wire's fault EWMA crossed the degrade threshold but the
   target is still serving.  Without a replica, load is shed by weighted
   credits (see [degradation_route]); [credits] holds each session's
   accumulated deficit counter. *)
type dstate = { credits : (sid, int) Hashtbl.t }

type tstate = Healthy | Degraded of dstate | Quarantine of qstate | Probation of pstate

type shared = {
  tname : string;
  target : Target.t;
  mutable state : tstate;
  mutable rr : int;  (* round-robin cursor for prober election *)
  mutable hsince : int;  (* admitted ops since the last state transition *)
  mutable qspan : int;  (* op span that parked the target in quarantine *)
}

type sess = {
  sid : sid;
  name : string;
  vis : Visualinux.session;
  shared : shared;
  mutable sfaults : Transport.faults;  (* swapped onto the link per op *)
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

let capacity srv = srv.cap

(* After this many fruitless probe ops the quarantined target elects
   the next session round-robin — a sick prober must not hold the
   recovery slot forever. *)
let probe_rounds = 3

let default_target = "t0"

let create ?(capacity = 8) kernel =
  let srv =
    { kernel; cap = capacity; next_sid = 1; sessions = Hashtbl.create 8;
      targets = Hashtbl.create 4; torder = []; wal = None; wal_limit = 256;
      last_recovery = None }
  in
  Hashtbl.replace srv.targets default_target
    { tname = default_target; target = Khelpers.attach kernel; state = Healthy; rr = 0;
      hsince = 0; qspan = 0 };
  srv.torder <- [ default_target ];
  srv

let add_target srv ?transport name =
  if Hashtbl.mem srv.targets name then
    invalid_arg (Printf.sprintf "Session.add_target: duplicate target %S" name);
  let target = Khelpers.attach srv.kernel in
  Option.iter (Target.set_transport target) transport;
  Hashtbl.replace srv.targets name
    { tname = name; target; state = Healthy; rr = 0; hsince = 0; qspan = 0 };
  srv.torder <- srv.torder @ [ name ]

let target_names srv = srv.torder

type health = [ `Healthy | `Degraded | `Quarantine of sid | `Probation of sid list ]

let shared_of srv name =
  match Hashtbl.find_opt srv.targets name with
  | Some sh -> sh
  | None -> invalid_arg (Printf.sprintf "Session: unknown target %S" name)

let target_health srv name : health =
  match (shared_of srv name).state with
  | Healthy -> `Healthy
  | Degraded _ -> `Degraded
  | Quarantine q -> `Quarantine q.prober
  | Probation p -> `Probation p.waiting

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
   (open/close/budget/quarantine) and every checkpointed panel op is
   appended as a typed record; past [wal_limit] tail records the stream
   compacts into a snapshot segment (a save_fleet image — its journals
   already Jreserve-compacted by the panel layer) plus a fresh tail.
   Recovery (recover_durable, further down) fsck's the image and
   replays per-session op chains. *)

let faults_json (f : Transport.faults) =
  Printf.sprintf "{\"stall\":%g,\"drop\":%g,\"disconnect\":%g}" f.Transport.stall_rate
    f.Transport.drop_rate f.Transport.disconnect_rate

let budget_json b =
  let opt_i = function None -> "null" | Some n -> string_of_int n in
  let opt_f = function None -> "null" | Some x -> Printf.sprintf "%g" x in
  Printf.sprintf "{\"max_reads\":%s,\"max_sim_ms\":%s,\"plot_deadline_ms\":%s,\"retry_burst\":%s}"
    (opt_i b.max_reads) (opt_f b.max_sim_ms) (opt_f b.plot_deadline_ms)
    (opt_i b.retry_burst)

(* Record kinds.  The payloads are JSON; the framing/checksums live in
   {!Durable}, which treats both kind and payload as opaque. *)
let k_open = 1
let k_close = 2
let k_budget = 3
let k_quarantine = 4
let k_op = 5
let k_snapshot = 6

let wal_append srv ~kind payload =
  match srv.wal with
  | None -> ()
  | Some d -> ignore (Durable.append d ~kind ~payload)

(* The snapshot payload: every open session's name, target, budget,
   fault config, opno and full op journal.  Recovery reads it back in
   plan_image, below. *)
let save_fleet srv =
  let one sid =
    let sess = Hashtbl.find srv.sessions sid in
    Printf.sprintf
      "{\"sid\":%d,\"name\":\"%s\",\"target\":\"%s\",\"weight\":%d,\"opno\":%d,\"budget\":%s,\"faults\":%s,\"jn\":%s}"
      sid (Vgraph.json_escape sess.name)
      (Vgraph.json_escape sess.shared.tname)
      sess.weight sess.opno (budget_json sess.sbudget) (faults_json sess.sfaults)
      (Panel.journal_to_json sess.vis.Visualinux.panel)
  in
  Printf.sprintf "{\"fleet\":[%s]}"
    (String.concat "," (List.map one (session_ids srv)))

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
             (Printf.sprintf "{\"sid\":%d,\"opno\":%d,\"op\":%s}" sess.sid sess.opno
                (Panel.op_to_json op));
           maybe_snapshot srv))

let wal_open_payload sess =
  Printf.sprintf "{\"sid\":%d,\"name\":\"%s\",\"target\":\"%s\",\"weight\":%d,\"budget\":%s,\"faults\":%s}"
    sess.sid (Vgraph.json_escape sess.name)
    (Vgraph.json_escape sess.shared.tname)
    sess.weight (budget_json sess.sbudget) (faults_json sess.sfaults)

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
        try Scanf.sscanf payload "{\"sid\":%d" (fun s -> s) with _ -> -1
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

let live_sids_on srv sh =
  Hashtbl.fold (fun sid s acc -> if s.shared == sh then sid :: acc else acc) srv.sessions []
  |> List.sort compare

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
      wal_append srv ~kind:k_open (wal_open_payload sess);
      arm_wal_hook srv sess
    end;
    Admitted sess.sid
  end

let close_session srv sid =
  match Hashtbl.find_opt srv.sessions sid with
  | None -> ()
  | Some sess ->
      wal_append srv ~kind:k_close (Printf.sprintf "{\"sid\":%d}" sid);
      Panel.set_op_hook sess.vis.Visualinux.panel None;
      Hashtbl.remove srv.sessions sid;
      sessions_gauge srv;
      let sh = sess.shared in
      (* drop the departed session from recovery bookkeeping *)
      (match sh.state with
      | Healthy -> ()
      | Degraded d -> Hashtbl.remove d.credits sid
      | Quarantine q when q.prober = sid -> (
          match live_sids_on srv sh with
          | [] -> sh.state <- Healthy
          | s :: _ ->
              q.prober <- s;
              q.probes <- 0)
      | Quarantine _ -> ()
      | Probation p -> (
          p.waiting <- List.filter (fun s -> s <> sid) p.waiting;
          match p.waiting with [] -> sh.state <- Healthy | _ -> ()))

let session_name srv sid =
  Option.map (fun s -> s.name) (Hashtbl.find_opt srv.sessions sid)

let vis srv sid = Option.map (fun s -> s.vis) (Hashtbl.find_opt srv.sessions sid)

let set_budget srv sid b =
  Option.iter
    (fun s ->
      s.sbudget <- b;
      s.rb_tokens <- Option.value ~default:0 b.retry_burst;
      wal_append srv ~kind:k_budget
        (Printf.sprintf "{\"sid\":%d,\"budget\":%s}" sid (budget_json b)))
    (Hashtbl.find_opt srv.sessions sid)

let budget_of srv sid =
  Option.map (fun s -> s.sbudget) (Hashtbl.find_opt srv.sessions sid)

let set_faults srv sid f =
  Option.iter (fun s -> s.sfaults <- f) (Hashtbl.find_opt srv.sessions sid)

let set_weight srv sid w =
  Option.iter (fun s -> s.weight <- max 1 w) (Hashtbl.find_opt srv.sessions sid)

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
(* Degradation state machine *)

let elect srv sh =
  match live_sids_on srv sh with
  | [] -> None
  | sids ->
      let n = List.length sids in
      let pick = List.nth sids (sh.rr mod n) in
      sh.rr <- sh.rr + 1;
      Some pick

let obs_state sh label =
  if Obs.enabled () then begin
    Obs.instant ~cat:"session" ~attrs:[ ("target", sh.tname) ] label;
    Obs.Metrics.incr (Printf.sprintf "server.%s" label)
  end

(* Enter quarantine: elect a prober round-robin; every other session on
   the target falls back to serving [STALE] panes from its caches. *)
let enter_quarantine srv sh =
  match elect srv sh with
  | None -> sh.state <- Healthy
  | Some prober ->
      sh.state <- Quarantine { prober; probes = 0 };
      sh.hsince <- 0;
      (* remember which op parked the target, so the probation
         re-admission that eventually follows can link back to it *)
      sh.qspan <- Obs.Trace.current_span ();
      obs_state sh "quarantine.enter";
      wal_append srv ~kind:k_quarantine
        (Printf.sprintf "{\"target\":\"%s\",\"prober\":%d}" (Vgraph.json_escape sh.tname)
           prober);
      Hashtbl.iter
        (fun sid s ->
          if s.shared == sh && sid <> prober then begin
            Panel.mark_all_stale s.vis.Visualinux.panel;
            bump s "stale.epochs"
          end)
        srv.sessions

let enter_degraded sh =
  sh.state <- Degraded { credits = Hashtbl.create 8 };
  sh.hsince <- 0;
  obs_state sh "degrade.enter"

let link_bad tr = Transport.link tr = Transport.Down || Transport.breaker tr = Transport.Open

let link_recovered tr =
  Transport.link tr = Transport.Up && Transport.breaker tr = Transport.Closed

let th = Transport.Health.default_thresholds

(* Advance the target's state from what [sess]'s (admitted) op left on
   the shared link: the hard breaker/link signals still force
   quarantine, but the graduated path is driven by the wire's fault
   EWMA through {!Transport.Health.step} — Healthy -> Degraded when the
   EWMA crosses [degrade_hi], Degraded -> Quarantine at [sick_hi] with
   the breaker still Closed (the proactive shed the gray-failure regime
   needs), and quarantine is only left once the EWMA has decayed back
   under [sick_lo], so one lucky probe cannot re-admit the herd. *)
let update_health srv sh sess =
  match Target.transport sh.target with
  | None -> ()
  | Some tr -> (
      sh.hsince <- sh.hsince + 1;
      let fr = (Transport.ewma tr).Transport.ew_fault_rate in
      match sh.state with
      | Healthy ->
          if link_bad tr then enter_quarantine srv sh
          else if
            Transport.Health.step th Transport.Health.Fine ~fr ~since:sh.hsince
            <> Transport.Health.Fine
          then enter_degraded sh
      | Degraded _ ->
          if link_bad tr then enter_quarantine srv sh
          else (
            match Transport.Health.step th Transport.Health.Degraded ~fr ~since:sh.hsince with
            | Transport.Health.Fine ->
                sh.state <- Healthy;
                sh.hsince <- 0;
                obs_state sh "degrade.exit"
            | Transport.Health.Sick -> enter_quarantine srv sh
            | Transport.Health.Degraded -> ())
      | Quarantine q ->
          if link_recovered tr && fr <= th.Transport.Health.sick_lo then begin
            (* recovered: re-admit the waiting sessions one op at a
               time, in sid order — fair, staggered, no herd *)
            let others = List.filter (fun s -> s <> q.prober) (live_sids_on srv sh) in
            (match others with
            | [] -> sh.state <- Healthy
            | waiting -> sh.state <- Probation { waiting; skips = 0 });
            sh.hsince <- 0;
            obs_state sh "quarantine.exit"
          end
          else if sess.sid = q.prober then begin
            q.probes <- q.probes + 1;
            bump sess "probes";
            if q.probes >= probe_rounds then begin
              (* the prober is not making progress (it may be the sick
                 session itself): pass the probe slot on *)
              (match elect srv sh with Some p -> q.prober <- p | None -> ());
              q.probes <- 0
            end
          end
      | Probation p ->
          if link_bad tr then enter_quarantine srv sh
          else (
            (* every admitted op on the target re-admits one waiter *)
            match p.waiting with
            | [] | [ _ ] ->
                sh.state <- Healthy;
                sh.hsince <- 0
            | _ :: rest -> p.waiting <- rest))

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
        cand != sh && cand.state = Healthy
        &&
        match Target.transport cand.target with
        | Some tr -> link_recovered tr
        | None -> false
      then Some cand
      else None)
    srv.torder

(* The probe read, charged to the acting session: bring a dead link /
   open breaker back to Half_open first (a refused fetch charges
   nothing, so cooldown alone never elapses), then fire one 8-byte
   canary under the session's own fault config.  The canary's reads and
   wire ms land on the session's epoch budget — a Half_open breaker's
   probe is real traffic, not free — and its outcome feeds the wire's
   health EWMA, which is what eventually satisfies the quarantine-exit
   decay gate. *)
let fire_canary sess sh =
  match Target.transport sh.target with
  | None -> ()
  | Some tr ->
      if link_bad tr then Transport.reconnect tr;
      let saved = Transport.faults_of tr in
      let s0 = Transport.snapshot tr in
      Transport.set_faults tr sess.sfaults;
      Transport.set_deadline tr None;
      Transport.begin_plot tr;
      ignore (Transport.fetch tr ~bytes:8 (fun () -> ()));
      Transport.set_faults tr saved;
      let s1 = Transport.snapshot tr in
      let dr = s1.Transport.reads_ok - s0.Transport.reads_ok in
      sess.sreads <- sess.sreads + dr;
      sess.ssim_ms <- sess.ssim_ms +. (s1.Transport.sim_ms -. s0.Transport.sim_ms);
      bump ~by:dr sess "reads";
      bump sess "canaries"

(* Weighted fair shedding on a degraded target with no replica: each
   knock earns the session [weight] credits and an op is admitted when
   the balance covers the stride (twice the mean weight across the
   target's sessions), so a weight-w session is refused at most
   [ceil(stride/w)] times in a row — the starvation bound the tests
   pin — while admission frequency stays proportional to weight. *)
let shed_stride srv sh =
  let sids = live_sids_on srv sh in
  let total =
    List.fold_left
      (fun acc sid ->
        acc + match Hashtbl.find_opt srv.sessions sid with None -> 1 | Some s -> s.weight)
      0 sids
  in
  max 1 (2 * total / max 1 (List.length sids))

(* Where an admitted op's wire traffic goes. *)
type route = Home | Hedged of shared

(* What [degradation_route] decided, for [admit] to act on: the route,
   whether a canary must be fired through the sick home wire before the
   op runs, and — for a probation re-admission — the span id of the op
   that parked the target in quarantine (0 otherwise), so the op span
   can link back to its cause. *)
type decision = { droute : route; dcanary : bool; dqspan : int }

let go ?(canary = false) ?(qspan = 0) droute = Ok { droute; dcanary = canary; dqspan = qspan }

(* Admission + routing against the target's degradation state.  Healthy
   serves at home; Degraded hedges to a healthy replica when one exists
   (asking [admit] to fire a canary through the sick wire so its EWMA
   keeps learning) and weight-fair-sheds when none does; Quarantine
   serves everyone from the replica if there is one, else only the
   elected prober passes; Probation re-admits one waiter per op as
   before. *)
let degradation_route srv sh sess : (decision, reason) result =
  match sh.state with
  | Healthy -> go Home
  | Degraded d -> (
      match healthy_replica srv sh with
      | Some rep -> go ~canary:true (Hedged rep)
      | None ->
          let bal =
            sess.weight + Option.value ~default:0 (Hashtbl.find_opt d.credits sess.sid)
          in
          let stride = shed_stride srv sh in
          if bal >= stride then begin
            Hashtbl.replace d.credits sess.sid (bal - stride);
            go Home
          end
          else begin
            Hashtbl.replace d.credits sess.sid bal;
            Error (Shed { target = sh.tname; deficit = stride - bal })
          end)
  | Quarantine q ->
      if sess.sid = q.prober then
        (* the prober's op rides the replica when one exists — the
           canary is the probe; no need to risk the whole op on the
           sick wire *)
        match healthy_replica srv sh with
        | Some rep -> go ~canary:true (Hedged rep)
        | None -> go ~canary:true Home
      else (
        match healthy_replica srv sh with
        | Some rep -> go (Hedged rep)
        | None -> Error (Quarantined { target = sh.tname; prober = q.prober }))
  | Probation p -> (
      match p.waiting with
      | [] ->
          sh.state <- Healthy;
          go Home
      | head :: rest ->
          if sess.sid = head then go ~qspan:sh.qspan Home
          else if not (List.mem sess.sid p.waiting) then go Home
          else (
            match healthy_replica srv sh with
            | Some rep -> go (Hedged rep)
            | None ->
                (* a non-head waiter knocked: count it, and once every
                   waiter has been turned away rotate the head so a
                   silent head cannot starve the queue *)
                p.skips <- p.skips + 1;
                if p.skips > List.length p.waiting then begin
                  p.waiting <- rest @ [ head ];
                  p.skips <- 0
                end;
                Error (Quarantined { target = sh.tname; prober = List.hd p.waiting })))

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

let health_gauges sh =
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
      (match sh.state with
      | Healthy -> 0.
      | Degraded _ -> 1.
      | Quarantine _ -> 2.
      | Probation _ -> 3.)
  end

let quarantined_gauge srv =
  if Obs.enabled () then begin
    let n =
      Hashtbl.fold
        (fun _ sh acc -> match sh.state with Quarantine _ -> acc + 1 | _ -> acc)
        srv.targets 0
    in
    Obs.Metrics.set_gauge "session.quarantined_targets" (float_of_int n)
  end

(* Swap the session's fault config, deadline, budget gate and retry
   budget onto the op's transport (the home link, or — when [route] says
   [Hedged] — the healthy replica's), run [f], then capture this op's
   deltas (faults, reads, wire ms, cache stats) into the session's
   private accounting — restoring the link's config, and the home
   transport on a hedged op, on every path {e before} the health update
   reads the home wire's state. *)
let run_isolated srv ~route sess f =
  let sh = sess.shared in
  let tgt = sh.target in
  let home_tr = Target.transport tgt in
  (match route with
  | Hedged rep -> Option.iter (Target.set_transport tgt) (Target.transport rep.target)
  | Home -> ());
  let tr_opt = Target.transport tgt in
  let saved_faults = Option.map Transport.faults_of tr_opt in
  (* token-bucket refill: one retry token earned per op, up to the cap *)
  (match sess.sbudget.retry_burst with
  | Some cap -> if sess.rb_tokens < cap then sess.rb_tokens <- sess.rb_tokens + 1
  | None -> ());
  let snap0 =
    match tr_opt with Some tr -> Some (Transport.snapshot tr) | None -> None
  in
  let cs0 = Target.cache_stats tgt in
  (* the global fault journal is drained per op (see below), so the op's
     faults are exactly [Target.faults tgt] afterwards *)
  Target.clear_faults tgt;
  Option.iter
    (fun tr ->
      Transport.set_faults tr sess.sfaults;
      Transport.set_deadline tr sess.sbudget.plot_deadline_ms;
      Transport.set_retry_gate tr
        (match sess.sbudget.retry_burst with
        | None -> None
        | Some _ ->
            Some
              (fun () ->
                if sess.rb_tokens > 0 then begin
                  sess.rb_tokens <- sess.rb_tokens - 1;
                  true
                end
                else begin
                  bump sess "retry.denied";
                  false
                end));
      let op_reads = ref 0 in
      let sim0 = (Transport.snapshot tr).Transport.sim_ms in
      Transport.set_gate tr
        (Some
           (fun ~bytes:_ ->
             match sess.sbudget.max_reads with
             | Some lim when sess.sreads + !op_reads >= lim ->
                 Some Transport.Deadline_exceeded
             | _ -> (
                 match sess.sbudget.max_sim_ms with
                 | Some lim
                   when sess.ssim_ms +. ((Transport.snapshot tr).Transport.sim_ms -. sim0)
                        >= lim ->
                     Some Transport.Deadline_exceeded
                 | _ ->
                     incr op_reads;
                     None))))
    tr_opt;
  let t0 = Obs.Clock.now_ms () in
  let finish () =
    (* accounting first, then restore the link for the next session *)
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
          sess.sreads <- sess.sreads + (s1.Transport.reads_ok - s0.Transport.reads_ok);
          let d = s1.Transport.sim_ms -. s0.Transport.sim_ms in
          sess.ssim_ms <- sess.ssim_ms +. d;
          d
      | _ -> 0.
    in
    if Obs.enabled () then Obs.Metrics.observe (ns sess "op_ms") (wall +. sim_delta);
    Option.iter
      (fun tr ->
        Transport.set_gate tr None;
        Transport.set_retry_gate tr None;
        Option.iter (Transport.set_faults tr) saved_faults)
      tr_opt;
    (match route with
    | Hedged _ ->
        bump sess "hedged.ops";
        Option.iter (Target.set_transport tgt) home_tr
    | Home -> ());
    update_health srv sh sess;
    health_gauges sh;
    quarantined_gauge srv
  in
  (* a hedged op's wire work runs under its own span, linked from the
     ambient op span so Perfetto draws the op -> replica-wire arrow *)
  let f =
    match route with
    | Hedged rep when Obs.enabled () ->
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
  match f () with
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
          | Ok { droute = route; dcanary; dqspan } ->
              let r =
                Obs.Trace.with_trace tid (fun () ->
                    Obs.with_span ~cat:"session"
                      ~attrs:
                        [ ("sid", string_of_int sid); ("kind", kind);
                          ("target", sess.shared.tname);
                          ("route",
                           match route with
                           | Home -> "home"
                           | Hedged rep -> "hedged:" ^ rep.tname) ]
                      "session.op"
                      (fun () ->
                        let op = Obs.Trace.current_span () in
                        if dqspan <> 0 then
                          Obs.Trace.link ~kind:"probation" ~from_span:dqspan
                            ~to_span:op;
                        if dcanary then
                          Obs.with_span ~cat:"session"
                            ~attrs:[ ("target", sess.shared.tname) ]
                            "session.canary"
                            (fun () ->
                              Obs.Trace.link ~kind:"canary" ~from_span:op
                                ~to_span:(Obs.Trace.current_span ());
                              fire_canary sess sess.shared);
                        run_isolated srv ~route sess (fun () -> f sess)))
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

let vrefresh srv sid ~pane =
  admit srv sid "refreshes" (fun sess -> Visualinux.vrefresh sess.vis ~pane)

let vctrl srv sid cmd = admit srv sid "ctrls" (fun sess -> Visualinux.vctrl sess.vis cmd)

let render srv sid pane =
  match Hashtbl.find_opt srv.sessions sid with
  | None -> None
  | Some sess ->
      let r = Visualinux.render_pane sess.vis pane in
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
  let f k = match Json.member k j with Some (Json.Float x) -> Some x
    | Some (Json.Int n) -> Some (float_of_int n) | _ -> None in
  let i k = match Json.member k j with Some (Json.Int n) -> Some n | _ -> None in
  { max_reads = i "max_reads"; max_sim_ms = f "max_sim_ms";
    plot_deadline_ms = f "plot_deadline_ms"; retry_burst = i "retry_burst" }

let faults_of_json j =
  let f k d =
    match Json.member k j with
    | Some (Json.Float x) -> x
    | Some (Json.Int n) -> float_of_int n
    | _ -> d
  in
  { Transport.stall_rate = f "stall" 0.; drop_rate = f "drop" 0.;
    disconnect_rate = f "disconnect" 0. }

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
  let str k = Option.map Json.to_str (Json.member k e) in
  let int k d = match Json.member k e with Some (Json.Int n) -> n | _ -> d in
  let ops =
    match Option.bind (Json.member "jn" e) (Json.member "journal") with
    | Some (Json.List l) -> List.filter_map Panel.op_of_json l
    | _ -> []
  in
  { fe_sid = int "sid" 0;
    fe_name = Option.value ~default:"?" (str "name");
    fe_target = Option.value ~default:default_target (str "target");
    fe_weight = int "weight" 1;
    fe_budget =
      (match Json.member "budget" e with Some b -> budget_of_json b | None -> unlimited);
    fe_faults =
      (match Json.member "faults" e with
      | Some f -> faults_of_json f
      | None -> Transport.no_faults);
    fe_ops = ops;
    fe_opno = int "opno" (List.length ops) }

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
  let sid_of j = match Json.member "sid" j with Some (Json.Int s) -> Some s | _ -> None in
  let apply_op payload =
    let j = Json.parse payload in
    match sid_of j with
    | None -> ()
    | Some sid -> (
        let opno = match Json.member "opno" j with Some (Json.Int n) -> n | _ -> 0 in
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
          else if r.Durable.rkind = k_budget then (
            let j = Json.parse r.Durable.rpayload in
            match (sid_of j, Json.member "budget" j) with
            | Some sid, Some b ->
                Option.iter
                  (fun e -> e.e_cfg <- { e.e_cfg with fe_budget = budget_of_json b })
                  (Hashtbl.find_opt entries sid)
            | _ -> ())
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
(* Status *)

let status srv =
  let b = Buffer.create 256 in
  Printf.bprintf b "server: %d/%d sessions, %d target%s\n"
    (Hashtbl.length srv.sessions) srv.cap
    (List.length srv.torder)
    (if List.length srv.torder = 1 then "" else "s");
  List.iter
    (fun tname ->
      let sh = shared_of srv tname in
      let link =
        match Target.transport sh.target with
        | None -> "local"
        | Some tr ->
            Printf.sprintf "%s %s, breaker %s"
              (Transport.profile_of tr).Transport.pname
              (match Transport.link tr with Transport.Up -> "up" | Transport.Down -> "down")
              (match Transport.breaker tr with
              | Transport.Closed -> "closed"
              | Transport.Open -> "open"
              | Transport.Half_open -> "half-open")
      in
      let state =
        match sh.state with
        | Healthy -> "healthy"
        | Degraded _ -> "DEGRADED (shedding/hedging)"
        | Quarantine q -> Printf.sprintf "QUARANTINE (session %d probing)" q.prober
        | Probation p ->
            Printf.sprintf "probation (waiting: %s)"
              (String.concat "," (List.map string_of_int p.waiting))
      in
      let ewma_s =
        match Target.transport sh.target with
        | None -> ""
        | Some tr ->
            let e = Transport.ewma tr in
            Printf.sprintf " | ewma fault %.3f, lat %.2f ms" e.Transport.ew_fault_rate
              e.Transport.ew_latency_ms
      in
      let cs = Target.cache_stats sh.target in
      Printf.bprintf b "target %-8s [%s] %s | cache %d hit / %d miss%s\n" tname link state
        cs.Target.hits cs.Target.misses ewma_s)
    srv.torder;
  List.iter
    (fun sid ->
      let sess = Hashtbl.find srv.sessions sid in
      let budget_s =
        match (sess.sbudget.max_reads, sess.sbudget.max_sim_ms) with
        | None, None -> "unlimited"
        | r, m ->
            String.concat ", "
              (List.filter_map Fun.id
                 [ Option.map (fun l -> Printf.sprintf "%d/%d reads" sess.sreads l) r;
                   Option.map (fun l -> Printf.sprintf "%.1f/%.1f ms" sess.ssim_ms l) m ])
      in
      Printf.bprintf b
        "session %d %-10s on %s w%d | %d plots, %d faults, %d rejections | budget %s\n" sid
        (Printf.sprintf "%S" sess.name)
        sess.shared.tname sess.weight
        (Option.value ~default:0 (Hashtbl.find_opt sess.tab "plots"))
        (Option.value ~default:0 (Hashtbl.find_opt sess.tab "faults"))
        (Option.value ~default:0 (Hashtbl.find_opt sess.tab "rejections"))
        budget_s)
    (session_ids srv);
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
  else Buffer.add_string b " | observability OFF (vctrl obs on)";
  Buffer.add_char b '\n';
  (* --- targets --- *)
  Printf.bprintf b "%-8s %-10s %-7s %-7s %-9s %s\n" "TARGET" "STATE" "FAULT"
    "LAT_MS" "WIRE" "CACHE";
  List.iter
    (fun tname ->
      let sh = shared_of srv tname in
      let state =
        match sh.state with
        | Healthy -> "healthy"
        | Degraded _ -> "DEGRADED"
        | Quarantine q -> Printf.sprintf "QUAR(p%d)" q.prober
        | Probation p -> Printf.sprintf "prob(%d)" (List.length p.waiting)
      in
      let fault, lat, wire =
        match Target.transport sh.target with
        | None -> ("-", "-", "local")
        | Some tr ->
            let e = Transport.ewma tr in
            ( Printf.sprintf "%.3f" e.Transport.ew_fault_rate,
              Printf.sprintf "%.2f" e.Transport.ew_latency_ms,
              Printf.sprintf "%s/%s"
                (match Transport.link tr with Transport.Up -> "up" | Transport.Down -> "down")
                (match Transport.breaker tr with
                | Transport.Closed -> "cl"
                | Transport.Open -> "OPEN"
                | Transport.Half_open -> "half") )
      in
      let cs = Target.cache_stats sh.target in
      let tot = cs.Target.hits + cs.Target.misses in
      Printf.bprintf b "%-8s %-10s %-7s %-7s %-9s %d/%d hit%s\n" tname state fault
        lat wire cs.Target.hits tot
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
  Printf.bprintf b "%-4s %-10s %-6s %-2s %-6s %-6s %-5s %-12s %-6s %s\n" "SID"
    "NAME" "TGT" "W" "OPS" "FAULTS" "RTOK" "BUDGET" "HIT%" "SLO";
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
        if slo_rows = [] then "-"
        else Printf.sprintf "%.2fx %s" burn (if sev = "ok" then "" else String.uppercase_ascii sev)
      in
      Printf.bprintf b "%-4d %-10s %-6s %-2d %-6d %-6d %-5d %-12s %-6s %s\n" sid
        sess.name sess.shared.tname sess.weight (c "ops") (c "faults")
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
