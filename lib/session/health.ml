(** The target-health machine: one pure state machine per shared target
    decides whether a session's op may use that target's wire.

    [Healthy] serves every op at home.  [Degraded] is the gray-failure
    middle: the wire's fault EWMA crossed [degrade_hi], so ops hedge to
    a healthy replica when one exists and are otherwise shed by weighted
    fair credits.  [Quarantine] parks the target after its link died,
    its breaker opened or the EWMA reached [sick_hi]: one elected
    session probes the wire while the others serve [STALE] panes.
    [Probation] re-admits the waiting sessions one op at a time once the
    link is Up, the breaker Closed and the EWMA down to [sick_lo].

    Hysteresis: the EWMA-driven transitions (Healthy <-> Degraded,
    Degraded -> Quarantine) fire only once [window] observations have
    passed since the last transition {!step} made, so the mode cannot
    flap inside one window however the EWMA wiggles.  The breaker stays
    in {!Transport}; its verdict is only an input here.

    Nothing here touches the world: {!step}, {!leave} and {!route} return
    the next state, and {!step} the effects it asks for, which the
    session server carries out. *)

type sid = int

let degrade_hi = 0.15
let degrade_lo = 0.05
let sick_hi = 0.45
let sick_lo = 0.25
let window = 8

(* fruitless probe ops before the prober slot passes on: a sick prober
   must not hold the recovery slot forever *)
let probe_rounds = 3

type mode =
  | Healthy
  | Degraded of (sid * int) list  (** each session's shed credits *)
  | Quarantine of { prober : sid; probes : int }
  | Probation of { waiting : sid list; skips : int }
      (** re-admitted head first; [skips] counts non-head waiters turned
          away since the head last moved *)

type state = {
  mode : mode;
  rr : int;  (** round-robin cursor for prober election *)
  since : int;  (** observations since the last transition {!step} made *)
}

let initial = { mode = Healthy; rr = 0; since = 0 }

(** What an admitted op left on its target's wire. *)
type observation = {
  actor : sid;  (** the session whose op ran *)
  live : (sid * int) list;  (** the target's open sessions and weights, by sid *)
  link_bad : bool;  (** link Down or breaker Open *)
  link_recovered : bool;  (** link Up and breaker Closed *)
  fault_rate : float;  (** the wire's fault EWMA *)
}

type effect =
  | Enter_quarantine of { prober : sid; stale : sid list }
      (** journal it; the sessions in [stale] now serve [STALE] panes *)
  | Enter_degraded
  | Exit_degraded
  | Exit_quarantine
  | Probe of sid  (** the prober's op counted as one probe *)

let others live sid = List.filter_map (fun (s, _) -> if s <> sid then Some s else None) live

let elect st live =
  match live with
  | [] -> (None, st)
  | _ -> (Some (fst (List.nth live (st.rr mod List.length live))), { st with rr = st.rr + 1 })

let quarantine st live =
  match elect st live with
  | None, st -> ({ st with mode = Healthy }, [])
  | Some prober, st ->
      ( { st with mode = Quarantine { prober; probes = 0 }; since = 0 },
        [ Enter_quarantine { prober; stale = others live prober } ] )

let step st o =
  let st = { st with since = st.since + 1 } in
  let settled = st.since >= window and fr = o.fault_rate in
  let enter mode effects = ({ st with mode; since = 0 }, effects) in
  match st.mode with
  | Healthy ->
      if o.link_bad then quarantine st o.live
      else if settled && fr >= degrade_hi then enter (Degraded []) [ Enter_degraded ]
      else (st, [])
  | Degraded _ ->
      if o.link_bad || (settled && fr >= sick_hi) then quarantine st o.live
      else if settled && fr <= degrade_lo then enter Healthy [ Exit_degraded ]
      else (st, [])
  | Quarantine q ->
      if o.link_recovered && fr <= sick_lo then
        (* re-admit the waiting sessions one op at a time, in sid order *)
        match others o.live q.prober with
        | [] -> enter Healthy [ Exit_quarantine ]
        | waiting -> enter (Probation { waiting; skips = 0 }) [ Exit_quarantine ]
      else if o.actor <> q.prober then (st, [])
      else if q.probes + 1 < probe_rounds then
        ({ st with mode = Quarantine { q with probes = q.probes + 1 } }, [ Probe o.actor ])
      else
        let p, st = elect st o.live in
        let prober = Option.value ~default:q.prober p in
        ({ st with mode = Quarantine { prober; probes = 0 } }, [ Probe o.actor ])
  | Probation p -> (
      if o.link_bad then quarantine st o.live
      else
        (* every admitted op on the target re-admits one waiter *)
        match p.waiting with
        | [] | [ _ ] -> enter Healthy []
        | _ :: waiting -> ({ st with mode = Probation { p with waiting } }, []))

(** Drop closed session [sid].  [live] is the target's open sessions
    after the close: a departed prober hands the slot to the first of
    them, and with none left the target falls to [Healthy]. *)
let leave st sid ~live =
  let mode =
    match st.mode with
    | Degraded credits -> Degraded (List.remove_assoc sid credits)
    | Quarantine q when q.prober = sid -> (
        match live with [] -> Healthy | (s, _) :: _ -> Quarantine { prober = s; probes = 0 })
    | Probation p -> (
        match List.filter (( <> ) sid) p.waiting with
        | [] -> Healthy
        | waiting -> Probation { p with waiting })
    | m -> m
  in
  { st with mode }

type decision = {
  hedge : bool;  (** run on the healthy replica, not at home *)
  canary : bool;  (** first fire a probe read through the home wire *)
  readmit : bool;  (** a probation re-admission *)
}

type refusal =
  | Shed of { deficit : int }  (** Degraded, no replica, credits short of the stride *)
  | Quarantined of { prober : sid }  (** parked or waiting, no replica *)

let go ?(hedge = false) ?(canary = false) ?(readmit = false) st =
  (Ok { hedge; canary; readmit }, st)

(** The weighted shed's stride: twice the mean weight of [live].  Each
    knock earns a session its weight in credits and an op is admitted
    when the balance covers the stride, so a weight-w session is refused
    at most ceil(stride/w) times in a row while admission frequency
    stays proportional to weight. *)
let stride live =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 live in
  max 1 (2 * total / max 1 (List.length live))

(** Admission and routing for session [sid]'s next op; [replica] says
    whether a healthy replica of the target exists. *)
let route st ~live sid ~replica =
  match st.mode with
  | Healthy -> go st
  | Degraded credits ->
      (* hedge, and keep a canary on the sick wire so its EWMA learns *)
      if replica then go ~hedge:true ~canary:true st
      else
        let bal =
          Option.value ~default:1 (List.assoc_opt sid live)
          + Option.value ~default:0 (List.assoc_opt sid credits)
        in
        let stride = stride live in
        let keep c = { st with mode = Degraded ((sid, c) :: List.remove_assoc sid credits) } in
        if bal >= stride then go (keep (bal - stride))
        else (Error (Shed { deficit = stride - bal }), keep bal)
  | Quarantine q ->
      (* the prober's op rides the replica when one exists: the canary
         is the probe *)
      if sid = q.prober then go ~hedge:replica ~canary:true st
      else if replica then go ~hedge:true st
      else (Error (Quarantined { prober = q.prober }), st)
  | Probation { waiting = []; _ } -> go { st with mode = Healthy }
  | Probation ({ waiting = head :: rest; _ } as p) ->
      if sid = head then go ~readmit:true st
      else if not (List.mem sid p.waiting) then go st
      else if replica then go ~hedge:true st
      else
        (* a non-head waiter knocked: once every waiter has been turned
           away, rotate the head so a silent head cannot starve the queue *)
        let waiting, skips =
          if p.skips + 1 > List.length p.waiting then (rest @ [ head ], 0)
          else (p.waiting, p.skips + 1)
        in
        ( Error (Quarantined { prober = List.hd waiting }),
          { st with mode = Probation { waiting; skips } } )
