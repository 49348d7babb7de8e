(* See obs.mli for the contract.  Implementation notes:

   - The disabled path of every recording entry point is one branch on
     [!on]; nothing else happens (no clock read, no allocation).
   - Span self-time is computed online: a stack of open frames carries
     a per-frame child-duration accumulator, so no post-processing of
     the ring is ever needed — and the aggregate profile survives ring
     eviction because it is updated at span end, not derived from the
     buffer.
   - The ring is a plain [event option array] with a write cursor;
     overflow overwrites the oldest slot (newest events win).
   - Trace/span ids are process-unique monotone integers minted only
     while enabled; the ambient trace id is a plain ref (the whole
     library is single-domain, like the rest of the stack).  Span
     links are stored out-of-band in a bounded queue so a link can be
     created while either endpoint is still an open frame. *)

let on = ref false
let enabled () = !on
let set_enabled b = on := b

(* ------------------------------------------------------------------ *)
(* Clock *)

module Clock = struct
  (* [Unix.gettimeofday] is wall time, which NTP may step backwards;
     clamping every reading to the running maximum makes the clock
     monotone, which is all span/duration arithmetic needs.  The
     running maximum is an [Atomic.t] advanced by a CAS-max loop, so
     concurrent readings from several domains never regress each
     other: whatever any domain has observed is a floor for every
     later reading on every domain. *)
  let last = Atomic.make 0.

  let rec advance t =
    let cur = Atomic.get last in
    if t > cur && not (Atomic.compare_and_set last cur t) then advance t

  let now_ms () =
    advance (Unix.gettimeofday () *. 1000.);
    Atomic.get last

  let elapsed_ms t0 = now_ms () -. t0
end

let epoch = ref (Clock.now_ms ())
let since_epoch_ms () = Clock.now_ms () -. !epoch

(* ------------------------------------------------------------------ *)
(* Events and the ring buffer *)

type span = {
  sname : string;
  scat : string;
  st0_ms : float;
  sdur_ms : float;
  sself_ms : float;
  sdepth : int;
  sid : int;
  sparent : int;
  strace : int;
  sattrs : (string * string) list;
}

type event =
  | Span of span
  | Instant of {
      iname : string;
      icat : string;
      it_ms : float;
      iattrs : (string * string) list;
    }

let default_capacity = 32768
let ring = ref (Array.make default_capacity None)
let ring_w = ref 0
let ring_n = ref 0
let dropped_n = ref 0

(* Bounded above: the ring is a diagnostic buffer, not a log.  The
   clamp keeps a workload-sized capacity request from allocating
   unbounded memory; tiny rings stay allowed (tests exercise overflow
   with single-digit capacities). *)
let max_capacity = 1 lsl 20

let set_ring_capacity cap =
  ring := Array.make (min max_capacity (max 1 cap)) None;
  ring_w := 0;
  ring_n := 0;
  dropped_n := 0

let push ev =
  let cap = Array.length !ring in
  !ring.(!ring_w) <- Some ev;
  ring_w := (!ring_w + 1) mod cap;
  if !ring_n < cap then incr ring_n else incr dropped_n

let events () =
  let cap = Array.length !ring in
  let start = (!ring_w - !ring_n + cap) mod cap in
  List.init !ring_n (fun i ->
      match !ring.((start + i) mod cap) with Some e -> e | None -> assert false)

let span_events () =
  List.filter_map (function Span s -> Some s | Instant _ -> None) (events ())

let event_count () = !ring_n
let dropped () = !dropped_n
let ring_capacity () = Array.length !ring

(* ------------------------------------------------------------------ *)
(* Span recording: frame stack + per-name aggregation *)

type agg = { mutable acount : int; mutable atotal : float; mutable aself : float }

let agg_tbl : (string, agg) Hashtbl.t = Hashtbl.create 64
let spans_seen = ref 0
let spans_total () = !spans_seen

(* Per-(name + selected attrs) aggregates: the fix for span-attribute
   loss on ring eviction.  The by-name table above answers "where does
   the time go per layer"; this one keeps the per-target / per-profile
   split alive after the ring has evicted the spans themselves.  Only
   attrs whose key is in [breakdown_keys] are folded into the aggregate
   key (span attrs also carry high-cardinality values like byte counts,
   which must never key a table), and each base name is capped at
   [max_breakdown] distinct keys — the overflow bucket keeps the totals
   honest without unbounded growth. *)
let breakdown_keys = [ "profile"; "target"; "replica"; "sid" ]
let agg_attr_tbl : (string, agg) Hashtbl.t = Hashtbl.create 64
let agg_attr_card : (string, int) Hashtbl.t = Hashtbl.create 16
let max_breakdown = 64

let breakdown_key name attrs =
  match List.filter (fun (k, _) -> List.mem k breakdown_keys) attrs with
  | [] -> None
  | kvs ->
      let kvs = List.sort (fun (a, _) (b, _) -> compare a b) kvs in
      Some
        (Printf.sprintf "%s{%s}" name
           (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)))

type frame = {
  fname : string;
  fcat : string;
  fattrs : (string * string) list;
  ft0 : float;
  fid : int;
  fparent : int;
  ftrace : int;
  mutable fchild : float;
}

let stack : frame list ref = ref []
let current_depth () = List.length !stack

(* ------------------------------------------------------------------ *)
(* Trace identity and span links *)

type link = { lkind : string; lfrom : int; lto : int }

(* Trace/span ids are minted from atomics so no two domains ever
   reuse an id. *)
let trace_ctr = Atomic.make 0
let span_ctr = Atomic.make 0
let cur_trace = ref 0
let links_q : link Queue.t = Queue.create ()
let max_links = 16384

module Trace = struct
  type nonrec link = link = { lkind : string; lfrom : int; lto : int }

  let mint () = if !on then Atomic.fetch_and_add trace_ctr 1 + 1 else 0

  let current () = !cur_trace

  let with_trace tid f =
    if tid = 0 then f ()
    else begin
      let saved = !cur_trace in
      cur_trace := tid;
      Fun.protect ~finally:(fun () -> cur_trace := saved) f
    end

  let current_span () = match !stack with fr :: _ -> fr.fid | [] -> 0

  let link ~kind ~from_span ~to_span =
    if !on && from_span <> 0 && to_span <> 0 then begin
      if Queue.length links_q >= max_links then ignore (Queue.pop links_q);
      Queue.push { lkind = kind; lfrom = from_span; lto = to_span } links_q
    end

  let links () = List.of_seq (Queue.to_seq links_q)
end

let update_agg tbl key ~dur ~self =
  let a =
    match Hashtbl.find_opt tbl key with
    | Some a -> a
    | None ->
        let a = { acount = 0; atotal = 0.; aself = 0. } in
        Hashtbl.add tbl key a;
        a
  in
  a.acount <- a.acount + 1;
  a.atotal <- a.atotal +. dur;
  a.aself <- a.aself +. self

let record_span ~name ~cat ~attrs ~t0 ~dur ~self ~depth ~id ~parent ~trace =
  push
    (Span
       { sname = name; scat = cat; st0_ms = t0; sdur_ms = dur; sself_ms = self;
         sdepth = depth; sid = id; sparent = parent; strace = trace; sattrs = attrs });
  incr spans_seen;
  update_agg agg_tbl name ~dur ~self;
  match breakdown_key name attrs with
  | None -> ()
  | Some key ->
      if Hashtbl.mem agg_attr_tbl key then update_agg agg_attr_tbl key ~dur ~self
      else begin
        let card = Option.value ~default:0 (Hashtbl.find_opt agg_attr_card name) in
        if card >= max_breakdown then update_agg agg_attr_tbl (name ^ "{...}") ~dur ~self
        else begin
          Hashtbl.replace agg_attr_card name (card + 1);
          update_agg agg_attr_tbl key ~dur ~self
        end
      end

let with_span ?(cat = "app") ?(attrs = []) name f =
  if not !on then f ()
  else begin
    let depth = List.length !stack in
    let fr =
      { fname = name; fcat = cat; fattrs = attrs; ft0 = since_epoch_ms ();
        fid = Atomic.fetch_and_add span_ctr 1 + 1;
        fparent = (match !stack with p :: _ -> p.fid | [] -> 0);
        ftrace = !cur_trace; fchild = 0. }
    in
    stack := fr :: !stack;
    Fun.protect
      ~finally:(fun () ->
        match !stack with
        | top :: rest when top == fr ->
            stack := rest;
            let dur = since_epoch_ms () -. fr.ft0 in
            let self = Float.max 0. (dur -. fr.fchild) in
            (match rest with parent :: _ -> parent.fchild <- parent.fchild +. dur | [] -> ());
            record_span ~name:fr.fname ~cat:fr.fcat ~attrs:fr.fattrs ~t0:fr.ft0 ~dur ~self
              ~depth ~id:fr.fid ~parent:fr.fparent ~trace:fr.ftrace
        | _ -> () (* a reset () ran inside [f]: the frame is gone, drop it *))
      f
  end

let instant ?(cat = "app") ?(attrs = []) name =
  if !on then
    push (Instant { iname = name; icat = cat; it_ms = since_epoch_ms (); iattrs = attrs })

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

module Metrics = struct
  let counters_tbl : (string, int ref) Hashtbl.t = Hashtbl.create 64
  let gauges_tbl : (string, float ref) Hashtbl.t = Hashtbl.create 16

  let counter_ref name =
    match Hashtbl.find_opt counters_tbl name with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add counters_tbl name r;
        r

  let incr ?(by = 1) name =
    if !on then begin
      let r = counter_ref name in
      r := !r + by
    end

  let counter name = match Hashtbl.find_opt counters_tbl name with Some r -> !r | None -> 0

  let counters () =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) counters_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let set_gauge name v =
    if !on then
      match Hashtbl.find_opt gauges_tbl name with
      | Some r -> r := v
      | None -> Hashtbl.add gauges_tbl name (ref v)

  let gauge name = Option.map ( ! ) (Hashtbl.find_opt gauges_tbl name)

  let gauges () =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) gauges_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  (* log2 buckets: 0 -> [0, 2^-32); i in 1..62 -> [2^(i-33), 2^(i-32));
     63 -> [2^30, inf).  frexp gives v = m * 2^e with m in [0.5, 1), so
     floor(log2 v) = e - 1 exactly — the boundaries are exact powers of
     two, no float-log rounding at the edges. *)
  let nbuckets = 64

  let bucket_of v =
    if v < Float.ldexp 1. (-32) then 0
    else if v >= Float.ldexp 1. 30 then nbuckets - 1
    else
      let _, e = Float.frexp v in
      32 + e

  let bucket_lo i = if i <= 0 then 0. else Float.ldexp 1. (i - 33)
  let bucket_hi i = if i >= nbuckets - 1 then Float.infinity else Float.ldexp 1. (i - 32)

  type histo = {
    mutable hcount : int;
    mutable hsum : float;
    mutable hmin : float;
    mutable hmax : float;
    hbuckets : int array;
    hex_trace : int array;  (* per-bucket most recent trace id, 0 = none *)
    hex_val : float array;  (* the exemplar's sample value *)
  }

  let histos_tbl : (string, histo) Hashtbl.t = Hashtbl.create 16

  let observe name v =
    if !on then begin
      let h =
        match Hashtbl.find_opt histos_tbl name with
        | Some h -> h
        | None ->
            let h =
              { hcount = 0; hsum = 0.; hmin = Float.infinity; hmax = Float.neg_infinity;
                hbuckets = Array.make nbuckets 0; hex_trace = Array.make nbuckets 0;
                hex_val = Array.make nbuckets 0. }
            in
            Hashtbl.add histos_tbl name h;
            h
      in
      h.hcount <- h.hcount + 1;
      h.hsum <- h.hsum +. v;
      if v < h.hmin then h.hmin <- v;
      if v > h.hmax then h.hmax <- v;
      let b = h.hbuckets in
      let i = bucket_of v in
      b.(i) <- b.(i) + 1;
      if !cur_trace <> 0 then begin
        h.hex_trace.(i) <- !cur_trace;
        h.hex_val.(i) <- v
      end
    end

  let exemplars name =
    match Hashtbl.find_opt histos_tbl name with
    | None -> []
    | Some h ->
        let acc = ref [] in
        for i = nbuckets - 1 downto 0 do
          if h.hex_trace.(i) <> 0 then acc := (i, h.hex_trace.(i), h.hex_val.(i)) :: !acc
        done;
        !acc

  let top_exemplar name =
    match Hashtbl.find_opt histos_tbl name with
    | None -> None
    | Some h ->
        let rec scan i =
          if i < 0 then None
          else if h.hex_trace.(i) <> 0 then Some (h.hex_trace.(i), h.hex_val.(i))
          else scan (i - 1)
        in
        scan (nbuckets - 1)

  let histo_quantile h q =
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.hcount))) in
    let rec walk i cum =
      if i >= nbuckets then h.hmax
      else
        let cum = cum + h.hbuckets.(i) in
        if cum >= rank then Float.min h.hmax (Float.max h.hmin (bucket_hi i)) else walk (i + 1) cum
    in
    walk 0 0

  let quantile name q =
    match Hashtbl.find_opt histos_tbl name with
    | Some h when h.hcount > 0 -> Some (histo_quantile h q)
    | _ -> None

  type summary = {
    count : int;
    sum : float;
    minv : float;
    maxv : float;
    p50 : float;
    p95 : float;
    p99 : float;
  }

  let summary_of h =
    { count = h.hcount; sum = h.hsum; minv = h.hmin; maxv = h.hmax;
      p50 = histo_quantile h 0.50; p95 = histo_quantile h 0.95; p99 = histo_quantile h 0.99 }

  let summary name =
    match Hashtbl.find_opt histos_tbl name with
    | Some h when h.hcount > 0 -> Some (summary_of h)
    | _ -> None

  let histograms () =
    Hashtbl.fold (fun k h acc -> if h.hcount > 0 then (k, summary_of h) :: acc else acc)
      histos_tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
end

module Counter = struct
  type t = int ref

  let make = Metrics.counter_ref

  let add c by = if !on then c := !c + by
  let incr c = add c 1
  let value c = !c
end

(* ------------------------------------------------------------------ *)
(* Profile aggregation *)

module Profile = struct
  type row = { pname : string; pcount : int; ptotal_ms : float; pself_ms : float }

  let row_of tbl name =
    Option.map
      (fun a -> { pname = name; pcount = a.acount; ptotal_ms = a.atotal; pself_ms = a.aself })
      (Hashtbl.find_opt tbl name)

  let rows_of tbl =
    Hashtbl.fold
      (fun name a acc ->
        { pname = name; pcount = a.acount; ptotal_ms = a.atotal; pself_ms = a.aself } :: acc)
      tbl []
    |> List.sort (fun a b -> compare b.pself_ms a.pself_ms)

  let rows () = rows_of agg_tbl
  let find name = row_of agg_tbl name

  let total_ms name = match Hashtbl.find_opt agg_tbl name with Some a -> a.atotal | None -> 0.

  let top n =
    let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> [] in
    take n (rows ())

  let breakdown () = rows_of agg_attr_tbl
end

(* ------------------------------------------------------------------ *)
(* SLO engine: declarative objectives evaluated over the metrics
   registry with multi-window burn rates.

   An objective declares what fraction of "good" outcomes a metric pair
   must sustain ([otarget], e.g. 0.99); the error budget is the
   complement.  [tick] closes one evaluation epoch: per objective it
   takes the (bad, total) delta since the previous tick, pushes it into
   a ring of the last [slow_epochs] epochs, and computes

     burn = (bad/total) / (1 - target)

   over a fast window (the last epoch) and a slow window (the last 8).
   The alertable burn is min(fast, slow) — the classic multi-window
   rule: the fast window proves the burn is still happening, the slow
   window proves it is material, so a single bad epoch after a quiet
   hour does not page and a long slow bleed does.  Strictly read-only
   with respect to control: nothing here feeds admission or health
   decisions, which stay in lib/session. *)

module Slo = struct
  type kind =
    | Good_bad of { good : string; bad : string }
    | Bad_total of { bad : string; total : string }
    | Histogram_le of { histo : string; threshold_ms : float }
    | Gauge_le of { gauge : string; threshold : float }

  type objective = { oname : string; okind : kind; otarget : float }

  let slow_epochs = 8
  let warn_burn = 1.
  let page_burn = 6.

  type reg = {
    obj : objective;
    win : (float * float) array;  (* per-epoch (bad, total), ring of [slow_epochs] *)
    mutable wi : int;
    mutable wn : int;
    mutable last_bad : float;
    mutable last_total : float;
    mutable cum_bad : float;
    mutable cum_total : float;
    mutable sev : int;  (* 0 ok, 1 warn, 2 page *)
    mutable lfast : float;
    mutable lslow : float;
    mutable lremaining : float;
  }

  let regs : (string, reg) Hashtbl.t = Hashtbl.create 16
  let order : string list ref = ref []  (* registration order, oldest first *)

  (* cumulative "samples above threshold": buckets entirely at or above
     the threshold count as bad — log2-bucket granularity, same as the
     quantile estimator's *)
  let histo_bad_total histo threshold =
    match Hashtbl.find_opt Metrics.histos_tbl histo with
    | None -> (0., 0.)
    | Some h ->
        let bad = ref 0 in
        for i = 0 to Metrics.nbuckets - 1 do
          if Metrics.bucket_lo i >= threshold then bad := !bad + h.Metrics.hbuckets.(i)
        done;
        (float_of_int !bad, float_of_int h.Metrics.hcount)

  let cum obj =
    match obj.okind with
    | Good_bad { good; bad } ->
        let b = float_of_int (Metrics.counter bad) in
        (b, b +. float_of_int (Metrics.counter good))
    | Bad_total { bad; total } ->
        (float_of_int (Metrics.counter bad), float_of_int (Metrics.counter total))
    | Histogram_le { histo; threshold_ms } -> histo_bad_total histo threshold_ms
    | Gauge_le _ -> (0., 0.)  (* sampled per tick, not cumulative *)

  let fresh obj =
    let b, t = cum obj in
    { obj; win = Array.make slow_epochs (0., 0.); wi = 0; wn = 0; last_bad = b;
      last_total = t; cum_bad = 0.; cum_total = 0.; sev = 0; lfast = 0.; lslow = 0.;
      lremaining = 1. }

  let register obj =
    match Hashtbl.find_opt regs obj.oname with
    | Some r when r.obj = obj -> ()  (* keep the accumulated windows *)
    | existing ->
        Hashtbl.replace regs obj.oname (fresh obj);
        if existing = None then order := !order @ [ obj.oname ]

  let clear () =
    Hashtbl.reset regs;
    order := []

  let reset_windows () =
    (* keep the objectives but restart their accounting (Obs.reset) *)
    Hashtbl.iter
      (fun name r -> Hashtbl.replace regs name (fresh r.obj))
      (Hashtbl.copy regs)

  let burn obj ~bad ~total =
    if total <= 0. then 0. else bad /. total /. Float.max 1e-9 (1. -. obj.otarget)

  let window_sum r k =
    let b = ref 0. and t = ref 0. in
    for j = 0 to min k r.wn - 1 do
      let bb, tt = r.win.((r.wi - 1 - j + (2 * slow_epochs)) mod slow_epochs) in
      b := !b +. bb;
      t := !t +. tt
    done;
    (!b, !t)

  let sev_name = function 2 -> "page" | 1 -> "warn" | _ -> "ok"

  let tick_one r =
    let db, dt =
      match r.obj.okind with
      | Gauge_le { gauge; threshold } -> (
          match Metrics.gauge gauge with
          | Some v when v > threshold -> (1., 1.)
          | Some _ -> (0., 1.)
          | None -> (0., 0.))
      | _ ->
          let b, t = cum r.obj in
          let db = Float.max 0. (b -. r.last_bad) in
          let dt = Float.max 0. (t -. r.last_total) in
          r.last_bad <- b;
          r.last_total <- t;
          (db, dt)
    in
    r.win.(r.wi) <- (db, dt);
    r.wi <- (r.wi + 1) mod slow_epochs;
    if r.wn < slow_epochs then r.wn <- r.wn + 1;
    r.cum_bad <- r.cum_bad +. db;
    r.cum_total <- r.cum_total +. dt;
    let fast = burn r.obj ~bad:db ~total:dt in
    let sb, st = window_sum r slow_epochs in
    let slow = burn r.obj ~bad:sb ~total:st in
    let b = Float.min fast slow in
    let remaining =
      if r.cum_total <= 0. then 1.
      else 1. -. (r.cum_bad /. (r.cum_total *. Float.max 1e-9 (1. -. r.obj.otarget)))
    in
    r.lfast <- fast;
    r.lslow <- slow;
    r.lremaining <- remaining;
    let name = r.obj.oname in
    Metrics.set_gauge (Printf.sprintf "slo.%s.burn_rate" name) b;
    Metrics.set_gauge (Printf.sprintf "slo.%s.burn_fast" name) fast;
    Metrics.set_gauge (Printf.sprintf "slo.%s.burn_slow" name) slow;
    Metrics.set_gauge (Printf.sprintf "slo.%s.budget_remaining" name) remaining;
    let sev = if b >= page_burn then 2 else if b >= warn_burn then 1 else 0 in
    if sev > r.sev then begin
      Metrics.incr "slo.breaches";
      instant ~cat:"slo"
        ~attrs:
          [ ("slo", name); ("severity", sev_name sev);
            ("burn_fast", Printf.sprintf "%.2f" fast);
            ("burn_slow", Printf.sprintf "%.2f" slow);
            ("budget_remaining", Printf.sprintf "%.3f" remaining) ]
        "slo.breach"
    end
    else if sev = 0 && r.sev > 0 then
      instant ~cat:"slo" ~attrs:[ ("slo", name) ] "slo.clear";
    r.sev <- sev

  let tick () =
    if !on then
      List.iter (fun n -> Option.iter tick_one (Hashtbl.find_opt regs n)) !order

  type status = {
    slo : string;
    target : float;
    burn_fast : float;
    burn_slow : float;
    burn_rate : float;
    budget_remaining : float;
    severity : string;
  }

  let status () =
    List.filter_map
      (fun n ->
        Option.map
          (fun r ->
            { slo = n; target = r.obj.otarget; burn_fast = r.lfast; burn_slow = r.lslow;
              burn_rate = Float.min r.lfast r.lslow; budget_remaining = r.lremaining;
              severity = sev_name r.sev })
          (Hashtbl.find_opt regs n))
      !order

  let report () =
    let buf = Buffer.create 512 in
    let rows = status () in
    if rows = [] then Buffer.add_string buf "(no SLOs registered)\n"
    else begin
      Buffer.add_string buf
        (Printf.sprintf "%-28s %7s %9s %9s %9s %6s\n" "slo" "target" "burn-fast" "burn-slow"
           "budget" "state");
      List.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "%-28s %7.3f %9.2f %9.2f %9.3f %6s\n" s.slo s.target s.burn_fast
               s.burn_slow s.budget_remaining s.severity))
        rows
    end;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Reset *)

let reset () =
  set_ring_capacity (Array.length !ring);
  Hashtbl.reset agg_tbl;
  Hashtbl.reset agg_attr_tbl;
  Hashtbl.reset agg_attr_card;
  spans_seen := 0;
  stack := [];
  cur_trace := 0;
  Queue.clear links_q;
  Hashtbl.iter (fun _ r -> r := 0) Metrics.counters_tbl;
  Hashtbl.reset Metrics.gauges_tbl;
  Hashtbl.reset Metrics.histos_tbl;
  Slo.reset_windows ();
  epoch := Clock.now_ms ()

(* ------------------------------------------------------------------ *)
(* Exporters *)

(* self-reporting gauges: ring pressure is itself a metric, so artifact
   consumers can see when the event list under-reports the run *)
let ring_gauges () =
  if !on then begin
    Metrics.set_gauge "obs.ring_utilization"
      (float_of_int !ring_n /. float_of_int (Array.length !ring));
    Metrics.set_gauge "obs.dropped_events" (float_of_int !dropped_n)
  end

let chrome_trace () =
  ring_gauges ();
  let by_id = Hashtbl.create 1024 in
  let us ms = Json.Float (ms *. 1000.) in
  let ev ?args name cat ph kvs =
    let str (k, v) = (k, Json.String v) in
    Json.Obj
      ((List.map str [ ("name", name); ("cat", cat); ("ph", ph) ] @ kvs)
      @ [ ("pid", Json.Int 1); ("tid", Json.Int 1) ]
      @ Option.fold ~none:[] ~some:(fun a -> [ ("args", Json.Obj (List.map str a)) ]) args)
  in
  let event = function
    | Span s ->
        if s.sid <> 0 then Hashtbl.replace by_id s.sid s;
        let ids =
          (if s.strace <> 0 then [ ("trace", string_of_int s.strace) ] else [])
          @ (if s.sid <> 0 then [ ("span", string_of_int s.sid) ] else [])
          @ if s.sparent <> 0 then [ ("parent", string_of_int s.sparent) ] else []
        in
        ev s.sname s.scat "X"
          [ ("ts", us s.st0_ms); ("dur", us s.sdur_ms) ]
          ~args:((("depth", string_of_int s.sdepth) :: ids) @ s.sattrs)
    | Instant i -> ev i.iname i.icat "i" [ ("ts", us i.it_ms); ("s", Json.String "t") ] ~args:i.iattrs
  in
  let evs = List.map event (events ()) in
  (* span links as flow events ("s" start / "f" finish pairs sharing an
     id): hedge / canary / retry / probation arrows in Perfetto.  Links
     whose endpoints were evicted from the ring are skipped — the flow
     needs slice coordinates to bind to. *)
  let flows =
    Queue.fold
      (fun (n, acc) l ->
        match (Hashtbl.find_opt by_id l.lfrom, Hashtbl.find_opt by_id l.lto) with
        | Some a, Some b ->
            let mid s = s.st0_ms +. (s.sdur_ms /. 2.) and id = ("id", Json.Int (n + 1)) in
            ( n + 1,
              ev l.lkind "link" "f"
                [ ("bp", Json.String "e"); id; ("ts", us (Float.max (mid a) (mid b))) ]
              :: ev l.lkind "link" "s" [ id; ("ts", us (mid a)) ]
              :: acc )
        | _ -> (n, acc))
      (0, []) links_q
    |> snd |> List.rev
  in
  Json.to_string
    (Json.Obj [ ("traceEvents", Json.List (evs @ flows)); ("displayTimeUnit", Json.String "ms") ])

let profile_table () =
  let rows = Profile.rows () in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-36s %8s %12s %12s\n" "span" "count" "total ms" "self ms");
  List.iter
    (fun (r : Profile.row) ->
      Buffer.add_string buf
        (Printf.sprintf "%-36s %8d %12.3f %12.3f\n" r.Profile.pname r.Profile.pcount
           r.Profile.ptotal_ms r.Profile.pself_ms))
    rows;
  if rows = [] then Buffer.add_string buf "(no spans recorded)\n";
  Buffer.contents buf

let metrics_json ?(extra = []) () =
  ring_gauges ();
  let open Json in
  let obj f kvs = Obj (List.map (fun (k, v) -> (k, f v)) kvs) in
  let int n = Int n and num f = Float f in
  let summary (s : Metrics.summary) =
    Obj
      (("count", Int s.Metrics.count)
      :: List.map (fun (k, v) -> (k, Float v))
           [ ("sum", s.Metrics.sum); ("min", s.Metrics.minv); ("max", s.Metrics.maxv);
             ("p50", s.Metrics.p50); ("p95", s.Metrics.p95); ("p99", s.Metrics.p99) ])
  in
  (* histogram exemplars: per-bucket most recent trace id, so a p95
     outlier in a bench table can name the trace behind it.  Array
     values keep each histogram's summary object flat. *)
  let exemplars (k, _) =
    match Metrics.exemplars k with
    | [] -> None
    | exs ->
        let one (b, t, v) = Obj [ ("bucket", Int b); ("trace", Int t); ("value", Float v) ] in
        Some (k, List (List.map one exs))
  in
  let span (r : Profile.row) =
    ( r.Profile.pname,
      Obj
        [ ("count", Int r.Profile.pcount); ("total_ms", Float r.Profile.ptotal_ms);
          ("self_ms", Float r.Profile.pself_ms) ] )
  in
  to_string
    (Obj
       [ ("meta", obj (fun v -> String v) extra); ("counters", obj int (Metrics.counters ()));
         ("gauges", obj num (Metrics.gauges ()));
         ("histograms", obj summary (Metrics.histograms ()));
         ("exemplars", Obj (List.filter_map exemplars (Metrics.histograms ())));
         ( "spans",
           Obj
             (List.map span
                (List.sort (fun (a : Profile.row) b -> compare a.Profile.pname b.Profile.pname)
                   (Profile.rows ()))) );
         ( "events",
           obj int
             [ ("buffered", event_count ()); ("dropped", dropped ());
               ("spans_total", spans_total ()); ("links", Queue.length links_q) ] ) ])

(* Prometheus text exposition: counters, gauges, and histograms as
   quantile summaries.  Metric names are mangled to the prometheus
   charset ([a-zA-Z0-9_:]); label values keep the original name. *)
let prom_name s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c | _ -> '_')
    s

(* The exposition format's own number spelling: it is not JSON, and it
   has names for the non-finite values. *)
let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.6f" f

let prometheus () =
  ring_gauges ();
  let buf = Buffer.create 4096 in
  List.iter
    (fun (k, v) ->
      let n = prom_name k in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (Metrics.counters ());
  List.iter
    (fun (k, v) ->
      let n = prom_name k in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %s\n" n n (prom_float v)))
    (Metrics.gauges ());
  List.iter
    (fun (k, (s : Metrics.summary)) ->
      let n = prom_name k in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s summary\n" n);
      List.iter
        (fun (q, v) ->
          Buffer.add_string buf (Printf.sprintf "%s{quantile=\"%s\"} %s\n" n q (prom_float v)))
        [ ("0.5", s.Metrics.p50); ("0.95", s.Metrics.p95); ("0.99", s.Metrics.p99) ];
      Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" n (prom_float s.Metrics.sum));
      Buffer.add_string buf (Printf.sprintf "%s_count %d\n" n s.Metrics.count))
    (Metrics.histograms ());
  Buffer.contents buf

let report () =
  ring_gauges ();
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "observability: %s | %d events buffered, %d dropped, %d spans total\n"
       (if !on then "on" else "off")
       (event_count ()) (dropped ()) (spans_total ()));
  if !dropped_n > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "*** WARNING: %d events were EVICTED from the ring (capacity %d) ***\n\
          *** the per-name aggregates below are complete, but the event  ***\n\
          *** list / Chrome trace only covers the newest %d events —     ***\n\
          *** raise the capacity with Obs.set_ring_capacity              ***\n"
         !dropped_n (Array.length !ring) !ring_n);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (profile_table ());
  (match Profile.breakdown () with
  | [] -> ()
  | rows ->
      Buffer.add_string buf "\nper-attribute breakdown (eviction-proof aggregates):\n";
      let rec take n = function x :: tl when n > 0 -> x :: take (n - 1) tl | _ -> [] in
      List.iter
        (fun (r : Profile.row) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-44s %8d %12.3f %12.3f\n" r.Profile.pname r.Profile.pcount
               r.Profile.ptotal_ms r.Profile.pself_ms))
        (take 24 rows));
  (match Metrics.counters () with
  | [] -> ()
  | cs ->
      Buffer.add_string buf "\ncounters:\n";
      List.iter (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-34s %12d\n" k v)) cs);
  (match Metrics.gauges () with
  | [] -> ()
  | gs ->
      Buffer.add_string buf "\ngauges:\n";
      List.iter
        (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %-34s %12.3f\n" k v))
        gs);
  (match Metrics.histograms () with
  | [] -> ()
  | hs ->
      Buffer.add_string buf "\nhistograms (p50/p95/p99):\n";
      List.iter
        (fun (k, (s : Metrics.summary)) ->
          Buffer.add_string buf
            (Printf.sprintf "  %-34s n=%-6d %10.3f %10.3f %10.3f\n" k s.Metrics.count
               s.Metrics.p50 s.Metrics.p95 s.Metrics.p99))
        hs);
  (match Slo.status () with
  | [] -> ()
  | _ ->
      Buffer.add_string buf "\nSLOs (multi-window burn):\n";
      Buffer.add_string buf (Slo.report ()));
  Buffer.contents buf
