(* The measuring context a workload runs under: the unit loop and its
   window, timed ops, set-up timing, the per-layer counters, and the
   bench-side spans of a traced run.

   A workload is a sequence of units (figure cycles or episodes).  The
   loop runs whole units until the window closes, but never fewer than
   [min_units]: the per-layer counters are summed over exactly those
   first units, so they repeat exactly across runs of one seed while the
   timings use every op in the window. *)

let now_ms = Obs.Clock.now_ms

type outcome =
  | Served
  | Shed  (** a typed refusal or a stale pane: the server declined by design *)

type span = { name : string; t0 : float; t1 : float; id : int; parent : int; op : int }

let max_retained_spans = 50_000

type t = {
  seed : int;
  setups : int;  (** the fewest times the set-up runs to time it *)
  min_units : int;
  max_units : int;
  window_s : float;
  traced : bool;  (** façade calls split and wrapped in bench-side spans *)
  counting : bool;  (** per-layer counters read around every counted op *)
  mutable counted_unit : bool;
  mutable source : unit -> (string * float) list;
      (** cumulative layer counters of the system under test *)
  mutable setup_s : float list;
  op_ms : Stats.buf;
  unit_ms : Stats.buf;  (** summed op wall per unit, in unit order *)
  mutable unit_ends : int list;  (** index in [op_ms] where each unit ended, newest first *)
  mutable op_ms_sum : float;
  mutable ops : int;
  mutable shed : int;
  mutable failed : int;
  mutable counted_ops : int;
  counts : (string, float) Hashtbl.t;
  samples : (string, Stats.buf) Hashtbl.t;  (** per-call times, by call name *)
  mutable checks : int;  (** oracle comparisons made *)
  mutable skipped : int;  (** oracle comparisons the kernel state cannot support *)
  mutable errors : string list;
  mutable spans : span list;  (** retained spans, newest first *)
  mutable nspans : int;
  mutable op_span_ms : float;  (** summed wall of traced ops *)
  mutable child_span_ms : float;  (** summed wall of the spans directly under them *)
  mutable next_id : int;
  mutable cur_span : int;
  mutable cur_op : int;
}

let create ~seed ~setups ~min_units ?(max_units = max_int) ~window_s ~traced ~counting () =
  { seed; setups; min_units; max_units; window_s; traced; counting; counted_unit = false;
    source = (fun () -> []); setup_s = []; op_ms = Stats.buf (); unit_ms = Stats.buf ();
    unit_ends = []; op_ms_sum = 0.; ops = 0; shed = 0; failed = 0; counted_ops = 0;
    counts = Hashtbl.create 32; samples = Hashtbl.create 16; checks = 0; skipped = 0;
    errors = []; spans = []; nspans = 0; op_span_ms = 0.; child_span_ms = 0.; next_id = 0;
    cur_span = 0; cur_op = 0 }

let counting env = env.counting && env.counted_unit

let add env name v =
  if counting env then
    Hashtbl.replace env.counts name
      (v +. Option.value ~default:0. (Hashtbl.find_opt env.counts name))

let addi env name n = add env name (float_of_int n)
let count env name = Option.value ~default:0. (Hashtbl.find_opt env.counts name)

let samples env name =
  match Hashtbl.find_opt env.samples name with
  | Some b -> b
  | None ->
      let b = Stats.buf () in
      Hashtbl.add env.samples name b;
      b

let sample env name v = Stats.push (samples env name) v

let fail env msg =
  env.failed <- env.failed + 1;
  if List.length env.errors < 8 then env.errors <- msg :: env.errors

(* An oracle comparison, made outside every timed region. *)
let check env ok what =
  env.checks <- env.checks + 1;
  if not ok then fail env ("oracle mismatch: " ^ what)

(* Run the set-up at least [env.setups] times, timing each; when that is
   more than once, keep going until [setup_budget_s] of set-up has been
   timed, so that a quick set-up still yields a steady median.  The last
   one's state is the one measured. *)
let setup_budget_s = 1.5
let max_setups = 25

let setup env f =
  let rec go k spent =
    let t0 = now_ms () in
    let st = f () in
    let dt = (now_ms () -. t0) /. 1000. in
    env.setup_s <- dt :: env.setup_s;
    let spent = spent +. dt in
    if k >= max_setups || (k >= env.setups && (env.setups = 1 || spent >= setup_budget_s)) then st
    else go (k + 1) spent
  in
  go 1 0.

(* Run units [0, 1, ...] until the window closes (at least [min_units],
   at most [max_units]). *)
let units env body =
  let t_end = now_ms () +. (env.window_s *. 1000.) in
  let i = ref 0 in
  while !i < env.max_units && (!i < env.min_units || now_ms () < t_end) do
    env.counted_unit <- !i < env.min_units;
    let s0 = env.op_ms_sum in
    body !i;
    Stats.push env.unit_ms (env.op_ms_sum -. s0);
    env.unit_ends <- Stats.length env.op_ms :: env.unit_ends;
    incr i
  done;
  env.counted_unit <- false

(* The median over units of each unit's [q]-quantile op time.  A unit
   holds a fixed op mix (a figure cycle, an episode), so this reads the
   same rank of the same mix in every unit, where a quantile pooled over
   all ops can sit on the edge between two figures' costs. *)
let unit_quantile env q =
  let ops = Stats.to_array env.op_ms in
  let rec per_unit start acc = function
    | [] -> acc
    | stop :: rest ->
        let s = Array.sub ops start (stop - start) in
        Array.sort compare s;
        per_unit stop (Stats.quantile_sorted s q :: acc) rest
  in
  Stats.median_list (per_unit 0 [] (List.rev env.unit_ends))

let fresh_id env =
  env.next_id <- env.next_id + 1;
  env.next_id

let record_span env sp =
  env.nspans <- env.nspans + 1;
  if env.nspans <= max_retained_spans then env.spans <- sp :: env.spans

(* A bench-side span around one public call, in traced runs only. *)
let span env name f =
  if not env.traced then f ()
  else begin
    let id = fresh_id env and parent = env.cur_span in
    env.cur_span <- id;
    let t0 = now_ms () in
    let finish () =
      let t1 = now_ms () in
      env.cur_span <- parent;
      sample env name (t1 -. t0);
      if parent <> 0 && parent = env.cur_op then
        env.child_span_ms <- env.child_span_ms +. (t1 -. t0);
      record_span env { name; t0; t1; id; parent; op = env.cur_op }
    in
    Fun.protect ~finally:finish f
  end

let gc_counts () =
  let q = Gc.quick_stat () in
  [ ("gc.minor_words", Gc.minor_words ()); ("gc.promoted_words", q.Gc.promoted_words);
    ("gc.major", float_of_int q.Gc.major_collections) ]

(* One timed op.  [f] reports whether it was served or shed; an
   exception is a failed op.  Counters are read before the clock starts
   and after it stops, the GC's nearest the op so that reading the other
   counters does not count as the op's allocation. *)
let op env ~kind f =
  let counted = counting env in
  let before =
    if counted then
      let src = env.source () in
      gc_counts () @ src
    else []
  in
  let id = if env.traced then fresh_id env else 0 in
  env.cur_op <- id;
  env.cur_span <- id;
  (* a traced op also records the library's own Obs spans, and only an
     op does, so Obs self-times divide by ops *)
  if env.traced then Obs.set_enabled true;
  let t0 = now_ms () in
  let out = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let t1 = now_ms () in
  if env.traced then Obs.set_enabled false;
  let after =
    if counted then
      let gc = gc_counts () in
      gc @ env.source ()
    else []
  in
  env.cur_op <- 0;
  env.cur_span <- 0;
  if env.traced then begin
    env.op_span_ms <- env.op_span_ms +. (t1 -. t0);
    record_span env { name = "op:" ^ kind; t0; t1; id; parent = 0; op = id }
  end;
  env.ops <- env.ops + 1;
  env.op_ms_sum <- env.op_ms_sum +. (t1 -. t0);
  Stats.push env.op_ms (t1 -. t0);
  (match out with
  | Ok Served -> ()
  | Ok Shed -> env.shed <- env.shed + 1
  | Error msg -> fail env (kind ^ ": " ^ msg));
  if counted then begin
    env.counted_ops <- env.counted_ops + 1;
    List.iter2 (fun (k, a) (_, b) -> add env k (b -. a)) before after
  end

(* An untimed kernel step between ops: its time and the writes it made. *)
let step env w kmem =
  let g0 = Kmem.generation kmem in
  let t0 = now_ms () in
  Workload.step w;
  let dt = now_ms () -. t0 in
  if counting env then begin
    sample env "Workload.step" dt;
    add env "kernel.steps" 1.;
    addi env "kmem.writes" (Kmem.generation kmem - g0)
  end
