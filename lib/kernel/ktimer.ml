(** Dynamic timers (ULK Fig 6-1): per-CPU timer wheels whose buckets are
    hlists of [timer_list]s. *)

open Kcontext

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  funcs : Kfuncs.t;
  bases : addr array;  (** per-CPU [timer_base] *)
  mutable jiffies : int;
}

let wheel_size = Ktypes.timer_wheel_size

let create ctx funcs ~ncpus =
  let bases =
    Array.init ncpus (fun _ ->
        let b = alloc ctx "timer_base" in
        w64 ctx b "timer_base" "clk" 0;
        for i = 0 to wheel_size - 1 do
          Khlist.init_head ctx (fld ctx b "timer_base" "vectors" + (i * sizeof ctx "hlist_head"))
        done;
        b)
  in
  { ctx; funcs; bases; jiffies = 0 }

let bucket t ~cpu i =
  fld t.ctx t.bases.(cpu) "timer_base" "vectors" + (i * sizeof t.ctx "hlist_head")

(** Arm a timer [delta] jiffies in the future running [func_name]. *)
let add_timer t ~cpu ~delta func_name =
  let ctx = t.ctx in
  let tm = alloc ctx "timer_list" in
  let expires = t.jiffies + delta in
  w64 ctx tm "timer_list" "expires" expires;
  w64 ctx tm "timer_list" "function" (Kfuncs.register t.funcs func_name);
  w32 ctx tm "timer_list" "flags" cpu;
  Khlist.add_head ctx (bucket t ~cpu (expires mod wheel_size)) (fld ctx tm "timer_list" "entry");
  tm

(** Timers pending in [cpu]'s wheel, bucket by bucket. *)
let pending t ~cpu =
  List.concat
    (List.init wheel_size (fun i ->
         Khlist.containers t.ctx (bucket t ~cpu i) "timer_list" "entry"))

(** Advance time by [n] jiffies and fire every expired timer on every
    CPU, in expiry order: each timer is unlinked from its wheel bucket
    and its function invoked (with the timer address, as the kernel does
    since 4.15) when an implementation is registered; unimplemented
    functions just expire silently. Returns the fired timers. *)
let run_timers t n =
  let ctx = t.ctx in
  t.jiffies <- t.jiffies + n;
  let fired = ref [] in
  Array.iteri
    (fun cpu base ->
      w64 ctx base "timer_base" "clk" t.jiffies;
      let expired =
        List.filter
          (fun tm -> r64 ctx tm "timer_list" "expires" <= t.jiffies)
          (pending t ~cpu)
      in
      let in_order =
        List.sort (fun a b -> compare (r64 ctx a "timer_list" "expires") (r64 ctx b "timer_list" "expires")) expired
      in
      List.iter
        (fun tm ->
          w64 ctx base "timer_base" "running_timer" tm;
          Khlist.del ctx (fld ctx tm "timer_list" "entry");
          let fn = r64 ctx tm "timer_list" "function" in
          (match Kfuncs.impl_of t.funcs fn with
          | Some impl -> impl tm
          | None -> ());
          w64 ctx base "timer_base" "running_timer" 0;
          fired := tm :: !fired)
        in_order)
    t.bases;
  List.rev !fired
