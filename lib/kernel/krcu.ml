(** Read-copy-update machinery.

    Implements the deferred-free protocol at the heart of CVE-2023-3269:
    [call_rcu] queues a [callback_head] (embedded in the dying object) on
    a per-CPU callback list *in simulated memory* — so the RCU waiting
    list is a real data structure a ViewCL program can plot — and
    [run_grace_period] later invokes the callbacks, actually freeing the
    memory. A reader that held a pointer across the grace period then
    takes a use-after-free fault recorded by {!Kmem}. *)

open Kcontext

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  funcs : Kfuncs.t;
  rcu_data : addr array;  (** per-CPU [struct rcu_data] *)
  rcu_state : addr;
  mutable gp_seq : int;
}

let create ctx funcs ~ncpus =
  let rcu_data =
    Array.init ncpus (fun cpu ->
        let rd = alloc ctx "rcu_data" in
        w32 ctx rd "rcu_data" "cpu" cpu;
        w64 ctx rd "rcu_data" "gp_seq" 0;
        rd)
  in
  let rcu_state = alloc ctx "rcu_state" in
  w64 ctx rcu_state "rcu_state" "name" (cstring ctx "rcu_sched");
  { ctx; funcs; rcu_data; rcu_state; gp_seq = 0 }

(** Queue [head] (a [callback_head] embedded in the dying object) to run
    [func_name] after the next grace period, on [cpu]'s callback list. *)
let call_rcu t ?(cpu = 0) head func_name =
  let ctx = t.ctx in
  let fn = Kfuncs.register t.funcs func_name in
  w64 ctx head "callback_head" "next" 0;
  w64 ctx head "callback_head" "func" fn;
  let rd = t.rcu_data.(cpu) in
  let tail = r64 ctx rd "rcu_data" "cbtail" in
  if tail = 0 then w64 ctx rd "rcu_data" "cblist" head
  else w64 ctx tail "callback_head" "next" head;
  w64 ctx rd "rcu_data" "cbtail" head

(** Pending callbacks of [cpu], in queue order. *)
let pending t ?(cpu = 0) () =
  let ctx = t.ctx in
  let rec go h acc =
    if h = 0 then List.rev acc else go (r64 ctx h "callback_head" "next") (h :: acc)
  in
  go (r64 ctx t.rcu_data.(cpu) "rcu_data" "cblist") []

(** Advance one grace period: every queued callback runs (rcu_do_batch). *)
let run_grace_period t =
  t.gp_seq <- t.gp_seq + 1;
  let ctx = t.ctx in
  w64 ctx t.rcu_state "rcu_state" "gp_seq" t.gp_seq;
  Array.iter
    (fun rd ->
      let rec drain h =
        if h <> 0 then begin
          let next = r64 ctx h "callback_head" "next" in
          let fn = r64 ctx h "callback_head" "func" in
          Kfuncs.invoke t.funcs fn h;
          drain next
        end
      in
      let head = r64 ctx rd "rcu_data" "cblist" in
      w64 ctx rd "rcu_data" "cblist" 0;
      w64 ctx rd "rcu_data" "cbtail" 0;
      w64 ctx rd "rcu_data" "gp_seq" t.gp_seq;
      drain head)
    t.rcu_data
