(** Simulated kernel text: function-pointer values.

    Kernel objects carry function pointers (work handlers, pipe buffer
    ops, signal handlers, RCU callbacks ...). We give every named kernel
    function a unique fake text address so that (a) function-pointer
    fields contain realistic values, (b) the FunPtr text decorator can
    resolve them back to names like GDB does with symbols, and (c) RCU can
    dispatch callbacks to OCaml implementations. *)

type addr = Kmem.addr

let text_base = 0x2000_0000_0000

type t = {
  by_addr : (addr, string) Hashtbl.t;
  by_name : (string, addr) Hashtbl.t;
  impls : (addr, addr -> unit) Hashtbl.t;  (** callback impl: arg = object address *)
  mutable cursor : addr;
}

let create () =
  { by_addr = Hashtbl.create 64; by_name = Hashtbl.create 64; impls = Hashtbl.create 16;
    cursor = text_base }

(** Register (or look up) a function symbol; returns its text address. *)
let register t name =
  match Hashtbl.find_opt t.by_name name with
  | Some a -> a
  | None ->
      let a = t.cursor in
      t.cursor <- t.cursor + 16;
      Hashtbl.add t.by_name name a;
      Hashtbl.add t.by_addr a name;
      a

(** Register a function with an executable OCaml body (for RCU callbacks,
    timer functions, work functions). *)
let register_impl t name impl =
  let a = register t name in
  Hashtbl.replace t.impls a impl;
  a

let name_of t a = Hashtbl.find_opt t.by_addr a
let impl_of t a = Hashtbl.find_opt t.impls a

let invoke t fn_addr arg =
  match impl_of t fn_addr with
  | Some impl -> impl arg
  | None ->
      invalid_arg
        (Printf.sprintf "Kfuncs.invoke: %s has no implementation"
           (Option.value (name_of t fn_addr) ~default:(Printf.sprintf "0x%x" fn_addr)))
