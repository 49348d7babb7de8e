(** Shared context for the simulated kernel: memory + type registry, plus
    terse field accessors used by all subsystem builders.

    Field offsets are memoized per (composite, path) since builders touch
    the same fields millions of times under the evaluation workload. *)

type addr = Kmem.addr

type t = {
  mem : Kmem.t;
  reg : Ctype.registry;
  off_cache : (string, (string, int) Hashtbl.t) Hashtbl.t;  (* composite -> path -> offset *)
  strings : (string, addr) Hashtbl.t;
}

let create () =
  let reg = Ctype.create_registry () in
  Ktypes.define_all reg;
  { mem = Kmem.create (); reg; off_cache = Hashtbl.create 128; strings = Hashtbl.create 64 }

(* Two [Hashtbl.find]s and no allocation once a field has been seen. *)
let off ctx comp path =
  let paths =
    match Hashtbl.find ctx.off_cache comp with
    | t -> t
    | exception Not_found ->
        let t = Hashtbl.create 16 in
        Hashtbl.add ctx.off_cache comp t;
        t
  in
  match Hashtbl.find paths path with
  | o -> o
  | exception Not_found ->
      let o = Ctype.offsetof ctx.reg comp path in
      Hashtbl.add paths path o;
      o

let sizeof ctx name = Ctype.sizeof ctx.reg (Ctype.Named name)

let alloc ?align ctx name = Kmem.alloc ctx.mem ?align ~tag:name (sizeof ctx name)

let alloc_n ctx name n =
  Kmem.alloc ctx.mem ~tag:(Printf.sprintf "%s[%d]" name n) (n * sizeof ctx name)

let alloc_raw ctx tag size = Kmem.alloc ctx.mem ~tag size
let free ctx a = Kmem.free ctx.mem a

(* Typed field accessors: [r64 ctx a "task_struct" "se.vruntime"]. *)
let r8 ctx a comp path = Kmem.read_u8 ctx.mem (a + off ctx comp path)
let r32 ctx a comp path = Kmem.read_u32 ctx.mem (a + off ctx comp path)
let r64 ctx a comp path = Kmem.read_u64 ctx.mem (a + off ctx comp path)
let ri32 ctx a comp path = Kmem.read_i32 ctx.mem (a + off ctx comp path)
let w8 ctx a comp path v = Kmem.write_u8 ctx.mem (a + off ctx comp path) v
let w16 ctx a comp path v = Kmem.write_u16 ctx.mem (a + off ctx comp path) v
let w32 ctx a comp path v = Kmem.write_u32 ctx.mem (a + off ctx comp path) v
let w64 ctx a comp path v = Kmem.write_u64 ctx.mem (a + off ctx comp path) v

let wstr ctx a comp path ?field_size s =
  Kmem.write_cstring ctx.mem (a + off ctx comp path) ?field_size s

(* Bounded by the field's declared length: the bytes past a name are no
   part of it, so they are neither read nor recorded as read. *)
let rstr ctx a comp field =
  match (Ctype.field ctx.reg comp field).Ctype.ftyp with
  | Ctype.Array (_, n) -> Kmem.read_cstring ctx.mem ~max:n (a + off ctx comp field)
  | t -> invalid_arg (Printf.sprintf "Kcontext.rstr: %s.%s is a %s" comp field (Ctype.to_string t))

(* Address of an embedded member, e.g. the [children] list_head inside a
   task_struct. *)
let fld ctx a comp path = a + off ctx comp path

(* Interned C strings (object names etc.) so that charp fields point at
   real target memory. *)
let cstring ctx s =
  match Hashtbl.find_opt ctx.strings s with
  | Some a -> a
  | None ->
      let a = Kmem.alloc ctx.mem ~tag:"char[]" (String.length s + 1) in
      Kmem.write_cstring ctx.mem a s;
      Hashtbl.add ctx.strings s a;
      a
