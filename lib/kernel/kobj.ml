(** The device model (ULK Fig 13-3): kobjects, ksets, devices, drivers
    and buses. *)

open Kcontext

type addr = Kmem.addr

let kobject_init ctx kobj ~name ~parent ~kset =
  w64 ctx kobj "kobject" "name" (cstring ctx name);
  w64 ctx kobj "kobject" "parent" parent;
  w64 ctx kobj "kobject" "kset" kset;
  w32 ctx (fld ctx kobj "kobject" "kref") "kref" "refcount.refs.counter" 1;
  Klist.init ctx (fld ctx kobj "kobject" "entry")

let new_kset ctx ~name ~parent =
  let ks = alloc ctx "kset" in
  Klist.init ctx (fld ctx ks "kset" "list");
  kobject_init ctx (fld ctx ks "kset" "kobj") ~name ~parent ~kset:0;
  ks

let new_bus ctx ~name =
  let bus = alloc ctx "bus_type" in
  w64 ctx bus "bus_type" "name" (cstring ctx name);
  bus

let new_driver ctx funcs ~name ~bus =
  let drv = alloc ctx "device_driver" in
  w64 ctx drv "device_driver" "name" (cstring ctx name);
  w64 ctx drv "device_driver" "bus" bus;
  w64 ctx drv "device_driver" "probe" (Kfuncs.register funcs (name ^ "_probe"));
  drv

let new_device ctx ~name ~parent ~bus ~driver ~kset =
  let dev = alloc ctx "device" in
  kobject_init ctx (fld ctx dev "device" "kobj") ~name
    ~parent:(if parent = 0 then 0 else fld ctx parent "device" "kobj")
    ~kset;
  if kset <> 0 then begin
    Klist.del ctx (fld ctx dev "device" "kobj.entry");
    Klist.add_tail ctx (fld ctx kset "kset" "list") (fld ctx dev "device" "kobj.entry")
  end;
  w64 ctx dev "device" "parent" parent;
  w64 ctx dev "device" "bus" bus;
  w64 ctx dev "device" "driver" driver;
  dev

let kset_members ctx kset =
  Klist.containers ctx (fld ctx kset "kset" "list") "kobject" "entry"
