(** The virtual file system: file system types, superblocks (ULK Fig
    14-3), inodes, dentries, files and per-process fd tables (ULK Fig
    12-3, Fig 16-2, "from process to VFS"). *)

open Kcontext

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  super_blocks : addr;  (** global list_head *)
  mutable file_systems : addr;  (** head of the file_system_type chain *)
  mutable next_ino : int;
}

let create ctx =
  let super_blocks = alloc ctx "list_head" in
  Klist.init ctx super_blocks;
  { ctx; super_blocks; file_systems = 0; next_ino = 1 }

let register_filesystem t name =
  let ctx = t.ctx in
  let fst_ = alloc ctx "file_system_type" in
  w64 ctx fst_ "file_system_type" "name" (cstring ctx name);
  w64 ctx fst_ "file_system_type" "next" t.file_systems;
  t.file_systems <- fst_;
  fst_

let new_inode t sb ~mode ~size =
  let ctx = t.ctx in
  let ino = alloc ctx "inode" in
  w16 ctx ino "inode" "i_mode" mode;
  w64 ctx ino "inode" "i_ino" t.next_ino;
  t.next_ino <- t.next_ino + 1;
  w64 ctx ino "inode" "i_size" size;
  w32 ctx ino "inode" "i_nlink" 1;
  w64 ctx ino "inode" "i_sb" sb;
  w32 ctx (fld ctx ino "inode" "i_count") "atomic_t" "counter" 1;
  (* i_mapping points at the embedded i_data address_space. *)
  let mapping = fld ctx ino "inode" "i_data" in
  w64 ctx mapping "address_space" "host" ino;
  Kxarray.init ctx (fld ctx mapping "address_space" "i_pages");
  w64 ctx ino "inode" "i_mapping" mapping;
  if sb <> 0 then
    Klist.add_tail ctx (fld ctx sb "super_block" "s_inodes") (fld ctx ino "inode" "i_sb_list");
  ino

let new_dentry t ~parent ~name ~inode ~sb =
  let ctx = t.ctx in
  let d = alloc ctx "dentry" in
  w64 ctx d "dentry" "d_parent" (if parent = 0 then d else parent);
  wstr ctx d "dentry" "d_iname" ~field_size:32 name;
  w64 ctx (fld ctx d "dentry" "d_name") "qstr" "hash_len" (String.length name);
  w64 ctx (fld ctx d "dentry" "d_name") "qstr" "name" (fld ctx d "dentry" "d_iname");
  w64 ctx d "dentry" "d_inode" inode;
  w64 ctx d "dentry" "d_sb" sb;
  Klist.init ctx (fld ctx d "dentry" "d_child");
  Klist.init ctx (fld ctx d "dentry" "d_subdirs");
  if parent <> 0 then
    Klist.add_tail ctx (fld ctx parent "dentry" "d_subdirs") (fld ctx d "dentry" "d_child");
  d

(** Mount: create a superblock of [fstype] with a root dentry. *)
let mount t ~fstype ~s_id ~bdev =
  let ctx = t.ctx in
  let sb = alloc ctx "super_block" in
  w64 ctx sb "super_block" "s_type" fstype;
  w64 ctx sb "super_block" "s_blocksize" 4096;
  w64 ctx sb "super_block" "s_bdev" bdev;
  wstr ctx sb "super_block" "s_id" ~field_size:32 s_id;
  Klist.init ctx (fld ctx sb "super_block" "s_inodes");
  let root_ino = new_inode t sb ~mode:0o40755 ~size:4096 in
  let root = new_dentry t ~parent:0 ~name:"/" ~inode:root_ino ~sb in
  w64 ctx sb "super_block" "s_root" root;
  (if bdev <> 0 then begin
     w64 ctx sb "super_block" "s_dev" (r32 ctx bdev "block_device" "bd_dev");
     w64 ctx bdev "block_device" "bd_super" sb
   end);
  Klist.add_tail ctx t.super_blocks (fld ctx sb "super_block" "s_list");
  sb

(** Create a regular file [name] under [dir] (a dentry) of [size] bytes. *)
let create_file t ~dir ~name ~size =
  let ctx = t.ctx in
  let sb = r64 ctx dir "dentry" "d_sb" in
  let ino = new_inode t sb ~mode:0o100644 ~size in
  new_dentry t ~parent:dir ~name ~inode:ino ~sb

(** Open a dentry: returns a [struct file]. *)
let open_dentry t dentry ~flags =
  let ctx = t.ctx in
  let f = alloc ctx "file" in
  let ino = r64 ctx dentry "dentry" "d_inode" in
  w64 ctx (fld ctx f "file" "f_path") "path" "dentry" dentry;
  w64 ctx f "file" "f_inode" ino;
  w64 ctx f "file" "f_mapping" (r64 ctx ino "inode" "i_mapping");
  w32 ctx f "file" "f_flags" flags;
  w32 ctx f "file" "f_mode" 0o3;
  w64 ctx (fld ctx f "file" "f_count") "atomic64_t" "counter" 1;
  f

(* -------------------------------------------------------------- *)
(* fd tables *)

let new_files_struct t =
  let ctx = t.ctx in
  let fs = alloc ctx "files_struct" in
  w32 ctx (fld ctx fs "files_struct" "count") "atomic_t" "counter" 1;
  let fdt = fld ctx fs "files_struct" "fdtab" in
  w32 ctx fdt "fdtable" "max_fds" Ktypes.fdtable_size;
  let fd_array = alloc_raw ctx "file*[]" (8 * Ktypes.fdtable_size) in
  w64 ctx fdt "fdtable" "fd" fd_array;
  let open_bits = alloc_raw ctx "open_fds" 8 in
  w64 ctx fdt "fdtable" "open_fds" open_bits;
  w64 ctx fs "files_struct" "fdt" fdt;
  fs

(** Install [file] in the lowest free fd slot; returns the fd. *)
let install_fd t files file =
  let ctx = t.ctx in
  let fdt = r64 ctx files "files_struct" "fdt" in
  let fd_array = r64 ctx fdt "fdtable" "fd" in
  let max_fds = r32 ctx fdt "fdtable" "max_fds" in
  let open_bits_addr = r64 ctx fdt "fdtable" "open_fds" in
  let bits = Kmem.read_u64 ctx.mem open_bits_addr in
  let rec find fd = if fd >= max_fds then failwith "fd table full"
    else if bits land (1 lsl fd) = 0 then fd else find (fd + 1)
  in
  let fd = find 0 in
  Kmem.write_u64 ctx.mem (fd_array + (8 * fd)) file;
  Kmem.write_u64 ctx.mem open_bits_addr (bits lor (1 lsl fd));
  w32 ctx files "files_struct" "next_fd" (fd + 1);
  fd

let fd_file t files fd =
  let ctx = t.ctx in
  let fdt = r64 ctx files "files_struct" "fdt" in
  let fd_array = r64 ctx fdt "fdtable" "fd" in
  Kmem.read_u64 ctx.mem (fd_array + (8 * fd))

(** Open fds of a files_struct as (fd, file) pairs. *)
let open_fds t files =
  let ctx = t.ctx in
  let fdt = r64 ctx files "files_struct" "fdt" in
  let open_bits_addr = r64 ctx fdt "fdtable" "open_fds" in
  let bits = Kmem.read_u64 ctx.mem open_bits_addr in
  let rec go fd acc =
    if fd >= 64 then List.rev acc
    else if bits land (1 lsl fd) <> 0 then go (fd + 1) ((fd, fd_file t files fd) :: acc)
    else go (fd + 1) acc
  in
  go 0 []

let superblocks t = Klist.containers t.ctx t.super_blocks "super_block" "s_list"

(** Children of a directory dentry, in creation order. *)
let dentry_children t dir =
  Klist.containers t.ctx (fld t.ctx dir "dentry" "d_subdirs") "dentry" "d_child"

let dentry_name t d = rstr t.ctx d "dentry" "d_iname"

(** Resolve a path like ["/etc/passwd"] from [root] by walking the dentry
    tree component by component (a minimal [path_lookup]). *)
let lookup_path t ~root path =
  let parts = String.split_on_char '/' path |> List.filter (fun p -> p <> "") in
  let rec walk dir = function
    | [] -> Some dir
    | p :: rest -> (
        match List.find_opt (fun d -> dentry_name t d = p) (dentry_children t dir) with
        | Some d -> walk d rest
        | None -> None)
  in
  walk root parts
