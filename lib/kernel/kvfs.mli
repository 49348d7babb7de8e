(** The virtual file system: file system types, superblocks (ULK Fig
    14-3), inodes, dentries, files, and per-process fd tables (ULK Fig
    12-3 / 16-2 / "from process to VFS"). *)

type addr = Kmem.addr

type t = {
  ctx : Kcontext.t;
  super_blocks : addr;  (** the global [super_blocks] list_head *)
  mutable file_systems : addr;  (** head of the file_system_type chain *)
  mutable next_ino : int;
}

val create : Kcontext.t -> t

val register_filesystem : t -> string -> addr
(** Prepend a [file_system_type] to the global chain; returns it. *)

val new_inode : t -> addr -> mode:int -> size:int -> addr
(** An inode on superblock [sb] (0 for anonymous inodes): fresh ino,
    embedded [i_data] address space with an empty page-cache XArray,
    linked on the superblock's [s_inodes] list. *)

val new_dentry : t -> parent:addr -> name:string -> inode:addr -> sb:addr -> addr
(** A dentry linked under [parent] (0 for roots/anonymous). *)

val mount : t -> fstype:addr -> s_id:string -> bdev:addr -> addr
(** A superblock with a root dentry, linked on [super_blocks]; ties the
    block device when given. *)

val create_file : t -> dir:addr -> name:string -> size:int -> addr
(** A regular file under directory dentry [dir]; returns its dentry. *)

val open_dentry : t -> addr -> flags:int -> addr
(** Open: a [struct file] with [f_inode]/[f_mapping] wired. *)

(** {1 Path walking} *)

val lookup_path : t -> root:addr -> string -> addr option
(** Resolve ["/a/b/c"] from [root], component by component. *)

(** {1 fd tables} *)

val new_files_struct : t -> addr
(** A [files_struct] with an embedded fdtable (64 slots + open bitmap). *)

val install_fd : t -> addr -> addr -> int
(** Install a file in the lowest free slot; returns the fd.
    @raise Failure when the table is full. *)

val fd_file : t -> addr -> int -> addr
(** The file at an fd (0 when closed). *)

val open_fds : t -> addr -> (int * addr) list
(** All open (fd, file) pairs. *)

val superblocks : t -> addr list
