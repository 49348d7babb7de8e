(** Pipes and the splice zero-copy path (CVE-2022-0847, "Dirty Pipe").

    A [pipe_inode_info] owns a 16-slot ring of [pipe_buffer]s referencing
    pages. {!splice_from_mapping} attaches a {e page-cache page} to a
    buffer without copying — and, when [~buggy:true], reproduces the
    Dirty Pipe flaw: the buffer's [flags] word is left uninitialized, so
    a stale [PIPE_BUF_FLAG_CAN_MERGE] makes the shared page writable
    through the pipe. *)

type addr = Kmem.addr

val create : Kcontext.t -> Kvfs.t -> Kfuncs.t -> addr * addr * addr
(** A pipe: (pipe_inode_info, read file, write file) — an anonymous inode
    carrying [i_pipe], opened twice with [pipefifo_fops]. *)

val write : Kcontext.t -> Kbuddy.t -> Kfuncs.t -> addr -> string -> addr
(** pipe_write: fresh page + CAN_MERGE flags (as anon pipe pages have);
    returns the buffer. *)

val read : Kcontext.t -> addr -> int option
(** pipe_read: consume the tail buffer. The retired ring slot is NOT
    scrubbed — its stale flags are what the bug later inherits. Returns
    the consumed length, [None] when empty. *)

val splice_from_mapping :
  Kcontext.t -> Kfuncs.t -> addr -> mapping:addr -> index:int -> len:int -> buggy:bool -> addr
(** Zero-copy splice of a page-cache page into the pipe. [buggy] leaves
    [flags] as-is (the CVE); otherwise they are cleared, as the fix does.
    @raise Invalid_argument when the page is not cached. *)

val buffers : Kcontext.t -> addr -> addr list
(** Occupied buffers, tail..head order. *)

val write_merge : Kcontext.t -> addr -> string -> (addr * int * string) option
(** A pipe write that merges into the last buffer when CAN_MERGE is set —
    the action that corrupts the page cache in the exploit. Returns
    (page, offset, data) to apply, or [None] when merging is refused. *)
