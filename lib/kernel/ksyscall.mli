(** Syscall-level façade over the simulated kernel — what the evaluation
    workload and the CVE reproductions drive.

    All operations mutate real simulated memory through the subsystem
    modules, so their effects are visible to the debugger side exactly as
    on a live kernel. *)

type addr = Kmem.addr

(** {1 Address-space layout constants (process image)} *)

val heap_base : int
val stack_top : int

(** {1 Processes and threads} *)

val spawn_process : Kstate.t -> parent:addr -> comm:string -> cpu:int -> addr
(** fork + exec: a new process with the standard VM image (code/rodata/
    data from its executable, heap, libc mappings, grows-down stack), an
    fd table with stdin/out/err, fresh signal structures; registered in
    the pid tables and enqueued on [cpu]'s CFS runqueue. *)

val spawn_thread : Kstate.t -> leader:addr -> comm:string -> cpu:int -> addr
(** pthread_create: shares the leader's mm, files, signal and sighand. *)

val spawn_kthread : Kstate.t -> comm:string -> cpu:int -> addr
(** A kernel thread (no mm, PF_KTHREAD). *)

val files_of : Kstate.t -> addr -> addr
val mm_of : Kstate.t -> addr -> addr

(** {1 Files and memory} *)

val openat : Kstate.t -> addr -> name:string -> size:int -> int * addr
(** open(2): creates the file under / with populated page cache; returns
    (fd, file). *)

val mmap_file : Kstate.t -> addr -> file:addr -> start:int -> npages:int -> writable:bool -> addr
val mmap_anon : Kstate.t -> addr -> start:int -> npages:int -> writable:bool -> addr
(** Anonymous mapping; prepares the reverse map (anon_vma). *)

val munmap : Kstate.t -> addr -> addr -> unit

(** {1 Pipes, splice, sockets} *)

val pipe : Kstate.t -> addr -> addr * int * int
(** pipe(2): returns (pipe_inode_info, read_fd, write_fd). *)

val write_pipe : Kstate.t -> addr -> string -> unit
(** Ordinary pipe write: allocates a page, sets CAN_MERGE (as anon pipe
    buffers do). *)

val splice : Kstate.t -> file:addr -> pipe:addr -> index:int -> len:int -> buggy:bool -> addr
(** splice(2) file->pipe, zero-copy: the pipe buffer references the
    page-cache page itself. With [buggy:true] the buffer's [flags] word is
    left uninitialized — CVE-2022-0847. Returns the pipe_buffer. *)

val socket : Kstate.t -> addr -> lport:int -> rport:int -> backlog_skbs:int -> addr * addr * int
(** A connected TCP socket installed in the task's fd table; returns
    (socket, sock, fd). [backlog_skbs] pre-queues receive buffers. *)

(** {1 Process lifecycle} *)

val exit_task : Kstate.t -> addr -> code:int -> unit
(** exit(2): dequeue from the runqueue, turn the task into a zombie
    (EXIT_ZOMBIE, visible to [task_state]), reparent its children to
    init, and queue SIGCHLD to the parent. *)

(** {1 Signals} *)

val kill : Kstate.t -> target:addr -> signo:int -> from:addr -> unit

val sigaction :
  Kstate.t -> addr -> signo:int -> handler:[ `Default | `Ignore | `Handler of string ] -> unit
