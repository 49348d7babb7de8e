(** Sockets (the paper's added "socket connection" figure): [socket] /
    [sock] pairs with send/receive [sk_buff] queues. *)

type addr = Kmem.addr

val socket :
  Kcontext.t -> Kvfs.t -> Kfuncs.t ->
  laddr:int -> lport:int -> raddr:int -> rport:int -> addr * addr * addr
(** A connected stream socket: (socket, sock, file). The file's
    [private_data] points at the socket, its [f_op] at
    [socket_file_ops]. *)

val skb_queue_tail : Kcontext.t -> addr -> len:int -> addr
(** Append an sk_buff with [len] payload bytes; maintains qlen and the
    circular next/prev links. *)

val queue_skbs : Kcontext.t -> addr -> addr list
(** The buffers of a queue, head to tail. *)
