(** Debugger-side bindings: create a {!Target} over a booted kernel with
    all symbols, macro constants and helper functions registered — the
    equivalent of Visualinux's ~500 lines of GDB scripts that expose
    static-inline kernel functions to ViewCL.

    Registered symbols include [init_task], [runqueues], [pid_hash],
    [super_blocks], [workqueues], [slab_caches], [node_zones], [mem_map],
    [swap_info], [irq_desc], [ipc_namespace], [rcu_state] and
    [devices_kset]; helper functions include [cpu_rq], [cpu_curr],
    [task_state], [task_of_pid], [pid_task], the maple-tree decoders
    ([mte_to_node], [mte_node_type], [mte_is_leaf], [mas_walk],
    [ma_is_dead]), the XArray decoders ([xa_is_node], [xa_to_node]),
    page helpers ([page_to_pfn], [pfn_to_page], [page_address],
    [page_content]), VFS helpers ([fd_file], [data_file], [i_pipe_of],
    [sock_of_file]), [func_name], [spin_is_locked], [container_of] and
    [sighand_action]. *)

val attach : Kstate.t -> Target.t
