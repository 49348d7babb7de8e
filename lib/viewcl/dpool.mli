(** The extraction domain count.  Extraction is sequential, so this is
    always 1.  The module survives only because the benchmark driver
    prints the value in its run header; it goes once the benchmark
    stops reading it. *)

val default_domains : unit -> int
(** Always 1. *)
