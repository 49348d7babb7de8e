(** Natural-language to ViewQL synthesis — the *vchat* command (paper
    §2.4, §4.2).

    The paper prompts DeepSeek-V2 with a ViewQL description plus
    in-context examples; we substitute a deterministic rule-based
    synthesizer over the same vocabulary so the Table 3 experiment runs
    offline and reproducibly. A real model can be plugged in through the
    [llm] callback of {!synthesize}. *)

exception Cannot_synthesize of string
(** Raised when no actionable clause is recognized. *)

val synthesize : ?llm:(string -> string) -> string -> string
(** [synthesize desc] returns a ViewQL program for the natural-language
    request [desc]. Understands the Table 3 vocabulary: display/shrink/
    collapse/trim/hide actions, type aliases ("tasks", "memory areas",
    "superblocks", ...), view and direction phrases, NULL-ness conditions
    ("that have no address space", "not configured"), explicit
    comparisons ("pid == 2"), address pinning ("whose address is not
    0x..."), member projection ("the slots of all maple_nodes") and
    clause-to-clause anaphora ("..., and collapse them").

    When [llm] is given it is called instead of the rules (modelling a
    hosted model behind the same interface), with the paper's §4.2
    prompt: the ViewQL grammar, in-context examples and [desc].
    @raise Cannot_synthesize when nothing actionable is found. *)
