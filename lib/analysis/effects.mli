(** Per-process communication automata (the CFSM view of MPL).

    For each live {!Mhp} thread class this module abstract-interprets
    the class's inlined control flow into a finite automaton whose
    transitions are exactly its channel and semaphore actions plus
    process creation/collection: [send]/[recv], [P]/[V], [spawn]/[join]
    (the latter two resolved to thread classes). Everything else —
    assignments, branches, calls to communication-free functions — is
    epsilon and disappears into the states.

    Construction walks {e positions} (a call stack of pending frames
    plus the current CFG node), so calls to communicating functions are
    inlined context-sensitively; loops survive as automaton cycles. A
    state is the epsilon-closure of positions reachable without
    performing an action; its {e region} is the set of statement sids
    that may execute while the class sits in that state (including the
    bodies of communication-free callees and the action statements
    leaving it) — the hook {!Proto} uses to turn product-level
    co-reachability into statement-level exclusion facts.

    Abstraction limits — recursion through a communicating function,
    call depth or state count over budget, a [join] not matched to a
    unique spawn — set [complete = false]; {!Proto} then refuses to
    claim anything stronger than "unsupported". *)

type action =
  | Send of int  (** channel id *)
  | Recv of int
  | SemP of int  (** semaphore id *)
  | SemV of int
  | Spawn of int  (** spawned {!Mhp} class id *)
  | Join of int  (** joined {!Mhp} class id *)

type trans = { tr_src : int; tr_act : action; tr_sid : int; tr_dst : int }

type aut = {
  au_cls : int;  (** {!Mhp} class id *)
  au_root_fid : int;
  au_nstates : int;
  au_init : int;
  au_final : bool array;  (** state may terminate the process *)
  au_out : trans list array;  (** state -> outgoing transitions, sid order *)
  au_region : Bitset.t array;  (** state -> sids executable at it *)
  au_on_cycle : bool array;  (** state reachable from itself *)
}

type t = {
  auts : aut array;
  by_class : (int, int) Hashtbl.t;  (** class id -> index into [auts] *)
  states_of_sid : (int * int) list array;  (** sid -> (aut idx, state) list *)
  complete : bool;
  notes : string list;  (** why [complete] is false, for reporting *)
}

val compute : ?max_states:int -> ?max_depth:int -> Mhp.t -> Lang.Prog.t -> t
(** Build one automaton per live class. [max_states] bounds each
    automaton (default 4096), [max_depth] the inlining stack
    (default 16); exceeding either only degrades [complete]. *)

val states_of : t -> int -> (int * int) list
(** The (automaton index, state) pairs whose region covers this sid;
    empty for statements outside every live class. *)

val ntrans : aut -> int

val pp_action : Lang.Prog.t -> Format.formatter -> action -> unit

val pp : Lang.Prog.t -> Format.formatter -> t -> unit

val dot : Lang.Prog.t -> Format.formatter -> t -> unit
(** Graphviz export of every automaton ([ppd proto --dot]). *)
