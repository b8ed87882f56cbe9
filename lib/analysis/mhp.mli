(** Statement-level may-happen-in-parallel analysis.

    A function-granular view (may two functions run in overlapping
    processes?) ignores every ordering the program text pins down: a [join] orders
    the spawner's subsequent statements after the whole child process, a
    matched [send]/[recv] pair orders everything before the send before
    everything after the receive, and a [V]/[P] pair on a
    zero-initialised semaphore does the same for token passing. This
    module recovers those orderings from the per-function CFGs and the
    spawn structure, and answers ordering queries at {e statement}
    granularity.

    {b Thread classes.} Executions are abstracted into one class for
    [main]'s process plus one class per {e spawn site} (not per callee:
    two [spawn w()] statements make two classes). A class carries the
    call-closure of its root, a liveness flag (is some live class able
    to reach the spawn site?) and a multiplicity flag (may more than one
    instance exist at once? — a spawn site in a loop without a
    re-joining [join] on every cycle, or a site whose owner is itself
    multiple). Both flags are solved by fixpoint.

    {b Join matching.} A [join(h)] is matched to a spawn site when the
    spawn's handle definition is the {e only} definition of [h] reaching
    the join (via {!Reaching_defs}); the spawner's statements dominated
    by a matched join, and unable to loop back before it, are ordered
    after the entire child process.

    {b Sync chains.} A channel with exactly one textual [send] site and
    one [recv] site program-wide (both in singleton, non-multiple
    classes) orders "before the send" happens-before "after the recv";
    likewise [V]/[P] on a semaphore initialised to 0 with unique sites.
    Chains compose transitively through intermediate processes.

    All refinements are {e must} facts; everything not provably ordered
    is reported as possibly parallel, so the analysis stays sound as an
    over-approximation (property-tested against the dynamic detector:
    static races ⊇ dynamic races). *)

type t

val compute : ?cfgs:Cfg.t array -> Lang.Prog.t -> t
(** Build the thread classes, matched joins and sync chains. [cfgs]
    (per fid) avoids rebuilding CFGs the caller already has. *)

val may_parallel : t -> int -> int -> bool
(** [may_parallel t sa sb]: may statements [sa] and [sb] (program-wide
    sids) execute concurrently in distinct processes, or in two
    simultaneously-live instances of the same class? *)

val same_sequential : t -> int -> int -> bool
(** Both statements provably run in the {e same single} process
    instance: their functions are executed by exactly one common
    non-multiple class. Intra-process ordering is then sequential. *)

val ordered_before : t -> int -> int -> bool
(** [ordered_before t sa sb]: every execution of [sa] must complete
    before any execution of [sb] begins, across processes — via a sync
    chain, because [sb]'s process is spawned after [sa], or because
    [sa]'s process is joined before [sb]. Does not cover same-process
    CFG ordering (use {!same_sequential} for that). *)

val function_live : t -> int -> bool
(** Is the function reachable from [main] through calls and spawns? *)

val prelog_required : t -> read_sid:int -> vid:int -> bool
(** Should a synchronization-unit prelog cover shared variable [vid]
    for the read at [read_sid]? [false] when every write to [vid] in
    live code is harmless for replay of that read: in the same single
    process (sequential replay handles it), provably after the read, or
    provably before every spawn of the reader's process (so the
    e-block-entry prelog already holds the written value). *)

val nclasses : t -> int
(** Number of live thread classes, [main] included (for reporting). *)

(** {2 Exposure for the communication-protocol tier}

    {!Effects} builds one action automaton per live class and {!Proto}
    explores their product; the facts it proves flow back in through
    {!refine}. *)

type class_view = {
  cv_id : int;  (** stable class id; 0 is always [main] *)
  cv_root_fid : int;  (** the function the class's process runs *)
  cv_spawn_sid : int option;  (** creating spawn statement; [None] = main *)
  cv_multi : bool;  (** may several instances be alive at once *)
}

val live_classes : t -> class_view list
(** Every live thread class, in class-id order. *)

val class_of_spawn : t -> int -> int option
(** The live class created by the spawn statement [sid], if any. *)

val class_of_join : t -> int -> int option
(** The live class a [join] at [sid] is matched to (via the unique
    reaching spawn of its handle), if any. *)

val cfgs : t -> Cfg.t array
(** The per-fid CFGs the analysis was built over (shared, do not
    mutate); lets the protocol tier avoid rebuilding them. *)

val refine :
  ?not_parallel:(int -> int -> bool) -> chains:(int * int) list -> t -> t
(** [refine ?not_parallel ~chains t] folds protocol facts back in:
    [chains] are must-ordered (pre_sid, post_sid) pairs — everything
    before [pre_sid] happens-before everything after [post_sid] — added
    to the chain set and re-closed under transitive composition (pairs
    whose functions are not solo — run by one live class, one instance
    at a time, once per instance — are dropped: the chain claim
    would not extend to the whole execution); [not_parallel sa sb] is a
    {e must}-exclusion oracle (e.g. product-level co-reachability)
    consulted as a final veto in {!may_parallel}. Both must be sound
    must-facts: the result stays an over-approximation. *)

val pp : Format.formatter -> t -> unit
(** Debug dump: classes with their roots, multiplicity and matched
    joins, plus the sync chains. *)
