(** Static potential-race detection (§7: "A second (and major) issue is
    how to detect all potential race conditions").

    The dynamic detector (Definitions 6.1–6.4, over the parallel dynamic
    graph) reports races in one execution instance. This complementary
    analysis inspects the program text: two shared-variable accesses are
    a {e potential} race when

    - the statements may happen in parallel per {!Mhp} (spawn/join
      structure, matched send/recv pairs and must-ordered V→P edges all
      discharge pairs an older function-granular call-closure view
      had to keep),
    - at least one is a write, and
    - no semaphore is {e must-held} around both (an intraprocedural
      lockset analysis: a semaphore is held at a statement when every
      CFG path from entry performs [P(s)] without a later [V(s)]).

    Everything {!Mhp} cannot prove ordered stays flagged, so the
    analysis over-approximates: every race the dynamic detector can
    observe in some schedule is reported (property-tested), alongside
    possible false positives — the paper's "one cannot tell if a
    parallel program is race-free unless one considers every possible
    event". *)

type access = {
  acc_sid : int;
  acc_fid : int;
  acc_var : Lang.Prog.var;
  acc_write : bool;
  acc_locks : int list;  (** sem ids must-held at the access *)
}

type report = {
  pr_var : Lang.Prog.var;
  pr_a1 : access;
  pr_a2 : access;
  pr_write_write : bool;
}

val shared_accesses : Lang.Prog.t -> access list
(** Every shared-variable access in the program with its lockset,
    computed with interprocedural summaries ({!compute_summaries}):
    acquiring a lock inside a helper protects the caller's accesses. *)

type summaries
(** Per-function semaphore effect summaries: which semaphores a call
    may transitively release, and which it must hold on every return.
    Built over {!Callgraph.sccs} callees-first; recursive functions
    promise nothing (must-acquire empty) but still report their may
    releases, so the lockset stays a sound must-analysis. *)

val compute_summaries : Lang.Prog.t -> summaries

val held_at : ?summaries:summaries -> Lang.Prog.t -> Cfg.t -> int -> int list
(** Semaphores must-held at the entry of a CFG node (exposed for
    tests). Without [summaries], any call conservatively clobbers every
    lock. *)

val analyze : ?mhp:Mhp.t -> Lang.Prog.t -> report list
(** All potential races, deduplicated and deterministically ordered.
    [mhp] avoids recomputing an {!Mhp.t} the caller already has. *)

val pp_report : Lang.Prog.t -> Format.formatter -> report list -> unit
