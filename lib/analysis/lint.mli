(** Unified static lint over MPL programs: a registry of analysis
    passes that accumulate {!Lang.Diag.diagnostic}s with stable
    [PPD0xx] codes (registered in README.md).

    Passes share one {!Mhp.t} and the per-function CFGs, so `ppd lint`
    pays for the parallel-structure analysis once:

    - [races] — {!Static_race.analyze} refined by statement-level MHP:
      [PPD010] read/write, [PPD011] write/write.
    - [deadlocks] — lock-order cycles: the held→acquired relation from
      {!Static_race.held_at} is transitively closed, and two
      acquisition sites on a cycle that {!Mhp.may_parallel} admits
      become a [PPD020] candidate (plus [P] on an already-held
      semaphore as a self-deadlock).
    - [unreachable] — [PPD030] for the first statement of each
      CFG-unreachable run inside live functions, [PPD031] for functions
      never called or spawned.
    - [uninit] — [PPD040] when a scalar local's read may see the
      ENTRY (uninitialised) definition per {!Reaching_defs}.
    - [proto-deadlock] — [PPD070] for each {!Proto} deadlock
      certificate (an abstract interleaving ending in a cyclic wait,
      orphan receive or semaphore starvation).
    - [orphan-comm] — [PPD071] for sends whose message can stay
      buffered past every clean termination and recvs that can never
      fire.
    - [sem-leak] — [PPD072] when a semaphore can end the program short
      of its initial tokens (held at exit).

    The protocol result is computed lazily: only the [proto-*]/
    [sem-leak] passes pay for the product exploration. *)

type ctx = {
  prog : Lang.Prog.t;
  cfgs : Cfg.t array;
  mhp : Mhp.t;
  proto : Proto.t Lazy.t;
}

type pass = {
  pass_name : string;
  pass_doc : string;
  pass_run : ctx -> Lang.Diag.collector -> unit;
}

val passes : pass list
(** The registry, in report order. *)

val pass_names : string list

exception Unknown_pass of string

val run :
  ?only:string list -> ?mhp:Mhp.t -> Lang.Prog.t -> Lang.Diag.diagnostic list
(** Run the selected passes (default: all) and return the findings in
    stable order. [mhp], when given, is used in place of the relation
    the passes would compute (e.g. a protocol-refined one). Raises
    {!Unknown_pass} for a name not in {!pass_names}. *)
