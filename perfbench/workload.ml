(* What main needs from a workload: a set-up instance that can run
   closed-loop phases, traced or not, and report its own numbers. *)

type instance = {
  measure : traced:bool -> seconds:float -> Common.phase;
  bytes_per_kstep : unit -> float;
      (** segment bytes per 1000 recorded steps of the logs this
          workload writes; exact for a seed *)
  layers : Common.phase -> (string * float) list;
      (** per-layer metrics of a traced phase, beyond the span means
          main derives itself *)
  teardown : unit -> unit;
}

type t = {
  name : string;
  per_layer : string list;
      (** the per-layer metrics this workload computes; the others
          print 0 *)
  setup : seed:int -> smoke:bool -> instance;
}
