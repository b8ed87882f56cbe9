(** The trace-everything baseline (§2): record every event of every
    process during execution.

    This is what flowback analysis would need without incremental
    tracing. It serves two purposes here: the log-size / overhead
    comparison of benchmarks T1/T2, and a test oracle — the emulation
    package must regenerate exactly the slice of this trace covered by a
    log interval (minus nested e-blocks). *)

type rec_ = { tr_pid : int; tr_seq : int; tr_step : int; tr_ev : Runtime.Event.t }

type t = { recs : rec_ array }

type state

val create : unit -> state

val factory : state -> Runtime.Hooks.factory

val finish : state -> t

val nevents : t -> int

val slice : t -> pid:int -> lo:int -> hi:int option -> Runtime.Event.t list
(** Events of [pid] with sequence number in [lo, hi) ([hi = None] means
    unbounded), in order. *)
