(** A monotonic, NTP-immune nanosecond clock (CLOCK_MONOTONIC).

    Every timing in the repository — phase spans, per-replay timings,
    the benchmark harness — goes through this module. Wall-clock time
    ([Unix.gettimeofday]) steps when the host corrects its clock, which
    can flip the sign of a short measurement; the monotonic clock only
    ever moves forward. *)

val now_ns : unit -> int
(** Nanoseconds from an arbitrary fixed origin (boot, typically). The
    origin is meaningless; only differences are. Fits an OCaml [int]
    for ~146 years of uptime. *)

val elapsed_ns : int -> int
(** [elapsed_ns t0] is [now_ns () - t0], clamped to be non-negative. *)
