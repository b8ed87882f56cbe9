external monotonic_ns : unit -> int64 = "ppd_obs_monotonic_ns"

let now_ns () = Int64.to_int (monotonic_ns ())

let elapsed_ns t0 = max 0 (now_ns () - t0)
