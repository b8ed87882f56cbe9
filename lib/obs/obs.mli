(** The observability layer: named counters, hierarchical spans and
    phase timers over the debugger's own two phases.

    PPD's premise is a cheap execution phase and a pay-as-you-go
    debugging phase; this module lets the repository {e measure} both
    from the inside (the DeWiz idea of event-based analysis, turned on
    ourselves). Subsystems register counters at module load and wrap
    interesting regions in spans; a profiling front end ([ppd profile],
    [--profile-out]) enables collection, runs, and exports.

    {b Disabled by default, and free when disabled.} Every operation
    first reads one atomic boolean; when it is false, counters and
    spans return immediately without allocating. The target (enforced
    by the perf-smoke gate) is <2% overhead on the T1 logging path.

    {b Domain safety.} Counters are atomics; span begin/end pairs are
    tracked per domain (so nesting is per-domain, as Chrome's
    trace_event model requires); the completed-span list is under a
    mutex. All operations are safe from any domain. *)

(** {1 Enabling} *)

val enable : unit -> unit
(** Start collecting. Records the export time origin; counter values
    accumulated while disabled are impossible (ops were no-ops). *)

val disable : unit -> unit

val enabled : unit -> bool

val reset : unit -> unit
(** Zero every counter and drop every recorded span. Registered
    counters survive (registration is done at module load). *)

val now_ns : unit -> int
(** The raw monotonic clock, in nanoseconds since an arbitrary origin —
    for callers that time regions themselves (the bench harness).
    Always live, independent of {!enabled}; never wall-clock, so NTP
    adjustments cannot corrupt a measurement. *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** Registered sum counter; [add] accumulates. Re-registering a name
    returns the same counter. Use dotted names
    ([subsystem.thing.metric]). *)

val gauge_max : string -> counter
(** Registered high-watermark counter; [observe] keeps the maximum. *)

val add : counter -> int -> unit

val incr : counter -> unit

val observe : counter -> int -> unit
(** Raise a {!gauge_max} to [v] if [v] is larger (no-op on sum
    counters' semantics: it still takes the max). *)

val value : counter -> int

val counters : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name. *)

(** {1 Spans} *)

val with_span : ?cat:string -> ?arg:string -> string -> (unit -> 'a) -> 'a
(** Time [f] as a span named [name]. Records the owning domain id and
    the per-domain nesting depth; exceptions propagate but the span is
    still closed. When disabled: exactly [f ()]. [cat] defaults to
    ["span"]; [arg] is a free-form detail string (e.g. ["p0#3"]). *)

val phase : string -> (unit -> 'a) -> 'a
(** [with_span ~cat:"phase"] — the §3.2 phase clock (execution vs
    debugging). *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_arg : string option;
  sp_domain : int;  (** [Domain.self] of the domain that ran it *)
  sp_depth : int;  (** nesting depth within that domain, 0 = root *)
  sp_start_ns : int;  (** relative to the {!enable} origin *)
  sp_dur_ns : int;
}

val spans : unit -> span list
(** Completed spans in completion order. *)

(** {1 Export} *)

val to_json : unit -> Json.t
(** One JSON object: [{"version":1,"enabled":…,"counters":{…},
    "spans":[…]}]. Counter names sorted, spans in completion order, so
    the output is deterministic for a deterministic run. *)

val to_chrome_trace : unit -> string
(** The Chrome [trace_event] JSON-array format (loadable in
    [chrome://tracing] / Perfetto): one ["ph":"X"] complete event per
    span (tid = domain id), then one ["ph":"C"] counter sample per
    registered counter at the trace end. *)

val write_json : string -> unit
(** [to_json], printed by [Json.to_string], to a file. *)

val write_chrome_trace : string -> unit
