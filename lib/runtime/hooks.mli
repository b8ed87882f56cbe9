(** Instrumentation interface between the machine and observers.

    A hooks {e factory} receives a {!port} — callbacks into the running
    machine for reading variable values, the global step clock and the
    per-process event counters — and returns the event consumer. The
    logger uses the port to snapshot prelog/postlog variable values at
    e-block boundaries; the full tracer just stores events. *)

type port = {
  read_var : pid:int -> Lang.Prog.var -> Value.t;
      (** Current value: globals from the shared store, locals from the
          process's top frame. *)
  now : unit -> int;  (** Global machine step counter. *)
  next_seq : pid:int -> int;
      (** The sequence number the process's next event will carry: the
          count of events it has produced so far, whether or not they
          reached the consumer. A consumer that skips statement events
          reads its processes' final stops here. *)
}

type t = {
  on_event : pid:int -> seq:int -> Event.t -> unit;
  stmts : bool;
      (** The consumer wants statement-local events: [E_stmt] of kind
          [K_assign], [K_pred], [K_print] and [K_assert], each with its
          read list. When no attached consumer sets it, the machine
          never builds those events (the VM skips read accumulation
          too) and only accounts for them: seq bump, breakpoint check,
          program output. Boundary events — frame and process entry and
          exit, loop entry and exit, calls, returns and sync operations
          — reach every instrumented consumer regardless. *)
}

type factory = port -> t

val nil : factory
(** Consumes nothing and wants no statement events. As [hooks] it still
    makes the machine instrumented: boundary events are built and
    dropped, the baseline that isolates event production from the
    logger proper. *)

val both : factory -> factory -> factory
(** Fan events out to two observers (e.g. logger + full tracer). Wants
    statement events if either does; the other then receives them too
    and must ignore what it does not use. *)

val collect : (int * int * Event.t) list ref -> factory
(** Append [(pid, seq, event)] triples to a list (newest first); handy
    in tests. Wants every event. *)
