(** The fine-grained event vocabulary of program execution.

    Every observable step of a process — a statement execution, a frame
    entry/exit, process start/stop — is one event. Events are pure data:
    the logger turns a thin selection of them into log entries
    (incremental tracing), the full tracer records all of them (the
    trace-everything baseline of §2), and the emulation package
    re-produces them during the debugging phase for the dynamic-graph
    builder.

    Events are identified by {!eref} = (process id, per-process sequence
    number); synchronization payloads carry the refs needed to construct
    the synchronization edges of the parallel dynamic graph (§6.2). *)

type eref = { epid : int; eseq : int }

val pp_eref : Format.formatter -> eref -> unit

(** One variable access with the transferred value (array accesses are
    attributed to the whole array variable; [value] is the element). *)
type rw = { var : Lang.Prog.var; value : Value.t }

type kind =
  | K_assign
  | K_pred of bool  (** [if]/[while] predicate with its outcome *)
  | K_call of { callee : int; args : Value.t list }
      (** call statement: frame pushed *)
  | K_call_return of { callee : int; ret : Value.t option }
      (** attributed to the call statement when the callee returns;
          [write] holds the assignment of the returned value *)
  | K_return of { value : Value.t option }
  | K_p of { sem : int; src : eref option; was_blocked : bool }
      (** successful P; [src] is the V that provided the token, [None]
          for an initial credit *)
  | K_v of { sem : int }
  | K_send of { chan : int; value : int }
  | K_send_unblocked of { chan : int; by : eref }
      (** a synchronous sender resuming; [by] is the receive event *)
  | K_recv of { chan : int; value : int; src : eref }
      (** [src] is the send event *)
  | K_spawn of { child : int; callee : int; args : Value.t list }
  | K_join of { child : int; result : Value.t option; child_exit : eref }
  | K_print of { value : Value.t }
  | K_assert of { ok : bool }

type stmt_event = {
  sid : int;
  reads : rw list;  (** in evaluation order (short-circuit aware) *)
  write : rw option;
  kind : kind;
}

type t =
  | E_stmt of stmt_event
  | E_enter of {
      fid : int;
      call_sid : int option;
      binds : (Lang.Prog.var * Value.t) list;  (** parameter bindings *)
    }
  | E_leave of { fid : int; call_sid : int option; ret : Value.t option }
  | E_proc_start of {
      fid : int;
      binds : (Lang.Prog.var * Value.t) list;
      spawn : eref option;  (** the parent's spawn event; [None] for main *)
    }
  | E_proc_exit of { fid : int; result : Value.t option }
  | E_loop_enter of { sid : int }
      (** a [while] loop's execution begins (before the first condition
          test) — the boundary at which a loop e-block's prelog is taken
          (§5.4) *)
  | E_loop_exit of {
      sid : int;
      writes : (Lang.Prog.var * Value.t) list option;
    }
      (** the loop's execution ended. [writes] is [None] for a normally
          executed loop; the emulation package sets it to the postlog
          values when it skips a loop e-block, so graph builders know
          which variables the collapsed loop node defines. *)

val sid_of : t -> int option

val pp_kind : Format.formatter -> kind -> unit

val pp : Format.formatter -> t -> unit
