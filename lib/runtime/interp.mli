(** Sequential interpreter core shared by the execution-phase machine
    ("object code") and the debugging-phase emulation package.

    The core knows how to evaluate expressions (collecting reads in
    short-circuit-aware evaluation order), perform writes, manage frames
    and execute {e local} statements (assignments, predicates, prints,
    asserts). Synchronization operations, calls and returns are left to
    the driver — the real {!Machine} performs them against live
    semaphores/channels/processes, while the emulator replays them from
    the log. This split is exactly the paper's object-code vs
    emulation-package distinction (§5.3): same code, different
    surrounding protocol. *)

exception Fault of string
(** Runtime error: division by zero, uninitialised read, array index out
    of bounds, failed assertion, bad process id... The driver converts
    this into a halt. *)

type work =
  | Wstmt of Lang.Prog.stmt
  | Wloop of Lang.Prog.stmt  (** re-test of a [while] condition *)

type frame = {
  ffid : int;
  slots : Value.t array;
  mutable work : work list;
  mutable active_loops : int list;
      (** sids of the [while] loops currently executing in this frame,
          innermost first — the driver closes their loop e-blocks when a
          [return] unwinds them *)
  ret_lhs : Lang.Prog.lhs option;  (** where the caller stores the result *)
  call_sid : int option;  (** the call statement, [None] for process roots *)
}

type ctx = {
  prog : Lang.Prog.t;
  read_global : int -> Value.t;  (** by global slot *)
  write_global : int -> Value.t -> unit;
  frame : frame;
}

val make_frame :
  Lang.Prog.t ->
  fid:int ->
  args:Value.t list ->
  ret_lhs:Lang.Prog.lhs option ->
  call_sid:int option ->
  frame
(** Fresh frame: parameters bound to [args], scalars [Vundef], local
    arrays allocated zero-filled. *)

val binds_of_frame : Lang.Prog.t -> frame -> (Lang.Prog.var * Value.t) list
(** Parameter bindings, for [E_enter]/[E_proc_start] events. *)

val read_var : ctx -> Lang.Prog.var -> Value.t

val eval_int : ctx -> Lang.Prog.expr -> int * Event.rw list

val write_lhs : ctx -> Lang.Prog.lhs -> Value.t -> Event.rw list * Event.rw
(** [write_lhs ctx l v] evaluates the index (if any), performs the
    write, and returns (index reads, the write record). Writing [Vundef]
    to a scalar is allowed (it faults only when later read); writing it
    to an array element faults immediately. *)

val consume_work : frame -> unit
(** Pop the head work item (used by drivers after completing a
    driver-handled statement). *)

type local_result =
  | Event of Event.stmt_event
      (** a local statement executed; work consumed *)
  | Driver of Lang.Prog.stmt
      (** head is a sync/call/return/loop statement; work {e not}
          consumed so a blocking driver can retry it *)
  | Frame_done  (** the frame's work list is empty (fell off the end) *)

val step_local : ctx -> local_result

val loop_entry : frame -> Lang.Prog.stmt -> unit
(** Begin executing a [while] loop whose [Wstmt] is the head work item:
    convert it to the [Wloop] retest form and mark it active. The driver
    emits [E_loop_enter] around this. *)

val loop_test : ctx -> Lang.Prog.stmt -> Event.stmt_event * bool
(** One condition test of the head [Wloop]: enters the body ([true]) or
    leaves the loop ([false], driver emits [E_loop_exit]). *)
