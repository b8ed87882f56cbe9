(** The one rendering path for the answers both front ends give.

    Both the one-shot CLI and the daemon produce their
    `flowback`/`replay`/`fsck` reports through these functions, so a daemon
    response is byte-identical to the CLI answer on the same saved log
    {e by construction} — there is no second copy of the format
    strings to drift. The CLI renders into stdout; the daemon renders
    into a buffer that becomes the JSON result's [output] field. *)

type sink = {
  out : string -> unit;  (** plain text (Printf-style lines) *)
  ppf : Format.formatter;
      (** boxed output (trees, graph dumps); shares the destination
          with [out], and every use here ends flushed so the two
          interleave in call order *)
}

val stdout_sink : unit -> sink
(** [print_string] + [Format.std_formatter] — the CLI's historical
    behaviour, including partial output when an exception aborts the
    report midway. *)

val buffer_sink : Buffer.t -> sink

val header : sink -> path:string -> version:int -> nprocs:int -> unit
(** The "debugging saved log …" banner both subcommands print. *)

val flowback_report :
  sink ->
  depth:int ->
  dot:string option ->
  Ppd.Controller.t ->
  int option ->
  unit
(** The flowback answer for an already-located root node: dependence
    tree (or "no events to debug"), hole lines, the "emulated N of M"
    stats line, and the optional dot dump. *)

val replay_report :
  sink -> dump:bool -> nprocs:int -> Ppd.Controller.t -> unit
(** Batch-build every interval of every process (through the
    controller's pool when it has one) and report the graph totals,
    holes, and the optional deterministic graph dump. *)

val fsck_json : path:string -> Store.Segment.fsck_report -> Json.t
(** The [ppd fsck] damage report; the daemon's [fsck] result is the
    same value. *)
