(** Diagnostics for the MPL front end and the static analyses.

    Two regimes share this module:

    - The front-end passes (lexer, parser, resolver, type checker)
      report the {e first} failure by raising {!Error} with the
      offending location — compilation cannot meaningfully continue, so
      a single-error exception is the right shape there.
    - The lint passes ({!Analysis.Lint}) accumulate {e many} findings
      into a {!collector}: each finding carries a stable [PPD0xx] code,
      a {!severity}, a primary location, and optional related
      locations. Reports render as human-readable text ({!pp_human}) or
      JSON ({!json_of_diagnostics}).

    Diagnostic codes are registered in README.md; [PPD001] is reserved
    for front-end errors converted via {!of_error}. *)

exception Error of Loc.t * string

val error : Loc.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error loc fmt ...] raises {!Error} with a formatted message. *)

val pp_error : Format.formatter -> Loc.t * string -> unit
(** Renders ["error at LINE:COL: MSG"]. *)

val protect : (unit -> 'a) -> ('a, Loc.t * string) result
(** [protect f] runs [f], converting a raised {!Error} into [Error]. *)

(** {1 Accumulating diagnostics} *)

type severity = Sev_error | Sev_warning | Sev_note

type diagnostic = {
  d_code : string;  (** stable code, e.g. ["PPD010"] *)
  d_severity : severity;
  d_loc : Loc.t;  (** primary location ({!Loc.none} renders as [?]) *)
  d_message : string;
  d_related : (Loc.t * string) list;
      (** secondary locations, e.g. the other access of a race pair *)
}

type collector

val create : unit -> collector

val emit :
  collector ->
  ?related:(Loc.t * string) list ->
  code:string ->
  severity:severity ->
  Loc.t ->
  ('a, Format.formatter, unit, unit) format4 ->
  'a
(** [emit c ~code ~severity loc fmt ...] records one finding. *)

val of_error : Loc.t * string -> diagnostic
(** Wrap a front-end {!Error} payload as a [PPD001] error finding. *)

val diagnostics : collector -> diagnostic list
(** Deduplicated findings in stable order: code, then location, then
    message. *)

val count : collector -> severity -> int

val is_empty : collector -> bool

val pp_human : Format.formatter -> diagnostic list -> unit
(** Full report: one line per finding plus a severity tally, or
    ["no findings"]. *)

val json_of_diagnostic : diagnostic -> string

val json_of_diagnostics : diagnostic list -> string
(** [{"findings":[...],"count":N}]; locations are
    [{"line":L,"col":C}] or [null] for synthesised nodes. *)
