(** The repository's one JSON codec (DESIGN §14.1).

    Every JSON output — the serve protocol, [--format=json] reports,
    [ppd fsck], profiles and the bench tables — is built as a {!t} and
    printed by {!to_string}: a strict parser (UTF-8 validated,
    depth-bounded, finite numbers only) and a canonical printer. No
    pretty-printing, no trailing newline. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Canonical single-line rendering: object fields in the given order,
    strings escaped per RFC 8259 (control characters as [\u00XX]).
    JSON has no NaN or infinity, so a non-finite [Float] prints as
    [null]. *)

val parse : string -> (t, string) result
(** Strict parse of one complete JSON value (surrounding whitespace
    allowed, nothing else). Rejects trailing garbage, invalid UTF-8 in
    strings, unknown escapes, number literals whose value is not finite
    (such as [1e999]), and nesting deeper than 64. The error string is
    a human-readable reason. *)

(* Accessors used by the dispatcher; all total. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_int : t -> int option

val to_str : t -> string option
