(** Runtime values of MPL.

    Scalars are integers; arrays are mutable integer arrays; [Vundef]
    marks uninitialised locals (reading one is a runtime fault, which is
    itself a useful debugging signal). *)

type t = Vint of int | Varr of int array | Vundef

exception Undefined
(** Raised by the integer projections on [Vundef]. *)

val to_int : t -> int
(** @raise Undefined on [Vundef]; @raise Invalid_argument on arrays. *)

val copy : t -> t
(** Deep copy (arrays are duplicated) — used by prelog/postlog
    snapshots so later mutation cannot corrupt the log. *)

val equal : t -> t -> bool
(** Structural equality (arrays by contents). *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
