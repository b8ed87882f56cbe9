(** Raw (unresolved) abstract syntax of MPL, as produced by the parser.

    Identifiers are plain strings; {!Resolve} turns this into the
    slot-indexed {!Prog} representation that all later phases consume.

    MPL is deliberately close to the C fragment used throughout the
    paper: functions, scalar and array variables, structured control
    flow, shared globals, semaphores, message channels and
    process creation. Function calls appear only as complete right-hand
    sides of assignments or as call statements, so every call site is a
    distinct statement — exactly the granularity at which the paper's
    dynamic graphs introduce sub-graph nodes. *)

type unop = Neg | Not

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Eq
  | Neq
  | Lt
  | Leq
  | Gt
  | Geq
  | And
  | Or

type expr = { eloc : Loc.t; edesc : expr_desc }

and expr_desc =
  | Int of int
  | Bool of bool
  | Var of string
  | Index of string * expr  (** [a\[e\]] *)
  | Unop of unop * expr
  | Binop of binop * expr * expr

(** Left-hand sides of assignments and receive targets. *)
type lhs = Lvar of string | Lindex of string * expr

(** A call to a user function: callee name and actual arguments. *)
type call = { cname : string; cargs : expr list; cloc : Loc.t }

type stmt = { sloc : Loc.t; sdesc : stmt_desc }

and stmt_desc =
  | Decl of string * expr option  (** [var x;] or [var x = e;] *)
  | Decl_array of string * int  (** [var a\[n\];] *)
  | Assign of lhs * expr
  | Call of lhs option * call  (** [f(..);] or [x = f(..);] *)
  | Spawn of lhs option * call  (** [spawn f(..);] or [x = spawn f(..);] *)
  | Join of lhs option * expr  (** [join(e);] or [x = join(e);] *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | For of stmt * expr * stmt * stmt list
      (** [for (init; cond; step) body] — desugared by {!Resolve}. *)
  | Return of expr option
  | Sem_p of string  (** [P(s);] *)
  | Sem_v of string  (** [V(s);] *)
  | Send of string * expr  (** [send(c, e);] *)
  | Recv of string * lhs  (** [recv(c, x);] *)
  | Print of expr
  | Assert of expr

type global_init = Gscalar of expr option | Garray of int

type topdecl =
  | Gshared of string * global_init * Loc.t
      (** [shared int g = e;] / [shared int a\[n\];] — all globals are
          shared between processes. *)
  | Gsem of string * int * Loc.t  (** [sem s = n;] *)
  | Gchan of string * int option * Loc.t
      (** [chan c;] (unbounded), [chan c\[0\];] (synchronous / blocking
          send), [chan c\[k\];] (bounded). *)
  | Gfunc of func

and func = {
  fname : string;
  fparams : string list;
  fbody : stmt list;
  floc : Loc.t;
}

type program = topdecl list

val program_equal : program -> program -> bool
(** Structural equality ignoring locations. *)

val pp_unop : Format.formatter -> unop -> unit

val pp_binop : Format.formatter -> binop -> unit

val binop_prec : binop -> int
(** Binding strength used by the parser and pretty-printer; higher binds
    tighter. *)
