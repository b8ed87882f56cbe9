(** Resolved MPL programs.

    This is the representation every later phase consumes. Identifiers
    are resolved to {!var} records carrying a program-wide unique id
    [vid] (used to index variable sets in the analyses and values in
    prelogs/postlogs) and a storage slot:

    - globals live in the shared store, indexed by their global slot;
    - locals (including parameters) live in per-process frames, indexed
      by their frame slot.

    Every statement carries a program-wide unique id [sid] assigned in
    pre-order; [sid]s index the static CFG/PDG and identify program
    components in dynamic-graph nodes. [var x = e;] declarations are
    desugared to assignments, [var x;]/[var a\[n\];] reserve a slot only,
    and [for] loops are desugared to [while] loops, so the statement
    vocabulary seen by analyses is minimal. *)

type ty = Tint | Tarr of int  (** array length *)

type scope =
  | Global of int  (** slot in the shared store *)
  | Local of int  (** slot in the owning function's frame *)

type var = {
  vid : int;  (** program-wide unique id *)
  vname : string;
  vty : ty;
  vscope : scope;
  vfid : int;  (** owning function id, or -1 for globals *)
}

type sem = { sem_id : int; sem_name : string; sem_init : int }

type chan = {
  ch_id : int;
  ch_name : string;
  ch_cap : int option;
      (** [None] = unbounded buffer; [Some 0] = synchronous (blocking
          send); [Some k] = bounded buffer of capacity [k]. *)
}

type expr =
  | Eint of int
  | Ebool of bool
  | Evar of var
  | Eidx of var * expr
  | Eunop of Ast.unop * expr
  | Ebinop of Ast.binop * expr * expr

type lhs = Lvar of var | Lidx of var * expr

type call = { callee : int; cargs : expr list }

type stmt = { sid : int; loc : Loc.t; desc : stmt_desc }

and stmt_desc =
  | Sassign of lhs * expr
  | Scall of lhs option * call
  | Sspawn of lhs option * call
  | Sjoin of lhs option * expr
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sreturn of expr option
  | Sp of sem
  | Sv of sem
  | Ssend of chan * expr
  | Srecv of chan * lhs
  | Sprint of expr
  | Sassert of expr

type func = {
  fid : int;
  fname : string;
  params : var list;
  locals : var list;  (** every frame variable, parameters first *)
  nslots : int;  (** frame size *)
  body : stmt list;
  floc : Loc.t;
  returns_value : bool;
}

type ginit = Ginit_int of int | Ginit_arr of int

type t = {
  funcs : func array;  (** indexed by [fid] *)
  globals : var array;  (** indexed by global slot *)
  global_inits : ginit array;
  sems : sem array;
  chans : chan array;
  main_fid : int;
  nvars : int;  (** total number of distinct variables, globals first *)
  stmts : stmt array;  (** indexed by [sid] *)
  stmt_fid : int array;  (** [sid] -> owning function *)
  vars : var array;  (** indexed by [vid] *)
}

val find_func : t -> string -> func option
(** Look a function up by name. *)

val is_global : var -> bool

val is_shared : var -> bool
(** In MPL every global is shared between processes; alias of
    {!is_global}, named for readability at call sites that reason about
    inter-process visibility. *)

val expr_reads : expr -> var list
(** Variables read by an expression, in evaluation order, duplicates
    preserved. Reading [a\[i\]] reads both [a] and the variables of [i]. *)

val lhs_writes : lhs -> var
(** The variable written by an assignment target ([a\[i\] = ..] writes
    [a]). *)

val lhs_index_reads : lhs -> var list
(** Variables read while evaluating the target's index expression. *)

val stmt_label : stmt -> string
(** Short display label used for graph nodes, e.g. ["d = SubD(..)"],
    ["(d > 0)"], ["P(mutex)"]. *)

val pp_expr : Format.formatter -> expr -> unit

val iter_stmts : (stmt -> unit) -> stmt list -> unit
(** Pre-order traversal of a statement forest, visiting nested bodies. *)
