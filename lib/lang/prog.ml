type ty = Tint | Tarr of int

type scope = Global of int | Local of int

type var = {
  vid : int;
  vname : string;
  vty : ty;
  vscope : scope;
  vfid : int;
}

type sem = { sem_id : int; sem_name : string; sem_init : int }

type chan = { ch_id : int; ch_name : string; ch_cap : int option }

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
  locals : var list;
  nslots : int;
  body : stmt list;
  floc : Loc.t;
  returns_value : bool;
}

type ginit = Ginit_int of int | Ginit_arr of int

type t = {
  funcs : func array;
  globals : var array;
  global_inits : ginit array;
  sems : sem array;
  chans : chan array;
  main_fid : int;
  nvars : int;
  stmts : stmt array;
  stmt_fid : int array;
  vars : var array;
}

let find_func p name =
  Array.find_opt (fun f -> String.equal f.fname name) p.funcs

let is_global v = match v.vscope with Global _ -> true | Local _ -> false

let is_shared = is_global

let rec expr_reads = function
  | Eint _ | Ebool _ -> []
  | Evar v -> [ v ]
  | Eidx (v, i) -> v :: expr_reads i
  | Eunop (_, e) -> expr_reads e
  | Ebinop (_, a, b) -> expr_reads a @ expr_reads b

let lhs_writes = function Lvar v -> v | Lidx (v, _) -> v

let lhs_index_reads = function Lvar _ -> [] | Lidx (_, i) -> expr_reads i

let rec pp_expr ppf = function
  | Eint n -> Format.pp_print_int ppf n
  | Ebool b -> Format.pp_print_bool ppf b
  | Evar v -> Format.pp_print_string ppf v.vname
  | Eidx (v, i) -> Format.fprintf ppf "%s[%a]" v.vname pp_expr i
  | Eunop (op, e) -> Format.fprintf ppf "%a%a" Ast.pp_unop op pp_expr_atom e
  | Ebinop (op, a, b) ->
    Format.fprintf ppf "%a %a %a" pp_expr_atom a Ast.pp_binop op pp_expr_atom b

and pp_expr_atom ppf e =
  match e with
  | Ebinop _ -> Format.fprintf ppf "(%a)" pp_expr e
  | Eint _ | Ebool _ | Evar _ | Eidx _ | Eunop _ -> pp_expr ppf e

let pp_lhs ppf = function
  | Lvar v -> Format.pp_print_string ppf v.vname
  | Lidx (v, i) -> Format.fprintf ppf "%s[%a]" v.vname pp_expr i

let pp_target ppf = function
  | None -> ()
  | Some l -> Format.fprintf ppf "%a = " pp_lhs l

let pp_args ppf args =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_expr ppf args

let pp_stmt_head ppf s =
  match s.desc with
  | Sassign (l, e) -> Format.fprintf ppf "%a = %a" pp_lhs l pp_expr e
  | Scall (l, c) -> Format.fprintf ppf "%acall#%d(%a)" pp_target l c.callee pp_args c.cargs
  | Sspawn (l, c) ->
    Format.fprintf ppf "%aspawn#%d(%a)" pp_target l c.callee pp_args c.cargs
  | Sjoin (l, e) -> Format.fprintf ppf "%ajoin(%a)" pp_target l pp_expr e
  | Sif (c, _, _) -> Format.fprintf ppf "if (%a)" pp_expr c
  | Swhile (c, _) -> Format.fprintf ppf "while (%a)" pp_expr c
  | Sreturn None -> Format.pp_print_string ppf "return"
  | Sreturn (Some e) -> Format.fprintf ppf "return %a" pp_expr e
  | Sp s -> Format.fprintf ppf "P(%s)" s.sem_name
  | Sv s -> Format.fprintf ppf "V(%s)" s.sem_name
  | Ssend (c, e) -> Format.fprintf ppf "send(%s, %a)" c.ch_name pp_expr e
  | Srecv (c, l) -> Format.fprintf ppf "recv(%s, %a)" c.ch_name pp_lhs l
  | Sprint e -> Format.fprintf ppf "print(%a)" pp_expr e
  | Sassert e -> Format.fprintf ppf "assert(%a)" pp_expr e

let stmt_label s =
  match s.desc with
  | Sif (c, _, _) | Swhile (c, _) -> Format.asprintf "(%a)" pp_expr c
  | _ -> Format.asprintf "%a" pp_stmt_head s

let rec iter_stmts f stmts =
  List.iter
    (fun s ->
      f s;
      match s.desc with
      | Sif (_, t, e) ->
        iter_stmts f t;
        iter_stmts f e
      | Swhile (_, b) -> iter_stmts f b
      | Sassign _ | Scall _ | Sspawn _ | Sjoin _ | Sreturn _ | Sp _ | Sv _
      | Ssend _ | Srecv _ | Sprint _ | Sassert _ ->
        ())
    stmts
