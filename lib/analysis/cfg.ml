module P = Lang.Prog

type edge_label = Seq | True | False

type node_kind = Entry | Exit | Stmt of P.stmt

type t = {
  func : P.func;
  kinds : node_kind array;
  succs : (int * edge_label) list array;
  preds : (int * edge_label) list array;
  entry : int;
  exit : int;
  node_of_sid : int array;
}

type builder = {
  mutable bkinds : node_kind list;  (* reversed *)
  mutable nnodes : int;
  mutable edges : (int * int * edge_label) list;
}

let new_node b kind =
  let id = b.nnodes in
  b.bkinds <- kind :: b.bkinds;
  b.nnodes <- b.nnodes + 1;
  id

let add_edge b src dst label = b.edges <- (src, dst, label) :: b.edges

(* A dangling edge: a (node, label) pair waiting for its target. *)
let connect b dangling target =
  List.iter (fun (src, label) -> add_edge b src target label) dangling

(* Build the CFG of [stmts], entered via [dangling] edges; [exit_node] is
   the function EXIT (target of returns). Returns the out-dangling
   edges. *)
let rec build_stmts b dangling exit_node stmts =
  List.fold_left (fun dangling s -> build_stmt b dangling exit_node s)
    dangling stmts

and build_stmt b dangling exit_node (s : P.stmt) =
  match s.desc with
  | P.Sif (_, then_, else_) ->
    let n = new_node b (Stmt s) in
    connect b dangling n;
    let then_out = build_stmts b [ (n, True) ] exit_node then_ in
    let else_out = build_stmts b [ (n, False) ] exit_node else_ in
    then_out @ else_out
  | P.Swhile (_, body) ->
    let n = new_node b (Stmt s) in
    connect b dangling n;
    let body_out = build_stmts b [ (n, True) ] exit_node body in
    connect b body_out n;
    [ (n, False) ]
  | P.Sreturn _ ->
    let n = new_node b (Stmt s) in
    connect b dangling n;
    add_edge b n exit_node Seq;
    []
  | P.Sassign _ | P.Scall _ | P.Sspawn _ | P.Sjoin _ | P.Sp _ | P.Sv _
  | P.Ssend _ | P.Srecv _ | P.Sprint _ | P.Sassert _ ->
    let n = new_node b (Stmt s) in
    connect b dangling n;
    [ (n, Seq) ]

let build (p : P.t) (func : P.func) =
  let b = { bkinds = []; nnodes = 0; edges = [] } in
  let entry = new_node b Entry in
  let exit = new_node b Exit in
  let out = build_stmts b [ (entry, Seq) ] exit func.body in
  connect b out exit;
  let kinds = Array.of_list (List.rev b.bkinds) in
  let succs = Array.make b.nnodes [] in
  let preds = Array.make b.nnodes [] in
  (* edges were accumulated in reverse; restore source order *)
  List.iter
    (fun (src, dst, label) ->
      succs.(src) <- (dst, label) :: succs.(src);
      preds.(dst) <- (src, label) :: preds.(dst))
    b.edges;
  let node_of_sid = Array.make (Array.length p.stmts) (-1) in
  Array.iteri
    (fun id k ->
      match k with
      | Stmt s -> node_of_sid.(s.sid) <- id
      | Entry | Exit -> ())
    kinds;
  { func; kinds; succs; preds; entry; exit; node_of_sid }

let nnodes t = Array.length t.kinds

let kind t n = t.kinds.(n)

let succ_ids t n = List.map fst t.succs.(n)

let pred_ids t n = List.map fst t.preds.(n)

let is_branch t n =
  match t.kinds.(n) with
  | Stmt { desc = P.Sif _ | P.Swhile _; _ } -> true
  | Stmt _ | Entry | Exit -> false

let reachable t =
  let seen = Bitset.create (nnodes t) in
  let rec go n =
    if not (Bitset.mem seen n) then begin
      Bitset.add seen n;
      List.iter go (succ_ids t n)
    end
  in
  go t.entry;
  seen

let pp_kind ppf = function
  | Entry -> Format.pp_print_string ppf "ENTRY"
  | Exit -> Format.pp_print_string ppf "EXIT"
  | Stmt s -> Format.fprintf ppf "s%d %s" s.P.sid (P.stmt_label s)

let pp_label ppf = function
  | Seq -> ()
  | True -> Format.pp_print_string ppf "T"
  | False -> Format.pp_print_string ppf "F"

let pp ppf t =
  Format.fprintf ppf "@[<v>cfg %s:" t.func.P.fname;
  Array.iteri
    (fun n k ->
      Format.fprintf ppf "@,  %d: %a ->" n pp_kind k;
      List.iter
        (fun (dst, label) -> Format.fprintf ppf " %d%a" dst pp_label label)
        t.succs.(n))
    t.kinds;
  Format.fprintf ppf "@]"
