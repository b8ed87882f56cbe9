module P = Lang.Prog

type node_kind =
  | N_entry of int
  | N_exit of int
  | N_singular of int
  | N_subgraph of { sid : int; callee : int }
  | N_loop of int
  | N_param of int
  | N_external of P.var
  | N_hole of { hole_lo : int; hole_hi : int }

type node = {
  nd_id : int;
  nd_ref : Runtime.Event.eref option;
  nd_kind : node_kind;
  nd_pid : int;
  nd_owner : int option;
  nd_label : string;
  mutable nd_value : Runtime.Value.t option;
}

type edge_kind = Flow | Data of P.var | Dparam of int | Control | Sync

(* Nodes and edges live in fixed-size chunks: growing allocates one
   more chunk and never copies the filled ones, so a large graph pays
   no doubling spike and a small one pays for one chunk. Only the
   chunk directory (one slot per [chunk_len] entries) doubles. *)
let chunk_bits = 8

let chunk_len = 1 lsl chunk_bits

let chunk_mask = chunk_len - 1

(* [dir] with a fresh chunk for entry [i], the first of its chunk:
   entries are only ever appended, so a chunk is needed exactly when
   [i land chunk_mask = 0]. [width] cells per entry, set to [fill]. *)
let add_chunk dir i ~width ~fill =
  let k = i lsr chunk_bits in
  let dir =
    if k < Array.length dir then dir
    else begin
      let d = Array.make (max 4 (2 * Array.length dir)) [||] in
      Array.blit dir 0 d 0 (Array.length dir);
      d
    end
  in
  dir.(k) <- Array.make (chunk_len * width) fill;
  dir

(* An edge is [stride] ints: its endpoints, its kind code, and the next
   (older) edge on its destination's incoming chain and on its source's
   outgoing chain; -1 ends a chain. *)
let stride = 5

let f_src = 0

let f_dst = 1

let f_kind = 2

let f_next_in = 3

let f_next_out = 4

(* Node ids by event reference, hashed without the generic traversal. *)
module Refs = Hashtbl.Make (struct
  type t = Runtime.Event.eref

  let equal (a : t) (b : t) = a.epid = b.epid && a.eseq = b.eseq

  let hash (r : t) = ((r.epid * 1_000_003) + r.eseq) land max_int
end)

type t = {
  mutable nodes : node array array;
  mutable heads : int array array;
      (* two ints per node: its newest incoming and newest outgoing edge *)
  mutable edges : int array array;
  mutable n : int;
  mutable nedges : int;
  mutable vars : P.var option array;  (* by vid: the variable of [Data] codes *)
  by_ref : int Refs.t;
  mutable externals_ : (int * P.var) list;
}

let create () =
  {
    nodes = [||];
    heads = [||];
    edges = [||];
    n = 0;
    nedges = 0;
    vars = [||];
    by_ref = Refs.create 64;
    externals_ = [];
  }

let dummy =
  {
    nd_id = -1;
    nd_ref = None;
    nd_kind = N_entry (-1);
    nd_pid = -1;
    nd_owner = None;
    nd_label = "";
    nd_value = None;
  }

let nnodes t = t.n

let nedges t = t.nedges

let node t i =
  if i < 0 || i >= t.n then invalid_arg "Dyn_graph.node"
  else t.nodes.(i lsr chunk_bits).(i land chunk_mask)

let head t i dir = t.heads.(i lsr chunk_bits).((2 * (i land chunk_mask)) + dir)

let set_head t i dir e =
  t.heads.(i lsr chunk_bits).((2 * (i land chunk_mask)) + dir) <- e

let field t e f = t.edges.(e lsr chunk_bits).((stride * (e land chunk_mask)) + f)

let add_node t ?ref_ ?owner ?value ~pid ~kind ~label () =
  let id = t.n in
  if id land chunk_mask = 0 then begin
    t.nodes <- add_chunk t.nodes id ~width:1 ~fill:dummy;
    t.heads <- add_chunk t.heads id ~width:2 ~fill:(-1)
  end;
  t.nodes.(id lsr chunk_bits).(id land chunk_mask) <-
    {
      nd_id = id;
      nd_ref = ref_;
      nd_kind = kind;
      nd_pid = pid;
      nd_owner = owner;
      nd_label = label;
      nd_value = value;
    };
  t.n <- id + 1;
  (match ref_ with Some r -> Refs.replace t.by_ref r id | None -> ());
  id

(* Kinds as ints, equal exactly when [add_edge] must treat two edges as
   the same: a [Data] edge is identified by its variable's vid. *)
let code_of_kind = function
  | Flow -> 0
  | Control -> 1
  | Sync -> 2
  | Data v -> 3 + (2 * v.P.vid)
  | Dparam i ->
    if i < 0 then invalid_arg "Dyn_graph.add_edge: negative Dparam";
    4 + (2 * i)

let kind_of_code t c =
  match c with
  | 0 -> Flow
  | 1 -> Control
  | 2 -> Sync
  | c when c land 1 = 1 -> Data (Option.get t.vars.((c - 3) / 2))
  | c -> Dparam ((c - 4) / 2)

let note_var t (v : P.var) =
  let len = Array.length t.vars in
  if v.vid >= len then begin
    let vars = Array.make (max (v.vid + 1) (2 * len)) None in
    Array.blit t.vars 0 vars 0 len;
    t.vars <- vars
  end;
  if Option.is_none t.vars.(v.vid) then t.vars.(v.vid) <- Some v

(* Whether the incoming chain from edge [e] holds an edge from [src]
   with kind [code]. *)
let rec has_in edges e ~src ~code =
  e >= 0
  &&
  let c = edges.(e lsr chunk_bits) and o = stride * (e land chunk_mask) in
  (c.(o + f_src) = src && c.(o + f_kind) = code)
  || has_in edges c.(o + f_next_in) ~src ~code

let add_edge t ~src ~dst ~kind =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Dyn_graph.add_edge: bad node id";
  let code = code_of_kind kind in
  if not (has_in t.edges (head t dst 0) ~src ~code) then begin
    (match kind with Data v -> note_var t v | _ -> ());
    let e = t.nedges in
    if e land chunk_mask = 0 then
      t.edges <- add_chunk t.edges e ~width:stride ~fill:0;
    let c = t.edges.(e lsr chunk_bits) and o = stride * (e land chunk_mask) in
    c.(o + f_src) <- src;
    c.(o + f_dst) <- dst;
    c.(o + f_kind) <- code;
    c.(o + f_next_in) <- head t dst 0;
    c.(o + f_next_out) <- head t src 1;
    set_head t dst 0 e;
    set_head t src 1 e;
    t.nedges <- e + 1
  end

(* A chain runs newest first, so consing while walking it yields the
   edges oldest first. *)
let chain t i ~dir ~far ~next =
  if i < 0 || i >= t.n then invalid_arg "Dyn_graph.preds/succs";
  let rec walk e acc =
    if e < 0 then acc
    else
      walk (field t e next)
        ((field t e far, kind_of_code t (field t e f_kind)) :: acc)
  in
  walk (head t i dir) []

let preds t i = chain t i ~dir:0 ~far:f_src ~next:f_next_in

let succs t i = chain t i ~dir:1 ~far:f_dst ~next:f_next_out

let find_ref t r = Refs.find_opt t.by_ref r

let set_value t i v = (node t i).nd_value <- Some v

let members t sub =
  let out = ref [] in
  for i = t.n - 1 downto 0 do
    if (node t i).nd_owner = Some sub then out := i :: !out
  done;
  !out

let externals t = t.externals_

let mark_external t id var = t.externals_ <- (id, var) :: t.externals_

let resolve_external t id =
  t.externals_ <- List.filter (fun (i, _) -> i <> id) t.externals_

let pp_kind ppf = function
  | N_entry fid -> Format.fprintf ppf "entry(f%d)" fid
  | N_exit fid -> Format.fprintf ppf "exit(f%d)" fid
  | N_singular sid -> Format.fprintf ppf "s%d" sid
  | N_subgraph { sid; callee } -> Format.fprintf ppf "sub(s%d,f%d)" sid callee
  | N_loop sid -> Format.fprintf ppf "loop(s%d)" sid
  | N_param i -> Format.fprintf ppf "%%%d" i
  | N_external v -> Format.fprintf ppf "ext(%s)" v.P.vname
  | N_hole { hole_lo; hole_hi } ->
    Format.fprintf ppf "hole(%d-%d)" hole_lo hole_hi

let pp_node ppf n =
  Format.fprintf ppf "#%d p%d %a \"%s\"" n.nd_id n.nd_pid pp_kind n.nd_kind
    n.nd_label;
  (match n.nd_value with
  | None -> ()
  | Some v -> Format.fprintf ppf " = %a" Runtime.Value.pp v);
  match n.nd_owner with
  | None -> ()
  | Some o -> Format.fprintf ppf " in #%d" o

let pp_edge_kind ppf = function
  | Flow -> Format.pp_print_string ppf "flow"
  | Data v -> Format.fprintf ppf "data:%s" v.P.vname
  | Dparam i -> Format.fprintf ppf "param:%%%d" i
  | Control -> Format.pp_print_string ppf "ctrl"
  | Sync -> Format.pp_print_string ppf "sync"

let pp ppf t =
  Format.fprintf ppf "@[<v>dynamic graph (%d nodes, %d edges):" t.n t.nedges;
  for i = 0 to t.n - 1 do
    Format.fprintf ppf "@,%a" pp_node (node t i);
    let incoming = preds t i in
    List.iter
      (fun (src, k) -> Format.fprintf ppf "@,   <- #%d [%a]" src pp_edge_kind k)
      incoming
  done;
  Format.fprintf ppf "@]"

let dot_escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let to_dot t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph ppd {\n  rankdir=TB;\n  node [shape=ellipse];\n";
  (* group nodes by owner for clusters *)
  let top = ref [] in
  let by_owner = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    match (node t i).nd_owner with
    | None -> top := i :: !top
    | Some o ->
      Hashtbl.replace by_owner o (i :: (Option.value ~default:[] (Hashtbl.find_opt by_owner o)))
  done;
  let emit_node i =
    let n = node t i in
    let shape =
      match n.nd_kind with
      | N_subgraph _ | N_loop _ -> "box"
      | N_external _ -> "diamond"
      | N_hole _ -> "octagon"
      | N_entry _ | N_exit _ -> "plaintext"
      | N_singular _ | N_param _ -> "ellipse"
    in
    let label =
      match n.nd_value with
      | Some v -> Printf.sprintf "%s = %s" n.nd_label (Runtime.Value.to_string v)
      | None -> n.nd_label
    in
    Buffer.add_string b
      (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" i (dot_escape label)
         shape)
  in
  List.iter emit_node (List.rev !top);
  Hashtbl.iter
    (fun owner members ->
      Buffer.add_string b
        (Printf.sprintf "  subgraph cluster_%d {\n    label=\"%s\";\n" owner
           (dot_escape (node t owner).nd_label));
      List.iter
        (fun i ->
          let n = node t i in
          Buffer.add_string b
            (Printf.sprintf "    n%d [label=\"%s\"];\n" i (dot_escape n.nd_label)))
        (List.rev members);
      Buffer.add_string b "  }\n")
    by_owner;
  for dst = 0 to t.n - 1 do
    List.iter
      (fun (src, k) ->
        let style, label =
          match k with
          | Flow -> ("dotted", "")
          | Data v -> ("solid", v.P.vname)
          | Dparam i -> ("solid", Printf.sprintf "%%%d" i)
          | Control -> ("dashed", "")
          | Sync -> ("bold", "sync")
        in
        Buffer.add_string b
          (Printf.sprintf "  n%d -> n%d [style=%s, label=\"%s\"];\n" src dst
             style (dot_escape label)))
      (preds t dst)
  done;
  Buffer.add_string b "}\n";
  Buffer.contents b
