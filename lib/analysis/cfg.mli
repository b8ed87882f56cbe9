(** Per-function control-flow graphs at statement granularity.

    Nodes are ENTRY, EXIT and one node per statement (including [if] /
    [while] predicates, which become branch nodes with [True]/[False]
    out-edges). Matching the paper's graphs, there is no basic-block
    merging: each CFG node is one program component. *)

type edge_label = Seq | True | False

type node_kind = Entry | Exit | Stmt of Lang.Prog.stmt

type t = {
  func : Lang.Prog.func;
  kinds : node_kind array;  (** node id -> kind *)
  succs : (int * edge_label) list array;
  preds : (int * edge_label) list array;
  entry : int;
  exit : int;
  node_of_sid : int array;
      (** statement id -> node id; only meaningful for sids of this
          function, [-1] elsewhere. Indexed by program-wide sid. *)
}

val build : Lang.Prog.t -> Lang.Prog.func -> t

val nnodes : t -> int

val kind : t -> int -> node_kind

val succ_ids : t -> int -> int list

val pred_ids : t -> int -> int list

val is_branch : t -> int -> bool
(** True for [if]/[while] predicate nodes. *)

val reachable : t -> Bitset.t
(** Nodes reachable from ENTRY. *)

val pp : Format.formatter -> t -> unit
(** Debug dump: one line per node with its successors. *)
