(** Build dynamic-graph fragments from (re-generated) event streams.

    Feed the events of one log interval — from the emulation package or
    a full trace — and the builder adds the corresponding nodes and
    dependence edges to a {!Dyn_graph.t}:

    - data dependences by tracking the last definition of each variable
      (globals in a table shared across frames, locals per frame scope);
      a read whose definition lies outside the fragment becomes an
      {e external} node recorded on the graph's frontier, which the
      controller later resolves against other intervals or processes;
    - dynamic control dependences from the nearest executed instance of
      the statement's static control parent ({!Analysis.Static_pdg});
    - call statements become sub-graph nodes with the §4.2
      actual/formal parameter mapping: fictional [%n] nodes for
      expression arguments, [Dparam] edges into the callee's formal
      parameter nodes when the callee is expanded, and a [%0] edge
      carrying the returned value back to the sub-graph node;
    - synchronization events become ref-carrying nodes; their incoming
      cross-process edges are connected immediately when the partner
      node is already in the graph, or recorded as pending links
      resolved when more fragments are built. *)

type tables
(** Per-program assembly tables: the static PDGs' control parents of
    every statement and every node label, computed once per program and
    shared read-only by all builders over it, on any domain. *)

val tables : Lang.Prog.t -> tables

type t

val pending_links : t -> (Runtime.Event.eref * int) list
(** Cross-process sync links whose source node is not in the graph yet:
    [(source event, target node)]. *)

val build_from_outcome :
  tables -> Dyn_graph.t -> interval:Trace.Log.interval -> Emulator.outcome -> t
(** Assemble the fragment for an interval from its replay outcome
    (possibly produced on another domain): seed the scope, feed every
    event, resolve pending sync links. Replay never reads the graph, so
    replay-then-feed builds the graph feeding during replay would. *)
