module P = Lang.Prog
module E = Runtime.Event
module V = Runtime.Value
module SP = Analysis.Static_pdg

(* Per-program assembly tables, built once and shared read-only by
   every builder over the program (on any domain): node labels, and
   each statement's static control parents, so feeding an event neither
   formats a label nor filters the PDG. *)
type tables = {
  prog : P.t;
  labels : string array;  (* by sid *)
  loop_labels : string array;  (* by sid: "while (c)", loops only *)
  entry_labels : string array;  (* by fid *)
  exit_labels : string array;  (* by fid *)
  param_labels : string array;  (* by vid: "%n (x)", parameters only *)
  ext_labels : string array;  (* by vid *)
  ctrl_parents : int list array;
      (* by sid: the static control parents in PDG order, -1 for the
         function's ENTRY, otherwise the governing predicate's sid *)
}

let tables prog =
  let pdgs = SP.build_program prog in
  let labels = Array.map P.stmt_label prog.P.stmts in
  let param_labels = Array.make (Array.length prog.P.vars) "" in
  Array.iter
    (fun (f : P.func) ->
      List.iteri
        (fun i (v : P.var) ->
          param_labels.(v.vid) <- Printf.sprintf "%%%d (%s)" (i + 1) v.vname)
        f.params)
    prog.P.funcs;
  let ctrl_parents =
    Array.map
      (fun (stmt : P.stmt) ->
        let fid = prog.P.stmt_fid.(stmt.sid) in
        let cfg = pdgs.SP.cfgs.(fid) in
        let cnode = cfg.Analysis.Cfg.node_of_sid.(stmt.sid) in
        if cnode < 0 then []
        else
          List.filter_map
            (fun (src, _label) ->
              match Analysis.Cfg.kind cfg src with
              | Analysis.Cfg.Entry -> Some (-1)
              | Analysis.Cfg.Stmt ps -> Some ps.P.sid
              | Analysis.Cfg.Exit -> None)
            (SP.control_parents pdgs.SP.pdgs.(fid) cnode))
      prog.P.stmts
  in
  {
    prog;
    labels;
    loop_labels =
      Array.map2
        (fun (stmt : P.stmt) label ->
          match stmt.desc with P.Swhile _ -> "while " ^ label | _ -> "")
        prog.P.stmts labels;
    entry_labels = Array.map (fun (f : P.func) -> "ENTRY " ^ f.fname) prog.P.funcs;
    exit_labels = Array.map (fun (f : P.func) -> "EXIT " ^ f.fname) prog.P.funcs;
    param_labels;
    ext_labels = Array.map (fun (v : P.var) -> v.vname ^ " (external)") prog.P.vars;
    ctrl_parents;
  }

module Itbl = Hashtbl.Make (Int)

type scope = {
  sc_fid : int;
  sc_owner : int option;  (* sub-graph node owning the members *)
  sc_entry : int;
  sc_local_def : int Itbl.t;  (* vid -> node *)
  sc_last_pred : int Itbl.t;  (* predicate sid -> node instance *)
  mutable sc_open_calls : (int * int) list;  (* call sid -> sub-graph node *)
  mutable sc_open_loops : (int * int) list;  (* loop sid -> loop node *)
  mutable sc_last_return : int option;
}

type t = {
  tb : tables;
  g : Dyn_graph.t;
  pid : int;
  mutable scopes : scope list;
  glob_def : int Itbl.t;  (* global vid -> node *)
  mutable last : int;  (* the previous event's node, -1 before the first *)
  mutable pending : (E.eref * int) list;
  mutable popped_return : int option;
      (* return node of the callee just left, for the %0 edge *)
}

let create tb g ~pid =
  {
    tb;
    g;
    pid;
    scopes = [];
    glob_def = Itbl.create 32;
    last = -1;
    pending = [];
    popped_return = None;
  }

let pending_links t = t.pending

let cur_scope t =
  match t.scopes with
  | [] -> invalid_arg "Builder: no open scope (stream must start with enter)"
  | s :: _ -> s

let flow_to t node =
  if t.last >= 0 then
    Dyn_graph.add_edge t.g ~src:t.last ~dst:node ~kind:Dyn_graph.Flow;
  t.last <- node

(* Resolve the defining node of a read; creates a frontier node when
   the definition lies outside the fragment. *)
let resolve_read t (rw : E.rw) =
  let v = rw.var in
  let sc = cur_scope t in
  let table = if P.is_global v then t.glob_def else sc.sc_local_def in
  match Itbl.find_opt table v.vid with
  | Some node -> node
  | None ->
    let node =
      Dyn_graph.add_node t.g ?owner:sc.sc_owner ~value:rw.value ~pid:t.pid
        ~kind:(Dyn_graph.N_external v)
        ~label:t.tb.ext_labels.(v.vid)
        ()
    in
    Dyn_graph.mark_external t.g node v;
    Itbl.replace table v.vid node;
    node

(* One edge per distinct variable: a repeated read resolves to the
   same source, and [Dyn_graph.add_edge] drops the duplicate. *)
let data_edges t node reads =
  List.iter
    (fun (rw : E.rw) ->
      let src = resolve_read t rw in
      Dyn_graph.add_edge t.g ~src ~dst:node ~kind:(Dyn_graph.Data rw.var))
    reads

let record_write t node (w : E.rw option) =
  match w with
  | None -> ()
  | Some { var; _ } ->
    let sc = cur_scope t in
    let table = if P.is_global var then t.glob_def else sc.sc_local_def in
    Itbl.replace table var.vid node

(* Dynamic control dependence: the latest executed instance of the
   statement's static control parent. *)
let control_edge t node sid =
  let sc = cur_scope t in
  List.iter
    (fun psid ->
      let src =
        if psid < 0 then sc.sc_entry
        else
          match Itbl.find_opt sc.sc_last_pred psid with
          | Some inst -> inst
          | None ->
            (* should not happen inside a complete interval; fall back *)
            sc.sc_entry
      in
      Dyn_graph.add_edge t.g ~src ~dst:node ~kind:Dyn_graph.Control)
    t.tb.ctrl_parents.(sid)

let sync_link t ~src ~dst =
  match Dyn_graph.find_ref t.g src with
  | Some n -> Dyn_graph.add_edge t.g ~src:n ~dst ~kind:Dyn_graph.Sync
  | None -> t.pending <- (src, dst) :: t.pending

let resolve_links t =
  let unresolved = ref [] in
  List.iter
    (fun (src, dst) ->
      match Dyn_graph.find_ref t.g src with
      | Some n -> Dyn_graph.add_edge t.g ~src:n ~dst ~kind:Dyn_graph.Sync
      | None -> unresolved := (src, dst) :: !unresolved)
    t.pending;
  t.pending <- !unresolved

let open_scope t ~fid ~owner ~entry ~binds ~from_sub =
  let sc =
    {
      sc_fid = fid;
      sc_owner = owner;
      sc_entry = entry;
      sc_local_def = Itbl.create 16;
      sc_last_pred = Itbl.create 8;
      sc_open_calls = [];
      sc_open_loops = [];
      sc_last_return = None;
    }
  in
  t.scopes <- sc :: t.scopes;
  List.iteri
    (fun i ((v : P.var), value) ->
      let pnode =
        Dyn_graph.add_node t.g ?owner ~value ~pid:t.pid
          ~kind:(Dyn_graph.N_param (i + 1))
          ~label:t.tb.param_labels.(v.vid)
          ()
      in
      (match from_sub with
      | Some sub ->
        Dyn_graph.add_edge t.g ~src:sub ~dst:pnode
          ~kind:(Dyn_graph.Dparam (i + 1))
      | None ->
        Dyn_graph.add_edge t.g ~src:entry ~dst:pnode
          ~kind:(Dyn_graph.Dparam (i + 1)));
      Itbl.replace sc.sc_local_def v.vid pnode)
    binds

let stmt_of_sid t sid = t.tb.prog.P.stmts.(sid)

let feed t ~seq (ev : E.t) =
  let ref_ = { E.epid = t.pid; eseq = seq } in
  match ev with
  | E.E_proc_start { fid; binds; spawn } ->
    let entry =
      Dyn_graph.add_node t.g ~ref_ ~pid:t.pid ~kind:(Dyn_graph.N_entry fid)
        ~label:t.tb.entry_labels.(fid)
        ()
    in
    (match spawn with Some r -> sync_link t ~src:r ~dst:entry | None -> ());
    open_scope t ~fid ~owner:None ~entry ~binds ~from_sub:None;
    flow_to t entry
  | E.E_enter { fid; call_sid; binds } ->
    let sub =
      match (t.scopes, call_sid) with
      | sc :: _, Some sid -> List.assoc_opt sid sc.sc_open_calls
      | _, _ -> None
    in
    let entry =
      Dyn_graph.add_node t.g ~ref_ ?owner:sub ~pid:t.pid
        ~kind:(Dyn_graph.N_entry fid)
        ~label:t.tb.entry_labels.(fid)
        ()
    in
    (match sub with
    | Some s -> Dyn_graph.add_edge t.g ~src:s ~dst:entry ~kind:Dyn_graph.Control
    | None -> ());
    open_scope t ~fid ~owner:sub ~entry ~binds ~from_sub:sub;
    flow_to t entry
  | E.E_leave _ -> (
    match t.scopes with
    | sc :: rest ->
      t.popped_return <- sc.sc_last_return;
      t.scopes <- rest
    | [] -> ())
  | E.E_proc_exit { fid; _ } ->
    let sc_owner = match t.scopes with sc :: _ -> sc.sc_owner | [] -> None in
    let exit_node =
      Dyn_graph.add_node t.g ~ref_ ?owner:sc_owner ~pid:t.pid
        ~kind:(Dyn_graph.N_exit fid)
        ~label:t.tb.exit_labels.(fid)
        ()
    in
    flow_to t exit_node;
    (match t.scopes with _ :: rest -> t.scopes <- rest | [] -> ())
  | E.E_loop_enter { sid } ->
    let sc = cur_scope t in
    let node =
      Dyn_graph.add_node t.g ~ref_ ?owner:sc.sc_owner ~pid:t.pid
        ~kind:(Dyn_graph.N_loop sid)
        ~label:t.tb.loop_labels.(sid)
        ()
    in
    control_edge t node sid;
    flow_to t node;
    sc.sc_open_loops <- (sid, node) :: sc.sc_open_loops
  | E.E_loop_exit { sid; writes } -> (
    let sc = cur_scope t in
    match List.assoc_opt sid sc.sc_open_loops with
    | None -> ()
    | Some lnode -> (
      sc.sc_open_loops <- List.remove_assoc sid sc.sc_open_loops;
      t.last <- lnode;
      match writes with
      | None -> ()
      | Some ws ->
        (* skipped loop e-block: the collapsed node defines its writes *)
        List.iter
          (fun ((v : P.var), _) ->
            let table = if P.is_global v then t.glob_def else sc.sc_local_def in
            Itbl.replace table v.vid lnode)
          ws))
  | E.E_stmt { sid; reads; write; kind } -> (
    let stmt = stmt_of_sid t sid in
    let label = t.tb.labels.(sid) in
    let singular ?value () =
      let sc = cur_scope t in
      let node =
        Dyn_graph.add_node t.g ~ref_ ?owner:sc.sc_owner ?value ~pid:t.pid
          ~kind:(Dyn_graph.N_singular sid)
          ~label ()
      in
      data_edges t node reads;
      control_edge t node sid;
      flow_to t node;
      node
    in
    match kind with
    | E.K_assign ->
      let value = Option.map (fun (w : E.rw) -> w.value) write in
      let node = singular ?value () in
      record_write t node write
    | E.K_pred b ->
      let node = singular ~value:(V.Vint (if b then 1 else 0)) () in
      (cur_scope t).sc_last_pred |> fun tbl -> Itbl.replace tbl sid node
    | E.K_print { value } -> ignore (singular ~value ())
    | E.K_assert { ok } -> ignore (singular ~value:(V.Vint (if ok then 1 else 0)) ())
    | E.K_return { value } ->
      let node = singular ?value () in
      (cur_scope t).sc_last_return <- Some node
    | E.K_call { callee; args } ->
      let sc = cur_scope t in
      let sub =
        Dyn_graph.add_node t.g ~ref_ ?owner:sc.sc_owner ~pid:t.pid
          ~kind:(Dyn_graph.N_subgraph { sid; callee })
          ~label ()
      in
      (* actual-parameter mapping (§4.2) *)
      let cargs =
        match stmt.desc with
        | P.Scall (_, c) | P.Sspawn (_, c) -> c.cargs
        | _ -> []
      in
      List.iteri
        (fun i arg ->
          let idx = i + 1 in
          match (arg : P.expr) with
          | P.Evar v ->
            let src = resolve_read t { E.var = v; value = List.nth args i } in
            Dyn_graph.add_edge t.g ~src ~dst:sub ~kind:(Dyn_graph.Data v)
          | P.Eint _ | P.Ebool _ -> ()
          | P.Eidx _ | P.Eunop _ | P.Ebinop _ ->
            (* fictional node for an expression argument *)
            let fict =
              Dyn_graph.add_node t.g ?owner:sc.sc_owner
                ~value:(List.nth args i) ~pid:t.pid
                ~kind:(Dyn_graph.N_param idx)
                ~label:(Printf.sprintf "%%%d" idx)
                ()
            in
            List.iter
              (fun (v : P.var) ->
                (* values of the reads are in the event's read list *)
                let value =
                  match
                    List.find_opt (fun (rw : E.rw) -> rw.var.P.vid = v.vid) reads
                  with
                  | Some rw -> rw.value
                  | None -> V.Vundef
                in
                let src = resolve_read t { E.var = v; value } in
                Dyn_graph.add_edge t.g ~src ~dst:fict ~kind:(Dyn_graph.Data v))
              (P.expr_reads arg);
            Dyn_graph.add_edge t.g ~src:fict ~dst:sub
              ~kind:(Dyn_graph.Dparam idx))
        cargs;
      control_edge t sub sid;
      flow_to t sub;
      sc.sc_open_calls <- (sid, sub) :: sc.sc_open_calls
    | E.K_call_return { ret; _ } -> (
      let sc = cur_scope t in
      match List.assoc_opt sid sc.sc_open_calls with
      | None -> ()
      | Some sub ->
        sc.sc_open_calls <- List.remove_assoc sid sc.sc_open_calls;
        (match ret with Some v -> Dyn_graph.set_value t.g sub v | None -> ());
        (match t.popped_return with
        | Some rnode ->
          Dyn_graph.add_edge t.g ~src:rnode ~dst:sub
            ~kind:(Dyn_graph.Dparam 0);
          t.popped_return <- None
        | None -> ());
        record_write t sub write;
        t.last <- sub)
    | E.K_p { src; _ } ->
      let node = singular () in
      (match src with Some r -> sync_link t ~src:r ~dst:node | None -> ());
      record_write t node write
    | E.K_v _ -> ignore (singular ())
    | E.K_send { value; _ } -> ignore (singular ~value:(V.Vint value) ())
    | E.K_send_unblocked { by; _ } ->
      let node = singular () in
      sync_link t ~src:by ~dst:node
    | E.K_recv { value; src; _ } ->
      let node = singular ~value:(V.Vint value) () in
      sync_link t ~src ~dst:node;
      record_write t node write
    | E.K_spawn { child; _ } ->
      let node = singular ~value:(V.Vint child) () in
      record_write t node write
    | E.K_join { result; child_exit; _ } ->
      let node = singular ?value:result () in
      sync_link t ~src:child_exit ~dst:node;
      record_write t node write)

(* A builder with its scope seeded for the interval: a loop e-block
   interval replays without an opening enter event, so its nodes hang
   off the loop node of the parent fragment when it exists, or a fresh
   collapsed loop node otherwise. *)
let prepare tb g ~interval =
  let pid = interval.Trace.Log.iv_pid in
  let t = create tb g ~pid in
  (match interval.Trace.Log.iv_block with
  | Trace.Log.Bfunc _ -> ()
  | Trace.Log.Bloop sid ->
    let fid = tb.prog.P.stmt_fid.(sid) in
    let enter_ref =
      { E.epid = pid; eseq = interval.Trace.Log.iv_seq_start - 1 }
    in
    let entry =
      match Dyn_graph.find_ref g enter_ref with
      | Some n -> n
      | None ->
        Dyn_graph.add_node g ~ref_:enter_ref ~pid
          ~kind:(Dyn_graph.N_loop sid) ~label:tb.loop_labels.(sid) ()
    in
    open_scope t ~fid ~owner:(Some entry) ~entry ~binds:[] ~from_sub:None;
    t.last <- entry);
  t

let build_from_outcome tb g ~interval (outcome : Emulator.outcome) =
  let t = prepare tb g ~interval in
  List.iter (fun (seq, ev) -> feed t ~seq ev) outcome.Emulator.events;
  resolve_links t;
  t
