module P = Lang.Prog
module D = Lang.Diag

type ctx = {
  prog : P.t;
  cfgs : Cfg.t array;
  mhp : Mhp.t;
  proto : Proto.t Lazy.t;
}

type pass = {
  pass_name : string;
  pass_doc : string;
  pass_run : ctx -> D.collector -> unit;
}

let make_ctx ?mhp (p : P.t) =
  let cfgs = Array.map (fun f -> Cfg.build p f) p.funcs in
  let mhp =
    match mhp with Some m -> m | None -> Mhp.compute ~cfgs p
  in
  { prog = p; cfgs; mhp; proto = lazy (Proto.analyze ~mhp p) }

let stmt_loc (p : P.t) sid = p.stmts.(sid).P.loc

let fname_of (p : P.t) sid = p.funcs.(p.stmt_fid.(sid)).P.fname

(* ------------------------------------------------------------------ *)
(* PPD010 / PPD011: MHP-refined data races.                             *)
(* ------------------------------------------------------------------ *)

let describe_access (p : P.t) (a : Static_race.access) =
  Printf.sprintf "%s of '%s' at s%d in %s"
    (if a.Static_race.acc_write then "write" else "read")
    a.Static_race.acc_var.P.vname a.Static_race.acc_sid (fname_of p a.acc_sid)

let race_diagnostics ctx c =
  let p = ctx.prog in
  List.iter
    (fun (r : Static_race.report) ->
      let code = if r.pr_write_write then "PPD011" else "PPD010" in
      let kind = if r.pr_write_write then "write/write" else "read/write" in
      D.emit c ~code ~severity:D.Sev_warning
        (stmt_loc p r.pr_a1.acc_sid)
        ~related:
          [ (stmt_loc p r.pr_a2.acc_sid, describe_access p r.pr_a2) ]
        "potential %s race on shared '%s': %s may happen in parallel with %s"
        kind r.pr_var.P.vname
        (describe_access p r.pr_a1)
        (describe_access p r.pr_a2))
    (Static_race.analyze ~mhp:ctx.mhp p)

(* ------------------------------------------------------------------ *)
(* PPD020: static deadlock candidates (lock-order cycles).              *)
(* ------------------------------------------------------------------ *)

let deadlock_diagnostics ctx c =
  let p = ctx.prog in
  let ns = Array.length p.sems in
  if ns > 0 then begin
    let summaries = Static_race.compute_summaries p in
    (* acquisition edges: P(a) executed while h is must-held *)
    let edges = ref [] in
    Array.iter
      (fun (s : P.stmt) ->
        match s.desc with
        | P.Sp sem when Mhp.function_live ctx.mhp p.stmt_fid.(s.sid) ->
          let fid = p.stmt_fid.(s.sid) in
          let cfg = ctx.cfgs.(fid) in
          let node = cfg.Cfg.node_of_sid.(s.sid) in
          let held = Static_race.held_at ~summaries p cfg node in
          if List.mem sem.sem_id held then
            D.emit c ~code:"PPD020" ~severity:D.Sev_warning s.loc
              "self-deadlock: P on '%s' at s%d in %s while '%s' is already \
               held"
              sem.sem_name s.sid (fname_of p s.sid) sem.sem_name;
          List.iter
            (fun h ->
              if h <> sem.sem_id then edges := (h, sem.sem_id, s.sid) :: !edges)
            held
        | _ -> ())
      p.stmts;
    let edges = List.rev !edges in
    (* transitive closure of the held -> acquired order *)
    let reach = Array.make_matrix ns ns false in
    List.iter (fun (h, a, _) -> reach.(h).(a) <- true) edges;
    for k = 0 to ns - 1 do
      for i = 0 to ns - 1 do
        for j = 0 to ns - 1 do
          if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
        done
      done
    done;
    let follows a b = a = b || reach.(a).(b) in
    List.iter
      (fun (h1, a1, sid1) ->
        List.iter
          (fun (h2, a2, sid2) ->
            if
              sid1 < sid2 && follows a1 h2 && follows a2 h1
              && Mhp.may_parallel ctx.mhp sid1 sid2
            then
              D.emit c ~code:"PPD020" ~severity:D.Sev_warning (stmt_loc p sid1)
                ~related:
                  [
                    ( stmt_loc p sid2,
                      Printf.sprintf "P on '%s' while holding '%s' at s%d in %s"
                        p.sems.(a2).P.sem_name p.sems.(h2).P.sem_name sid2
                        (fname_of p sid2) );
                  ]
                "potential deadlock: lock-order cycle between '%s' and '%s' \
                 (P on '%s' while holding '%s' at s%d in %s can run in \
                 parallel with the reverse order)"
                p.sems.(h1).P.sem_name p.sems.(a1).P.sem_name
                p.sems.(a1).P.sem_name p.sems.(h1).P.sem_name sid1
                (fname_of p sid1))
          edges)
      edges
  end

(* ------------------------------------------------------------------ *)
(* PPD030 / PPD031: unreachable statements and dead functions.          *)
(* ------------------------------------------------------------------ *)

let unreachable_diagnostics ctx c =
  let p = ctx.prog in
  Array.iter
    (fun (f : P.func) ->
      if not (Mhp.function_live ctx.mhp f.fid) then begin
        if f.fid <> p.main_fid then
          D.emit c ~code:"PPD031" ~severity:D.Sev_note f.floc
            "function '%s' is never called or spawned" f.fname
      end
      else begin
        let cfg = ctx.cfgs.(f.fid) in
        let reachable = Cfg.reachable cfg in
        (* report only the first statement of each maximal dead run:
           sids are pre-order within a function, so a dead statement
           whose predecessor sid is also dead continues the same run *)
        let dead sid =
          sid >= 0
          && sid < Array.length p.stmts
          && p.stmt_fid.(sid) = f.fid
          && cfg.Cfg.node_of_sid.(sid) >= 0
          && not (Bitset.mem reachable cfg.Cfg.node_of_sid.(sid))
        in
        P.iter_stmts
          (fun s ->
            if dead s.sid && not (dead (s.sid - 1)) then
              D.emit c ~code:"PPD030" ~severity:D.Sev_note s.loc
                "unreachable statement s%d in %s (%s)" s.sid f.fname
                (P.stmt_label s))
          f.body
      end)
    p.funcs

(* ------------------------------------------------------------------ *)
(* PPD040: possibly-uninitialised reads.                                *)
(* ------------------------------------------------------------------ *)

let uninit_diagnostics ctx c =
  let p = ctx.prog in
  Array.iter
    (fun (f : P.func) ->
      if Mhp.function_live ctx.mhp f.fid then begin
        let cfg = ctx.cfgs.(f.fid) in
        let rd = Reaching_defs.compute p cfg in
        let reachable = Cfg.reachable cfg in
        let is_param (v : P.var) =
          List.exists (fun (q : P.var) -> q.vid = v.vid) f.params
        in
        P.iter_stmts
          (fun s ->
            let node = cfg.Cfg.node_of_sid.(s.sid) in
            if node >= 0 && Bitset.mem reachable node then
              List.iter
                (fun (v : P.var) ->
                  (* scalar locals only: parameters arrive initialised,
                     globals hold their pre-invocation value, array
                     element writes never kill *)
                  if
                    v.P.vfid = f.fid && v.P.vty = P.Tint && (not (is_param v))
                    && List.exists
                         (fun (d : Reaching_defs.def_site) ->
                           d.def_node = cfg.Cfg.entry)
                         (Reaching_defs.reaching rd ~node ~vid:v.vid)
                  then
                    D.emit c ~code:"PPD040" ~severity:D.Sev_warning s.loc
                      "'%s' may be read before initialisation at s%d in %s"
                      v.vname s.sid f.fname)
                (Use_def.direct_uses s))
          f.body
      end)
    p.funcs

(* ------------------------------------------------------------------ *)
(* PPD070 / PPD071 / PPD072: communication-protocol findings.           *)
(* ------------------------------------------------------------------ *)

let proto_deadlock_diagnostics ctx c =
  let p = ctx.prog in
  match (Lazy.force ctx.proto).Proto.verdict with
  | Proto.Deadlocks certs ->
    List.iter
      (fun (cert : Proto.cert) ->
        match cert.cert_blocked with
        | [] -> ()
        | first :: rest ->
          D.emit c ~code:"PPD070" ~severity:D.Sev_warning
            (stmt_loc p first.bk_sid)
            ~related:
              (List.map (fun (b : Proto.blocked) -> (stmt_loc p b.bk_sid, b.bk_what)) rest)
            "potential deadlock (%s): %s after %d protocol step(s); run \
             'ppd proto' for the certificate"
            (Proto.kind_name cert.cert_kind)
            first.bk_what
            (List.length cert.cert_steps))
      certs
  | _ -> ()

let orphan_comm_diagnostics ctx c =
  let p = ctx.prog in
  let proto = Lazy.force ctx.proto in
  List.iter
    (fun (ch, sid) ->
      if ch >= 0 then
        D.emit c ~code:"PPD071" ~severity:D.Sev_note (stmt_loc p sid)
          "orphan send: the message sent on '%s' at s%d in %s may never be \
           received"
          p.chans.(ch).P.ch_name sid (fname_of p sid))
    proto.Proto.orphan_sends;
  List.iter
    (fun sid ->
      D.emit c ~code:"PPD071" ~severity:D.Sev_warning (stmt_loc p sid)
        "dead receive: the recv at s%d in %s can never be satisfied" sid
        (fname_of p sid))
    proto.Proto.dead_recvs

let sem_leak_diagnostics ctx c =
  let p = ctx.prog in
  let proto = Lazy.force ctx.proto in
  List.iter
    (fun (sem, deficit) ->
      (* anchor the report at the first P on that semaphore *)
      let loc =
        Array.to_seq p.stmts
        |> Seq.find_map (fun (s : P.stmt) ->
               match s.desc with
               | P.Sp q when q.sem_id = sem -> Some s.loc
               | _ -> None)
        |> Option.value ~default:p.funcs.(p.main_fid).P.floc
      in
      D.emit c ~code:"PPD072" ~severity:D.Sev_warning loc
        "semaphore leak: '%s' may end the program %d token(s) short of its \
         initial %d (held at exit)"
        p.sems.(sem).P.sem_name deficit p.sems.(sem).P.sem_init)
    proto.Proto.sem_leaks

(* ------------------------------------------------------------------ *)
(* Registry.                                                            *)
(* ------------------------------------------------------------------ *)

let passes =
  [
    {
      pass_name = "races";
      pass_doc = "MHP-refined potential data races (PPD010, PPD011)";
      pass_run = race_diagnostics;
    };
    {
      pass_name = "deadlocks";
      pass_doc = "lock-order cycles over must-held semaphores (PPD020)";
      pass_run = deadlock_diagnostics;
    };
    {
      pass_name = "unreachable";
      pass_doc = "unreachable statements and dead functions (PPD030, PPD031)";
      pass_run = unreachable_diagnostics;
    };
    {
      pass_name = "uninit";
      pass_doc = "possibly-uninitialised local reads (PPD040)";
      pass_run = uninit_diagnostics;
    };
    {
      pass_name = "proto-deadlock";
      pass_doc = "communication-protocol deadlock certificates (PPD070)";
      pass_run = proto_deadlock_diagnostics;
    };
    {
      pass_name = "orphan-comm";
      pass_doc = "orphaned sends and dead receives (PPD071)";
      pass_run = orphan_comm_diagnostics;
    };
    {
      pass_name = "sem-leak";
      pass_doc = "semaphores still held at program exit (PPD072)";
      pass_run = sem_leak_diagnostics;
    };
  ]

let pass_names = List.map (fun p -> p.pass_name) passes

exception Unknown_pass of string

let run ?only ?mhp (p : P.t) =
  let selected =
    match only with
    | None -> passes
    | Some names ->
      List.map
        (fun n ->
          match List.find_opt (fun q -> q.pass_name = n) passes with
          | Some q -> q
          | None -> raise (Unknown_pass n))
        names
  in
  let ctx = make_ctx ?mhp p in
  let c = D.create () in
  List.iter (fun q -> q.pass_run ctx c) selected;
  D.diagnostics c
