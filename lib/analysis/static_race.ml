module P = Lang.Prog

type access = {
  acc_sid : int;
  acc_fid : int;
  acc_var : P.var;
  acc_write : bool;
  acc_locks : int list;
}

type report = {
  pr_var : P.var;
  pr_a1 : access;
  pr_a2 : access;
  pr_write_write : bool;
}

type summaries = {
  sum_may_release : Bitset.t array;  (* fid -> sems a call may release *)
  sum_must_acquire : Bitset.t array;  (* fid -> sems held on every return *)
}

(* Must-held locks via the complement trick: compute the MAY-NOT-HELD
   set with the union-join framework (entry seeded with every
   semaphore, [V] generates, [P] kills); held = complement. With
   [summaries], a call site generates only what the callee may
   transitively release and kills what it must acquire, instead of
   clobbering every lock. *)
let may_not_held ?summaries (p : P.t) (cfg : Cfg.t) =
  let nsems = Array.length p.sems in
  let nnodes = Cfg.nnodes cfg in
  let empty = Bitset.create nsems in
  let gen = Array.make nnodes empty in
  let kill = Array.make nnodes empty in
  for node = 0 to nnodes - 1 do
    match Cfg.kind cfg node with
    | Cfg.Stmt { desc = P.Sv sem; _ } ->
      let g = Bitset.create nsems in
      Bitset.add g sem.sem_id;
      gen.(node) <- g
    | Cfg.Stmt { desc = P.Sp sem; _ } ->
      let k = Bitset.create nsems in
      Bitset.add k sem.sem_id;
      kill.(node) <- k
    | Cfg.Stmt { desc = P.Scall (_, { callee; _ }); _ } -> (
      match summaries with
      | Some sm ->
        gen.(node) <- sm.sum_may_release.(callee);
        kill.(node) <- sm.sum_must_acquire.(callee)
      | None ->
        (* a callee might release anything: assume all released after a
           call (conservative for must-held) *)
        let g = Bitset.create nsems in
        for s = 0 to nsems - 1 do
          Bitset.add g s
        done;
        gen.(node) <- g)
    | _ -> ()
  done;
  let universe_set = Bitset.create nsems in
  for s = 0 to nsems - 1 do
    Bitset.add universe_set s
  done;
  let result =
    Dataflow.solve ~nnodes ~preds:(Cfg.pred_ids cfg) ~succs:(Cfg.succ_ids cfg)
      ~direction:Dataflow.Forward
      ~gen:(fun n -> gen.(n))
      ~kill:(fun n -> kill.(n))
      ~universe:nsems
      ~boundary:[ (cfg.entry, universe_set) ]
  in
  result.Dataflow.live_in

(* Per-function semaphore summaries via the callgraph, callees before
   callers (Tarjan SCC order). [sum_may_release] is a syntactic may
   fixpoint — any [V] in the function or a transitive callee — so it is
   sound for recursion too. [sum_must_acquire] re-runs the lockset
   dataflow per function with the callees' (already final) summaries at
   call sites and takes the complement at EXIT; members of a recursive
   SCC conservatively promise nothing. *)
let compute_summaries (p : P.t) =
  let nf = Array.length p.funcs in
  let nsems = Array.length p.sems in
  let cg = Callgraph.compute p in
  let mr = Array.init nf (fun _ -> Bitset.create nsems) in
  Array.iter
    (fun (f : P.func) ->
      P.iter_stmts
        (fun s ->
          match s.desc with
          | P.Sv sem -> Bitset.add mr.(f.fid) sem.sem_id
          | _ -> ())
        f.body)
    p.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (f : P.func) ->
        List.iter
          (fun g ->
            if Bitset.union_into ~dst:mr.(f.fid) mr.(g) then changed := true)
          cg.Callgraph.calls.(f.fid))
      p.funcs
  done;
  let ma = Array.init nf (fun _ -> Bitset.create nsems) in
  let sm = { sum_may_release = mr; sum_must_acquire = ma } in
  if nsems > 0 then begin
    let _, comps = Callgraph.sccs cg in
    List.iter
      (fun members ->
        match members with
        | [ f ] when not (Callgraph.is_recursive cg f) ->
          let cfg = Cfg.build p p.funcs.(f) in
          let mnh = may_not_held ~summaries:sm p cfg in
          let held = Bitset.create nsems in
          for s = 0 to nsems - 1 do
            if not (Bitset.mem mnh.(cfg.Cfg.exit) s) then Bitset.add held s
          done;
          ma.(f) <- held
        | _ -> ())
      comps
  end;
  sm

let held_at ?summaries (p : P.t) (cfg : Cfg.t) node =
  let nsems = Array.length p.sems in
  let mnh = (may_not_held ?summaries p cfg).(node) in
  List.filter (fun s -> not (Bitset.mem mnh s)) (List.init nsems Fun.id)

let shared_accesses (p : P.t) =
  let out = ref [] in
  let summaries = compute_summaries p in
  Array.iter
    (fun (f : P.func) ->
      let cfg = Cfg.build p f in
      let mnh = may_not_held ~summaries p cfg in
      let nsems = Array.length p.sems in
      let locks_at node =
        List.filter
          (fun s -> not (Bitset.mem mnh.(node) s))
          (List.init nsems Fun.id)
      in
      P.iter_stmts
        (fun s ->
          let node = cfg.Cfg.node_of_sid.(s.sid) in
          if node >= 0 then begin
            let locks = locks_at node in
            let record write (v : P.var) =
              if P.is_shared v then
                out :=
                  {
                    acc_sid = s.sid;
                    acc_fid = f.fid;
                    acc_var = v;
                    acc_write = write;
                    acc_locks = locks;
                  }
                  :: !out
            in
            List.iter (record false) (Use_def.direct_uses s);
            List.iter (record true) (Use_def.direct_defs s)
          end)
        f.body)
    p.funcs;
  List.rev !out

let analyze ?mhp (p : P.t) =
  let accesses = shared_accesses p in
  let mhp = match mhp with Some m -> m | None -> Mhp.compute p in
  let disjoint_locks a b =
    not (List.exists (fun l -> List.mem l b.acc_locks) a.acc_locks)
  in
  let reports = ref [] in
  let consider a b =
    if
      a.acc_var.P.vid = b.acc_var.P.vid
      && (a.acc_write || b.acc_write)
      && Mhp.may_parallel mhp a.acc_sid b.acc_sid
      && disjoint_locks a b
    then
      reports :=
        {
          pr_var = a.acc_var;
          pr_a1 = (if a.acc_sid <= b.acc_sid then a else b);
          pr_a2 = (if a.acc_sid <= b.acc_sid then b else a);
          pr_write_write = a.acc_write && b.acc_write;
        }
        :: !reports
  in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      (* a self-concurrent function (spawned more than once) races one
         instance's access against the other instance's same access *)
      consider a a;
      List.iter (consider a) rest;
      pairs rest
  in
  pairs accesses;
  List.sort_uniq compare !reports

let pp_report (p : P.t) ppf reports =
  match reports with
  | [] ->
    Format.fprintf ppf
      "no potential races: every conflicting access pair is ordered or \
       protected"
  | _ ->
    Format.fprintf ppf "@[<v>%d potential race(s):" (List.length reports);
    List.iter
      (fun r ->
        let side a =
          Printf.sprintf "s%d in %s (%s%s)" a.acc_sid
            p.funcs.(a.acc_fid).fname
            (if a.acc_write then "write" else "read")
            (match a.acc_locks with
            | [] -> ""
            | ls ->
              ", holds "
              ^ String.concat ","
                  (List.map (fun s -> p.sems.(s).P.sem_name) ls))
        in
        Format.fprintf ppf "@,- '%s': %s vs %s%s" r.pr_var.P.vname
          (side r.pr_a1) (side r.pr_a2)
          (if r.pr_write_write then " [write/write]" else ""))
      reports;
    Format.fprintf ppf "@]"
