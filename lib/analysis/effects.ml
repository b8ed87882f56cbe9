module P = Lang.Prog

type action =
  | Send of int
  | Recv of int
  | SemP of int
  | SemV of int
  | Spawn of int
  | Join of int

type trans = { tr_src : int; tr_act : action; tr_sid : int; tr_dst : int }

type aut = {
  au_cls : int;
  au_root_fid : int;
  au_nstates : int;
  au_init : int;
  au_final : bool array;
  au_out : trans list array;
  au_region : Bitset.t array;
  au_on_cycle : bool array;
}

type t = {
  auts : aut array;
  by_class : (int, int) Hashtbl.t;  (* class id -> index in auts *)
  states_of_sid : (int * int) list array;  (* sid -> (aut idx, state) *)
  complete : bool;
  notes : string list;
}

let pp_action p ppf = function
  | Send c -> Format.fprintf ppf "send(%s)" p.P.chans.(c).P.ch_name
  | Recv c -> Format.fprintf ppf "recv(%s)" p.P.chans.(c).P.ch_name
  | SemP s -> Format.fprintf ppf "P(%s)" p.P.sems.(s).P.sem_name
  | SemV s -> Format.fprintf ppf "V(%s)" p.P.sems.(s).P.sem_name
  | Spawn c -> Format.fprintf ppf "spawn#%d" c
  | Join c -> Format.fprintf ppf "join#%d" c

(* A position inside the inlined control flow of one class: the current
   function and CFG node, plus the stack of pending (caller fid, call
   node) frames — returning from a callee resumes at the call node's
   successors. *)
type pos = { frames : (int * int) list; pfid : int; pnode : int }

let is_comm (s : P.stmt) =
  match s.desc with
  | P.Ssend _ | P.Srecv _ | P.Sp _ | P.Sv _ | P.Sspawn _ | P.Sjoin _ -> true
  | _ -> false

(* Does [fid] (transitively, through calls) perform any communication
   action? Comm-free callees are epsilon in the automaton. *)
let comm_fids (p : P.t) (cg : Callgraph.t) =
  let nf = Array.length p.funcs in
  let comm = Array.make nf false in
  Array.iter
    (fun (f : P.func) ->
      P.iter_stmts (fun s -> if is_comm s then comm.(f.P.fid) <- true) f.body)
    p.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    for f = 0 to nf - 1 do
      if
        (not comm.(f))
        && List.exists (fun g -> comm.(g)) cg.Callgraph.calls.(f)
      then begin
        comm.(f) <- true;
        changed := true
      end
    done
  done;
  comm

(* All sids of [fid] and of every function transitively callable from
   it; used to cover comm-free callees in state regions. *)
let closure_sids (p : P.t) (cg : Callgraph.t) =
  let nf = Array.length p.funcs in
  let memo = Array.make nf None in
  let rec go fid =
    match memo.(fid) with
    | Some b -> b
    | None ->
      let b = Bitset.create (Array.length p.stmts) in
      memo.(fid) <- Some b;  (* break recursion cycles *)
      P.iter_stmts (fun s -> Bitset.add b s.sid) p.funcs.(fid).P.body;
      List.iter
        (fun g -> ignore (Bitset.union_into ~dst:b (go g)))
        cg.Callgraph.calls.(fid);
      b
  in
  go

let default_max_states = 4096

let default_max_depth = 16

let compute ?(max_states = default_max_states) ?(max_depth = default_max_depth)
    (mhp : Mhp.t) (p : P.t) =
  let cfgs = Mhp.cfgs mhp in
  let cg = Callgraph.compute p in
  let comm = comm_fids p cg in
  let callee_sids = closure_sids p cg in
  let complete = ref true in
  let notes = ref [] in
  let note fmt =
    Printf.ksprintf
      (fun s ->
        if not (List.mem s !notes) then notes := s :: !notes;
        complete := false)
      fmt
  in
  let classes = Mhp.live_classes mhp in
  (* what a comm statement contributes; [None] = unmodellable, treated
     as epsilon and the whole result marked incomplete *)
  let action_memo = Hashtbl.create 32 in
  let action_of (s : P.stmt) =
    match Hashtbl.find_opt action_memo s.sid with
    | Some a -> a
    | None ->
      let a =
        match s.desc with
        | P.Ssend (c, _) -> Some (Send c.P.ch_id)
        | P.Srecv (c, _) -> Some (Recv c.P.ch_id)
        | P.Sp sem -> Some (SemP sem.P.sem_id)
        | P.Sv sem -> Some (SemV sem.P.sem_id)
        | P.Sspawn _ -> (
          match Mhp.class_of_spawn mhp s.sid with
          | Some c -> Some (Spawn c)
          | None ->
            note "spawn at s%d creates no live class: skipped" s.sid;
            None)
        | P.Sjoin _ -> (
          match Mhp.class_of_join mhp s.sid with
          | Some c -> Some (Join c)
          | None ->
            note "join at s%d is not matched to a unique spawn" s.sid;
            None)
        | _ -> None
      in
      Hashtbl.replace action_memo s.sid a;
      a
  in
  let build (cv : Mhp.class_view) =
    let root = cv.Mhp.cv_root_fid in
    (* epsilon successors of one position; comm-statement positions are
       action frontier and not expanded *)
    let eps_succ pos =
      let cfg = cfgs.(pos.pfid) in
      let here () =
        List.map
          (fun n -> { pos with pnode = n })
          (Cfg.succ_ids cfg pos.pnode)
      in
      match Cfg.kind cfg pos.pnode with
      | Cfg.Entry -> here ()
      | Cfg.Exit -> (
        match pos.frames with
        | [] -> []
        | (cfid, cnode) :: rest ->
          List.map
            (fun n -> { frames = rest; pfid = cfid; pnode = n })
            (Cfg.succ_ids cfgs.(cfid) cnode))
      | Cfg.Stmt s -> (
        match s.desc with
        | _ when is_comm s && action_of s <> None -> []
        | P.Scall (_, { callee; _ }) when comm.(callee) ->
          if List.length pos.frames >= max_depth then begin
            note
              "call depth over %d at s%d: communicating callee '%s' skipped"
              max_depth s.sid p.funcs.(callee).P.fname;
            here ()
          end
          else if
            pos.pfid = callee
            || List.exists (fun (f, _) -> f = callee) pos.frames
          then begin
            note "recursive call to communicating '%s' at s%d: skipped"
              p.funcs.(callee).P.fname s.sid;
            here ()
          end
          else
            [
              {
                frames = (pos.pfid, pos.pnode) :: pos.frames;
                pfid = callee;
                pnode = cfgs.(callee).Cfg.entry;
              };
            ]
        | _ -> here ())
    in
    let closure seeds =
      let seen = Hashtbl.create 32 in
      let q = Queue.create () in
      let push pos =
        if not (Hashtbl.mem seen pos) then begin
          Hashtbl.add seen pos ();
          Queue.add pos q
        end
      in
      List.iter push seeds;
      while not (Queue.is_empty q) do
        let pos = Queue.pop q in
        let expand =
          match Cfg.kind cfgs.(pos.pfid) pos.pnode with
          | Cfg.Stmt s when is_comm s && action_of s <> None -> false
          | _ -> true
        in
        if expand then List.iter push (eps_succ pos)
      done;
      Hashtbl.fold (fun pos () acc -> pos :: acc) seen []
      |> List.sort compare
    in
    (* intern states by their (sorted) closure *)
    let interned = Hashtbl.create 32 in
    let states = ref [] (* (id, closure) newest first *) in
    let nstates = ref 0 in
    let pending = Queue.create () in
    let intern cl =
      match Hashtbl.find_opt interned cl with
      | Some id -> id
      | None ->
        let id = !nstates in
        incr nstates;
        Hashtbl.add interned cl id;
        states := (id, cl) :: !states;
        Queue.add (id, cl) pending;
        id
    in
    let init =
      intern
        (closure [ { frames = []; pfid = root; pnode = cfgs.(root).Cfg.entry } ])
    in
    let trans = ref [] in
    let overflow = ref false in
    while not (Queue.is_empty pending) do
      let src, cl = Queue.pop pending in
      if !nstates > max_states then begin
        if not !overflow then
          note "class #%d: over %d automaton states, truncated" cv.Mhp.cv_id
            max_states;
        overflow := true
      end
      else
        List.iter
          (fun pos ->
            match Cfg.kind cfgs.(pos.pfid) pos.pnode with
            | Cfg.Stmt s when is_comm s -> (
              match action_of s with
              | None -> ()  (* epsilon, already expanded in the closure *)
              | Some act ->
                let dst =
                  intern
                    (closure
                       (List.map
                          (fun n -> { pos with pnode = n })
                          (Cfg.succ_ids cfgs.(pos.pfid) pos.pnode)))
                in
                trans :=
                  { tr_src = src; tr_act = act; tr_sid = s.sid; tr_dst = dst }
                  :: !trans)
            | _ -> ())
          cl
    done;
    let n = !nstates in
    let out = Array.make n [] in
    List.iter (fun tr -> out.(tr.tr_src) <- tr :: out.(tr.tr_src)) !trans;
    Array.iteri
      (fun i l ->
        out.(i) <-
          List.sort (fun a b -> Int.compare a.tr_sid b.tr_sid) l)
      out;
    let final = Array.make n false in
    let region = Array.init n (fun _ -> Bitset.create (Array.length p.stmts)) in
    List.iter
      (fun (id, cl) ->
        List.iter
          (fun pos ->
            (match Cfg.kind cfgs.(pos.pfid) pos.pnode with
            | Cfg.Exit when pos.frames = [] && pos.pfid = root ->
              final.(id) <- true
            | Cfg.Stmt s ->
              Bitset.add region.(id) s.sid;
              (match s.desc with
              | P.Scall (_, { callee; _ }) when not comm.(callee) ->
                (* the whole comm-free callee runs inside this state *)
                ignore
                  (Bitset.union_into ~dst:region.(id) (callee_sids callee))
              | _ -> ())
            | _ -> ()))
          cl)
      !states;
    (* a state lies on a cycle when it can reach itself over >= 1
       transition; automata are small, a per-state DFS is fine *)
    let on_cycle = Array.make n false in
    for q0 = 0 to n - 1 do
      let seen = Array.make n false in
      let stack = ref (List.map (fun tr -> tr.tr_dst) out.(q0)) in
      let hit = ref false in
      while (not !hit) && !stack <> [] do
        match !stack with
        | [] -> ()
        | q :: rest ->
          stack := rest;
          if q = q0 then hit := true
          else if not seen.(q) then begin
            seen.(q) <- true;
            stack := List.map (fun tr -> tr.tr_dst) out.(q) @ !stack
          end
      done;
      on_cycle.(q0) <- !hit
    done;
    {
      au_cls = cv.Mhp.cv_id;
      au_root_fid = root;
      au_nstates = n;
      au_init = init;
      au_final = final;
      au_out = out;
      au_region = region;
      au_on_cycle = on_cycle;
    }
  in
  let auts = Array.of_list (List.map build classes) in
  let by_class = Hashtbl.create 8 in
  Array.iteri (fun i a -> Hashtbl.replace by_class a.au_cls i) auts;
  let states_of_sid = Array.make (Array.length p.stmts) [] in
  Array.iteri
    (fun ai a ->
      Array.iteri
        (fun q r ->
          Bitset.iter
            (fun sid -> states_of_sid.(sid) <- (ai, q) :: states_of_sid.(sid))
            r)
        a.au_region)
    auts;
  { auts; by_class; states_of_sid; complete = !complete; notes = List.rev !notes }

let states_of t sid =
  if sid < 0 || sid >= Array.length t.states_of_sid then []
  else t.states_of_sid.(sid)

let ntrans a = Array.fold_left (fun n l -> n + List.length l) 0 a.au_out

let pp p ppf t =
  Format.fprintf ppf "@[<v>effects: %d automaton(a)%s"
    (Array.length t.auts)
    (if t.complete then "" else " [incomplete]");
  Array.iter
    (fun a ->
      Format.fprintf ppf "@,  class #%d (%s): %d state(s), %d transition(s)%s"
        a.au_cls
        p.P.funcs.(a.au_root_fid).P.fname
        a.au_nstates (ntrans a)
        (if a.au_final.(a.au_init) then " [may finish silently]" else "");
      Array.iteri
        (fun q trs ->
          List.iter
            (fun tr ->
              Format.fprintf ppf "@,    q%d -%a(s%d)-> q%d" q (pp_action p)
                tr.tr_act tr.tr_sid tr.tr_dst)
            trs;
          if a.au_final.(q) then Format.fprintf ppf "@,    q%d: final" q)
        a.au_out)
    t.auts;
  List.iter (fun n -> Format.fprintf ppf "@,  note: %s" n) t.notes;
  Format.fprintf ppf "@]"

let dot p ppf t =
  Format.fprintf ppf "digraph effects {@.  rankdir=LR;@.";
  Array.iteri
    (fun ai a ->
      Format.fprintf ppf "  subgraph cluster_%d {@.    label=\"#%d %s\";@." ai
        a.au_cls
        p.P.funcs.(a.au_root_fid).P.fname;
      for q = 0 to a.au_nstates - 1 do
        Format.fprintf ppf "    a%d_q%d [label=\"q%d\"%s%s];@." ai q q
          (if a.au_final.(q) then ", shape=doublecircle" else ", shape=circle")
          (if q = a.au_init then ", style=bold" else "")
      done;
      Array.iter
        (List.iter (fun tr ->
             Format.fprintf ppf "    a%d_q%d -> a%d_q%d [label=\"%s (s%d)\"];@."
               ai tr.tr_src ai tr.tr_dst
               (Format.asprintf "%a" (pp_action p) tr.tr_act)
               tr.tr_sid))
        a.au_out;
      Format.fprintf ppf "  }@.")
    t.auts;
  Format.fprintf ppf "}@."
