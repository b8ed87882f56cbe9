(* PPD benchmark harness: regenerates every table and figure of
   EXPERIMENTS.md (the paper's quantitative claims plus the ablations
   its §5.4/§7 discussions call for).

   Usage:  dune exec bench/main.exe                   -- everything
           dune exec bench/main.exe -- t1 t5          -- selected experiments
           dune exec bench/main.exe -- --json t2 t9   -- tables as one JSON object

   Timings come from Bechamel (one Test.make per measured variant,
   grouped per table); counts (log entries, bytes, pairs, replays) are
   computed directly. A table builds its rows once, as JSON objects;
   one console printer and one JSON printer show every table. *)

open Bechamel

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing.                                                   *)
(* ------------------------------------------------------------------ *)

let measure_tests ?(quota = 0.4) (tests : Test.t) : (string * float) list =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let res = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name ols acc ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      (name, est) :: acc)
    res []

let time_of results name =
  match List.assoc_opt name results with Some t -> t | None -> nan

(* Derived columns; nan (JSON null, console "n/a") when the base is not
   a usable measurement. *)
let ratio a b = if b = 0. then nan else a /. b

let ovh_pct base v = ratio ((v -. base) *. 100.) base

(* ------------------------------------------------------------------ *)
(* Tables and their two printers.                                       *)
(* ------------------------------------------------------------------ *)

(* [run] measures and builds the rows once: a list of [Json.Obj] rows,
   or an object of scalars beside a [rows] list. A row value that is
   itself a list of objects is a nested sub-table. *)
type table = { id : string; title : string; note : string; run : unit -> Json.t }

let fmt_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1f µs" (ns /. 1e3)
  else if ns >= 10. then Printf.sprintf "%.0f ns" ns
  else Printf.sprintf "%.2f ns" ns

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let cell key = function
  | Json.Bool b -> if b then "yes" else "no"
  | Json.Int i -> string_of_int i
  | Json.Float f when String.ends_with ~suffix:"_ns" key -> fmt_ns f
  | Json.Float f when Float.is_nan f -> "n/a"
  | Json.Float f when String.ends_with ~suffix:"_pct" key ->
    Printf.sprintf "%.1f%%" f
  | Json.Float f -> Printf.sprintf "%.4g" f
  | Json.Str s -> s
  | (Json.Null | Json.List _ | Json.Obj _) as v -> Json.to_string v

(* Display width: fmt_ns prints a two-byte "µ". *)
let width s =
  String.fold_left
    (fun n c -> if Char.code c land 0xc0 = 0x80 then n else n + 1)
    0 s

(* Columns are the union of the row keys in first-seen order; a missing
   cell prints blank, and a nested row list prints indented under its
   row. *)
let rec print_rows indent rows =
  let rows = List.filter_map (function Json.Obj f -> Some f | _ -> None) rows in
  let nested = function Json.List _ -> true | _ -> false in
  let cols =
    List.fold_left
      (List.fold_left (fun cols (k, v) ->
           if nested v || List.mem k cols then cols else cols @ [ k ]))
      [] rows
  in
  let text row k = Option.fold ~none:"" ~some:(cell k) (List.assoc_opt k row) in
  let widths =
    List.map
      (fun k ->
        List.fold_left (fun w row -> max w (width (text row k))) (width k) rows)
      cols
  in
  let line cells =
    let padded =
      List.mapi
        (fun i (c, w) ->
          let pad = String.make (w - width c) ' ' in
          if i = 0 then c ^ pad else "  " ^ pad ^ c)
        (List.combine cells widths)
    in
    (* trim: blank trailing cells leave no trailing spaces *)
    print_endline (indent ^ String.trim (String.concat "" padded))
  in
  line cols;
  List.iter
    (fun row ->
      line (List.map (text row) cols);
      List.iter
        (function _, Json.List sub -> print_rows (indent ^ "    ") sub | _ -> ())
        row)
    rows

let rec print_value key = function
  | Json.List rows -> print_rows "" rows
  | Json.Obj fields -> List.iter (fun (k, v) -> print_value k v) fields
  | v -> Printf.printf "%s: %s\n" key (cell key v)

let print_table t =
  header t.title;
  print_value t.id (t.run ());
  if t.note <> "" then print_endline t.note

(* One object for any selection of tables, plus the host core count so
   downstream gates can tell whether a speedup was even possible. *)
let print_json tables =
  print_endline
    (Json.to_string
       (Json.Obj
          (("host_cores", Json.Int (Exec.Pool.default_jobs ()))
          :: List.map (fun t -> (t.id, t.run ())) tables)))

(* ------------------------------------------------------------------ *)
(* Shared run helpers.                                                  *)
(* ------------------------------------------------------------------ *)

let sched = Runtime.Sched.Round_robin 4

let compile = Lang.Compile.compile

let machine ?engine ?hooks ?(max_steps = 5_000_000) prog =
  let m = Runtime.Machine.create ?engine ~sched ~max_steps ?hooks prog in
  ignore (Runtime.Machine.run m);
  m

let run_bare ?engine ?max_steps prog = ignore (machine ?engine ?max_steps prog)

let run_logged ?engine eb =
  let logger = Trace.Logger.create eb in
  ignore
    (machine ?engine ~hooks:(Trace.Logger.factory logger) eb.Analysis.Eblock.prog)

let run_logged_race eb =
  let logger = Trace.Logger.create eb in
  let obs = Ppd.Pardyn.observer eb.Analysis.Eblock.prog in
  let hooks =
    Runtime.Hooks.both (Trace.Logger.factory logger) (Ppd.Pardyn.factory obs)
  in
  ignore (machine ~hooks eb.Analysis.Eblock.prog)

(* Instrumented, no consumer: nil hooks make the machine build the
   boundary events the logger reads (frames, processes, loops, calls,
   sync) but, wanting no statement events, not the per-statement ones.
   Isolates the cost of producing what the logger consumes from the
   cost of the logger proper. *)
let run_instr_vm prog = ignore (machine ~hooks:Runtime.Hooks.nil prog)

let logged_artifacts src =
  let eb = Analysis.Eblock.analyze (compile src) in
  let ft = Trace.Full_trace.create () in
  let _, log, m =
    Trace.Logger.run_logged ~sched ~max_steps:5_000_000
      ~extra_hooks:(Trace.Full_trace.factory ft) eb
  in
  (eb, log, Trace.Full_trace.finish ft, m)

(* The workload suite used by T1 and T2. *)
let workloads =
  [
    ("matmul-12", Workloads.matmul 12);
    ("counter-4x50", Workloads.counter ~workers:4 ~incs:50 ~mutex:true);
    ("prodcons-300", Workloads.producer_consumer ~items:300 ~cap:8);
    ("ring-6x12", Workloads.token_ring ~procs:6 ~rounds:12);
    ("branchy-150", Workloads.branchy ~rounds:150);
    ("fib-15", Workloads.fib 15);
  ]

(* ------------------------------------------------------------------ *)
(* T1: execution-phase overhead of logging (§7: "less than 15%").       *)
(* ------------------------------------------------------------------ *)

(* Three interleaved Bechamel passes, each timing every variant; a
   variant reports the median of its three estimates, so one pass
   disturbed by a noisy neighbour on a shared host cannot move a row.
   The first seven keys are what scripts/perf_gate.py check_t1_vm reads.
   Steps/run is identical across engines — the differential oracle
   proves it — so steps/sec ratios reduce to wall-time ratios. *)
let t1_run () =
  let tests =
    List.concat_map
      (fun (name, src) ->
        let prog = compile src in
        let eb = Analysis.Eblock.analyze prog in
        let eb54 =
          Analysis.Eblock.analyze
            ~policy:{ Analysis.Eblock.leaf_inline_max_stmts = 4; loop_block_min_body = 0 }
            prog
        in
        let test k f = Test.make ~name:(name ^ "/" ^ k) (Staged.stage f) in
        let interp = Runtime.Machine.Interp_engine in
        [
          test "interp-bare" (fun () -> run_bare ~engine:interp prog);
          test "interp-logged" (fun () -> run_logged ~engine:interp eb);
          test "vm-bare" (fun () -> run_bare prog);
          test "vm-instr" (fun () -> run_instr_vm prog);
          test "vm-logged" (fun () -> run_logged eb);
          test "inline4" (fun () -> run_logged eb54);
          test "logged+race" (fun () -> run_logged_race eb);
        ])
      workloads
  in
  let grouped = Test.make_grouped ~name:"t1" tests in
  let passes = List.init 3 (fun _ -> measure_tests ~quota:0.6 grouped) in
  let median3 key =
    match List.sort compare (List.map (fun r -> time_of r key) passes) with
    | [ _; m; _ ] -> m
    | _ -> assert false
  in
  Json.List
    (List.map
       (fun (name, src) ->
         let t k = median3 ("t1/" ^ name ^ "/" ^ k) in
         let bare = t "vm-bare" and instr = t "vm-instr" in
         let logged = t "vm-logged" in
         let inline4 = t "inline4" and race = t "logged+race" in
         Json.(
           Obj
             [
               ("workload", Str name);
               ("steps", Int (Runtime.Machine.nsteps (machine (compile src))));
               ("interp_bare_ns", Float (t "interp-bare"));
               ("interp_logged_ns", Float (t "interp-logged"));
               ("vm_bare_ns", Float bare);
               ("vm_instr_ns", Float instr);
               ("vm_logged_ns", Float logged);
               ("speedup", Float (ratio (t "interp-bare") bare));
               ("log_ovh_pct", Float (ovh_pct instr logged));
               ("logged_ovh_pct", Float (ovh_pct bare logged));
               ("inline4_ns", Float inline4);
               ("inline4_ovh_pct", Float (ovh_pct bare inline4));
               ("logged_race_ns", Float race);
               ("race_ovh_pct", Float (ovh_pct bare race));
             ]))
       workloads)

let t1 =
  {
    id = "t1";
    title = "T1  Execution-phase overhead of incremental tracing (paper §7: <15%)";
    note =
      "(vm = default bytecode engine, interp = AST-walking oracle; every time\n\
      \      is the median of three interleaved passes; vm_instr is instrumented\n\
      \      with no consumer (boundary events only); log_ovh compares vm+log\n\
      \      against it, the other overheads are against vm_bare; inline4\n\
      \      applies the paper's own \xc2\xa75.4 fix: no e-blocks for small leaves)";
    run = t1_run;
  }

(* ------------------------------------------------------------------ *)
(* T2: log volume vs trace-everything (§2/§3.1).                        *)
(* ------------------------------------------------------------------ *)

(* Trace-everything bytes under a plain size model, since the full trace
   has no on-disk codec: every event costs a 16-byte header (pid, seq,
   step and a statement/function id as 32-bit words) plus 8 bytes per
   value word it carries, one per scalar and one per array element. *)
let trace_bytes (tr : Trace.Full_trace.t) =
  let module E = Runtime.Event in
  let v = function Runtime.Value.Varr a -> Array.length a | _ -> 1 in
  let vo = function Some x -> v x | None -> 0 in
  let vs = List.fold_left (fun a x -> a + v x) 0 in
  let binds = List.fold_left (fun a (_, x) -> a + v x) 0 in
  let words = function
    | E.E_stmt { reads; write; kind; _ } ->
      List.fold_left (fun a (rw : E.rw) -> a + v rw.value) 0 reads
      + (match write with Some rw -> v rw.value | None -> 0)
      + (match kind with
        | E.K_call { args; _ } | E.K_spawn { args; _ } -> vs args
        | E.K_call_return { ret = x; _ }
        | E.K_return { value = x }
        | E.K_join { result = x; _ } ->
          vo x
        | E.K_print { value } -> v value
        | E.K_send _ | E.K_recv _ -> 1
        | E.K_assign | E.K_pred _ | E.K_p _ | E.K_v _ | E.K_send_unblocked _
        | E.K_assert _ ->
          0)
    | E.E_enter { binds = b; _ } | E.E_proc_start { binds = b; _ } -> binds b
    | E.E_leave { ret = x; _ } | E.E_proc_exit { result = x; _ } -> vo x
    | E.E_loop_enter _ -> 0
    | E.E_loop_exit { writes; _ } -> Option.fold ~none:0 ~some:binds writes
  in
  Array.fold_left
    (fun a (r : Trace.Full_trace.rec_) -> a + 16 + (8 * words r.tr_ev))
    0 tr.Trace.Full_trace.recs

let t2 =
  {
    id = "t2";
    title = "T2  Log volume: incremental tracing vs trace-everything baseline";
    note = "(ratio = trace_bytes / log_bytes)";
    run =
      (fun () ->
        Json.List
          (List.map
             (fun (name, src) ->
               let _eb, log, tr, _m = logged_artifacts src in
               let lb = Store.Segment.encoded_size log in
               let tb = trace_bytes tr in
               Json.(
                 Obj
                   [
                     ("workload", Str name);
                     ("log_entries", Int (Trace.Log.entry_count log));
                     ("log_bytes", Int lb);
                     ("trace_events", Int (Trace.Full_trace.nevents tr));
                     ("trace_bytes", Int tb);
                     ("ratio", Float (float_of_int tb /. float_of_int (max 1 lb)));
                   ]))
             workloads));
  }

(* ------------------------------------------------------------------ *)
(* T3: e-block granularity (§5.4): execution cost vs debugging cost.    *)
(* ------------------------------------------------------------------ *)

(* Many small leaf helpers called from loops; the error at the end makes
   a fixed flowback query possible. *)
let granularity_src =
  {|
func inc(x) { return x + 1; }
func double(x) {
  var t = x;
  t = t + x;
  return t;
}
func dec(x) {
  var t = x;
  var d = 1;
  t = t - d;
  var chk = t + d;
  assert(chk == x);
  return t;
}
func main() {
  var v = 1;
  var i = 0;
  for (i = 0; i < 40; i = i + 1) {
    var a = inc(v);
    var b = double(a);
    v = dec(b);
    if (v > 1000) {
      v = v - 1000;
    }
  }
  assert(v == 0);
}
|}

(* Two debugging-phase queries per policy: a shallow one (immediate
   dependences of the error — §3.2.3's first screen) and the full
   slice. *)
let t3_row knob threshold src policy =
  let eb = Analysis.Eblock.analyze ~policy (compile src) in
  let _, log, _ = Trace.Logger.run_logged ~sched eb in
  let replay_steps query =
    let ctl = Ppd.Controller.start eb log in
    (match Ppd.Controller.last_event_node ctl ~pid:0 with
    | Some root -> ignore (query ctl root)
    | None -> ());
    (Ppd.Controller.stats ctl).Ppd.Controller.replay_steps
  in
  let fblocks =
    Array.fold_left (fun a b -> if b then a + 1 else a) 0 eb.is_eblock
  in
  Json.(
    Obj
      [
        ("knob", Str knob);
        ("threshold", Int threshold);
        ("eblocks", Int (fblocks + Hashtbl.length eb.loop_blocks));
        ("log_entries", Int (Trace.Log.entry_count log));
        ( "steps_shallow",
          Int (replay_steps (fun c r -> ignore (Ppd.Flowback.dependences c r))) );
        ( "steps_slice",
          Int (replay_steps (fun c r -> ignore (Ppd.Flowback.backward_slice c r)))
        );
      ])

(* The same trade-off for loop e-blocks (§5.4's other knob): matmul's
   nested loops dominate main, so promoting them to blocks makes the
   first query cheap at the cost of per-loop logging. *)
let t3 =
  {
    id = "t3";
    title = "T3  E-block granularity (§5.4): leaf inlining threshold sweep";
    note =
      "(larger blocks: fewer log entries during execution, but the first\n\
      \      debugging-phase question costs more re-execution; loop e-blocks\n\
      \      (threshold 0 = off) let the debugger skip matmul's loop nests\n\
      \      until asked)";
    run =
      (fun () ->
        let block leaf loop =
          { Analysis.Eblock.leaf_inline_max_stmts = leaf; loop_block_min_body = loop }
        in
        Json.List
          (List.map
             (fun th -> t3_row "leaf" th granularity_src (block th 0))
             [ 0; 1; 3; 5; 100 ]
          @ List.map
              (fun th -> t3_row "loop" th (Workloads.matmul 8) (block 0 th))
              [ 0; 8; 4; 2 ]));
  }

(* ------------------------------------------------------------------ *)
(* T4: bitmask vs list variable sets (§7).                              *)
(* ------------------------------------------------------------------ *)

(* A call chain with global traffic, scaled by function count. *)
let modref_src ~nfuncs ~nglobals =
  let b = Buffer.create 2048 in
  for g = 0 to nglobals - 1 do
    Buffer.add_string b (Printf.sprintf "shared int g%d = 0;\n" g)
  done;
  Buffer.add_string b "func f0(x) { g0 = g0 + x; return g0; }\n";
  for i = 1 to nfuncs - 1 do
    Buffer.add_string b
      (Printf.sprintf
         "func f%d(x) { g%d = g%d + x; var y = f%d(x + 1); var z = g%d; return y + z; }\n"
         i (i mod nglobals) (i mod nglobals) (i - 1)
         ((i * 7) mod nglobals))
  done;
  Buffer.add_string b
    (Printf.sprintf "func main() { var r = f%d(1); print(r); }\n" (nfuncs - 1));
  Buffer.contents b

let t4_run () =
  let sizes = [ (20, 10); (60, 30); (150, 75) ] in
  let tests =
    List.concat_map
      (fun (nfuncs, nglobals) ->
        let prog = compile (modref_src ~nfuncs ~nglobals) in
        let module B = Analysis.Interproc.Make (Analysis.Varset.Bits) in
        let module L = Analysis.Interproc.Make (Analysis.Varset.Lists) in
        [
          Test.make
            ~name:(Printf.sprintf "%d-funcs/bitmask" nfuncs)
            (Staged.stage (fun () -> ignore (B.compute prog)));
          Test.make
            ~name:(Printf.sprintf "%d-funcs/list" nfuncs)
            (Staged.stage (fun () -> ignore (L.compute prog)));
        ])
      sizes
  in
  let results = measure_tests (Test.make_grouped ~name:"t4" tests) in
  Json.List
    (List.map
       (fun (nfuncs, _) ->
         let b = time_of results (Printf.sprintf "t4/%d-funcs/bitmask" nfuncs) in
         let l = time_of results (Printf.sprintf "t4/%d-funcs/list" nfuncs) in
         Json.(
           Obj
             [
               ("funcs", Int nfuncs);
               ("bitmask_ns", Float b);
               ("list_ns", Float l);
               ("speedup", Float (ratio l b));
             ]))
       sizes)

let t4 =
  {
    id = "t4";
    title = "T4  Variable-set representation (§7): bitmask vs sorted list";
    note = "(the paper: \"bit-mask representations ... can have a large payoff\")";
    run = t4_run;
  }

(* ------------------------------------------------------------------ *)
(* T5: race detection algorithms (§7).                                  *)
(* ------------------------------------------------------------------ *)

let t5_row workers =
  let prog = compile (Workloads.counter ~workers ~incs:6 ~mutex:false) in
  let obs = Ppd.Pardyn.observer prog in
  ignore (machine ~hooks:(Ppd.Pardyn.factory obs) prog);
  let g = Ppd.Pardyn.finish obs in
  let naive = Ppd.Race.detect ~algo:Ppd.Race.Naive g in
  let indexed = Ppd.Race.detect ~algo:Ppd.Race.Indexed g in
  assert (naive.Ppd.Race.races = indexed.Ppd.Race.races);
  let results =
    measure_tests ~quota:0.25
      (Test.make_grouped ~name:"t5"
         [
           Test.make ~name:"naive"
             (Staged.stage (fun () -> ignore (Ppd.Race.detect ~algo:Ppd.Race.Naive g)));
           Test.make ~name:"indexed"
             (Staged.stage (fun () ->
                  ignore (Ppd.Race.detect ~algo:Ppd.Race.Indexed g)));
           Test.make ~name:"static"
             (Staged.stage (fun () -> ignore (Analysis.Static_race.analyze prog)));
         ])
  in
  Json.(
    Obj
      [
        ("workers", Int workers);
        ("edges", Int (Array.length g.Ppd.Pardyn.iedges));
        ("naive_pairs", Int naive.Ppd.Race.pairs_examined);
        ("naive_ns", Float (time_of results "t5/naive"));
        ("index_pairs", Int indexed.Ppd.Race.pairs_examined);
        ("index_ns", Float (time_of results "t5/indexed"));
        ("static_ns", Float (time_of results "t5/static"));
      ])

let t5 =
  {
    id = "t5";
    title = "T5  All-pairs conflict detection (§7): naive vs per-variable index";
    note =
      "(static = text-only lockset analysis: schedule-independent, \
       over-approximate)";
    run = (fun () -> Json.List (List.map t5_row [ 2; 4; 8; 16 ]));
  }

(* ------------------------------------------------------------------ *)
(* T6: debugging-phase query cost (§3.1, §5.3).                         *)
(* ------------------------------------------------------------------ *)

let t6_row (name, src, query_all) =
  let eb, log, tr, _m = logged_artifacts src in
  let ctl = Ppd.Controller.start eb log in
  (match Ppd.Controller.last_event_node ctl ~pid:0 with
  | Some root ->
    if query_all then ignore (Ppd.Flowback.backward_slice ctl root)
    else ignore (Ppd.Flowback.dependences ctl root)
  | None -> ());
  let st = Ppd.Controller.stats ctl in
  let total = st.Ppd.Controller.intervals_total in
  let replays = st.Ppd.Controller.replays in
  Json.(
    Obj
      [
        ("workload", Str name);
        ("intervals", Int total);
        ("replayed", Int replays);
        ("replay_steps", Int st.Ppd.Controller.replay_steps);
        ("trace_events", Int (Trace.Full_trace.nevents tr));
        ( "replayed_pct",
          Float (100. *. float_of_int replays /. float_of_int (max 1 total)) );
      ])

let t6 =
  {
    id = "t6";
    title = "T6  Flowback query cost: intervals emulated vs total";
    note =
      "(shallow queries touch few intervals; whole-slice queries expand on demand)";
    run =
      (fun () ->
        Json.List
          (List.map t6_row
             [
               ("fig41/shallow", Workloads.fig41, false);
               ("fig41/slice", Workloads.fig41, true);
               ("deep-24/shallow", Workloads.deep_calls ~depth:24, false);
               ("deep-24/slice", Workloads.deep_calls ~depth:24, true);
               ("fib-10/shallow", Workloads.fib 10, false);
               ("branchy/slice", Workloads.branchy ~rounds:60, true);
             ]));
  }

(* ------------------------------------------------------------------ *)
(* T7: state restoration (§5.7).                                        *)
(* ------------------------------------------------------------------ *)

(* Each row restores the shared store at a fraction of the run and
   times that restore against re-executing the same number of steps. *)
let t7_run () =
  let src = Workloads.counter ~workers:4 ~incs:40 ~mutex:true in
  let eb, log, _tr, m = logged_artifacts src in
  let prog = eb.Analysis.Eblock.prog in
  let total_steps = Runtime.Machine.nsteps m in
  let fracs = [ 25; 50; 75; 100 ] in
  let step frac = total_steps * frac / 100 in
  let results =
    measure_tests ~quota:0.2
      (Test.make_grouped ~name:"t7"
         (List.concat_map
            (fun frac ->
              let step = step frac in
              [
                Test.make
                  ~name:(Printf.sprintf "%d/restore" frac)
                  (Staged.stage (fun () ->
                       ignore (Ppd.Restore.shared_at prog log ~step)));
                Test.make
                  ~name:(Printf.sprintf "%d/re-execute" frac)
                  (Staged.stage (fun () -> run_bare ~max_steps:step prog));
              ])
            fracs))
  in
  Json.List
    (List.map
       (fun frac ->
         let snap = Ppd.Restore.shared_at prog log ~step:(step frac) in
         let t k = time_of results (Printf.sprintf "t7/%d/%s" frac k) in
         Json.(
           Obj
             [
               ("at_pct", Int frac);
               ("entries_scanned", Int snap.Ppd.Restore.entries_scanned);
               ("reexec_steps", Int (step frac));
               ( "restored_count",
                 Str (Runtime.Value.to_string snap.Ppd.Restore.globals.(0)) );
               ("restore_ns", Float (t "restore"));
               ("reexec_ns", Float (t "re-execute"));
             ]))
       fracs)

let t7 =
  {
    id = "t7";
    title = "T7  State restoration from postlogs vs re-execution";
    note = "(reexec_ns re-executes the program up to the same step)";
    run = t7_run;
  }

(* ------------------------------------------------------------------ *)
(* T8: statement-level MHP — analysis cost and sync-unit prelog         *)
(* pruning (fewer log entries, same replay fidelity).                   *)
(* ------------------------------------------------------------------ *)

let sync_prelog_stats (log : Trace.Log.t) =
  Array.fold_left
    (Array.fold_left (fun (n, vars) entry ->
         match entry with
         | Trace.Log.Sync_prelog { vals; _ } -> (n + 1, vars + List.length vals)
         | _ -> (n, vars)))
    (0, 0) log.Trace.Log.entries

let t8_row (name, src) =
  let prog = compile src in
  let eb_raw = Analysis.Eblock.analyze ~prune_sync_prelogs:false prog in
  let eb = Analysis.Eblock.analyze prog in
  let _, raw_log, _ = Trace.Logger.run_logged ~sched eb_raw in
  let _, log, _ = Trace.Logger.run_logged ~sched eb in
  let n0, v0 = sync_prelog_stats raw_log in
  let n1, v1 = sync_prelog_stats log in
  let results =
    measure_tests ~quota:0.1
      (Test.make_grouped ~name:"t8"
         [
           Test.make ~name:"mhp"
             (Staged.stage (fun () -> ignore (Analysis.Mhp.compute prog)));
           Test.make ~name:"lint"
             (Staged.stage (fun () -> ignore (Analysis.Lint.run prog)));
           Test.make ~name:"eblock+prune"
             (Staged.stage (fun () -> ignore (Analysis.Eblock.analyze prog)));
         ])
  in
  Json.(
    Obj
      [
        ("workload", Str name);
        ("sync_prelogs", Int n0);
        ("sync_prelogs_pruned", Int n1);
        ("vars", Int v0);
        ("vars_pruned", Int v1);
        ("vars_pct", Float (ovh_pct (float_of_int v0) (float_of_int v1)));
        ("mhp_ns", Float (time_of results "t8/mhp"));
        ("lint_ns", Float (time_of results "t8/lint"));
        ("eblock_ns", Float (time_of results "t8/eblock+prune"));
      ])

let t8 =
  {
    id = "t8";
    title = "T8  Statement-level MHP: lint cost and sync-unit prelog pruning";
    note =
      "(vars_pct is the change in prelogged variables; lint runs all passes,\n\
      \      eblock_ns is the e-block analysis with pruning)";
    run =
      (fun () ->
        Json.List
          (List.map t8_row
             (workloads
             @ [ ("config-4x40", Workloads.config_pipeline ~workers:4 ~rounds:40) ]
             )));
  }

(* ------------------------------------------------------------------ *)
(* T9: durable store — v2 segment size and save/load/open cost.         *)
(* ------------------------------------------------------------------ *)

let t9_row (name, src) =
  let eb = Analysis.Eblock.analyze (compile src) in
  let _, log, _ = Trace.Logger.run_logged ~sched eb in
  let path = Filename.temp_file "ppd_bench" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let results =
        measure_tests ~quota:0.3
          (Test.make_grouped ~name:"t9"
             [
               Test.make ~name:"save"
                 (Staged.stage (fun () -> Store.Segment.save path log));
               Test.make ~name:"load"
                 (Staged.stage (fun () -> ignore (Store.Segment.load path)));
               (* open = trailer + footer only: what the demand-paged
                  controller pays before the first query *)
               Test.make ~name:"open"
                 (Staged.stage (fun () -> ignore (Store.Segment.open_file path)));
             ])
      in
      Json.(
        Obj
          [
            ("workload", Str name);
            ("entries", Int (Trace.Log.entry_count log));
            ("v2_bytes", Int (Store.Segment.encoded_size log));
            ("v2_save_ns", Float (time_of results "t9/save"));
            ("v2_load_ns", Float (time_of results "t9/load"));
            ("v2_open_ns", Float (time_of results "t9/open"));
          ]))

let t9 =
  {
    id = "t9";
    title = "T9  Durable store: v2 CRC-framed segments";
    note = "";
    run = (fun () -> Json.List (List.map t9_row workloads));
  }

(* ------------------------------------------------------------------ *)
(* T10: parallel emulation — domain-pool batch replay vs serial.        *)
(* ------------------------------------------------------------------ *)

(* Bechamel drives the closure many times inside one measurement, which
   is wrong for a stage that spawns domains and mutates a controller;
   T10 times whole batch replays by wall clock instead (best of
   [t10_repeats]). *)
let t10_repeats = 3

let t10_jobs = [ 1; 2; 4; 8 ]

let t10_workloads =
  [
    ("config-8x300", Workloads.config_pipeline ~workers:8 ~rounds:300);
    ("config-4x600", Workloads.config_pipeline ~workers:4 ~rounds:600);
  ]

(* Every interval of every process, the batch a full replay covers. *)
let all_intervals ctl nprocs =
  List.concat
    (List.init nprocs (fun pid ->
         List.init
           (Array.length (Ppd.Controller.intervals ctl ~pid))
           (fun iv_id -> (pid, iv_id))))

let t10_row (name, src) =
  let eb = Analysis.Eblock.analyze (compile src) in
  let _, log, _ = Trace.Logger.run_logged ~sched eb in
  let replay_once jobs =
    let pool = if jobs > 1 then Some (Exec.Pool.create ~jobs ()) else None in
    let ctl = Ppd.Controller.start ?pool eb log in
    let keys = all_intervals ctl log.Trace.Log.nprocs in
    (* monotonic, not wall-clock: gettimeofday is subject to NTP
       slews/steps, which on a long batch replay can shrink or
       stretch a measurement and flip the CI speedup gate *)
    let t0 = Obs.now_ns () in
    Ppd.Controller.build_intervals_par ctl keys;
    let dt = float_of_int (Obs.now_ns () - t0) /. 1e9 in
    Option.iter Exec.Pool.shutdown pool;
    let dump = Format.asprintf "%a" Ppd.Dyn_graph.pp (Ppd.Controller.graph ctl) in
    let domains = match pool with Some p -> Exec.Pool.jobs p | None -> 1 in
    (dt, dump, domains, List.length keys)
  in
  let intervals = ref 0 in
  let baseline = ref "" in
  let identical = ref true in
  let runs =
    List.map
      (fun jobs ->
        let best = ref infinity and doms = ref 1 in
        for _ = 1 to t10_repeats do
          let dt, dump, domains, nkeys = replay_once jobs in
          if dt < !best then best := dt;
          doms := domains;
          intervals := nkeys;
          if jobs = 1 && !baseline = "" then baseline := dump
          else if dump <> !baseline then identical := false
        done;
        (jobs, !doms, !best))
      t10_jobs
  in
  let seconds j = List.fold_left (fun a (j', _, s) -> if j' = j then s else a) nan runs in
  Json.(
    Obj
      [
        ("workload", Str name);
        ("intervals", Int !intervals);
        ("identical", Bool !identical);
        ( "runs",
          List
            (List.map
               (fun (jobs, domains, s) ->
                 Obj
                   [ ("jobs", Int jobs); ("domains", Int domains); ("seconds", Float s) ])
               runs) );
        ("speedup4", Float (ratio (seconds 1) (seconds 4)));
      ])

let t10 =
  {
    id = "t10";
    title = "T10  Parallel emulation: domain-pool batch replay vs -j1 (serial)";
    note =
      "(e-block intervals replay independently from their prelogs, so the\n\
      \      debugging phase parallelises; graph assembly stays serial and\n\
      \      deterministic — 'identical' checks the full graph dump; pool\n\
      \      sizes above the host's core count are clamped, see domains)";
    run = (fun () -> Json.List (List.map t10_row t10_workloads));
  }

(* ------------------------------------------------------------------ *)
(* T11: overhead of the observability layer itself.                     *)
(* ------------------------------------------------------------------ *)

(* The layer's contract is "free when disabled": every counter and span
   operation reads one atomic boolean and returns. T11 measures the
   instrumented T1 logging path (which now carries obs calls) with
   collection off and on, plus the raw per-call cost of one disabled
   counter operation — the quantity the perf gate bounds, since it is
   what every hot path pays when nobody is profiling. *)

let t11_workloads =
  List.filter (fun (n, _) -> n = "counter-4x50" || n = "branchy-150") workloads

let t11_disabled_op_ns () =
  Obs.disable ();
  let c = Obs.counter "bench.t11.disabled_op" in
  let iters = 20_000_000 in
  let t0 = Obs.now_ns () in
  for _ = 1 to iters do
    Obs.incr c
  done;
  float_of_int (Obs.now_ns () - t0) /. float_of_int iters

let t11_row (name, src) =
  let prog = compile src in
  let eb = Analysis.Eblock.analyze prog in
  (* bare and obs-off share one measurement batch; obs-on runs in a
     second batch so the enabled flag never leaks into the others.
     The per-run [reset] keeps the recorded-span list from growing
     across bechamel iterations (and is itself part of the enabled
     cost, which only makes the "on" column conservative). *)
  let off =
    measure_tests ~quota:0.4
      (Test.make_grouped ~name:"t11"
         [
           Test.make ~name:(name ^ "/bare") (Staged.stage (fun () -> run_bare prog));
           Test.make ~name:(name ^ "/off") (Staged.stage (fun () -> run_logged eb));
         ])
  in
  Obs.enable ();
  let on =
    measure_tests ~quota:0.4
      (Test.make_grouped ~name:"t11"
         [
           Test.make ~name:(name ^ "/on")
             (Staged.stage (fun () ->
                  Obs.reset ();
                  run_logged eb));
         ])
  in
  Obs.disable ();
  Obs.reset ();
  let bare = time_of off ("t11/" ^ name ^ "/bare") in
  let off = time_of off ("t11/" ^ name ^ "/off") in
  let on = time_of on ("t11/" ^ name ^ "/on") in
  Json.(
    Obj
      [
        ("workload", Str name);
        ("bare_ns", Float bare);
        ("off_ns", Float off);
        ("on_ns", Float on);
        ("off_ovh_pct", Float (ovh_pct bare off));
        ("on_ovh_pct", Float (ovh_pct off on));
      ])

let t11 =
  {
    id = "t11";
    title = "T11  Observability-layer overhead (disabled must be free)";
    note =
      "(off_ovh is the T1 logging overhead over bare; on_ovh is what enabling\n\
      \      collection adds on top of it — profiling is pay-as-you-go)";
    run =
      (fun () ->
        let op = t11_disabled_op_ns () in
        Json.(
          Obj
            [
              ("disabled_op_ns", Float op);
              ("rows", List (List.map t11_row t11_workloads));
            ]));
  }

(* ------------------------------------------------------------------ *)
(* T12: overhead of the fault-injection layer itself.                   *)
(* ------------------------------------------------------------------ *)

(* Same contract as T11: a disarmed check site is one atomic load, so
   the layer can stay compiled into every I/O and execution edge. T12
   bounds the raw per-call cost of a disarmed [Fault.fire], then times
   a full log-and-flowback pass disarmed vs armed with a plan entry
   that never matches — the worst armed case that still injects
   nothing, so every check pays the full plan lookup. *)

let t12_site = Fault.site "bench.t12.point"

let t12_disabled_op_ns () =
  Fault.disarm ();
  let iters = 20_000_000 in
  let t0 = Obs.now_ns () in
  for _ = 1 to iters do
    ignore (Fault.fire t12_site)
  done;
  float_of_int (Obs.now_ns () - t0) /. float_of_int iters

let t12_row (name, src) =
  let prog = compile src in
  let eb = Analysis.Eblock.analyze prog in
  (* one closure covers both phases the layer instruments: the
     logged execution (sink/segment sites) and the serial interval
     replay of the debugging phase (pool/emulator sites) *)
  let flow () =
    let logger = Trace.Logger.create eb in
    ignore (machine ~hooks:(Trace.Logger.factory logger) prog);
    let log = Trace.Logger.finish logger in
    let ctl = Ppd.Controller.start eb log in
    Ppd.Controller.build_intervals_par ctl (all_intervals ctl log.Trace.Log.nprocs)
  in
  let measure k =
    time_of
      (measure_tests ~quota:0.4
         (Test.make_grouped ~name:"t12" [ Test.make ~name:k (Staged.stage flow) ]))
      ("t12/" ^ k)
  in
  Fault.disarm ();
  let off = measure (name ^ "/off") in
  (match Fault.arm "bench.t12.point:1000000000" with
  | Ok () -> ()
  | Error e -> failwith e);
  let armed = measure (name ^ "/armed") in
  Fault.disarm ();
  Json.(
    Obj
      [
        ("workload", Str name);
        ("off_ns", Float off);
        ("armed_ns", Float armed);
        ("armed_ovh_pct", Float (ovh_pct off armed));
      ])

let t12 =
  {
    id = "t12";
    title = "T12  Fault-injection layer overhead (disarmed must be free)";
    note =
      "(both columns run the full log-and-flowback pass; the armed plan\n\
      \      entry never matches, so the delta is pure bookkeeping — the CI\n\
      \      gate bounds the disarmed per-check cost)";
    run =
      (fun () ->
        let op = t12_disabled_op_ns () in
        Json.(
          Obj
            [
              ("disabled_op_ns", Float op);
              ("rows", List (List.map t12_row t11_workloads));
            ]));
  }

(* ------------------------------------------------------------------ *)
(* Daemon load shared by T13 and T17.                                   *)
(* ------------------------------------------------------------------ *)

(* Client threads drive the in-process dispatcher over one recorded
   log: each registers a session, opens a handle, issues heavy
   requests, and closes. Latency is measured around [handle_line] per
   heavy request. The admission queue is sized so nothing sheds: both
   tables' bar is zero protocol errors. *)
let serve_config =
  { Serve.Server.default_config with jobs = 1; max_active = 8; max_queue = 4096 }

let serve_fixture () =
  let src = Workloads.config_pipeline ~workers:4 ~rounds:40 in
  let mpl = Filename.temp_file "ppd_serve" ".mpl" in
  let seg = Filename.temp_file "ppd_serve" ".seg" in
  Out_channel.with_open_text mpl (fun oc -> Out_channel.output_string oc src);
  let eb = Analysis.Eblock.analyze (compile src) in
  let w = Store.Segment.Writer.to_file seg in
  ignore
    (Trace.Logger.run_logged ~sched ~max_steps:5_000_000
       ~sink:(Store.Segment.Writer.sink w) eb);
  Store.Segment.Writer.close w;
  (mpl, seg)

(* The [open] request every daemon client starts its session with. *)
let open_request ~seg ~mpl =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int 1);
         ("method", Json.Str "open");
         ("params", Json.Obj [ ("log", Json.Str seg); ("program", Json.Str mpl) ]);
       ])

let jint v name =
  match Option.bind (Json.member name v) Json.to_int with Some i -> i | None -> 0

(* A response line: [Ok result] or [Error code]. *)
let response line =
  match Json.parse line with
  | Error _ -> Error "unparseable"
  | Ok v -> (
    match Json.member "error" v with
    | Some e ->
      Error (Option.value ~default:"?" (Option.bind (Json.member "code" e) Json.to_str))
    | None -> Ok (Option.value ~default:Json.Null (Json.member "result" v)))

let server_stats srv =
  let s = Serve.Server.session srv in
  let resp = Serve.Server.handle_line srv s {|{"id":1,"method":"serverStats"}|} in
  Serve.Server.end_session srv s;
  Result.to_option (response resp)

type load = {
  lock : Mutex.t;
  mutable lats : float list;
  mutable errors : int;  (* unexpected error responses: the bar is zero *)
  mutable refused : int;  (* error codes the scenario expects, by design *)
  mutable hits : int;
  mutable misses : int;
}

let new_load () =
  { lock = Mutex.create (); lats = []; errors = 0; refused = 0; hits = 0; misses = 0 }

(* One client session: open a handle on [seg], send [requests] requests
   of method [meth k] with [params] spliced into the body, classify
   every response (codes in [expected] are refusals, any other error
   counts), close, and fold the latencies and cache counters into
   [load]. *)
let client srv ~mpl ~seg ~requests ?(meth = fun _ -> "flowback") ?(params = "")
    ?(expected = []) load =
  let s = Serve.Server.session srv in
  let say line = Serve.Server.handle_line srv s line in
  let lats = ref [] and errors = ref 0 and refused = ref 0 in
  let hits = ref 0 and misses = ref 0 in
  let result resp =
    match response resp with
    | Ok r -> Some r
    | Error c ->
      if List.mem c expected then incr refused else incr errors;
      None
  in
  let h =
    match result (say (open_request ~seg ~mpl)) with
    | Some r -> jint r "handle"
    | None -> -1
  in
  for k = 1 to requests do
    let line =
      Printf.sprintf {|{"id":%d,"method":"%s","params":{"handle":%d,"depth":2%s}}|}
        (k + 1) (meth k) h params
    in
    let t0 = Obs.now_ns () in
    let resp = say line in
    let dt = float_of_int (Obs.now_ns () - t0) in
    (match result resp with
    | Some r ->
      hits := !hits + jint r "cacheHits";
      misses := !misses + jint r "cacheMisses"
    | None -> ());
    lats := dt :: !lats
  done;
  ignore (say (Printf.sprintf {|{"id":99,"method":"close","params":{"handle":%d}}|} h));
  Serve.Server.end_session srv s;
  Mutex.lock load.lock;
  load.lats <- !lats @ load.lats;
  load.errors <- load.errors + !errors;
  load.refused <- load.refused + !refused;
  load.hits <- load.hits + !hits;
  load.misses <- load.misses + !misses;
  Mutex.unlock load.lock

let concurrently clients =
  List.iter Thread.join (List.map (fun f -> Thread.create f ()) clients)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let sorted_lats load =
  let a = Array.of_list load.lats in
  Array.sort Float.compare a;
  a

(* ------------------------------------------------------------------ *)
(* T13: the serve daemon under concurrent sessions.                     *)
(* ------------------------------------------------------------------ *)

(* Each session issues a fixed mix of flowback and replay requests. The
   shared fragment cache is what makes N sessions cheaper than N
   one-shot CLI runs, so its hit rate is the headline number. *)
let t13_row ~mpl ~seg n =
  (* fresh server per N: every row starts from a cold cache *)
  let srv = Serve.Server.create ~config:serve_config () in
  let load = new_load () in
  let meth k = if k land 1 = 1 then "flowback" else "replay" in
  concurrently (List.init n (fun _ () -> client srv ~mpl ~seg ~requests:6 ~meth load));
  (* shed count from the daemon's own accounting *)
  let shed =
    match Option.bind (server_stats srv) (Json.member "gate") with
    | Some g -> jint g "shed"
    | None -> 0
  in
  Serve.Server.shutdown srv;
  let lats = sorted_lats load in
  let looked_up = load.hits + load.misses in
  Json.(
    Obj
      [
        ("sessions", Int n);
        ("requests", Int (Array.length lats));
        ("errors", Int load.errors);
        ("p50_ns", Float (percentile lats 0.50));
        ("p99_ns", Float (percentile lats 0.99));
        ("hits", Int load.hits);
        ("misses", Int load.misses);
        ( "hit_rate",
          Float
            (if looked_up = 0 then 0.
             else float_of_int load.hits /. float_of_int looked_up) );
        ("shed", Int shed);
      ])

let t13 =
  {
    id = "t13";
    title = "T13  Serve daemon: concurrent sessions over one shared log";
    note =
      "(every session issues the same flowback/replay mix; the shared\n\
      \      fragment cache turns N concurrent sessions into one cold pass\n\
      \      plus N-1 warm ones — the hit rate is the sharing visible)";
    run =
      (fun () ->
        let mpl, seg = serve_fixture () in
        Fun.protect
          ~finally:(fun () ->
            Sys.remove mpl;
            Sys.remove seg)
          (fun () -> Json.List (List.map (t13_row ~mpl ~seg) [ 1; 4; 16; 64 ])));
  }

(* ------------------------------------------------------------------ *)
(* T14: the ordering-based logging tier (DESIGN §16) — bytes on disk,   *)
(* reconstruction cost and identity, and checkpoint-bounded seeks.      *)
(* ------------------------------------------------------------------ *)

(* Sync-heavy workloads are where the order tier earns its keep: the
   content tier snapshots every shared variable a sync unit may read,
   so when critical sections touch sizeable shared state (the hist
   rows) the
   log is dominated by value snapshots the order tier regenerates
   instead of recording. Scalar sync loops (counter, prodcons, ring)
   ride along as context: both tiers keep the sync skeleton verbatim,
   so the saving there is bounded by the snapshot share (~1-2x), and
   matmul-12 is the compute-heavy control with almost no sync at all.
   The perf gate (check_t14) requires an order-of-magnitude byte
   reduction on the sync-heavy set and reconstruction identity
   everywhere. *)
let t14_workloads =
  [
    ( "hist-4x24x512",
      Workloads.locked_hist ~workers:4 ~rounds:24 ~cells:512,
      true );
    ( "hist-8x12x512",
      Workloads.locked_hist ~workers:8 ~rounds:12 ~cells:512,
      true );
    ("counter-4x50", Workloads.counter ~workers:4 ~incs:50 ~mutex:true, false);
    ("prodcons-300", Workloads.producer_consumer ~items:300 ~cap:8, false);
    ("ring-6x12", Workloads.token_ring ~procs:6 ~rounds:12, false);
    ("matmul-12", Workloads.matmul 12, false);
  ]

let t14_tier =
  Trace.Log.T_order
    { Trace.Log.o_sched = "rr:4"; o_engine = "vm"; o_max_steps = 5_000_000 }

let t14_row (name, src, sync_heavy) =
  let prog = compile src in
  let eb = Analysis.Eblock.analyze prog in
  let _, content, m = Trace.Logger.run_logged ~sched ~max_steps:5_000_000 eb in
  let _, order, _ =
    Trace.Logger.run_logged ~sched ~max_steps:5_000_000 ~tier:t14_tier eb
  in
  let recon = Ppd.Reconstruct.reconstruct eb order in
  (* Seek-to-step: restore the shared store three quarters into the
     run. The reconstructed log carries the order log's checkpoints,
     the content log has none, so the scan counts isolate exactly
     what checkpoint seeding saves. *)
  let late = Runtime.Machine.nsteps m * 3 / 4 in
  let scanned log =
    (Ppd.Restore.shared_at prog log ~step:late).Ppd.Restore.entries_scanned
  in
  let first_query log () =
    let ctl = Ppd.Controller.start eb log in
    ignore (Ppd.Controller.last_event_node ctl ~pid:0)
  in
  let results =
    measure_tests ~quota:0.3
      (Test.make_grouped ~name:"t14"
         [
           Test.make ~name:(name ^ "/recon")
             (Staged.stage (fun () -> ignore (Ppd.Reconstruct.reconstruct eb order)));
           Test.make ~name:(name ^ "/fb-content") (Staged.stage (first_query content));
           Test.make ~name:(name ^ "/fb-order") (Staged.stage (first_query order));
         ])
  in
  let t k = time_of results ("t14/" ^ name ^ "/" ^ k) in
  let content_bytes = Store.Segment.encoded_size content in
  let order_bytes = Store.Segment.encoded_size order in
  Json.(
    Obj
      [
        ("workload", Str name);
        ("sync_heavy", Bool sync_heavy);
        ("steps", Int (Runtime.Machine.nsteps m));
        ("content_bytes", Int content_bytes);
        ("order_bytes", Int order_bytes);
        ("checkpoints", Int (Array.length order.Trace.Log.ckpts));
        (* reconstruction == content log, entry for entry *)
        ( "identity",
          Bool
            (recon.Trace.Log.entries = content.Trace.Log.entries
            && recon.Trace.Log.stops = content.Trace.Log.stops) );
        ("recon_ns", Float (t "recon"));
        (* Controller.start + first query; the order tier's includes the
           reconstruction *)
        ("fb_content_ns", Float (t "fb-content"));
        ("fb_order_ns", Float (t "fb-order"));
        (* restore scan cost without checkpoints, then seeded from the
           nearest checkpoint *)
        ("scan_full", Int (scanned content));
        ("scan_ckpt", Int (scanned recon));
        ("ratio", Float (ratio (float_of_int content_bytes) (float_of_int order_bytes)));
      ])

let t14 =
  {
    id = "t14";
    title = "T14  Ordering-based logging: bytes, reconstruction, seeks";
    note =
      "(order logs keep only the sync order plus checkpoints; debugging\n\
      \      one re-executes the program under the recorded scheduler and\n\
      \      validates the sync skeleton, so flowback answers are identical)";
    run = (fun () -> Json.List (List.map t14_row t14_workloads));
  }

(* ------------------------------------------------------------------ *)
(* T16: communication-protocol analysis — latency of the product        *)
(* exploration and the MHP pairs it discharges, as the process count    *)
(* grows. The gate checks the proto column never falls below the        *)
(* spawn/join baseline (refinement must only ever add discharge).       *)
(* ------------------------------------------------------------------ *)

let t16_workloads =
  [
    ("pipeline/w2", Workloads.config_pipeline ~workers:2 ~rounds:2);
    ("pipeline/w3", Workloads.config_pipeline ~workers:3 ~rounds:2);
    ("pipeline/w4", Workloads.config_pipeline ~workers:4 ~rounds:2);
    ("ping_pong", Workloads.ping_pong ~rounds:2);
  ]

let t16_row (name, src) =
  let prog = compile src in
  let base = Analysis.Mhp.compute prog in
  (* warm once (the measured call also produces the result we read) *)
  ignore (Analysis.Proto.analyze ~mhp:base prog);
  let iters = 25 in
  let t0 = Obs.now_ns () in
  let r = ref (Analysis.Proto.analyze ~mhp:base prog) in
  for _ = 2 to iters do
    r := Analysis.Proto.analyze ~mhp:base prog
  done;
  let ns = float_of_int (Obs.now_ns () - t0) /. float_of_int iters in
  let r = !r in
  let conflicting, d0 = Analysis.Proto.discharged_pairs prog base in
  let d1 =
    match r.Analysis.Proto.refined with
    | Some m -> snd (Analysis.Proto.discharged_pairs prog m)
    | None -> d0
  in
  Json.(
    Obj
      [
        ("workload", Str name);
        ("states", Int r.Analysis.Proto.stats.Analysis.Proto.states_full);
        ("analyze_ns", Float ns);
        ("conflicting", Int conflicting);
        ("discharged_base", Int d0);
        ("discharged_proto", Int d1);
      ])

let t16 =
  {
    id = "t16";
    title = "T16  Protocol analysis: latency and discharged MHP pairs";
    note =
      "(base counts pairs discharged by spawn/join structure alone; proto\n\
      \      adds must-orderings and co-reachability exclusion from the\n\
      \      synchronous-product exploration — it may never be smaller)";
    run = (fun () -> Json.List (List.map t16_row t16_workloads));
  }

(* ------------------------------------------------------------------ *)
(* T17: daemon survivability (DESIGN §17) — deadline refusals,          *)
(* quarantine isolation, crash recovery, and memory governance.         *)
(* ------------------------------------------------------------------ *)

(* Every scenario drives the in-process dispatcher the way T13 does;
   the difference is what goes wrong on purpose. Refusals the
   resilience layer issues by design (PPD090 past a deadline, PPD050
   and then PPD091 on a poisoned co-tenant) are counted apart from
   protocol errors, which must stay zero. check_t17 enforces that
   bar, the isolation bound (healthy p99 beside a poisoned co-tenant
   at most 2x the baseline), and the memory budget. *)

let t17_expected =
  [ "PPD050"; Serve.Rpc.err_deadline; Serve.Rpc.err_quarantined ]

let t17_copy src dst =
  Out_channel.with_open_bin dst (fun oc ->
      Out_channel.output_string oc
        (In_channel.with_open_bin src In_channel.input_all))

(* Flip one byte inside every page frame: the footer index stays
   intact, so the poisoned log opens fine and every replay is a
   PPD050 hard fault — the deterministic quarantine trigger. *)
let t17_poison seg =
  let pages = (Store.Segment.fsck seg).Store.Segment.fk_pages in
  let b =
    Bytes.of_string (In_channel.with_open_bin seg In_channel.input_all)
  in
  List.iter
    (fun (p : Store.Segment.fsck_page) ->
      let off = p.Store.Segment.fp_offset + 4 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff)))
    pages;
  Out_channel.with_open_bin seg (fun oc ->
      Out_channel.output_string oc (Bytes.to_string b))

(* Scenario-specific counters ride after the common keys. *)
let t17_row scenario ?(extra = []) load =
  let lats = sorted_lats load in
  Json.Obj
    (Json.
       [
         ("scenario", Str scenario);
         ("requests", Int (Array.length lats));
         ("errors", Int load.errors);
         ("refused", Int load.refused);
         ("p50_ns", Float (percentile lats 0.50));
         ("p99_ns", Float (percentile lats 0.99));
       ]
    @ List.map (fun (k, v) -> (k, Json.Int v)) extra)

let t17_rows ~mpl ~seg ~bad ~jpath =
  let client = client ~mpl ~expected:t17_expected in
  (* deadline: a mocked resilience clock advances 10 ms per
     reading, so a 5 ms budget is over by the first deadline check
     and every request that replays is refused at an e-block
     boundary; the percentiles are the real-time cost of saying no
     (wall-clock latencies are measured on the unmocked Obs clock) *)
  let deadline_row =
    let tick = Atomic.make 0 in
    Resil.Clock.with_source
      (fun () -> 10_000_000 * Atomic.fetch_and_add tick 1)
      (fun () ->
        let srv = Serve.Server.create ~config:serve_config () in
        let load = new_load () in
        concurrently
          (List.init 4 (fun _ () ->
               client srv ~seg ~requests:8 ~params:{|,"deadlineMs":5|} load));
        Serve.Server.shutdown srv;
        t17_row "deadline" load)
  in
  (* the healthy load alone: the baseline the isolation bound
     compares against *)
  let baseline_row =
    let srv = Serve.Server.create ~config:serve_config () in
    let load = new_load () in
    concurrently (List.init 4 (fun _ () -> client srv ~seg ~requests:6 load));
    Serve.Server.shutdown srv;
    t17_row "quarantine_baseline" load
  in
  (* the same healthy load beside a poisoned co-tenant: the bad
     log trips its breaker and fast-fails; the healthy sessions
     must barely notice *)
  let quarantine_rows =
    let srv = Serve.Server.create ~config:serve_config () in
    let healthy = new_load () in
    let poisoned = new_load () in
    concurrently
      (List.init 4 (fun _ () -> client srv ~seg ~requests:6 healthy)
      @ List.init 2 (fun _ () -> client srv ~seg:bad ~requests:8 poisoned));
    let trips, fast =
      match Option.bind (server_stats srv) (Json.member "breakers") with
      | Some (Json.List bs) ->
        List.fold_left
          (fun (t, f) b -> (t + jint b "trips", f + jint b "fastFails"))
          (0, 0) bs
      | Some _ | None -> (0, 0)
    in
    Serve.Server.shutdown srv;
    [
      t17_row "quarantine_healthy"
        ~extra:[ ("breaker_trips", trips); ("breaker_fast_fails", fast) ]
        healthy;
      t17_row "quarantine_poisoned" poisoned;
    ]
  in
  (* recovery: journal, crash (no shutdown), resume, attach the
     dead session, re-query — the latency is the whole cycle *)
  let recovery_row =
    let load = new_load () in
    let srv0 = Serve.Server.create ~config:serve_config ~journal:jpath () in
    let s0 = Serve.Server.session srv0 in
    let say0 line = Serve.Server.handle_line srv0 s0 line in
    ignore (say0 (open_request ~seg ~mpl));
    ignore (say0 {|{"id":2,"method":"flowback","params":{"handle":1,"depth":2}}|});
    let dead = ref (Serve.Server.session_id s0) in
    let cycles = 5 in
    for _ = 1 to cycles do
      let t0 = Obs.now_ns () in
      let srv = Serve.Server.create ~config:serve_config ~resume:jpath () in
      let s = Serve.Server.session srv in
      let say line = Serve.Server.handle_line srv s line in
      let at =
        say (Printf.sprintf {|{"id":1,"method":"attach","params":{"session":%d}}|} !dead)
      in
      let resp = say {|{"id":2,"method":"flowback","params":{"handle":1,"depth":2}}|} in
      let dt = float_of_int (Obs.now_ns () - t0) in
      load.lats <- dt :: load.lats;
      if Result.is_error (response at) || Result.is_error (response resp) then
        load.errors <- load.errors + 1;
      dead := Serve.Server.session_id s
      (* and crash again: no end_session, no shutdown — the journal
         already re-recorded the adopted session under its new id *)
    done;
    t17_row "recovery" ~extra:[ ("cycles", cycles) ] load
  in
  (* 64 sessions under one daemon-wide byte budget: the caches
     must evict to fit, and the answers must keep coming. A
     monitor thread samples the gauges mid-soak (the high-water
     mark), and a final session holds a handle open so the gauges
     are live when the settled reading is taken. *)
  let soak_row =
    let config = { serve_config with mem_budget = 64 * 1024 } in
    let srv = Serve.Server.create ~config () in
    let load = new_load () in
    let mem_of () =
      match Option.bind (server_stats srv) (Json.member "memory") with
      | Some m -> (jint m "budgetCap", jint m "budgetUsed")
      | None -> (0, 0)
    in
    let stop = Atomic.make false in
    let high = Atomic.make 0 in
    let monitor =
      Thread.create
        (fun () ->
          while not (Atomic.get stop) do
            let _, used = mem_of () in
            if used > Atomic.get high then Atomic.set high used;
            Thread.yield ()
          done)
        ()
    in
    concurrently (List.init 64 (fun _ () -> client srv ~seg ~requests:4 load));
    Atomic.set stop true;
    Thread.join monitor;
    (* the settled reading, with the caches still referenced *)
    let s = Serve.Server.session srv in
    ignore (Serve.Server.handle_line srv s (open_request ~seg ~mpl));
    ignore
      (Serve.Server.handle_line srv s
         {|{"id":2,"method":"flowback","params":{"handle":1,"depth":2}}|});
    let cap, used = mem_of () in
    Serve.Server.end_session srv s;
    Serve.Server.shutdown srv;
    t17_row "soak64"
      ~extra:
        [
          ("budget_cap", cap);
          ("budget_used", used);
          ("budget_used_max", max used (Atomic.get high));
        ]
      load
  in
  (deadline_row :: baseline_row :: quarantine_rows) @ [ recovery_row; soak_row ]

let t17 =
  {
    id = "t17";
    title = "T17  Daemon survivability: deadlines, quarantine, recovery, memory";
    note =
      "(refusals are the resilience layer working as designed — PPD090 past\n\
      \      a deadline, PPD050/PPD091 on the poisoned co-tenant; protocol\n\
      \      errors must stay zero, and check_t17 gates the healthy p99 beside\n\
      \      the poisoned co-tenant at 2x the baseline)";
    run =
      (fun () ->
        let mpl, seg = serve_fixture () in
        let bad = seg ^ ".poisoned" in
        t17_copy seg bad;
        t17_poison bad;
        let jpath = Filename.temp_file "ppd_t17" ".journal" in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun f -> try Sys.remove f with Sys_error _ -> ())
              [ mpl; seg; bad; jpath ])
          (fun () -> Json.List (t17_rows ~mpl ~seg ~bad ~jpath)));
  }

(* ------------------------------------------------------------------ *)
(* Figures (console only).                                              *)
(* ------------------------------------------------------------------ *)

let f41 () =
  header "Figure 4.1  Dynamic program dependence graph (SubD fragment)";
  let eb = Analysis.Eblock.analyze (compile Workloads.fig41) in
  let _, log, _ = Trace.Logger.run_logged ~sched eb in
  let ctl = Ppd.Controller.start eb log in
  ignore (Ppd.Controller.last_event_node ctl ~pid:0);
  Format.printf "%a@." Ppd.Dyn_graph.pp (Ppd.Controller.graph ctl)

let f53 () =
  header "Figure 5.3  Simplified static graph and synchronization units (foo3)";
  let prog = compile Workloads.foo3 in
  let f = Option.get (Lang.Prog.find_func prog "foo3") in
  let cfg = Analysis.Cfg.build prog f in
  Format.printf "%a@." (Analysis.Simplified.pp prog) (Analysis.Simplified.build prog cfg)

let f61 () =
  header "Figure 6.1  Parallel dynamic graph (three processes, blocking send)";
  let prog = compile Workloads.fig61 in
  let obs = Ppd.Pardyn.observer prog in
  ignore (machine ~hooks:(Ppd.Pardyn.factory obs) prog);
  Format.printf "%a@." Ppd.Pardyn.pp (Ppd.Pardyn.finish obs)

(* ------------------------------------------------------------------ *)
(* Driver.                                                              *)
(* ------------------------------------------------------------------ *)

let figures = [ ("f41", f41); ("f53", f53); ("f61", f61) ]

let tables = [ t1; t2; t3; t4; t5; t6; t7; t8; t9; t10; t11; t12; t13; t14; t16; t17 ]

let () =
  let args =
    Sys.argv |> Array.to_list |> List.tl |> List.filter (fun a -> a <> "--")
  in
  let json_mode = List.mem "--json" args in
  let requested =
    args
    |> List.filter (fun a -> a <> "--json")
    |> List.map String.lowercase_ascii
  in
  let table_ids = List.map (fun t -> t.id) tables in
  let available = List.map fst figures @ table_ids in
  (* a misspelled table must not silently pass (previously `bench -- t99`
     ran nothing and exited 0) *)
  let unknown = List.filter (fun r -> not (List.mem r available)) requested in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\navailable: %s\n"
      (String.concat ", " unknown)
      (String.concat ", " available);
    exit 1
  end;
  if json_mode then begin
    let figs = List.filter (fun r -> List.mem_assoc r figures) requested in
    if figs <> [] then begin
      Printf.eprintf "no JSON emitter for: %s\nJSON-capable: %s\n"
        (String.concat ", " figs)
        (String.concat ", " table_ids);
      exit 1
    end;
    print_json
      (if requested = [] then tables
       else List.map (fun r -> List.find (fun t -> t.id = r) tables) requested)
  end
  else begin
    let wanted id = requested = [] || List.mem id requested in
    print_endline "PPD benchmark harness (Miller & Choi, PLDI 1988)";
    List.iter (fun (id, f) -> if wanted id then f ()) figures;
    List.iter (fun t -> if wanted t.id then print_table t) tables
  end
