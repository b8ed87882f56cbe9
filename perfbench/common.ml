(* Shared pieces of the three workloads: the seeded program suite, the
   recording path, the oracle renderings, the closed loop and the
   statistics. *)

let now = Obs.now_ns

let max_steps = 5_000_000

let nproc = Exec.Pool.default_jobs ()

(* The seed picks the schedule of every recording and replay. *)
let sched seed = Runtime.Sched.Random_seed seed

let tier_of ~seed order =
  if not order then Trace.Log.T_content
  else
    Trace.Log.T_order
      {
        Trace.Log.o_sched = Runtime.Sched.string_of_policy (sched seed);
        o_engine = "vm";
        o_max_steps = max_steps;
      }

(* ------------------------------------------------------------------ *)
(* Program suite.                                                       *)
(* ------------------------------------------------------------------ *)

type program = { name : string; src : string }

(* [base] moved by at most [pct] percent (at least by one), drawn from
   [st]. *)
let jitter st base pct =
  let d = max 1 (base * pct / 100) in
  base - d + Random.State.int st ((2 * d) + 1)

type size = Smoke | Record | Fixture

(* One program from each generator the workloads need: call-heavy fib
   (one interval per call), statement-heavy matmul (one large
   e-block), locked_hist (512-cell snapshots per critical section),
   and the multi-process sync programs config_pipeline and
   token_ring. The seed moves the multi-process sizes by a few
   percent; the single-process ones differ between seeds only in
   their schedule seed, which cannot change their work. *)
let suite ~seed size =
  let st = Random.State.make [| seed; 0x5eed |] in
  let fib, mm, (hw, hr, hc), (cw, cr), (rp, rr) =
    match size with
    | Smoke -> (8, 4, (2, 3, 8), (2, 5), (3, 2))
    | Record ->
      (18, 40, (4, jitter st 48 2, 512), (8, jitter st 300 2), (6, jitter st 60 2))
    | Fixture ->
      (13, 12, (4, jitter st 24 2, 64), (4, jitter st 60 2), (4, jitter st 30 2))
  in
  [
    { name = Printf.sprintf "fib-%d" fib; src = Workloads.fib fib };
    { name = Printf.sprintf "matmul-%d" mm; src = Workloads.matmul mm };
    {
      name = Printf.sprintf "locked_hist-%dx%dx%d" hw hr hc;
      src = Workloads.locked_hist ~workers:hw ~rounds:hr ~cells:hc;
    };
    {
      name = Printf.sprintf "config_pipeline-%dx%d" cw cr;
      src = Workloads.config_pipeline ~workers:cw ~rounds:cr;
    };
    {
      name = Printf.sprintf "token_ring-%dx%d" rp rr;
      src = Workloads.token_ring ~procs:rp ~rounds:rr;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Files.                                                               *)
(* ------------------------------------------------------------------ *)

(* Everything the benchmark writes lives under this directory of the
   working directory. *)
let out_root = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let dirs = ref 0

let fresh_dir tag =
  incr dirs;
  let d =
    Filename.concat out_root
      (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !dirs)
  in
  rm_rf d;
  mkdir_p d;
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* ------------------------------------------------------------------ *)
(* Recording: the `ppd log --save` path.                                *)
(* ------------------------------------------------------------------ *)

type recording = {
  halt : Runtime.Machine.halt;
  output : string;
  steps : int;
  log : Trace.Log.t;
  writer : Store.Segment.Writer.t;
}

(* A VM run with the logger streaming into a fresh segment file; the
   writer is left open for the caller to close. *)
let record_run ~seed ~order eb path =
  let tier = tier_of ~seed order in
  let writer = Store.Segment.Writer.to_file ~tier path in
  let logger =
    Trace.Logger.create ~sink:(Store.Segment.Writer.sink writer) ~tier eb
  in
  let m =
    Runtime.Machine.create ~engine:Runtime.Machine.Vm_engine ~sched:(sched seed)
      ~max_steps ~hooks:(Trace.Logger.factory logger) eb.Analysis.Eblock.prog
  in
  let halt = Runtime.Machine.run m in
  let log = Trace.Logger.finish logger in
  {
    halt;
    output = Runtime.Machine.output m;
    steps = Runtime.Machine.nsteps m;
    log;
    writer;
  }

(* The saved segment must reopen indexed and undamaged, holding every
   entry the logger produced. *)
let check_segment path log =
  let r = Store.Segment.open_file path in
  if not (Store.Segment.is_indexed r) then Error "segment not indexed"
  else if Store.Segment.damage r <> [] then Error "segment damaged"
  else if Store.Segment.entry_count r <> Trace.Log.entry_count log then
    Error
      (Printf.sprintf "segment holds %d entries, logger produced %d"
         (Store.Segment.entry_count r) (Trace.Log.entry_count log))
  else Ok ()

(* ------------------------------------------------------------------ *)
(* Queries and their renderings.                                        *)
(* ------------------------------------------------------------------ *)

type meth = Flowback of int | Replay | Race

let meth_name = function
  | Flowback _ -> "flowback"
  | Replay -> "replay"
  | Race -> "race"

let render f =
  let b = Buffer.create 1024 in
  f (Serve.Render.buffer_sink b);
  Buffer.contents b

let header ~path ~nprocs =
  render (fun sink -> Serve.Render.header sink ~path ~version:2 ~nprocs)

let all_intervals ctl ~nprocs =
  List.concat
    (List.init nprocs (fun pid ->
         List.init
           (Array.length (Ppd.Controller.intervals ctl ~pid))
           (fun iv -> (pid, iv))))

(* The body of an answer (no header) over an in-memory content log —
   the oracle both query workloads compare against. [slice_first]
   materialises the depth-bounded backward slice before rendering, as
   the query-cold op does; without it the flowback is the daemon's
   (and the CLI's) depth-first render. *)
let oracle_body eb (log : Trace.Log.t) ~slice_first meth =
  let ctl = Ppd.Controller.start eb log in
  match meth with
  | Flowback depth ->
    let root =
      if log.Trace.Log.nprocs = 0 then None
      else Ppd.Controller.last_event_node ctl ~pid:0
    in
    (match root with
    | Some r when slice_first ->
      ignore (Ppd.Flowback.backward_slice ~max_depth:depth ctl r)
    | _ -> ());
    render (fun sink ->
        Serve.Render.flowback_report sink ~depth ~dot:None ctl root)
  | Replay ->
    render (fun sink ->
        Serve.Render.replay_report sink ~dump:false
          ~nprocs:log.Trace.Log.nprocs ctl)
  | Race ->
    let pd = Ppd.Controller.pardyn ctl in
    Format.asprintf "%a@." (Ppd.Race.pp_report pd)
      (Ppd.Race.detect pd).Ppd.Race.races

(* ------------------------------------------------------------------ *)
(* Fixture logs for the query workloads.                                *)
(* ------------------------------------------------------------------ *)

type fixture = {
  fx_prog : int;  (** index into the suite *)
  fx_name : string;
  fx_order : bool;
  fx_mpl : string;
  fx_seg : string;
  fx_nprocs : int;
  fx_steps : int;
  fx_bytes : int;
}

(* An op's label in the span file: log, tier and request. *)
let label f meth =
  Printf.sprintf "%s %s %s" f.fx_name
    (if f.fx_order then "order" else "content")
    (match meth with Flowback d -> Printf.sprintf "flowback:%d" d | m -> meth_name m)

type fixtures = {
  dir : string;
  content_logs : (Analysis.Eblock.t * Trace.Log.t) array;  (** per program *)
  logs : fixture array;  (** at most 8: a daemon session's open limit *)
}

(* Every program in the content tier, plus the three sync programs
   (locked_hist, config_pipeline, token_ring: suite positions 2-4) in
   the order tier, whose queries pay reconstruction. *)
let order_tier_programs = [ 2; 3; 4 ]

let record_fixtures ~seed ~tag size =
  let dir = fresh_dir tag in
  let programs = Array.of_list (suite ~seed size) in
  let content_logs = Array.make (Array.length programs) None in
  let logs = ref [] in
  Array.iteri
    (fun i p ->
      let mpl = Filename.concat dir (p.name ^ ".mpl") in
      write_file mpl p.src;
      let eb = Analysis.Eblock.analyze (Lang.Compile.compile p.src) in
      List.iter
        (fun order ->
          let seg =
            Filename.concat dir
              (Printf.sprintf "%s.%s.seg" p.name
                 (if order then "order" else "content"))
          in
          let r = record_run ~seed ~order eb seg in
          Store.Segment.Writer.close r.writer;
          if r.halt <> Runtime.Machine.Finished then
            failwith (p.name ^ ": fixture recording did not finish");
          (match check_segment seg r.log with
          | Ok () -> ()
          | Error m -> failwith (p.name ^ ": " ^ m));
          if not order then content_logs.(i) <- Some (eb, r.log);
          logs :=
            {
              fx_prog = i;
              fx_name = p.name;
              fx_order = order;
              fx_mpl = mpl;
              fx_seg = seg;
              fx_nprocs = r.log.Trace.Log.nprocs;
              fx_steps = r.steps;
              fx_bytes = Store.Segment.Writer.bytes_written r.writer;
            }
            :: !logs)
        (false :: (if List.mem i order_tier_programs then [ true ] else [])))
    programs;
  {
    dir;
    content_logs = Array.map Option.get content_logs;
    logs = Array.of_list (List.rev !logs);
  }

(* Segment bytes per 1000 recorded machine steps, over the fixtures. *)
let fixture_bytes_per_kstep fx =
  let b, s =
    Array.fold_left
      (fun (b, s) f -> (b + f.fx_bytes, s + f.fx_steps))
      (0, 0) fx.logs
  in
  1000. *. float_of_int b /. float_of_int s

(* The expected answer to every request a deck can draw, computed once
   per (program, method) over the content log in memory: the same text
   for a program's content and order logs, under each log's header. *)
let oracle fx ~slice_first ~depths =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun i (eb, log) ->
      List.iter
        (fun m -> Hashtbl.replace tbl (i, m) (oracle_body eb log ~slice_first m))
        (Replay :: Race :: List.map (fun d -> Flowback d) depths))
    fx.content_logs;
  fun f meth ->
    let body = Hashtbl.find tbl (f.fx_prog, meth) in
    match meth with
    | Race -> body
    | Flowback _ | Replay -> header ~path:f.fx_seg ~nprocs:f.fx_nprocs ^ body

(* ------------------------------------------------------------------ *)
(* Request decks.                                                       *)
(* ------------------------------------------------------------------ *)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* A deck holds, per log, [reps] flowbacks at each depth and half as
   many replays and races as flowbacks. The mix is the same for every
   seed; the seed picks its order (and, through the suite, the logs). *)
let deck st (logs : fixture array) ~depths ~reps =
  let nf = reps * List.length depths in
  shuffle st
    (Array.of_list
       (List.concat_map
          (fun (f : fixture) ->
            List.concat_map
              (fun d -> List.init reps (fun _ -> (f, Flowback d)))
              depths
            @ List.init (nf / 2) (fun _ -> (f, Replay))
            @ List.init (nf / 2) (fun _ -> (f, Race)))
          (Array.to_list logs)))

(* ------------------------------------------------------------------ *)
(* Memory.                                                              *)
(* ------------------------------------------------------------------ *)

(* Peak resident memory (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let kb =
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" Fun.id
          | Some _ -> go ()
        in
        go ())
  in
  float_of_int kb /. 1024.

(* Resets VmHWM to the current resident size (Linux). *)
let clear_peak_rss () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        Out_channel.output_string oc "5")
  with Sys_error e ->
    Printf.eprintf "cannot reset the peak-memory mark: %s\n%!" e

(* The measured phase's memory is read per window of [window_ns]: the
   peak of each window, then the mark is reset. One peak over the whole
   phase is a maximum over many collector cycles, and it moved by 12%
   between runs; the median window peak is steadier. *)
let window_ns = 1_000_000_000

let window_peaks = ref []

let window_start = ref 0

(* Starts the windows: collects what set-up left behind first, so
   set-up counts only through what it keeps. *)
let start_windows () =
  Gc.compact ();
  clear_peak_rss ();
  window_peaks := [];
  window_start := Obs.now_ns ()

let close_window () =
  window_peaks := peak_rss_mb () :: !window_peaks;
  clear_peak_rss ();
  window_start := Obs.now_ns ()

(* Median peak resident memory over the windows closed so far, after
   closing the current one. *)
let finish_windows () =
  close_window ();
  let a = Array.of_list !window_peaks in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* ------------------------------------------------------------------ *)
(* The closed loop.                                                     *)
(* ------------------------------------------------------------------ *)

type phase = {
  lat_ns : float array;  (** per attempted op; [infinity] when it failed *)
  failed : int;
  busy_ns : int;  (** wall time of the phase, minus excluded extra work *)
  calib : int list;  (** host-speed samples (Calib) *)
  spans : Spans.t list;
}

let failures_shown = Atomic.make 0

let report_failure k msg =
  if Atomic.fetch_and_add failures_shown 1 < 10 then
    Printf.eprintf "op %d failed: %s\n%!" k msg

(* The clients of one phase. A client takes a host-speed sample (and
   closes a memory window) only while no other client is inside an op,
   and no op starts until it is done, so the benchmark's process is
   idle while the helper runs. *)
type clients = {
  m : Mutex.t;
  c : Condition.t;
  mutable in_op : int;
  mutable sampling : bool;
}

let clients () =
  { m = Mutex.create (); c = Condition.create (); in_op = 0; sampling = false }

let with_lock cs f =
  Mutex.lock cs.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock cs.m) f

let enter_op cs =
  with_lock cs (fun () ->
      while cs.sampling do
        Condition.wait cs.c cs.m
      done;
      cs.in_op <- cs.in_op + 1)

let leave_op cs =
  with_lock cs (fun () ->
      cs.in_op <- cs.in_op - 1;
      Condition.broadcast cs.c)

(* None when another client is sampling. *)
let quiet_sample cs =
  let mine =
    with_lock cs (fun () ->
        if cs.sampling then false
        else begin
          cs.sampling <- true;
          while cs.in_op > 0 do
            Condition.wait cs.c cs.m
          done;
          true
        end)
  in
  if not mine then None
  else
    Fun.protect
      ~finally:(fun () ->
        with_lock cs (fun () ->
            cs.sampling <- false;
            Condition.broadcast cs.c))
      (fun () ->
        if Obs.now_ns () - !window_start >= window_ns then close_window ();
        Some (Calib.sample ()))

(* One client's loop: issue ops until [deadline]. [op k] returns the op
   latency in ns (or an error) and the ns of traced-only extra work to
   exclude from the phase's wall time. Between ops the loop takes a
   host-speed sample now and then; the time it waits for one is
   excluded too, since the process is idle meanwhile. Returns
   latencies, failures, excluded ns and samples. *)
let client_loop ?(clients = clients ()) ~deadline
    (op : int -> (int, string) result * int) =
  let lats = ref [] and failed = ref 0 and excluded = ref 0 and k = ref 0 in
  let calib = ref [] and next_sample = ref 0 in
  while now () < deadline do
    enter_op clients;
    let r, excl =
      Fun.protect
        ~finally:(fun () -> leave_op clients)
        (fun () -> try op !k with e -> (Error (Printexc.to_string e), 0))
    in
    (match r with
    | Ok ns -> lats := float_of_int ns :: !lats
    | Error msg ->
      report_failure !k msg;
      incr failed;
      lats := infinity :: !lats);
    excluded := !excluded + excl;
    if now () >= !next_sample then begin
      Option.iter
        (fun (timed, spent) ->
          calib := timed :: !calib;
          excluded := !excluded + spent;
          next_sample := now () + Calib.period_ns)
        (quiet_sample clients)
    end;
    incr k
  done;
  (Array.of_list (List.rev !lats), !failed, !excluded, !calib)

(* ------------------------------------------------------------------ *)
(* Statistics.                                                          *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile over a sample (failed ops are +inf). *)
let percentile lat q =
  let a = Array.copy lat in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then infinity
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Obs counters the traced run reads (registered by the library at
   load; looking one up by name returns the same counter). *)
let counter name = Obs.value (Obs.counter name)

let counters_now names = List.map (fun n -> (n, counter n)) names

let counters_delta before =
  List.map (fun (n, v) -> (n, counter n - v)) before
