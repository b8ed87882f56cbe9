(* query-cold: one client; each op is one `ppd flowback|replay --load
   -j1` (or a race query over the same controller) from nothing — read
   and compile the program, analyse it, open the segment, start a
   paged controller, answer, render into a buffer. Nothing is kept
   between ops.

   Ops run without a domain pool. With the CLI's default pool of
   nproc domains, every minor collection during the op must stop the
   idle pool domains too. On a 2-core Xeon VM, that made ops_per_s
   swing by 2.5x from one minute to the next, while the same ops
   without a pool held within 4%. So the pool is measured in the traced run
   only: each traced replay op is followed, outside the op, by the
   same batch replay on a pool of nproc domains. *)

open Common

type acc = {
  mutable n : int;
  mutable replays : int;
  mutable replay_steps : int;
  mutable replay_all_steps : int;  (** replay_steps of replay ops only *)
  mutable race_ops : int;
  mutable race_pairs : int;
  mutable counters : (string * int) list;  (** Obs counter sums *)
  mutable pool_runs : int;
  mutable pool : (string * int) list;  (** pool counter sums *)
}

let obs_counters =
  [
    "store.segment.page_hits";
    "store.segment.page_faults";
    "runtime.machine_steps";
  ]

let pool_counters = [ "exec.pool.tasks"; "exec.pool.steals" ]

(* One query from nothing; returns the rendered answer and the
   controller's statistics. *)
let query spans (f : fixture) meth =
  let prog =
    Spans.span spans "lang.compile" (fun () ->
        Lang.Compile.compile (read_file f.fx_mpl))
  in
  let eb =
    Spans.span spans "analysis.eblock" (fun () -> Analysis.Eblock.analyze prog)
  in
  let r =
    Spans.span spans "store.open" (fun () -> Store.Segment.open_file f.fx_seg)
  in
  let nprocs = Store.Segment.nprocs r in
  let ctl =
    Spans.span spans
      (if f.fx_order then "ppd.start.order" else "ppd.start")
      (fun () -> Ppd.Controller.start_paged eb r)
  in
  let head sink =
    Serve.Render.header sink ~path:f.fx_seg ~version:(Store.Segment.version r)
      ~nprocs
  in
  let out, pairs =
    match meth with
    | Flowback depth ->
      let root =
        Spans.span spans "ppd.locate" (fun () ->
            if nprocs = 0 then None else Ppd.Controller.last_event_node ctl ~pid:0)
      in
      Option.iter
        (fun root ->
          Spans.span spans "ppd.slice" (fun () ->
              ignore (Ppd.Flowback.backward_slice ~max_depth:depth ctl root)))
        root;
      ( Spans.span spans "serve.render" (fun () ->
            render (fun sink ->
                head sink;
                Serve.Render.flowback_report sink ~depth ~dot:None ctl root)),
        0 )
    | Replay ->
      Spans.span spans "ppd.replay_all" (fun () ->
          Ppd.Controller.build_intervals_par ctl (all_intervals ctl ~nprocs));
      ( Spans.span spans "serve.render" (fun () ->
            render (fun sink ->
                head sink;
                Serve.Render.replay_report sink ~dump:false ~nprocs ctl)),
        0 )
    | Race ->
      let pd, st =
        Spans.span spans "ppd.race" (fun () ->
            let pd = Ppd.Controller.pardyn ctl in
            (pd, Ppd.Race.detect pd))
      in
      ( Spans.span spans "serve.render" (fun () ->
            Format.asprintf "%a@." (Ppd.Race.pp_report pd) st.Ppd.Race.races),
        st.Ppd.Race.pairs_examined )
  in
  (out, Ppd.Controller.stats ctl, pairs)

(* The traced run's pool probe: a replay op's batch replay, from
   nothing, on a pool of nproc domains. *)
let pooled_replay spans (f : fixture) =
  let eb = Analysis.Eblock.analyze (Lang.Compile.compile (read_file f.fx_mpl)) in
  let r = Store.Segment.open_file f.fx_seg in
  let pool =
    Spans.span spans "exec.pool_create" (fun () ->
        Exec.Pool.create ~jobs:nproc ())
  in
  Fun.protect
    ~finally:(fun () ->
      Spans.span spans "exec.pool_shutdown" (fun () -> Exec.Pool.shutdown pool))
    (fun () ->
      let ctl = Ppd.Controller.start_paged ~pool eb r in
      Spans.span spans "ppd.replay_all.pool" (fun () ->
          Ppd.Controller.build_intervals_par ctl
            (all_intervals ctl ~nprocs:(Store.Segment.nprocs r))))

let setup ~seed ~smoke =
  let fx =
    record_fixtures ~seed ~tag:"query-cold" (if smoke then Smoke else Fixture)
  in
  let depths = [ 2; 3; 4; 5; 6 ] in
  let expected = oracle fx ~slice_first:true ~depths in
  let deck =
    deck
      (Random.State.make [| seed; 0xc01d |])
      fx.logs ~depths ~reps:2
  in
  let acc =
    {
      n = 0;
      replays = 0;
      replay_steps = 0;
      replay_all_steps = 0;
      race_ops = 0;
      race_pairs = 0;
      counters = List.map (fun c -> (c, 0)) obs_counters;
      pool_runs = 0;
      pool = List.map (fun c -> (c, 0)) pool_counters;
    }
  in
  let next = ref 0 in
  let op spans k =
    let f, meth = deck.(!next mod Array.length deck) in
    incr next;
    let before = counters_now obs_counters in
    let t0 = now () in
    let out, st, pairs =
      Spans.op spans k ~label:(fun () -> label f meth) (fun () ->
          query spans f meth)
    in
    let dt = now () - t0 in
    let add sums before =
      List.map2 (fun (n, s) (_, d) -> (n, s + d)) sums (counters_delta before)
    in
    let excluded =
      if spans.Spans.on && meth = Replay then begin
        acc.counters <- add acc.counters before;
        let t = now () and before = counters_now pool_counters in
        pooled_replay spans f;
        acc.pool_runs <- acc.pool_runs + 1;
        acc.pool <- add acc.pool before;
        now () - t
      end
      else begin
        if spans.Spans.on then acc.counters <- add acc.counters before;
        0
      end
    in
    if spans.Spans.on then begin
      acc.n <- acc.n + 1;
      acc.replays <- acc.replays + st.Ppd.Controller.replays;
      acc.replay_steps <- acc.replay_steps + st.Ppd.Controller.replay_steps;
      (match meth with
      | Replay ->
        acc.replay_all_steps <-
          acc.replay_all_steps + st.Ppd.Controller.replay_steps
      | Race ->
        acc.race_ops <- acc.race_ops + 1;
        acc.race_pairs <- acc.race_pairs + pairs
      | Flowback _ -> ());
      Obs.reset ()
    end;
    let verdict =
      if out = expected f meth then Ok dt
      else
        Error
          (Printf.sprintf "%s %s: answer differs from the in-memory oracle"
             f.fx_seg (meth_name meth))
    in
    (verdict, excluded)
  in
  let measure ~traced ~seconds =
    next := 0;
    let spans = Spans.create ~on:traced in
    if traced then begin
      Obs.reset ();
      Obs.enable ()
    end;
    let t0 = now () in
    let deadline = t0 + int_of_float (seconds *. 1e9) in
    let lat_ns, failed, excluded, calib = client_loop ~deadline (op spans) in
    let busy_ns = now () - t0 - excluded in
    Obs.disable ();
    { lat_ns; failed; busy_ns; calib; spans = [ spans ] }
  in
  let layers (phase : phase) =
    let per_op x = float_of_int x /. float_of_int (max 1 acc.n) in
    let c name = List.assoc name acc.counters in
    let hits = c "store.segment.page_hits" and faults = c "store.segment.page_faults" in
    let agg = Spans.self_times phase.spans in
    let total name =
      Option.fold ~none:0
        ~some:(fun a -> a.Spans.self_ns)
        (Hashtbl.find_opt agg name)
    in
    [
      ("store.page_hits", per_op hits);
      ("store.page_faults", per_op faults);
      ( "store.page_hit_ratio",
        float_of_int hits /. float_of_int (max 1 (hits + faults)) );
      ("runtime.steps", per_op (c "runtime.machine_steps"));
      ("ppd.replays", per_op acc.replays);
      ("ppd.replay_steps", per_op acc.replay_steps);
      ( "ppd.replay_ksteps_per_ms",
        float_of_int acc.replay_all_steps
        /. (float_of_int (max 1 (total "ppd.replay_all")) /. 1e6)
        /. 1000. );
      ( "ppd.race_pairs",
        float_of_int acc.race_pairs /. float_of_int (max 1 acc.race_ops) );
      (* per pooled replay (see the top of this file) *)
      ( "exec.pool_tasks",
        float_of_int (List.assoc "exec.pool.tasks" acc.pool)
        /. float_of_int (max 1 acc.pool_runs) );
      ( "exec.pool_steals",
        float_of_int (List.assoc "exec.pool.steals" acc.pool)
        /. float_of_int (max 1 acc.pool_runs) );
    ]
  in
  {
    Workload.measure;
    bytes_per_kstep = (fun () -> fixture_bytes_per_kstep fx);
    layers;
    teardown = (fun () -> rm_rf fx.dir);
  }

let workload =
  {
    Workload.name = "query-cold";
    per_layer =
      [
        "lang.compile_ms";
        "analysis.eblock_ms";
        "runtime.steps";
        "store.open_ms";
        "store.page_faults";
        "store.page_hits";
        "store.page_hit_ratio";
        "ppd.start_ms";
        "ppd.reconstruct_ms";
        "ppd.locate_ms";
        "ppd.slice_ms";
        "ppd.replay_all_ms";
        "ppd.replay_all_pool_ms";
        "ppd.race_ms";
        "ppd.replays";
        "ppd.replay_steps";
        "ppd.replay_ksteps_per_ms";
        "ppd.race_pairs";
        "exec.pool_create_ms";
        "exec.pool_shutdown_ms";
        "exec.pool_tasks";
        "exec.pool_steals";
        "serve.render_ms";
      ];
    setup;
  }
