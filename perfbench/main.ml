(* The PPD benchmark's entry point (README.md in this directory).

   main.exe --workload record|query-cold|serve-warm --seed N
            --seconds S --trace 0|1
   main.exe --smoke

   With --trace 0 it prints the end-to-end metrics, with --trace 1 the
   per-layer ones; the last stdout line is one JSON object
   {"correct","attempted","failed","metrics"}. A human summary goes to
   stderr. *)

open Common
module J = Serve.Json

let workloads = [ Record.workload; Query_cold.workload; Serve_warm.workload ]

let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("op_p95_ms", "ms");
    ("ops_per_s", "1/s");
    ("log_bytes_per_kstep", "B");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("lang.compile_ms", "ms");
    ("analysis.eblock_ms", "ms");
    ("runtime.bare_ms", "ms");
    ("runtime.events_ms", "ms");
    ("runtime.steps", "count");
    ("runtime.ksteps_per_ms", "ksteps/ms");
    ("trace.log_ms", "ms");
    ("trace.entries", "count");
    ("trace.snapshot_values", "count");
    ("store.write_ms", "ms");
    ("store.bytes", "B");
    ("store.open_ms", "ms");
    ("store.page_faults", "count");
    ("store.page_hits", "count");
    ("store.page_hit_ratio", "ratio");
    ("ppd.start_ms", "ms");
    ("ppd.reconstruct_ms", "ms");
    ("ppd.locate_ms", "ms");
    ("ppd.slice_ms", "ms");
    ("ppd.replay_all_ms", "ms");
    ("ppd.replay_all_pool_ms", "ms");
    ("ppd.race_ms", "ms");
    ("ppd.replays", "count");
    ("ppd.replay_steps", "count");
    ("ppd.replay_ksteps_per_ms", "ksteps/ms");
    ("ppd.race_pairs", "count");
    ("exec.pool_create_ms", "ms");
    ("exec.pool_shutdown_ms", "ms");
    ("exec.pool_tasks", "count");
    ("exec.pool_steals", "count");
    ("serve.render_ms", "ms");
    ("serve.handle_ms.flowback", "ms");
    ("serve.handle_ms.replay", "ms");
    ("serve.handle_ms.race", "ms");
    ("serve.gate_wait_ms", "ms");
    ("serve.wait_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.json_ms", "ms");
    ("unattributed_ratio", "ratio");
    ("obs.trace_overhead", "ratio");
    ("host.speed", "ratio");
  ]

(* Per-layer metrics read straight off the spans: mean self time per
   occurrence of the named spans. *)
let span_metrics =
  [
    ("lang.compile_ms", [ "lang.compile" ]);
    ("analysis.eblock_ms", [ "analysis.eblock" ]);
    ("store.open_ms", [ "store.open" ]);
    ("ppd.start_ms", [ "ppd.start"; "ppd.start.order" ]);
    ("ppd.reconstruct_ms", [ "ppd.start.order" ]);
    ("ppd.locate_ms", [ "ppd.locate" ]);
    ("ppd.slice_ms", [ "ppd.slice" ]);
    ("ppd.replay_all_ms", [ "ppd.replay_all" ]);
    ("ppd.replay_all_pool_ms", [ "ppd.replay_all.pool" ]);
    ("ppd.race_ms", [ "ppd.race" ]);
    ("exec.pool_create_ms", [ "exec.pool_create" ]);
    ("exec.pool_shutdown_ms", [ "exec.pool_shutdown" ]);
    ("serve.render_ms", [ "serve.render" ]);
    ("serve.handle_ms.flowback", [ "serve.handle.flowback" ]);
    ("serve.handle_ms.replay", [ "serve.handle.replay" ]);
    ("serve.handle_ms.race", [ "serve.handle.race" ]);
    ("serve.json_ms", [ "serve.json" ]);
    ("serve.wait_ms", [ "serve.wait" ]);
  ]

(* Completed ops per second, at reference host speed (Calib). *)
let ops_per_s (p : phase) =
  float_of_int (Array.length p.lat_ns - p.failed)
  /. (float_of_int (max 1 p.busy_ns) /. 1e9)
  /. Calib.scale p.calib

(* JSON has no infinity: a failed op at the percentile reads as the
   largest float. *)
let finite x = if Float.is_finite x then x else Float.max_float

(* Per-layer metrics of the whole op, computed on every workload. *)
let whole_op = [ "unattributed_ratio"; "obs.trace_overhead"; "host.speed" ]

(* Applicable metrics that may read 0 or less on a correct run, per
   workload:
   - record's runtime, trace and store shares are differences of two
     timed runs, which noise can make 0 or negative on smoke-size
     programs;
   - a race query over a saved log builds its graph from the log alone,
     with empty access sets (Ppd.Pardyn.of_log), so it examines no edge
     pair;
   - whether a pool worker steals depends on timing;
   - the gate never queues while clients do not outnumber its slots
     (nproc clients on nproc slots);
   - the warm page LRU may answer every read. *)
let may_not_be_positive =
  [
    ("record", "runtime.events_ms");
    ("record", "trace.log_ms");
    ("record", "store.write_ms");
    ("query-cold", "ppd.race_pairs");
    ("query-cold", "exec.pool_steals");
    ("serve-warm", "serve.gate_wait_ms");
    ("serve-warm", "store.page_faults");
  ]

let setups = 9

(* Runs one workload. Returns the result object main prints and the
   metrics the workload computed (the printed catalogue pads the rest
   with 0). *)
let run (w : Workload.t) ~seed ~seconds ~trace ~smoke =
  (* one set-up from a compacted heap: the instance, its seconds, and
     host-speed samples taken just before and just after it *)
  let setup () =
    let samples () = List.init 3 (fun _ -> fst (Calib.sample ())) in
    Gc.compact ();
    let before = samples () in
    let t0 = now () in
    let inst = w.setup ~seed ~smoke in
    let dt = now () - t0 in
    (inst, float_of_int dt /. 1e9, before @ samples ())
  in
  let values, phases, inst =
    if not trace then begin
      (* set up several times and report the median; keep the last *)
      let rec go n times samples =
        let (inst : Workload.instance), t, s = setup () in
        if n = 1 then (inst, t :: times, s @ samples)
        else begin
          inst.teardown ();
          go (n - 1) (t :: times) (s @ samples)
        end
      in
      let inst, times, samples = go setups [] [] in
      (* at the host speed of the set-ups: one factor from all their
         samples, as one pair of samples per set-up is noisier than the
         set-up itself *)
      let setup_s = median times *. Calib.scale samples in
      start_windows ();
      let p = inst.measure ~traced:false ~seconds in
      let peak_rss = finish_windows () in
      let s = Calib.scale p.calib in
      ( [
          ("setup_s", setup_s);
          ("op_p50_ms", percentile p.lat_ns 0.50 /. 1e6 *. s);
          ("op_p95_ms", percentile p.lat_ns 0.95 /. 1e6 *. s);
          ("ops_per_s", ops_per_s p);
          ("log_bytes_per_kstep", inst.bytes_per_kstep ());
          ("peak_rss_mb", peak_rss);
          ("host.speed", s);
        ],
        [ p ],
        inst )
    end
    else begin
      let inst, _, _ = setup () in
      let plain = inst.measure ~traced:false ~seconds:(seconds /. 2.) in
      let traced = inst.measure ~traced:true ~seconds:(seconds /. 2.) in
      let agg = Spans.self_times traced.spans in
      let find n =
        Option.value
          ~default:{ Spans.count = 0; self_ns = 0; dur_ns = 0 }
          (Hashtbl.find_opt agg n)
      in
      let from_spans =
        List.filter_map
          (fun (m, names) ->
            let n, self =
              List.fold_left
                (fun (n, s) name ->
                  let a = find name in
                  (n + a.Spans.count, s + a.Spans.self_ns))
                (0, 0) names
            in
            if n = 0 || not (List.mem m w.per_layer) then None
            else Some (m, float_of_int self /. 1e6 /. float_of_int n))
          span_metrics
      in
      let op = find "op" in
      let whole =
        [
          ( "unattributed_ratio",
            float_of_int op.Spans.self_ns /. float_of_int (max 1 op.Spans.dur_ns) );
          ("obs.trace_overhead", ops_per_s plain /. ops_per_s traced);
        ]
      in
      mkdir_p out_root;
      Spans.write
        (Filename.concat out_root
           (Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed))
        traced.spans;
      let s = Calib.scale traced.calib in
      let at_reference (name, v) =
        match List.assoc_opt name per_layer with
        | Some "ms" -> (name, v *. s)
        | Some "ksteps/ms" -> (name, v /. s)
        | _ -> (name, v)
      in
      ( List.map at_reference (from_spans @ inst.layers traced)
        @ whole
        @ [ ("host.speed", s) ],
        [ plain; traced ],
        inst )
    end
  in
  inst.teardown ();
  let attempted =
    List.fold_left (fun a (p : phase) -> a + Array.length p.lat_ns) 0 phases
  in
  let failed = List.fold_left (fun a (p : phase) -> a + p.failed) 0 phases in
  let catalogue = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        let v = Option.value ~default:0. (List.assoc_opt name values) in
        (name, J.Obj [ ("value", J.Float (finite v)); ("unit", J.Str unit) ]))
      catalogue
  in
  if not smoke then begin
    Printf.eprintf "workload %s, seed %d, %d cores, %s run: %d ops, %d failed\n"
      w.name seed nproc
      (if trace then "traced" else "untraced")
      attempted failed;
    List.iter
      (fun (name, unit) ->
        Printf.eprintf "  %-26s %14.6g %s\n" name
          (Option.value ~default:0. (List.assoc_opt name values))
          unit)
      catalogue;
    Printf.eprintf "  %-26s %14.6g ratio\n%!" "failed_ratio"
      (float_of_int failed /. float_of_int (max 1 attempted));
    if not trace then
      Printf.eprintf "  %-26s %14.6g ratio\n%!" "host.speed"
        (Option.value ~default:0. (List.assoc_opt "host.speed" values))
  end;
  ( J.Obj
      [
        ("correct", J.Bool (failed = 0 && attempted > 0));
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ("metrics", J.Obj metrics);
      ],
    values )

(* Every workload at smoke size, untraced then traced: each metric of
   the catalogue must print with its unit, every op must pass its
   oracle, and every metric that applies to the workload must have been
   computed by it and, unless listed above, be positive. *)
let smoke () =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun trace ->
          let r, values = run w ~seed:1 ~seconds:0.4 ~trace ~smoke:true in
          let field n = J.member n r in
          if field "correct" <> Some (J.Bool true) then
            fail "%s: not correct" w.name;
          if field "failed" <> Some (J.Int 0) then fail "%s: failed ops" w.name;
          (match Option.bind (field "attempted") J.to_int with
          | Some n when n >= 1 -> ()
          | _ -> fail "%s: no op attempted" w.name);
          let metrics = Option.value ~default:J.Null (field "metrics") in
          List.iter
            (fun (name, unit) ->
              match J.member name metrics with
              | Some m
                when J.member "unit" m = Some (J.Str unit)
                     && (match J.member "value" m with
                        | Some (J.Float _) -> true
                        | _ -> false) ->
                ()
              | _ -> fail "%s: metric %s missing" w.name name)
            (if trace then per_layer else end_to_end);
          List.iter
            (fun name ->
              match List.assoc_opt name values with
              | None -> fail "%s: metric %s not computed" w.name name
              | Some v
                when not (v > 0. || List.mem (w.name, name) may_not_be_positive)
                ->
                fail "%s: metric %s reads %g" w.name name v
              | Some _ -> ())
            (if trace then w.per_layer @ whole_op else List.map fst end_to_end))
        [ false; true ])
    workloads;
  rm_rf out_root;
  match !problems with
  | [] -> ()
  | ps ->
    List.iter prerr_endline (List.rev ps);
    exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and smoke_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME record|query-cold|serve-warm");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--smoke", Arg.Set smoke_mode, " tiny self-check of every workload");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  Calib.start ();
  if !smoke_mode then smoke ()
  else
    match List.find_opt (fun (w : Workload.t) -> w.name = !workload) workloads with
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
    | Some w ->
      let seed = !seed in
      Printf.eprintf "seed used: %d\n%!" seed;
      let r, _ = run w ~seed ~seconds:!seconds ~trace:(!trace = 1) ~smoke:false in
      print_endline (J.to_string r)
