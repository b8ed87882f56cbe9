(* record: one client; each op is the equivalent of `ppd log --save` —
   compile, e-block analysis, a VM run with the logger streaming into
   a fresh segment file, close. Ops cycle through every suite program,
   alternating the content and order tiers. *)

open Common

type combo = {
  prog : program;
  order : bool;
  expected : string;  (** the interp engine's output *)
  mutable bytes : int;  (** segment bytes, once recorded (fixed per seed) *)
  mutable steps : int;
}

(* Traced-only accumulators: the differential runs that split the
   recording run into runtime, trace and store shares. *)
type acc = {
  mutable n : int;
  mutable bare_ns : int;
  mutable nil_ns : int;
  mutable mem_ns : int;
  mutable steps : int;
  mutable entries : int;
  mutable snapshots : int;
  mutable bytes : int;
}

(* The independent engine: the AST interpreter, bare. *)
let interp_output ~seed src =
  let m =
    Runtime.Machine.create ~engine:Runtime.Machine.Interp_engine
      ~sched:(sched seed) ~max_steps (Lang.Compile.compile src)
  in
  if Runtime.Machine.run m <> Runtime.Machine.Finished then
    failwith "interp oracle run did not finish";
  Runtime.Machine.output m

let time f =
  let t0 = now () in
  f ();
  now () - t0

let setup ~seed ~smoke =
  let dir = fresh_dir "record" in
  let combos =
    Array.of_list
      (List.concat_map
         (fun prog ->
           let expected = interp_output ~seed prog.src in
           List.map
             (fun order -> { prog; order; expected; bytes = 0; steps = 0 })
             [ false; true ])
         (suite ~seed (if smoke then Smoke else Record)))
  in
  let acc =
    {
      n = 0;
      bare_ns = 0;
      nil_ns = 0;
      mem_ns = 0;
      steps = 0;
      entries = 0;
      snapshots = 0;
      bytes = 0;
    }
  in
  (* Ops cycle through every combo, config_pipeline's twice: the cycle
     has twelve ops, so its median falls inside one combo's block
     (config_pipeline's order tier) instead of on a boundary between
     two, and its p95 inside the slowest (fib's content tier). *)
  let cycle =
    Array.of_list
      (List.concat_map
         (fun c ->
           if String.starts_with ~prefix:"config_pipeline" c.prog.name then
             [ c; c ]
           else [ c ])
         (Array.to_list combos))
  in
  let path = Filename.concat dir "op.seg" in
  let next = ref 0 in
  let op spans k =
    let c = cycle.(!next mod Array.length cycle) in
    incr next;
    let snap0 = counter "trace.snapshot_values" in
    let t0 = now () in
    let eb, r =
      Spans.op spans k
        ~label:(fun () ->
          c.prog.name ^ if c.order then " order" else " content")
        (fun () ->
          let prog =
            Spans.span spans "lang.compile" (fun () ->
                Lang.Compile.compile c.prog.src)
          in
          let eb =
            Spans.span spans "analysis.eblock" (fun () ->
                Analysis.Eblock.analyze prog)
          in
          let r =
            Spans.span spans "rec.run" (fun () ->
                record_run ~seed ~order:c.order eb path)
          in
          Spans.span spans "store.close" (fun () ->
              Store.Segment.Writer.close r.writer);
          (eb, r))
    in
    let dt = now () - t0 in
    let bytes = Store.Segment.Writer.bytes_written r.writer in
    let verdict =
      if r.halt <> Runtime.Machine.Finished then Error "run did not finish"
      else if r.output <> c.expected then
        Error (c.prog.name ^ ": output differs from the interp engine")
      else
        match check_segment path r.log with
        | Error m -> Error (c.prog.name ^ ": " ^ m)
        | Ok () ->
          if c.steps = 0 then begin
            c.bytes <- bytes;
            c.steps <- r.steps
          end;
          Ok dt
    in
    Sys.remove path;
    let excluded =
      if not spans.Spans.on then 0
      else begin
        let snaps = counter "trace.snapshot_values" - snap0 in
        let t_extra = now () in
        let prog = eb.Analysis.Eblock.prog in
        let machine ?hooks () =
          Runtime.Machine.create ~engine:Runtime.Machine.Vm_engine
            ~sched:(sched seed) ~max_steps ?hooks prog
        in
        let bare = time (fun () -> ignore (Runtime.Machine.run (machine ()))) in
        let nil =
          time (fun () ->
              ignore (Runtime.Machine.run (machine ~hooks:Runtime.Hooks.nil ())))
        in
        let mem =
          time (fun () ->
              let logger =
                Trace.Logger.create ~tier:(tier_of ~seed c.order) eb
              in
              ignore
                (Runtime.Machine.run
                   (machine ~hooks:(Trace.Logger.factory logger) ()));
              ignore (Trace.Logger.finish logger))
        in
        acc.n <- acc.n + 1;
        acc.bare_ns <- acc.bare_ns + bare;
        acc.nil_ns <- acc.nil_ns + nil;
        acc.mem_ns <- acc.mem_ns + mem;
        acc.steps <- acc.steps + r.steps;
        acc.entries <- acc.entries + Trace.Log.entry_count r.log;
        acc.snapshots <- acc.snapshots + snaps;
        acc.bytes <- acc.bytes + bytes;
        Obs.reset ();
        now () - t_extra
      end
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
  let bytes_per_kstep () =
    let b, s =
      Array.fold_left
        (fun (b, s) (c : combo) -> (b + c.bytes, s + c.steps))
        (0, 0) combos
    in
    1000. *. float_of_int b /. float_of_int (max 1 s)
  in
  let layers (phase : phase) =
    let per_op x = float_of_int x /. float_of_int (max 1 acc.n) in
    let per_op_ms x = per_op x /. 1e6 in
    let agg = Spans.self_times phase.spans in
    let total name =
      Option.fold ~none:0
        ~some:(fun a -> a.Spans.self_ns)
        (Hashtbl.find_opt agg name)
    in
    [
      (* the segment-sink run plus close, minus the in-memory logger run *)
      ( "store.write_ms",
        per_op_ms (total "rec.run" + total "store.close" - acc.mem_ns) );
      ("runtime.bare_ms", per_op_ms acc.bare_ns);
      ("runtime.events_ms", per_op_ms (acc.nil_ns - acc.bare_ns));
      ("runtime.steps", per_op acc.steps);
      ( "runtime.ksteps_per_ms",
        float_of_int acc.steps /. (float_of_int (max 1 acc.bare_ns) /. 1e6)
        /. 1000. );
      ("trace.log_ms", per_op_ms (acc.mem_ns - acc.nil_ns));
      ("trace.entries", per_op acc.entries);
      ("trace.snapshot_values", per_op acc.snapshots);
      ("store.bytes", per_op acc.bytes);
    ]
  in
  {
    Workload.measure;
    bytes_per_kstep;
    layers;
    teardown = (fun () -> rm_rf dir);
  }

let workload =
  {
    Workload.name = "record";
    per_layer =
      [
        "lang.compile_ms";
        "analysis.eblock_ms";
        "runtime.bare_ms";
        "runtime.events_ms";
        "runtime.steps";
        "runtime.ksteps_per_ms";
        "trace.log_ms";
        "trace.entries";
        "trace.snapshot_values";
        "store.write_ms";
        "store.bytes";
      ];
    setup;
  }
