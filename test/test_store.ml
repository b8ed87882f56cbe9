(* The durable segmented store (v2): wire round-trips, crash recovery,
   corruption detection, and demand-paged flowback equivalence. *)

module L = Trace.Log
module S = Store.Segment
module DG = Ppd.Dyn_graph


let run_log ?sched src =
  let eb, _h, log, _tr, _m = Util.run_instrumented ?sched src in
  (eb, log)

let with_tmp f =
  let path = Filename.temp_file "ppd_store" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* Structural equality is a faithful oracle for Log.t: the type is pure
   data (ints, strings, arrays, no closures or cycles). *)
let check_log_equal name (a : L.t) (b : L.t) =
  Alcotest.(check bool) name true (a = b)

(* -------------------------------------------------------------- *)
(* Round trips *)

let roundtrip_prop =
  Util.qtest ~count:25 "random parallel programs: decode (encode log) = log"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1000))
    (fun (seed, sseed) ->
      let _eb, log =
        run_log
          ~sched:(Runtime.Sched.Random_seed sseed)
          (Gen.parallel ~protect:`Sometimes seed)
      in
      with_tmp (fun path ->
          S.save path log;
          let log' = S.load path in
          let r = S.fsck path in
          log' = log && r.S.fk_indexed
          && r.S.fk_clean
          && r.S.fk_records = L.entry_count log))

let test_fixed_corpus_roundtrip () =
  List.iter
    (fun (name, src) ->
      let _eb, log = run_log src in
      with_tmp (fun path ->
          S.save path log;
          check_log_equal name log (S.load path);
          let r = S.fsck path in
          Alcotest.(check bool) (name ^ " clean") true r.S.fk_clean;
          Alcotest.(check int)
            (name ^ " measured size")
            r.S.fk_bytes
            (S.encoded_size log)))
    Workloads.all_fixed

let test_streamed_equals_memory () =
  (* the sink writes entries in execution-interleaved order; the decoded
     log must still equal the one built in memory by the logger *)
  let prog = Lang.Compile.compile Workloads.fig61 in
  let eb = Analysis.Eblock.analyze prog in
  with_tmp (fun path ->
      let w = S.Writer.to_file path in
      let logger = Trace.Logger.create ~sink:(S.Writer.sink w) eb in
      let m =
        Runtime.Machine.create ~hooks:(Trace.Logger.factory logger) prog
      in
      ignore (Runtime.Machine.run m);
      let log = Trace.Logger.finish logger in
      S.Writer.close w;
      check_log_equal "streamed file decodes to the in-memory log" log
        (S.load path);
      let r = S.fsck path in
      Alcotest.(check bool) "index intact" true r.S.fk_indexed;
      Alcotest.(check bool) "no damage" true r.S.fk_clean)

(* -------------------------------------------------------------- *)
(* The log does not depend on the consumer set *)

(* Stream one logged run to a segment and return its halt and bytes.
   With [trace] the full tracer shares the machine: it wants every
   statement event, so the machine builds them all; without it the
   logger is alone and the machine builds boundary events only. *)
let segment_bytes ~trace ~engine ~tier ~policy ~sched ~max_steps src =
  let prog = Util.compile src in
  let eb = Analysis.Eblock.analyze ~policy prog in
  with_tmp (fun path ->
      let w = S.Writer.to_file ~tier path in
      let logger =
        Trace.Logger.create ~sink:(S.Writer.sink w) ~tier ~ckpt_every:16 eb
      in
      let hooks =
        if trace then
          Runtime.Hooks.both
            (Trace.Logger.factory logger)
            (Trace.Full_trace.factory (Trace.Full_trace.create ()))
        else Trace.Logger.factory logger
      in
      let m = Runtime.Machine.create ~engine ~sched ~max_steps ~hooks prog in
      let halt = Runtime.Machine.run m in
      ignore (Trace.Logger.finish logger);
      S.Writer.close w;
      (halt, In_channel.with_open_bin path In_channel.input_all))


(* Both engines x both tiers x default and loop e-blocks: the logger
   alone must stream exactly the bytes it streams beside the full
   tracer. Returns the halts seen, for coverage checks. *)
let logs_agree ?(sched = Runtime.Sched.default) ?(max_steps = 200_000) name
    src =
  List.concat_map
    (fun (engine, engine_name) ->
      let order =
        L.T_order
          {
            L.o_sched = Runtime.Sched.string_of_policy sched;
            o_engine = engine_name;
            o_max_steps = max_steps;
          }
      in
      List.concat_map
        (fun tier ->
          List.map
            (fun loops ->
              let policy =
                {
                  Analysis.Eblock.leaf_inline_max_stmts = 0;
                  loop_block_min_body = loops;
                }
              in
              let run trace =
                segment_bytes ~trace ~engine ~tier ~policy ~sched ~max_steps
                  src
              in
              let h1, alone = run false and h2, shared = run true in
              if h1 <> h2 then
                Alcotest.failf "%s: halts differ: %s vs %s" name
                  (Util.halt_name h1) (Util.halt_name h2);
              if alone <> shared then
                Alcotest.failf
                  "%s (%s engine, %s tier, loops %d): logger alone wrote \
                   %d bytes, beside the full tracer %d"
                  name engine_name (L.tier_name tier) loops (String.length alone)
                  (String.length shared);
              h1)
            [ 0; 1 ])
        [ L.T_content; order ])
    [ (Runtime.Machine.Vm_engine, "vm"); (Runtime.Machine.Interp_engine, "interp") ]

(* Insert [text] before worker w0's return: the first top-level return
   of a [Gen.parallel] program, whose workers never return early. *)
let before_w0_return text src =
  let anchor = "\n  return " in
  let n = String.length anchor in
  let rec find i =
    if String.sub src i n = anchor then i + 1 else find (i + 1)
  in
  let k = find 0 in
  String.sub src 0 k ^ text ^ String.sub src k (String.length src - k)

(* Each random parallel program also runs cut short by the step
   budget, with worker w0 failing an assert as it finishes (the other
   workers mid-flight), and with w0 taking the only mutex token twice
   (a deadlock): the halts whose stops the logger cannot infer from
   the events it sees. *)
let consumer_set_prop =
  Util.qtest ~count:12 "random parallel programs: log = log beside full trace"
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 0 1000) (int_range 1 120))
    (fun (seed, sseed, cut) ->
      let sched = Runtime.Sched.Random_seed sseed in
      let src = Gen.parallel ~protect:`Sometimes seed in
      ignore (logs_agree ~sched "plain" src);
      ignore (logs_agree ~sched ~max_steps:cut "cut" src);
      let fault =
        logs_agree ~sched "fault" (before_w0_return "  assert(1 == 2);\n" src)
      in
      let dead =
        logs_agree ~sched "deadlock"
          (before_w0_return "  P(gmutex);\n  P(gmutex);\n" src)
      in
      List.for_all
        (function Runtime.Machine.Fault _ -> true | _ -> false)
        fault
      && List.for_all
           (function Runtime.Machine.Deadlock _ -> true | _ -> false)
           dead)

(* The fixed corpus, plus a return out of a loop e-block: its postlog
   records the unwinding return ([via_return]), which the logger must
   track from boundary events alone. *)
let test_consumer_set_fixed () =
  let loop_return =
    {|func find(n) {
  var i = 0;
  while (i < n) {
    if (i == 3) { return i; }
    i = i + 1;
  }
  return 0 - 1;
}
func main() { var r = find(10); print(r); var s = find(2); print(s); }
|}
  in
  List.iter
    (fun (name, src) -> ignore (logs_agree name src))
    (("loop_return", loop_return) :: Workloads.all_fixed)

let test_measure_matches_disk () =
  (* encoded_size must report the exact on-disk byte count *)
  let _eb, log = run_log (Workloads.counter ~workers:2 ~incs:5 ~mutex:true) in
  with_tmp (fun path ->
      S.save path log;
      let size =
        In_channel.with_open_bin path (fun ic ->
            Int64.to_int (In_channel.length ic))
      in
      Alcotest.(check int) "encoded_size = file size" size
        (S.encoded_size log))

(* A legacy v1 file is refused with PPD050 by every loader, whatever
   follows its magic; repair writes nothing. Other format versions are
   refused as unsupported. *)
let test_v1_refused () =
  let refused name what f =
    match f () with
    | _ -> Alcotest.failf "%s: %s accepted the file" name what
    | exception S.Unreadable { path; reason } ->
      Alcotest.(check string)
        (Printf.sprintf "%s: %s code" name what)
        "PPD050" (S.ppd050 ~path ~reason).Lang.Diag.d_code;
      reason
  in
  let write path image =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc image)
  in
  List.iter
    (fun (name, image) ->
      with_tmp (fun path ->
          write path image;
          let out = path ^ ".repaired" in
          List.iter
            (fun (what, f) ->
              Alcotest.(check string)
                (Printf.sprintf "%s: %s reason" name what)
                "legacy v1 log, no longer readable" (refused name what f))
            [
              ("open_file", fun () -> ignore (S.open_file path));
              ("load", fun () -> ignore (S.load path));
              ("fsck", fun () -> ignore (S.fsck path));
              ("repair", fun () -> ignore (S.repair path ~out));
            ];
          Alcotest.(check bool) (name ^ ": repair wrote nothing") false
            (Sys.file_exists out)))
    (Util.legacy_v1_images ());
  with_tmp (fun path ->
      write path "PPDLOG3\n";
      let reason =
        refused "PPDLOG3" "open_file" (fun () -> ignore (S.open_file path))
      in
      Alcotest.(check bool) "other versions: this build reads v2" true
        (Util.contains ~sub:"this build reads v2" reason))

(* -------------------------------------------------------------- *)
(* Crash recovery *)

(* [b] holds, per pid, a prefix of [a]'s entries, equal element-wise.
   A salvage that recovers no record for the highest pids cannot know
   they existed, so [b] may have fewer processes than [a] — but never
   more, and never an entry that differs from the original. *)
let is_prefix_log (a : L.t) (b : L.t) =
  b.L.nprocs <= a.L.nprocs
  && Array.length b.L.entries = b.L.nprocs
  && (let ok = ref true in
      for pid = 0 to b.L.nprocs - 1 do
        let ea = a.L.entries.(pid) and eb = b.L.entries.(pid) in
        if Array.length eb > Array.length ea then ok := false
        else
          Array.iteri (fun i y -> if ea.(i) <> y then ok := false) eb
      done;
      !ok)

let test_truncation_salvage () =
  let _eb, log = run_log Workloads.fig61 in
  with_tmp (fun path ->
      S.save path log;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let n = String.length full in
      (* every cut point: the salvaged log is always a per-pid prefix,
         and cutting only the trailer/footer loses no record at all *)
      let cut len =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub full 0 len))
      in
      for len = 8 to n - 1 do
        cut len;
        let r = S.fsck path in
        Alcotest.(check bool)
          (Printf.sprintf "cut at %d detected" len)
          true (not r.S.fk_clean);
        let salvaged = S.load path in
        Alcotest.(check bool)
          (Printf.sprintf "cut at %d salvages a prefix" len)
          true (is_prefix_log log salvaged)
      done;
      (* a cut that only destroys the trailer still recovers everything *)
      cut (n - 10);
      check_log_equal "footer-only damage loses no entry" log (S.load path);
      (* cutting into the magic makes the file unreadable, not garbage *)
      cut 5;
      (match S.load path with
      | exception Store.Segment.Unreadable _ -> ()
      | _ -> Alcotest.fail "expected Unreadable on a 5-byte file"))

let test_byte_flip_always_detected () =
  (* flip every single byte of the file in turn: verify must flag each
     corruption (or refuse the file outright), and load must never
     silently mis-decode — it either refuses or salvages a valid
     prefix. *)
  let _eb, log = run_log Workloads.fig61 in
  with_tmp (fun path ->
      S.save path log;
      let full = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check int) "file size = encoded_size"
        (S.encoded_size log)
        (String.length full);
      for i = 0 to String.length full - 1 do
        let b = Bytes.of_string full in
        Bytes.set b i (Char.chr (Char.code full.[i] lxor 0xFF));
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_bytes oc b);
        (match S.fsck path with
        | exception Store.Segment.Unreadable _ -> ()
        | r ->
          Alcotest.(check bool)
            (Printf.sprintf "flip at %d detected" i)
            true
            (not r.S.fk_clean));
        match S.load path with
        | exception Store.Segment.Unreadable _ -> ()
        | salvaged ->
          Alcotest.(check bool)
            (Printf.sprintf "flip at %d never mis-decodes" i)
            true (is_prefix_log log salvaged)
      done)

(* -------------------------------------------------------------- *)
(* Demand-paged debugging *)

(* Drive the same flowback session against a controller and digest
   everything observable: per-process roots, the slices hanging off
   them, and the final graph. Two controllers over the same execution
   must produce byte-identical digests. *)
let drive ctl ~nprocs =
  let buf = Buffer.create 1024 in
  let g = Ppd.Controller.graph ctl in
  for pid = 0 to nprocs - 1 do
    match Ppd.Controller.last_event_node ctl ~pid with
    | None -> Buffer.add_string buf (Printf.sprintf "p%d: no root\n" pid)
    | Some root ->
      Buffer.add_string buf (Printf.sprintf "p%d root %d\n" pid root);
      List.iter
        (fun (d : Ppd.Flowback.dep) ->
          let nd = DG.node g d.Ppd.Flowback.d_node in
          Buffer.add_string buf
            (Printf.sprintf "  %d p%d [%s] %s\n" d.Ppd.Flowback.d_node
               nd.DG.nd_pid nd.DG.nd_label
               (match nd.DG.nd_value with
               | None -> "-"
               | Some v -> Format.asprintf "%a" Runtime.Value.pp v)))
        (Ppd.Flowback.backward_slice ctl root)
  done;
  for i = 0 to DG.nnodes g - 1 do
    let nd = DG.node g i in
    Buffer.add_string buf
      (Printf.sprintf "node %d p%d [%s]\n" i nd.DG.nd_pid nd.DG.nd_label)
  done;
  let st = Ppd.Controller.stats ctl in
  Buffer.add_string buf
    (Printf.sprintf "replays=%d intervals=%d\n" st.Ppd.Controller.replays
       st.Ppd.Controller.intervals_total);
  Buffer.contents buf

let paged_corpus =
  [
    ("fig41", Workloads.fig41);
    ("fig61", Workloads.fig61);
    ("buggy_min", Workloads.buggy_min);
    ("racy_bank", Workloads.racy_bank);
    ("rpc", Workloads.rpc);
    ("deep_calls", Workloads.deep_calls ~depth:4);
    ("counter", Workloads.counter ~workers:2 ~incs:4 ~mutex:true);
    ("prodcons", Workloads.producer_consumer ~items:4 ~cap:2);
    ("ring", Workloads.token_ring ~procs:3 ~rounds:2);
    ("branchy", Workloads.branchy ~rounds:5);
    ("fib", Workloads.fib 6);
  ]

let test_paged_equals_memory () =
  List.iter
    (fun (name, src) ->
      let eb, log = run_log src in
      with_tmp (fun path ->
          S.save path log;
          let reader = S.open_file path in
          Alcotest.(check bool) (name ^ " paged") true (S.is_indexed reader);
          (* the footer interval tables must equal what Log.intervals
             computes from the decoded records *)
          let ctl_mem = Ppd.Controller.start eb log in
          let ctl_paged = Ppd.Controller.start_paged eb reader in
          for pid = 0 to log.L.nprocs - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "%s p%d intervals equal" name pid)
              true
              (Ppd.Controller.intervals ctl_mem ~pid
              = Ppd.Controller.intervals ctl_paged ~pid)
          done;
          let mem = drive ctl_mem ~nprocs:log.L.nprocs in
          let paged = drive ctl_paged ~nprocs:log.L.nprocs in
          Alcotest.(check string) (name ^ " flowback identical") mem paged))
    paged_corpus

let paged_prop =
  Util.qtest ~count:15 "random programs: paged flowback = in-memory"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1000))
    (fun (seed, sseed) ->
      let eb, log =
        run_log
          ~sched:(Runtime.Sched.Random_seed sseed)
          (Gen.parallel ~protect:`Always seed)
      in
      with_tmp (fun path ->
          S.save path log;
          let ctl_mem = Ppd.Controller.start eb log in
          let ctl_paged = Ppd.Controller.start_paged eb (S.open_file path) in
          drive ctl_mem ~nprocs:log.L.nprocs
          = drive ctl_paged ~nprocs:log.L.nprocs))

let test_salvaged_reader_still_debugs () =
  (* cut the file mid-record: the salvaged intervals that survived must
     still replay and answer queries *)
  let eb, log = run_log Workloads.fig61 in
  with_tmp (fun path ->
      S.save path log;
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full * 2 / 3)));
      let reader = S.open_file path in
      Alcotest.(check bool) "salvage path" true (not (S.is_indexed reader));
      Alcotest.(check bool) "damage reported" true (S.damage reader <> []);
      let ctl = Ppd.Controller.start_paged eb reader in
      (* every surviving interval builds without raising *)
      for pid = 0 to S.nprocs reader - 1 do
        let ivs = Ppd.Controller.intervals ctl ~pid in
        Array.iteri
          (fun iv_id _ ->
            ignore (Ppd.Controller.build_interval ctl ~pid ~iv_id))
          ivs
      done;
      Alcotest.(check bool) "graph non-empty" true
        (DG.nnodes (Ppd.Controller.graph ctl) > 0))

(* The controller's one log source: an in-memory reader over a log and
   an indexed reader over the same log saved to disk answer every
   question the controller asks identically. *)
let readers_agree name eb log =
  with_tmp (fun path ->
      S.save path log;
      let mem = S.of_log log and disk = S.open_file path in
      Alcotest.(check bool) (name ^ " of_log in memory") false
        (S.is_indexed mem);
      Alcotest.(check int) (name ^ " of_log has no file") 0 (S.file_bytes mem);
      Alcotest.(check bool) (name ^ " open_file indexed") true
        (S.is_indexed disk);
      let agree what a b =
        if a <> b then Alcotest.failf "%s: readers disagree on %s" name what
      in
      let stmt_fid sid = eb.Analysis.Eblock.prog.Lang.Prog.stmt_fid.(sid) in
      agree "nprocs" (S.nprocs mem) (S.nprocs disk);
      agree "stops" (S.stops mem) (S.stops disk);
      agree "entry_count" (S.entry_count mem) (S.entry_count disk);
      for pid = 0 to S.nprocs mem - 1 do
        let n = S.pid_entry_count mem ~pid in
        agree "pid_entry_count" n (S.pid_entry_count disk ~pid);
        let ivs = S.intervals mem ~stmt_fid ~pid in
        agree "intervals" ivs (S.intervals disk ~stmt_fid ~pid);
        Array.iter
          (fun iv ->
            agree "interval_step" (S.interval_step mem iv)
              (S.interval_step disk iv))
          ivs;
        for idx = 0 to n - 1 do
          agree "entry" (S.entry mem ~pid ~idx) (S.entry disk ~pid ~idx)
        done;
        for reader_seq = 0 to (S.stops mem).(pid) do
          agree "snapshot_step"
            (S.snapshot_step mem ~pid ~reader_seq)
            (S.snapshot_step disk ~pid ~reader_seq)
        done
      done)

let test_of_log_equals_open_file () =
  List.iter
    (fun (name, src) ->
      let eb, log = run_log src in
      readers_agree name eb log)
    Workloads.all_fixed;
  for seed = 0 to 9 do
    let eb, log =
      run_log
        ~sched:(Runtime.Sched.Random_seed seed)
        (Gen.parallel ~protect:`Sometimes seed)
    in
    readers_agree (Printf.sprintf "parallel seed %d" seed) eb log
  done

(* Interval windows: replaying an interval from only its own entries —
   a paged segment's window, or an in-memory reader's — must give the
   outcome a replay over the whole in-memory log gives, and the window
   must hold exactly the entries the interval spans (the sync record
   before its prelog through its postlog, or the process's end). *)
let windows_agree name eb (log : L.t) =
  let prog = eb.Analysis.Eblock.prog in
  let stmt_fid sid = prog.Lang.Prog.stmt_fid.(sid) in
  let replayed f =
    match f () with
    | (o : Ppd.Emulator.outcome) ->
      Ok (o.events, o.steps, o.output, o.fault, o.postlog_mismatches)
    | exception Ppd.Emulator.Replay_mismatch m -> Error m
  in
  with_tmp (fun path ->
      S.save path log;
      let readers = [ ("paged", S.open_file path); ("memory", S.of_log log) ] in
      for pid = 0 to log.L.nprocs - 1 do
        Array.iter
          (fun (iv : L.interval) ->
            let lo = iv.iv_prelog - 1 in
            let hi =
              match iv.iv_postlog with
              | Some p -> p
              | None -> Array.length log.L.entries.(pid) - 1
            in
            let span = hi - max 0 lo + 1 in
            let whole = replayed (fun () -> Ppd.Emulator.replay eb log ~interval:iv) in
            List.iter
              (fun (rname, reader) ->
                let what = Printf.sprintf "%s %s p%d#%d" name rname pid iv.iv_id in
                let w = S.window reader ~pid ~lo ~hi in
                Alcotest.(check int) (what ^ " window size") span w.L.w_len;
                Alcotest.(check bool) (what ^ " window in bounds") true
                  (w.L.w_off + w.L.w_len <= Array.length w.L.w_entries);
                Alcotest.(check bool) (what ^ " window replay = whole log") true
                  (replayed (fun () ->
                       Ppd.Emulator.replay_window eb w ~interval:iv)
                  = whole))
              readers)
          (L.intervals ~stmt_fid log ~pid)
      done)

let test_windows_equal_whole_log () =
  let order_tier =
    L.T_order { L.o_sched = "rr:1"; o_engine = "vm"; o_max_steps = 200_000 }
  in
  let programs =
    Workloads.all_fixed
    @ List.init 10 (fun seed ->
          (Printf.sprintf "parallel seed %d" seed, Gen.parallel ~protect:`Always seed))
    (* snapshot-heavy: its intervals span several pages *)
    @ [ ("hist", Workloads.locked_hist ~workers:2 ~rounds:8 ~cells:512) ]
  in
  List.iter
    (fun (name, src) ->
      let eb = Analysis.Eblock.analyze (Lang.Compile.compile src) in
      let run tier =
        let _, log, _ =
          Trace.Logger.run_logged ~sched:(Runtime.Sched.Round_robin 1)
            ~max_steps:200_000 ?tier eb
        in
        log
      in
      windows_agree (name ^ " content") eb (run None);
      windows_agree (name ^ " order") eb
        (Ppd.Reconstruct.reconstruct eb (run (Some order_tier))))
    programs

let suite =
  ( "store",
    [
      roundtrip_prop;
      Alcotest.test_case "fixed corpus round trip" `Quick
        test_fixed_corpus_roundtrip;
      Alcotest.test_case "streamed sink = in-memory log" `Quick
        test_streamed_equals_memory;
      Alcotest.test_case "v1 magic refused by every loader" `Quick
        test_v1_refused;
      consumer_set_prop;
      Alcotest.test_case "log = log beside full trace (corpus)" `Quick
        test_consumer_set_fixed;
      Alcotest.test_case "measure matches disk size" `Quick
        test_measure_matches_disk;
      Alcotest.test_case "truncation salvages longest prefix" `Quick
        test_truncation_salvage;
      Alcotest.test_case "every byte flip detected" `Quick
        test_byte_flip_always_detected;
      Alcotest.test_case "paged flowback = in-memory (corpus)" `Quick
        test_paged_equals_memory;
      paged_prop;
      Alcotest.test_case "salvaged file still debugs" `Quick
        test_salvaged_reader_still_debugs;
      Alcotest.test_case "of_log reader = open_file reader" `Quick
        test_of_log_equals_open_file;
      Alcotest.test_case "interval window replay = whole-log replay" `Quick
        test_windows_equal_whole_log;
    ] )
