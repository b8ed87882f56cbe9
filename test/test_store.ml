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
          let r = S.verify path in
          log' = log && r.S.vr_indexed
          && r.S.vr_damage = []
          && r.S.vr_records = L.entry_count log))

let test_fixed_corpus_roundtrip () =
  List.iter
    (fun (name, src) ->
      let _eb, log = run_log src in
      with_tmp (fun path ->
          S.save path log;
          check_log_equal name log (S.load path);
          let r = S.verify path in
          Alcotest.(check bool) (name ^ " clean") true (r.S.vr_damage = []);
          Alcotest.(check int)
            (name ^ " measured size")
            r.S.vr_bytes
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
      let r = S.verify path in
      Alcotest.(check bool) "index intact" true r.S.vr_indexed;
      Alcotest.(check bool) "no damage" true (r.S.vr_damage = []))

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
              ("verify", fun () -> ignore (S.verify path));
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
        let r = S.verify path in
        Alcotest.(check bool)
          (Printf.sprintf "cut at %d detected" len)
          true (r.S.vr_damage <> []);
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
        (match S.verify path with
        | exception Store.Segment.Unreadable _ -> ()
        | r ->
          Alcotest.(check bool)
            (Printf.sprintf "flip at %d detected" i)
            true
            (r.S.vr_damage <> []));
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
    ] )
