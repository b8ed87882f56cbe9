(* The ordering-based logging tier (DESIGN §16): store round trips of
   sync-order + checkpoint pages, corruption fuzz over them, the
   reconstruction oracle (re-execution reproduces the content log
   entry for entry), and checkpoint-seeded restoration. *)

module L = Trace.Log
module S = Store.Segment

let compile = Lang.Compile.compile

let with_tmp f =
  let path = Filename.temp_file "ppd_order" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* Record the same execution twice — content tier and order tier — so
   tests can compare what reconstruction must reproduce. *)
let record ?(sched = Runtime.Sched.default) ?(max_steps = 200_000)
    ?ckpt_every src =
  let prog = compile src in
  let eb = Analysis.Eblock.analyze prog in
  let tier =
    L.T_order
      {
        L.o_sched = Runtime.Sched.string_of_policy sched;
        o_engine = "vm";
        o_max_steps = max_steps;
      }
  in
  let _, content, _ = Trace.Logger.run_logged ~sched ~max_steps eb in
  let _, order, _ =
    Trace.Logger.run_logged ~sched ~max_steps ~tier ?ckpt_every eb
  in
  (eb, content, order)

let corpus =
  [
    ("fig61", Workloads.fig61);
    ("counter", Workloads.counter ~workers:3 ~incs:6 ~mutex:true);
    ("prodcons", Workloads.producer_consumer ~items:6 ~cap:2);
    ("ring", Workloads.token_ring ~procs:3 ~rounds:2);
    ("hist", Workloads.locked_hist ~workers:2 ~rounds:4 ~cells:8);
    ("rpc", Workloads.rpc);
  ]

(* -------------------------------------------------------------- *)
(* The order tier on disk *)

let test_order_roundtrip () =
  List.iter
    (fun (name, src) ->
      let _eb, _content, order = record ~ckpt_every:16 src in
      Alcotest.(check bool)
        (name ^ " recorded checkpoints") true
        (Array.length order.L.ckpts > 0);
      with_tmp (fun path ->
          S.save path order;
          let order' = S.load path in
          Alcotest.(check bool)
            (name ^ " order log round-trips (tier, ckpts, entries)")
            true (order' = order);
          let r = S.verify path in
          Alcotest.(check bool) (name ^ " verifies clean") true
            (r.S.vr_damage = []);
          Alcotest.(check int)
            (name ^ " measured size")
            r.S.vr_bytes (S.encoded_size order)))
    corpus

(* An order log is dramatically smaller exactly when sync units read
   sizeable shared state (the content tier snapshots it every critical
   section, the order tier regenerates it). *)
let test_order_bytes_bounded () =
  let _eb, content, order =
    record (Workloads.locked_hist ~workers:3 ~rounds:8 ~cells:128)
  in
  let cb = S.encoded_size content and ob = S.encoded_size order in
  Alcotest.(check bool)
    (Printf.sprintf "order %dB well under content %dB" ob cb)
    true
    (ob * 3 < cb)

(* Salvage of a damaged order log never invents data: the recovered
   per-pid entries are a prefix of the original's. *)
let is_prefix_log (a : L.t) (b : L.t) =
  b.L.nprocs <= a.L.nprocs
  && Array.length b.L.entries = b.L.nprocs
  &&
  let ok = ref true in
  for pid = 0 to b.L.nprocs - 1 do
    let ea = a.L.entries.(pid) and eb = b.L.entries.(pid) in
    if Array.length eb > Array.length ea then ok := false
    else Array.iteri (fun i y -> if ea.(i) <> y then ok := false) eb
  done;
  !ok

let test_order_truncation_salvage () =
  let _eb, _content, order = record ~ckpt_every:8 Workloads.fig61 in
  with_tmp (fun path ->
      S.save path order;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let n = String.length full in
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
          true
          (is_prefix_log order salvaged)
      done;
      (* losing only the trailer keeps every sync record and checkpoint *)
      cut (n - 10);
      let salvaged = S.load path in
      Alcotest.(check bool) "footer-only damage loses no entry" true
        (salvaged.L.entries = order.L.entries
        && salvaged.L.ckpts = order.L.ckpts))

let test_order_byte_flip_detected () =
  let _eb, _content, order = record ~ckpt_every:8 Workloads.fig61 in
  with_tmp (fun path ->
      S.save path order;
      let full = In_channel.with_open_bin path In_channel.input_all in
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
            true
            (is_prefix_log order salvaged)
      done)

(* -------------------------------------------------------------- *)
(* Reconstruction *)

let test_reconstruct_corpus () =
  List.iter
    (fun (name, src) ->
      let eb, content, order = record ~ckpt_every:16 src in
      let recon = Ppd.Reconstruct.reconstruct eb order in
      Alcotest.(check bool)
        (name ^ " reconstruction = content log")
        true
        (recon.L.entries = content.L.entries
        && recon.L.stops = content.L.stops
        && recon.L.nprocs = content.L.nprocs);
      Alcotest.(check bool)
        (name ^ " reconstruction keeps the checkpoints")
        true
        (recon.L.ckpts = order.L.ckpts
        && recon.L.tier = L.T_content))
    corpus

(* The oracle over random parallel programs and schedules: whatever the
   recording run did, re-execution from the order log must reproduce
   the content log bit for bit — prelogs, postlogs, sync-unit prelogs,
   values and all. *)
let reconstruct_prop =
  Util.qtest ~count:40
    "random programs x schedules: reconstruct (order log) = content log"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1000))
    (fun (seed, sseed) ->
      let sched = Runtime.Sched.Random_seed sseed in
      let eb, content, order =
        record ~sched ~ckpt_every:32 (Gen.parallel ~protect:`Sometimes seed)
      in
      let recon = Ppd.Reconstruct.reconstruct eb order in
      recon.L.entries = content.L.entries
      && recon.L.stops = content.L.stops)

(* A different scheduler than the recorded one is a different
   computation: validation must refuse it, not hand back wrong
   history. *)
let test_reconstruct_divergence () =
  let prog = compile (Workloads.counter ~workers:3 ~incs:6 ~mutex:true) in
  let eb = Analysis.Eblock.analyze prog in
  let tier =
    L.T_order { L.o_sched = "rr:1"; o_engine = "vm"; o_max_steps = 200_000 }
  in
  let _, order, _ =
    Trace.Logger.run_logged ~sched:(Runtime.Sched.Random_seed 42)
      ~max_steps:200_000 ~tier eb
  in
  match Ppd.Reconstruct.reconstruct eb order with
  | exception Ppd.Reconstruct.Divergence _ -> ()
  | _ -> Alcotest.fail "expected Divergence under a mismatched scheduler"

(* A controller over an order log (in memory or paged) answers exactly
   like one over the content recording. *)
let test_controller_over_order_log () =
  let eb, content, order = record ~ckpt_every:16 Workloads.fig61 in
  let digest log =
    let ctl = Ppd.Controller.start eb log in
    let buf = Buffer.create 256 in
    for pid = 0 to log.L.nprocs - 1 do
      match Ppd.Controller.last_event_node ctl ~pid with
      | None -> Buffer.add_string buf (Printf.sprintf "p%d -\n" pid)
      | Some root ->
        List.iter
          (fun (d : Ppd.Flowback.dep) ->
            Buffer.add_string buf (Printf.sprintf "%d " d.Ppd.Flowback.d_node))
          (Ppd.Flowback.backward_slice ctl root);
        Buffer.add_char buf '\n'
    done;
    Buffer.contents buf
  in
  Alcotest.(check string) "flowback identical across tiers" (digest content)
    (digest order);
  with_tmp (fun path ->
      S.save path order;
      let ctl = Ppd.Controller.start_paged eb (S.open_file path) in
      Alcotest.(check bool) "paged order log debugs" true
        (Ppd.Controller.last_event_node ctl ~pid:0 <> None))

(* -------------------------------------------------------------- *)
(* Checkpoint-seeded restoration (satellite: the stale-clock bug) *)

(* Seeding from a checkpoint must be invisible where both sides have
   the same information. The sync-frontier clock must match a
   from-scratch scan at EVERY step (sync entries carry exact steps, so
   the scan clock is exact) — this is the regression for the stale
   vector-clock bug: a checkpoint cut at step S already covers the
   sync event at S, so restore must re-apply only strictly later
   entries, never count one twice. Globals are compared at checkpoint
   cuts (where the seeded answer must be exactly the snapshot) and
   past the last entry (where the scan has caught up); mid-block the
   checkpoint legitimately knows writes no postlog has recorded yet. *)
let test_ckpt_seeded_restore_equals_scan () =
  List.iter
    (fun (name, src) ->
      let eb, _content, order = record ~ckpt_every:8 src in
      let recon = Ppd.Reconstruct.reconstruct eb order in
      let bare = { recon with L.ckpts = [||] } in
      let prog = eb.Analysis.Eblock.prog in
      let last =
        Array.fold_left
          (fun acc ck -> max acc ck.L.ck_step)
          0 recon.L.ckpts
      in
      for step = 0 to last + 12 do
        let seeded = Ppd.Restore.shared_at prog recon ~step in
        let scanned = Ppd.Restore.shared_at prog bare ~step in
        if seeded.Ppd.Restore.clock <> scanned.Ppd.Restore.clock then
          Alcotest.failf "%s: sync clock differs at step %d (stale entry)"
            name step
      done;
      Array.iter
        (fun ck ->
          let seeded = Ppd.Restore.shared_at prog recon ~step:ck.L.ck_step in
          if seeded.Ppd.Restore.globals <> ck.L.ck_globals then
            Alcotest.failf "%s: restore at the step-%d cut is not the snapshot"
              name ck.L.ck_step)
        recon.L.ckpts;
      let horizon =
        Array.fold_left
          (fun acc es ->
            Array.fold_left
              (fun acc e -> max acc (L.entry_step_at e))
              acc es)
          0 recon.L.entries
      in
      let seeded = Ppd.Restore.shared_at prog recon ~step:horizon in
      let scanned = Ppd.Restore.shared_at prog bare ~step:horizon in
      if seeded.Ppd.Restore.globals <> scanned.Ppd.Restore.globals then
        Alcotest.failf "%s: globals differ once every postlog is in" name;
      (* and the seeding must actually bound the scan once past the
         first checkpoint *)
      if Array.length recon.L.ckpts > 1 then begin
        let seeded = Ppd.Restore.shared_at prog recon ~step:last in
        let scanned = Ppd.Restore.shared_at prog bare ~step:last in
        Alcotest.(check bool)
          (name ^ " checkpoint bounds the scan")
          true
          (seeded.Ppd.Restore.entries_scanned
          < scanned.Ppd.Restore.entries_scanned)
      end)
    corpus

let suite =
  ( "order-tier",
    [
      Alcotest.test_case "order log round-trips the store" `Quick
        test_order_roundtrip;
      Alcotest.test_case "order bytes bounded by sync skeleton" `Quick
        test_order_bytes_bounded;
      Alcotest.test_case "order truncation salvages a prefix" `Quick
        test_order_truncation_salvage;
      Alcotest.test_case "order byte flips detected" `Quick
        test_order_byte_flip_detected;
      Alcotest.test_case "reconstruction = content (corpus)" `Quick
        test_reconstruct_corpus;
      reconstruct_prop;
      Alcotest.test_case "mismatched scheduler diverges" `Quick
        test_reconstruct_divergence;
      Alcotest.test_case "controller over order log" `Quick
        test_controller_over_order_log;
      Alcotest.test_case "checkpoint-seeded restore = full scan" `Quick
        test_ckpt_seeded_restore_equals_scan;
    ] )
