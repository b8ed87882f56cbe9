(* Shared rendering for the answers the CLI and the daemon both give
   (the `--load` debugging reports and the fsck report). The format
   strings here are the only copy; the cram suite pins the bytes. *)

type sink = { out : string -> unit; ppf : Format.formatter }

let stdout_sink () = { out = print_string; ppf = Format.std_formatter }

let buffer_sink b =
  { out = Buffer.add_string b; ppf = Format.formatter_of_buffer b }

let pf sink fmt = Printf.ksprintf sink.out fmt

let header sink ~path ~version ~nprocs =
  pf sink "debugging saved log %s (v%d, %d process(es))\n" path version nprocs

let dot_dump sink ~dot ctl =
  match dot with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc
          (Ppd.Dyn_graph.to_dot (Ppd.Controller.graph ctl)));
    pf sink "dynamic graph written to %s\n" path

let flowback_report sink ~depth ~dot ctl root =
  (match root with
  | None -> sink.out "no events to debug\n"
  | Some root ->
    Format.fprintf sink.ppf "%a@."
      (Ppd.Flowback.pp_explain ~max_depth:depth ctl)
      root);
  let st = Ppd.Controller.stats ctl in
  (* a rootless clean run keeps its historical one-line output; once
     there is a root or a hole, the full report follows *)
  if root <> None || st.Ppd.Controller.holes > 0 then begin
    Ppd.Flowback.pp_holes ctl sink.ppf;
    pf sink "emulated %d of %d log intervals (%d replay steps)%s\n"
      st.Ppd.Controller.replays st.Ppd.Controller.intervals_total
      st.Ppd.Controller.replay_steps
      (if st.Ppd.Controller.holes > 0 then
         Printf.sprintf ", %d hole(s)" st.Ppd.Controller.holes
       else "")
  end;
  dot_dump sink ~dot ctl

let replay_report sink ~dump ~nprocs ctl =
  let keys =
    List.concat
      (List.init nprocs (fun pid ->
           List.init
             (Array.length (Ppd.Controller.intervals ctl ~pid))
             (fun iv_id -> (pid, iv_id))))
  in
  Ppd.Controller.build_intervals_par ctl keys;
  let st = Ppd.Controller.stats ctl in
  let g = Ppd.Controller.graph ctl in
  pf sink
    "replayed %d of %d log intervals (%d replay steps); graph: %d nodes, %d \
     edges%s\n"
    st.Ppd.Controller.replays st.Ppd.Controller.intervals_total
    st.Ppd.Controller.replay_steps (Ppd.Dyn_graph.nnodes g)
    (Ppd.Dyn_graph.nedges g)
    (if st.Ppd.Controller.holes > 0 then
       Printf.sprintf ", %d hole(s)" st.Ppd.Controller.holes
     else "");
  Ppd.Flowback.pp_holes ctl sink.ppf;
  if dump then Format.fprintf sink.ppf "%a@." Ppd.Dyn_graph.pp g

let fsck_json ~path (rp : Store.Segment.fsck_report) =
  let page (p : Store.Segment.fsck_page) =
    Json.Obj
      [
        ("pid", Json.Int p.fp_pid);
        ("page", Json.Int p.fp_page);
        ("offset", Json.Int p.fp_offset);
        ("count", Json.Int p.fp_count);
        ( "error",
          Option.fold ~none:Json.Null ~some:(fun e -> Json.Str e) p.fp_error );
      ]
  in
  let dmg (d : Store.Segment.damage) =
    Json.Obj
      [ ("offset", Json.Int d.dmg_offset); ("reason", Json.Str d.dmg_reason) ]
  in
  Json.Obj
    [
      ("path", Json.Str path);
      ("version", Json.Int 2);
      ("bytes", Json.Int rp.fk_bytes);
      ("indexed", Json.Bool rp.fk_indexed);
      ("clean", Json.Bool rp.fk_clean);
      ("tier", Json.Str rp.fk_tier);
      ("checkpoints", Json.Int rp.fk_ckpts);
      ("procs", Json.Int rp.fk_procs);
      ("records", Json.Int rp.fk_records);
      ("intervals", Json.Int rp.fk_intervals);
      ("pages", Json.List (List.map page rp.fk_pages));
      ("damage", Json.List (List.map dmg rp.fk_damage));
    ]
