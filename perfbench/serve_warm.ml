(* serve-warm: nproc client threads, each with its own session on one
   in-process daemon (requests go through Serve.Server.handle_line).
   Every session holds a handle on every fixture log and sends a
   seeded mix of flowback, replay and race requests; each op is one
   heavy RPC round trip, request encoding to response decoding. *)

open Common
module J = Serve.Json

type client = {
  sess : Serve.Server.session;
  handles : (string, int) Hashtbl.t;  (** fixture segment -> handle *)
  deck : (fixture * meth) array;
  mutable next : int;
  mutable hits : int;
  mutable misses : int;
  mutable replays : int;
  mutable replay_steps : int;
  mutable traced_ops : int;
}

let obs_counters =
  [
    "store.segment.page_hits";
    "store.segment.page_faults";
    "runtime.machine_steps";
  ]

let result_of resp =
  match J.parse resp with
  | Error e -> Error ("unparsable response: " ^ e)
  | Ok v -> (
    match (J.member "error" v, J.member "result" v) with
    | Some e, _ -> Error ("error response: " ^ J.to_string e)
    | None, Some r -> Ok r
    | None, None -> Error "response without result")

let int_field r name =
  Option.value ~default:0 (Option.bind (J.member name r) J.to_int)

let call srv sess line =
  match result_of (Serve.Server.handle_line srv sess line) with
  | Ok r -> r
  | Error m -> failwith m

let gate_stats srv sess =
  let r = call srv sess {|{"id":0,"method":"serverStats"}|} in
  match J.member "gate" r with
  | Some g -> (int_field g "totalWaitNs", int_field g "admitted")
  | None -> failwith "serverStats without gate"

let setup ~seed ~smoke =
  let fx =
    record_fixtures ~seed ~tag:"serve-warm" (if smoke then Smoke else Fixture)
  in
  let depths = [ 1; 2; 3; 4; 5; 6 ] in
  let expected = oracle fx ~slice_first:false ~depths in
  let srv =
    Serve.Server.create
      ~config:
        {
          Serve.Server.default_config with
          jobs = 1;
          max_active = nproc;
        }
      ()
  in
  let clients =
    Array.init nproc (fun i ->
        let sess = Serve.Server.session srv in
        let handles = Hashtbl.create 8 in
        Array.iter
          (fun (f : fixture) ->
            let r =
              call srv sess
                (J.to_string
                   (J.Obj
                      [
                        ("id", J.Int 1);
                        ("method", J.Str "open");
                        ( "params",
                          J.Obj
                            [ ("log", J.Str f.fx_seg); ("program", J.Str f.fx_mpl) ]
                        );
                      ]))
            in
            Hashtbl.replace handles f.fx_seg (int_field r "handle"))
          fx.logs;
        {
          sess;
          handles;
          deck =
            deck
              (Random.State.make [| seed; 0x5e7e; i |])
              fx.logs ~depths ~reps:2;
          next = 0;
          hits = 0;
          misses = 0;
          replays = 0;
          replay_steps = 0;
          traced_ops = 0;
        })
  in
  (* the first pass: one replay of every log fills the shared fragment
     caches and page LRUs the measured requests then run warm on *)
  Array.iter
    (fun (f : fixture) ->
      let c = clients.(0) in
      ignore
        (call srv c.sess
           (Printf.sprintf {|{"id":2,"method":"replay","params":{"handle":%d}}|}
              (Hashtbl.find c.handles f.fx_seg))))
    fx.logs;
  let op c spans k =
    let f, meth = c.deck.(c.next mod Array.length c.deck) in
    c.next <- c.next + 1;
    let t0 = now () in
    let r =
      Spans.op spans k ~label:(fun () -> label f meth) (fun () ->
          (* the request is ready: like a connection thread blocking on
             its socket, let the other clients run first; the op counts
             the wait *)
          Spans.span spans "serve.wait" Thread.yield;
          let line =
            J.to_string
              (J.Obj
                 [
                   ("id", J.Int k);
                   ("method", J.Str (meth_name meth));
                   ( "params",
                     J.Obj
                       (("handle", J.Int (Hashtbl.find c.handles f.fx_seg))
                       ::
                       (match meth with
                       | Flowback d -> [ ("depth", J.Int d) ]
                       | Replay | Race -> [])) );
                 ])
          in
          let resp =
            Spans.span spans
              ("serve.handle." ^ meth_name meth)
              (fun () -> Serve.Server.handle_line srv c.sess line)
          in
          Spans.span spans "serve.json" (fun () -> result_of resp))
    in
    let dt = now () - t0 in
    let verdict =
      match r with
      | Error m -> Error m
      | Ok r ->
        if spans.Spans.on then begin
          c.traced_ops <- c.traced_ops + 1;
          c.hits <- c.hits + int_field r "cacheHits";
          c.misses <- c.misses + int_field r "cacheMisses";
          c.replays <- c.replays + int_field r "replays";
          c.replay_steps <- c.replay_steps + int_field r "replaySteps"
        end;
        if Option.bind (J.member "output" r) J.to_str = Some (expected f meth)
        then Ok dt
        else
          Error
            (Printf.sprintf "%s %s: response differs from the one-shot answer"
               f.fx_seg (meth_name meth))
    in
    (verdict, 0)
  in
  let gate = ref (0, 0) and obs = ref [] in
  let measure ~traced ~seconds =
    Array.iter (fun c -> c.next <- 0) clients;
    let spans = Array.map (fun _ -> Spans.create ~on:traced) clients in
    let gate0 = gate_stats srv clients.(0).sess in
    if traced then begin
      Obs.reset ();
      Obs.enable ()
    end;
    let before = counters_now obs_counters in
    let t0 = now () in
    let deadline = t0 + int_of_float (seconds *. 1e9) in
    let results = Array.make (Array.length clients) ([||], 0, 0, []) in
    let phase = Common.clients () in
    let threads =
      Array.mapi
        (fun i c ->
          Thread.create
            (fun () ->
              results.(i) <-
                client_loop ~clients:phase ~deadline (op c spans.(i)))
            ())
        clients
    in
    Array.iter Thread.join threads;
    let busy_ns =
      now () - t0
      - Array.fold_left (fun a (_, _, e, _) -> a + e) 0 results
    in
    if traced then begin
      obs := counters_delta before;
      Obs.disable ()
    end;
    let w1, a1 = gate_stats srv clients.(0).sess in
    gate := (w1 - fst gate0, a1 - snd gate0);
    {
      lat_ns =
        Array.concat (Array.to_list (Array.map (fun (l, _, _, _) -> l) results));
      failed = Array.fold_left (fun a (_, f, _, _) -> a + f) 0 results;
      busy_ns;
      calib = List.concat_map (fun (_, _, _, c) -> c) (Array.to_list results);
      spans = Array.to_list spans;
    }
  in
  let layers (_ : phase) =
    let sum f = Array.fold_left (fun a c -> a + f c) 0 clients in
    let ops = max 1 (sum (fun c -> c.traced_ops)) in
    let per_op x = float_of_int x /. float_of_int ops in
    let hits = sum (fun c -> c.hits) and misses = sum (fun c -> c.misses) in
    let wait_ns, admitted = !gate in
    let c name = Option.value ~default:0 (List.assoc_opt name !obs) in
    let ph = c "store.segment.page_hits" and pf = c "store.segment.page_faults" in
    [
      ( "serve.gate_wait_ms",
        float_of_int wait_ns /. 1e6 /. float_of_int (max 1 admitted) );
      ( "serve.cache_hit_ratio",
        float_of_int hits /. float_of_int (max 1 (hits + misses)) );
      (* order-tier handles re-execute the program on every request *)
      ("runtime.steps", per_op (c "runtime.machine_steps"));
      ("ppd.replays", per_op (sum (fun c -> c.replays)));
      ("ppd.replay_steps", per_op (sum (fun c -> c.replay_steps)));
      ("store.page_hits", per_op ph);
      ("store.page_faults", per_op pf);
      ("store.page_hit_ratio", float_of_int ph /. float_of_int (max 1 (ph + pf)));
    ]
  in
  {
    Workload.measure;
    bytes_per_kstep = (fun () -> fixture_bytes_per_kstep fx);
    layers;
    teardown =
      (fun () ->
        Array.iter (fun c -> Serve.Server.end_session srv c.sess) clients;
        Serve.Server.shutdown srv;
        rm_rf fx.dir);
  }

let workload =
  {
    Workload.name = "serve-warm";
    per_layer =
      [
        "runtime.steps";
        "store.page_faults";
        "store.page_hits";
        "store.page_hit_ratio";
        "ppd.replays";
        "ppd.replay_steps";
        "serve.handle_ms.flowback";
        "serve.handle_ms.replay";
        "serve.handle_ms.race";
        "serve.gate_wait_ms";
        "serve.wait_ms";
        "serve.cache_hit_ratio";
        "serve.json_ms";
      ];
    setup;
  }
