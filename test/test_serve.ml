(* The serve subsystem: the JSON codec, the RPC framing, the admission
   gate, and the daemon dispatcher driven in-process via [handle_line]
   — everything the transports share, without a socket in sight. *)

module J = Json
module Rpc = Serve.Rpc
module Gate = Serve.Gate
module Server = Serve.Server

(* -------------------------------------------------------------- *)
(* JSON codec *)

(* Values whose printed form must parse back unchanged. Strings stay
   printable ASCII here: the printer passes bytes >= 0x20 through raw,
   so arbitrary bytes would test UTF-8 validation (covered separately),
   not the round trip. *)
let json_gen =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (int_range (-1_000_000_000) 1_000_000_000);
        map (fun f -> J.Float f) (float_range (-1e6) 1e6);
        map
          (fun s -> J.Str s)
          (string_size ~gen:(char_range ' ' '~') (int_range 0 12));
      ]
  in
  let rec node depth =
    if depth = 0 then scalar
    else
      oneof
        [
          scalar;
          map (fun vs -> J.List vs) (list_size (int_range 0 4) (node (depth - 1)));
          map
            (fun kvs -> J.Obj kvs)
            (list_size (int_range 0 4)
               (pair
                  (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
                  (node (depth - 1))));
        ]
  in
  node 3

let json_roundtrip =
  Util.qtest ~count:200 "JSON print/parse round trip" json_gen (fun v ->
      J.parse (J.to_string v) = Ok v)

let test_json_accepts () =
  let ok input expected =
    match J.parse input with
    | Ok v -> Alcotest.(check string) input (J.to_string expected) (J.to_string v)
    | Error e -> Alcotest.failf "%s rejected: %s" input e
  in
  ok " { } " (J.Obj []);
  ok "[ ]" (J.List []);
  ok "-350" (J.Int (-350));
  ok "-3.5e2" (J.Float (-350.));
  ok {|"a\/b"|} (J.Str "a/b");
  ok {|"café"|} (J.Str "caf\xc3\xa9");
  (* surrogate pair combines to one 4-byte code point *)
  ok {|"😀"|} (J.Str "\xf0\x9f\x98\x80");
  (* raw multi-byte UTF-8 passes validation and survives *)
  ok "\"caf\xc3\xa9\"" (J.Str "caf\xc3\xa9");
  (* an integer too large for a native int degrades to a float *)
  (match J.parse "99999999999999999999" with
  | Ok (J.Float _) -> ()
  | _ -> Alcotest.fail "big integer should parse as a float")

let test_json_rejects () =
  let bad input =
    match J.parse input with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "%S accepted as %s" input (J.to_string v)
  in
  bad "";
  bad "{";
  bad "[1,2";
  bad {|{"a":1,}|};
  bad "1 2";
  bad "truex";
  bad "nul";
  bad {|"\q"|};
  bad {|"\ud800"|};
  (* lone surrogate escape *)
  bad "\"\xff\"";
  (* invalid UTF-8 byte *)
  bad "\"\xc0\x80\"";
  (* overlong encoding *)
  bad "\"\xed\xa0\x80\"";
  (* surrogate encoded as UTF-8 *)
  bad "\"a\nb\"";
  (* raw control character in a string *)
  bad "1e999";
  (* number literals must be finite *)
  bad "-1e400";
  bad (String.make 70 '[' ^ "1" ^ String.make 70 ']')
(* nesting beyond the depth cap *)

(* JSON has no NaN or infinity: the printer says null instead. *)
let test_json_non_finite () =
  List.iter
    (fun f ->
      Alcotest.(check string) (string_of_float f) "null"
        (J.to_string (J.Float f)))
    [ nan; infinity; neg_infinity ]

(* -------------------------------------------------------------- *)
(* RPC framing *)

let test_rpc_parse () =
  (match Rpc.parse_request {|{"id":7,"method":"ping"}|} with
  | Ok rq ->
    Alcotest.(check bool) "id echoed" true (rq.Rpc.rq_id = J.Int 7);
    Alcotest.(check string) "method" "ping" rq.Rpc.rq_method;
    Alcotest.(check bool) "params default" true (rq.Rpc.rq_params = J.Obj [])
  | Error (c, m) -> Alcotest.failf "rejected: %s %s" c m);
  match Rpc.parse_request {|{"id":"x","method":"m","params":{"a":1}}|} with
  | Ok rq -> Alcotest.(check bool) "string id" true (rq.Rpc.rq_id = J.Str "x")
  | Error (c, m) -> Alcotest.failf "rejected: %s %s" c m

let test_rpc_rejects () =
  let bad line =
    match Rpc.parse_request line with
    | Error (code, _) ->
      Alcotest.(check string) ("code for " ^ line) Rpc.err_protocol code
    | Ok _ -> Alcotest.failf "%S accepted" line
  in
  bad "not json";
  bad "[1,2,3]";
  (* not an object *)
  bad {|{"method":"ping"}|};
  (* missing id *)
  bad {|{"id":null,"method":"ping"}|};
  bad {|{"id":[1],"method":"ping"}|};
  (* structured id *)
  bad {|{"id":1}|};
  (* missing method *)
  bad {|{"id":1,"method":2}|};
  bad {|{"id":1,"method":"ping","params":[]}|};
  (* params not an object *)
  bad ("{\"id\":1,\"method\":\"" ^ String.make Rpc.max_line_bytes 'x' ^ "\"}")
(* oversized line *)

let test_rpc_lines () =
  let parsed line =
    match J.parse line with
    | Ok v -> v
    | Error e -> Alcotest.failf "unparsable response %s: %s" line e
  in
  let r = parsed (Rpc.result_line ~id:(J.Int 3) (J.Obj [ ("x", J.Int 1) ])) in
  Alcotest.(check bool) "result id" true (J.member "id" r = Some (J.Int 3));
  Alcotest.(check bool) "result member" true (J.member "result" r <> None);
  let e =
    parsed (Rpc.error_line ~id:J.Null ~code:"PPD080" ~message:"broken")
  in
  Alcotest.(check bool) "error id null" true (J.member "id" e = Some J.Null);
  match J.member "error" e with
  | Some err ->
    Alcotest.(check bool) "code" true (J.member "code" err = Some (J.Str "PPD080"))
  | None -> Alcotest.fail "no error member"

(* -------------------------------------------------------------- *)
(* Admission gate *)

let test_gate_shed () =
  let g = Gate.create ~max_active:1 ~max_queue:0 in
  (match Gate.admit g with Ok _ -> () | Error _ -> Alcotest.fail "admit 1");
  (match Gate.admit g with
  | Error `Busy -> ()
  | Error `Deadline -> Alcotest.fail "no deadline was set"
  | Ok _ -> Alcotest.fail "should shed with a full queue");
  Gate.release g;
  (match Gate.admit g with Ok _ -> () | Error _ -> Alcotest.fail "admit 2");
  Gate.release g;
  let st = Gate.stats g in
  Alcotest.(check int) "admitted" 2 st.Gate.admitted;
  Alcotest.(check int) "shed" 1 st.Gate.shed;
  Alcotest.(check int) "active" 0 st.Gate.active

let test_gate_queues () =
  let g = Gate.create ~max_active:1 ~max_queue:1 in
  (match Gate.admit g with Ok _ -> () | Error _ -> Alcotest.fail "admit");
  let entered = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        match Gate.admit g with
        | Ok _ ->
          Atomic.set entered true;
          Gate.release g
        | Error _ -> ())
      ()
  in
  (* wait until the thread is parked in the queue *)
  let rec spin n =
    if n = 0 then Alcotest.fail "waiter never queued"
    else if (Gate.stats g).Gate.queued = 0 then begin
      Thread.yield ();
      Thread.delay 0.001;
      spin (n - 1)
    end
  in
  spin 2000;
  Alcotest.(check bool) "not yet admitted" false (Atomic.get entered);
  Gate.release g;
  Thread.join th;
  Alcotest.(check bool) "admitted after release" true (Atomic.get entered);
  let st = Gate.stats g in
  Alcotest.(check int) "both admitted" 2 st.Gate.admitted;
  Alcotest.(check int) "nothing shed" 0 st.Gate.shed

let test_gate_with_slot_releases_on_raise () =
  let g = Gate.create ~max_active:1 ~max_queue:0 in
  (try ignore (Gate.with_slot g (fun ~queue_wait_ns:_ -> failwith "boom"))
   with Failure _ -> ());
  match Gate.admit g with
  | Ok _ -> Gate.release g
  | Error _ -> Alcotest.fail "slot leaked by a raising callback"

(* Satellite: wakeup fairness. Waiters must be served in arrival
   order — the pre-ticket condvar allowed a late waiter to barge past
   a parked earlier one on a lucky wakeup. Each waiter is parked
   before the next is spawned, so arrival order is pinned; the service
   order must equal it exactly. *)
let test_gate_fifo_order () =
  let g = Gate.create ~max_active:1 ~max_queue:8 in
  (match Gate.admit g with Ok _ -> () | Error _ -> Alcotest.fail "admit");
  let order = ref [] in
  let olock = Mutex.create () in
  let spawn i =
    Thread.create
      (fun () ->
        match Gate.admit g with
        | Ok _ ->
          Mutex.lock olock;
          order := i :: !order;
          Mutex.unlock olock;
          Gate.release g
        | Error _ -> ())
      ()
  in
  let threads =
    List.map
      (fun i ->
        let th = spawn i in
        let rec spin n =
          if n = 0 then Alcotest.fail "waiter never queued"
          else if (Gate.stats g).Gate.queued < i + 1 then begin
            Thread.yield ();
            Thread.delay 0.001;
            spin (n - 1)
          end
        in
        spin 2000;
        th)
      [ 0; 1; 2; 3; 4 ]
  in
  Gate.release g;
  List.iter Thread.join threads;
  Alcotest.(check (list int)) "FIFO service order" [ 0; 1; 2; 3; 4 ]
    (List.rev !order)

let test_gate_deadline () =
  let g = Gate.create ~max_active:1 ~max_queue:4 in
  (match Gate.admit g with Ok _ -> () | Error _ -> Alcotest.fail "admit");
  (* an already-expired deadline abandons the queue instead of parking *)
  (match Gate.admit ~deadline:(Resil.Deadline.at_ns 1) g with
  | Error `Deadline -> ()
  | Error `Busy -> Alcotest.fail "expired deadline shed as busy"
  | Ok _ -> Alcotest.fail "expired deadline admitted");
  Alcotest.(check int) "deadline drop counted" 1
    (Gate.stats g).Gate.deadline_drops;
  (* the abandoned ticket must not wedge the queue for later arrivals *)
  let entered = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        match Gate.admit g with
        | Ok _ ->
          Atomic.set entered true;
          Gate.release g
        | Error _ -> ())
      ()
  in
  let rec spin n =
    if n > 0 && (Gate.stats g).Gate.queued = 0 then begin
      Thread.yield ();
      Thread.delay 0.001;
      spin (n - 1)
    end
  in
  spin 2000;
  Gate.release g;
  Thread.join th;
  Alcotest.(check bool) "later arrival served past the tombstone" true
    (Atomic.get entered)

(* -------------------------------------------------------------- *)
(* The daemon, in-process *)

(* One recorded fig61 execution on disk: the program file and its
   durable segment, which is what `open` wants. *)
let with_fixture f =
  let mpl = Filename.temp_file "serve_fig61" ".mpl" in
  let seg = Filename.temp_file "serve_fig61" ".seg" in
  Out_channel.with_open_text mpl (fun oc ->
      Out_channel.output_string oc Workloads.fig61);
  let prog = Lang.Compile.compile Workloads.fig61 in
  let eb = Analysis.Eblock.analyze prog in
  let w = Store.Segment.Writer.to_file seg in
  let logger = Trace.Logger.create ~sink:(Store.Segment.Writer.sink w) eb in
  let m = Runtime.Machine.create ~hooks:(Trace.Logger.factory logger) prog in
  ignore (Runtime.Machine.run m);
  ignore (Trace.Logger.finish logger);
  Store.Segment.Writer.close w;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove mpl with Sys_error _ -> ());
      try Sys.remove seg with Sys_error _ -> ())
    (fun () -> f ~mpl ~seg)

let parsed line =
  match J.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparsable response %s: %s" line e

let result_of line =
  let v = parsed line in
  match J.member "result" v with
  | Some r -> r
  | None -> Alcotest.failf "expected a result, got %s" line

let error_code_of line =
  let v = parsed line in
  match J.member "error" v with
  | Some err -> (
    match Option.bind (J.member "code" err) J.to_str with
    | Some c -> c
    | None -> Alcotest.failf "error without code: %s" line)
  | None -> Alcotest.failf "expected an error, got %s" line

let jint r name =
  match Option.bind (J.member name r) J.to_int with
  | Some i -> i
  | None -> Alcotest.failf "missing int %s in %s" name (J.to_string r)

let jstr r name =
  match Option.bind (J.member name r) J.to_str with
  | Some s -> s
  | None -> Alcotest.failf "missing string %s in %s" name (J.to_string r)

let open_line ~id ?(inline = 0) ~mpl ~seg () =
  J.to_string
    (J.Obj
       [
         ("id", J.Int id);
         ("method", J.Str "open");
         ( "params",
           J.Obj
             [
               ("log", J.Str seg);
               ("program", J.Str mpl);
               ("inline", J.Int inline);
             ] );
       ])

let req ~id meth params =
  J.to_string
    (J.Obj [ ("id", J.Int id); ("method", J.Str meth); ("params", J.Obj params) ])

let open_handle srv sess ~mpl ~seg =
  jint (result_of (Server.handle_line srv sess (open_line ~id:1 ~mpl ~seg ()))) "handle"

let test_dispatch_basics () =
  let srv = Server.create () in
  let s = Server.session srv in
  let pong = parsed (Server.handle_line srv s {|{"id":9,"method":"ping"}|}) in
  Alcotest.(check bool) "id echoed" true (J.member "id" pong = Some (J.Int 9));
  Alcotest.(check string) "unknown method" Rpc.err_unknown_method
    (error_code_of (Server.handle_line srv s {|{"id":1,"method":"nope"}|}));
  let mal = parsed (Server.handle_line srv s "not json at all") in
  Alcotest.(check bool) "malformed gets id null" true
    (J.member "id" mal = Some J.Null);
  let inf_id = {|{"id":1e999,"method":"ping"}|} in
  Alcotest.(check bool) "non-finite id gets id null" true
    (J.member "id" (parsed (Server.handle_line srv s inf_id)) = Some J.Null);
  Alcotest.(check string) "non-finite id is protocol error" Rpc.err_protocol
    (error_code_of (Server.handle_line srv s inf_id));
  Alcotest.(check string) "malformed is protocol error" Rpc.err_protocol
    (error_code_of (Server.handle_line srv s "not json at all"));
  Alcotest.(check string) "missing params rejected" Rpc.err_bad_params
    (error_code_of (Server.handle_line srv s {|{"id":2,"method":"open"}|}));
  Alcotest.(check string) "unknown handle" Rpc.err_unknown_handle
    (error_code_of
       (Server.handle_line srv s {|{"id":3,"method":"flowback","params":{"handle":99}}|}));
  Server.end_session srv s;
  Server.shutdown srv

let test_registry_refcounts () =
  with_fixture (fun ~mpl ~seg ->
      let srv = Server.create () in
      let s1 = Server.session srv in
      let s2 = Server.session srv in
      let r1 = result_of (Server.handle_line srv s1 (open_line ~id:1 ~mpl ~seg ())) in
      let h1 = jint r1 "handle" in
      Alcotest.(check int) "first open refs" 1 (jint r1 "refs");
      let r2 = result_of (Server.handle_line srv s2 (open_line ~id:2 ~mpl ~seg ())) in
      let h2 = jint r2 "handle" in
      Alcotest.(check int) "second open shares the entry" 2 (jint r2 "refs");
      (* handle numbering is session-scoped: every session's first
         open is handle 1, so scripted clients need not parse it *)
      Alcotest.(check int) "s1 first handle" 1 h1;
      Alcotest.(check int) "s2 first handle" 1 h2;
      let st = result_of (Server.handle_line srv s2 (req ~id:3 "stats" [ ("handle", J.Int h2) ])) in
      Alcotest.(check int) "stats sees both refs" 2 (jint st "refs");
      let cl = result_of (Server.handle_line srv s1 (req ~id:4 "close" [ ("handle", J.Int h1) ])) in
      Alcotest.(check int) "close drops a ref" 1 (jint cl "refs");
      Alcotest.(check string) "closed handle is unknown" Rpc.err_unknown_handle
        (error_code_of (Server.handle_line srv s1 (req ~id:5 "close" [ ("handle", J.Int h1) ])));
      Alcotest.(check string) "handles are per-session" Rpc.err_unknown_handle
        (error_code_of (Server.handle_line srv s1 (req ~id:6 "stats" [ ("handle", J.Int h2) ])));
      Server.end_session srv s2;
      Server.end_session srv s2;
      (* idempotent *)
      let s3 = Server.session srv in
      let ss = result_of (Server.handle_line srv s3 (req ~id:7 "serverStats" [])) in
      Alcotest.(check int) "registry empty after last ref" 0 (jint ss "openLogs");
      Alcotest.(check int) "no handles leak" 0 (jint ss "openHandles");
      Server.end_session srv s1;
      Server.end_session srv s3;
      Server.shutdown srv)

let test_open_quota () =
  with_fixture (fun ~mpl ~seg ->
      let config = { Server.default_config with max_open_logs = 1 } in
      let srv = Server.create ~config () in
      let s = Server.session srv in
      ignore (open_handle srv s ~mpl ~seg);
      Alcotest.(check string) "open quota" Rpc.err_quota
        (error_code_of
           (Server.handle_line srv s (open_line ~id:2 ~inline:1 ~mpl ~seg ())));
      Server.end_session srv s;
      Server.shutdown srv)

let flowback_result srv sess ~h ~id =
  result_of
    (Server.handle_line srv sess (req ~id "flowback" [ ("handle", J.Int h); ("depth", J.Int 2) ]))

let test_shared_cache_across_sessions () =
  with_fixture (fun ~mpl ~seg ->
      let srv = Server.create () in
      let s1 = Server.session srv in
      let h1 = open_handle srv s1 ~mpl ~seg in
      let r1 = flowback_result srv s1 ~h:h1 ~id:2 in
      Alcotest.(check int) "cold run misses" 0 (jint r1 "cacheHits");
      Alcotest.(check bool) "cold run replays" true (jint r1 "cacheMisses" > 0);
      (* same session, warm *)
      let r2 = flowback_result srv s1 ~h:h1 ~id:3 in
      Alcotest.(check string) "byte-identical answer (warm)" (jstr r1 "output")
        (jstr r2 "output");
      Alcotest.(check bool) "warm run hits" true (jint r2 "cacheHits" > 0);
      Alcotest.(check int) "warm run never misses" 0 (jint r2 "cacheMisses");
      Alcotest.(check int) "assembly count unchanged (byte-identity)"
        (jint r1 "replays") (jint r2 "replays");
      (* second session on the same log inherits the warm cache *)
      let s2 = Server.session srv in
      let h2 = open_handle srv s2 ~mpl ~seg in
      let r3 = flowback_result srv s2 ~h:h2 ~id:4 in
      Alcotest.(check string) "byte-identical across sessions" (jstr r1 "output")
        (jstr r3 "output");
      Alcotest.(check bool) "other session hits the shared cache" true
        (jint r3 "cacheHits" > 0);
      let st = result_of (Server.handle_line srv s2 (req ~id:5 "stats" [ ("handle", J.Int h2) ])) in
      (match J.member "fragCache" st with
      | Some fc -> Alcotest.(check bool) "fragCache reports hits" true (jint fc "hits" > 0)
      | None -> Alcotest.fail "stats without fragCache");
      Server.end_session srv s1;
      Server.end_session srv s2;
      Server.shutdown srv)

(* `open` on a legacy v1 file is a PPD050 error response, and the daemon
   keeps answering another session's v2 handle byte-identically. *)
let test_v1_open_refused () =
  with_fixture (fun ~mpl ~seg ->
      let srv = Server.create () in
      let s1 = Server.session srv in
      let h1 = open_handle srv s1 ~mpl ~seg in
      let before = flowback_result srv s1 ~h:h1 ~id:2 in
      let s2 = Server.session srv in
      List.iteri
        (fun i (name, image) ->
          let v1 = Filename.temp_file "serve_v1" ".log" in
          Fun.protect
            ~finally:(fun () -> Sys.remove v1)
            (fun () ->
              Out_channel.with_open_bin v1 (fun oc ->
                  Out_channel.output_string oc image);
              let line =
                Server.handle_line srv s2
                  (open_line ~id:(10 + i) ~mpl ~seg:v1 ())
              in
              Alcotest.(check string) (name ^ " code") "PPD050"
                (error_code_of line);
              Alcotest.(check bool) (name ^ " says legacy") true
                (Util.contains ~sub:"legacy v1 log, no longer readable" line)))
        (Util.legacy_v1_images ());
      let after = flowback_result srv s1 ~h:h1 ~id:3 in
      Alcotest.(check string) "co-tenant answer byte-identical"
        (jstr before "output") (jstr after "output");
      Server.end_session srv s1;
      Server.end_session srv s2;
      Server.shutdown srv)

let test_replay_parallel_matches_serial () =
  with_fixture (fun ~mpl ~seg ->
      let serial = Server.create () in
      let par = Server.create ~config:{ Server.default_config with jobs = 4 } () in
      let out srv =
        let s = Server.session srv in
        let h = open_handle srv s ~mpl ~seg in
        let r = result_of (Server.handle_line srv s (req ~id:2 "replay" [ ("handle", J.Int h) ])) in
        let o = jstr r "output" in
        Server.end_session srv s;
        Server.shutdown srv;
        o
      in
      Alcotest.(check string) "-j4 replay is byte-identical" (out serial) (out par))

let test_watchdog_and_degraded () =
  with_fixture (fun ~mpl ~seg ->
      let srv = Server.create () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg in
      Alcotest.(check string) "tiny budget trips PPD060" "PPD060"
        (error_code_of
           (Server.handle_line srv s
              (req ~id:2 "flowback"
                 [ ("handle", J.Int h); ("maxReplaySteps", J.Int 1) ])));
      let r =
        result_of
          (Server.handle_line srv s
             (req ~id:3 "flowback"
                [
                  ("handle", J.Int h);
                  ("maxReplaySteps", J.Int 1);
                  ("degraded", J.Bool true);
                ]))
      in
      Alcotest.(check bool) "degraded mode declares holes" true (jint r "holes" > 0);
      Alcotest.(check string) "over-cap budget is a quota error" Rpc.err_quota
        (error_code_of
           (Server.handle_line srv s
              (req ~id:4 "flowback"
                 [ ("handle", J.Int h); ("maxReplaySteps", J.Int 20_000_000) ])));
      Server.end_session srv s;
      Server.shutdown srv)

let test_step_quota () =
  with_fixture (fun ~mpl ~seg ->
      let config = { Server.default_config with step_quota = 1 } in
      let srv = Server.create ~config () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg in
      let r = flowback_result srv s ~h ~id:2 in
      Alcotest.(check bool) "first heavy request spends steps" true
        (jint r "replaySteps" > 0);
      Alcotest.(check string) "then the lifetime quota trips" Rpc.err_quota
        (error_code_of (Server.handle_line srv s (req ~id:3 "flowback" [ ("handle", J.Int h) ])));
      (* light methods still answer *)
      ignore (result_of (Server.handle_line srv s (req ~id:4 "stats" [ ("handle", J.Int h) ])));
      ignore (result_of (Server.handle_line srv s (req ~id:5 "serverStats" [])));
      Server.end_session srv s;
      Server.shutdown srv)

let test_fsck_method () =
  with_fixture (fun ~mpl:_ ~seg ->
      let srv = Server.create () in
      let s = Server.session srv in
      let r = result_of (Server.handle_line srv s (req ~id:1 "fsck" [ ("log", J.Str seg) ])) in
      Alcotest.(check bool) "clean" true (J.member "clean" r = Some (J.Bool true));
      Alcotest.(check bool) "records counted" true (jint r "records" > 0);
      Alcotest.(check bool) "tier reported" true
        (J.member "tier" r = Some (J.Str "content"));
      Alcotest.(check string) "unreadable log is PPD050" "PPD050"
        (error_code_of
           (Server.handle_line srv s
              (req ~id:2 "fsck" [ ("log", J.Str "/nonexistent/file.seg") ])));
      Server.end_session srv s;
      Server.shutdown srv)

let test_obs_namespace_invariant () =
  with_fixture (fun ~mpl ~seg ->
      Obs.enable ();
      Obs.reset ();
      Fun.protect ~finally:Obs.disable (fun () ->
          let srv = Server.create () in
          let s1 = Server.session srv in
          let s2 = Server.session srv in
          let h1 = open_handle srv s1 ~mpl ~seg in
          ignore (flowback_result srv s1 ~h:h1 ~id:2);
          let h2 = open_handle srv s2 ~mpl ~seg in
          ignore (flowback_result srv s2 ~h:h2 ~id:2);
          ignore (Server.handle_line srv s2 {|{"id":3,"method":"nope"}|});
          let counters = Obs.counters () in
          let total name =
            List.fold_left
              (fun acc (k, v) ->
                if String.length k > 7 && String.sub k 0 7 = "serve.s"
                   && String.length k > String.length name
                   && String.sub k (String.length k - String.length name)
                        (String.length name) = name
                then acc + v
                else acc)
              0 counters
          in
          let global name =
            match List.assoc_opt ("serve." ^ name) counters with
            | Some v -> v
            | None -> 0
          in
          List.iter
            (fun name ->
              Alcotest.(check int)
                (Printf.sprintf "serve.%s = sum of serve.s<ID>.%s" name name)
                (global name) (total ("." ^ name)))
            [ "requests"; "errors"; "cache.hits"; "cache.misses"; "shed" ];
          Alcotest.(check bool) "requests were counted at all" true
            (global "requests" > 0);
          Server.end_session srv s1;
          Server.end_session srv s2;
          Server.shutdown srv))

(* -------------------------------------------------------------- *)
(* Survivability (DESIGN §17): deadlines, quarantine, memory budget,
   crash recovery *)

(* A clock whose first reading is sane and every later reading is far
   in the future: the deadline is minted live, then found expired at
   the first e-block replay boundary. *)
let with_expiring_clock f =
  let calls = ref 0 in
  Resil.Clock.with_source
    (fun () ->
      incr calls;
      if !calls <= 1 then 1_000 else max_int / 2)
    f

let test_deadline_ppd090 () =
  with_fixture (fun ~mpl ~seg ->
      let srv = Server.create () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg in
      let code =
        with_expiring_clock (fun () ->
            error_code_of
              (Server.handle_line srv s
                 (req ~id:2 "flowback"
                    [ ("handle", J.Int h); ("deadlineMs", J.Int 5) ])))
      in
      Alcotest.(check string) "expired deadline answers PPD090"
        Rpc.err_deadline code;
      (* the slot was released and no breaker moved: the same query
         without a deadline still succeeds *)
      ignore (flowback_result srv s ~h ~id:3);
      Server.end_session srv s;
      Server.shutdown srv)

(* Flip one byte inside every page frame (offsets via fsck on the
   clean file), leaving checkpoints, footer and trailer intact: the
   file still opens indexed, and every page decode fails its CRC —
   a deterministic hard fault (PPD050) at query time. *)
let poison_pages seg =
  let pages = (Store.Segment.fsck seg).Store.Segment.fk_pages in
  let raw = In_channel.with_open_bin seg In_channel.input_all in
  let b = Bytes.of_string raw in
  List.iter
    (fun (p : Store.Segment.fsck_page) ->
      let off = p.Store.Segment.fp_offset + 4 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff)))
    pages;
  Out_channel.with_open_bin seg (fun oc ->
      Out_channel.output_string oc (Bytes.to_string b))

let test_quarantine_ppd091 () =
  with_fixture (fun ~mpl ~seg ->
      poison_pages seg;
      let config =
        {
          Server.default_config with
          breaker =
            { Resil.Breaker.failure_threshold = 2; cooldown_ms = 3_600_000 };
        }
      in
      let srv = Server.create ~config () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg in
      let fb id =
        error_code_of
          (Server.handle_line srv s (req ~id "flowback" [ ("handle", J.Int h) ]))
      in
      Alcotest.(check string) "hard fault 1" "PPD050" (fb 2);
      Alcotest.(check string) "hard fault 2" "PPD050" (fb 3);
      Alcotest.(check string) "breaker trips: fast-fail PPD091"
        Rpc.err_quarantined (fb 4);
      Alcotest.(check string) "stays quarantined through the cooldown"
        Rpc.err_quarantined (fb 5);
      (* serverStats exposes the breaker *)
      let ss = result_of (Server.handle_line srv s (req ~id:6 "serverStats" [])) in
      (match J.member "breakers" ss with
      | Some (J.List (b :: _)) ->
        Alcotest.(check string) "breaker key is the log" seg (jstr b "key");
        Alcotest.(check string) "breaker is open" "open" (jstr b "state");
        Alcotest.(check bool) "fast fails counted" true (jint b "fastFails" >= 2)
      | _ -> Alcotest.fail "serverStats without breakers");
      (* light methods on the quarantined log still answer *)
      ignore (result_of (Server.handle_line srv s (req ~id:7 "stats" [ ("handle", J.Int h) ])));
      Server.end_session srv s;
      Server.shutdown srv)

(* Quarantine isolates: a healthy co-tenant log keeps answering while
   the poisoned one fast-fails. *)
let test_quarantine_isolates () =
  with_fixture (fun ~mpl ~seg ->
      let bad = Filename.temp_file "serve_bad" ".seg" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove bad with Sys_error _ -> ())
        (fun () ->
          let raw = In_channel.with_open_bin seg In_channel.input_all in
          Out_channel.with_open_bin bad (fun oc ->
              Out_channel.output_string oc raw);
          poison_pages bad;
          let config =
            {
              Server.default_config with
              breaker =
                { Resil.Breaker.failure_threshold = 1; cooldown_ms = 3_600_000 };
            }
          in
          let srv = Server.create ~config () in
          let s = Server.session srv in
          let hg = open_handle srv s ~mpl ~seg in
          let hb =
            jint
              (result_of
                 (Server.handle_line srv s
                    (J.to_string
                       (J.Obj
                          [
                            ("id", J.Int 2);
                            ("method", J.Str "open");
                            ( "params",
                              J.Obj
                                [ ("log", J.Str bad); ("program", J.Str mpl) ]
                            );
                          ]))))
              "handle"
          in
          let code h id =
            error_code_of
              (Server.handle_line srv s
                 (req ~id "flowback" [ ("handle", J.Int h) ]))
          in
          Alcotest.(check string) "poisoned log faults" "PPD050" (code hb 3);
          Alcotest.(check string) "poisoned log quarantined"
            Rpc.err_quarantined (code hb 4);
          (* the healthy log is untouched by its co-tenant's breaker *)
          ignore (flowback_result srv s ~h:hg ~id:5);
          Server.end_session srv s;
          Server.shutdown srv))

let test_mem_budget () =
  with_fixture (fun ~mpl ~seg ->
      let unbudgeted = Server.create () in
      let s0 = Server.session unbudgeted in
      let h0 = open_handle unbudgeted s0 ~mpl ~seg in
      let r0 = flowback_result unbudgeted s0 ~h:h0 ~id:2 in
      Server.end_session unbudgeted s0;
      Server.shutdown unbudgeted;
      let config = { Server.default_config with mem_budget = 16_384 } in
      let srv = Server.create ~config () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg in
      let r1 = flowback_result srv s ~h ~id:2 in
      Alcotest.(check string) "byte-identical under a memory budget"
        (jstr r0 "output") (jstr r1 "output");
      let ss = result_of (Server.handle_line srv s (req ~id:3 "serverStats" [])) in
      (match J.member "memory" ss with
      | Some m ->
        Alcotest.(check int) "cap reported" 16_384 (jint m "budgetCap");
        Alcotest.(check bool) "usage within budget after rebalance" true
          (jint m "budgetUsed" <= 16_384)
      | None -> Alcotest.fail "serverStats without memory block");
      Server.end_session srv s;
      Server.shutdown srv)

let with_journal f =
  let jpath = Filename.temp_file "serve" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove jpath with Sys_error _ -> ())
    (fun () -> f jpath)

let test_journal_resume_attach () =
  with_fixture (fun ~mpl ~seg ->
      with_journal (fun jpath ->
          let srv1 = Server.create ~journal:jpath () in
          let s1 = Server.session srv1 in
          let h = open_handle srv1 s1 ~mpl ~seg in
          let r1 = flowback_result srv1 s1 ~h ~id:2 in
          let sid = Server.session_id s1 in
          (* "SIGKILL": neither end_session nor shutdown runs *)
          let srv2 = Server.create ~resume:jpath () in
          let s2 = Server.session srv2 in
          let ss =
            result_of (Server.handle_line srv2 s2 (req ~id:1 "serverStats" []))
          in
          Alcotest.(check int) "one recoverable session" 1
            (jint ss "recoverable");
          let at =
            result_of
              (Server.handle_line srv2 s2
                 (req ~id:2 "attach" [ ("session", J.Int sid) ]))
          in
          Alcotest.(check int) "replay-step quota inherited"
            (jint r1 "replaySteps")
            (jint at "replaySteps");
          let r2 = flowback_result srv2 s2 ~h ~id:3 in
          Alcotest.(check string) "byte-identical across the crash"
            (jstr r1 "output") (jstr r2 "output");
          (* the recovered session can only be adopted once *)
          let s3 = Server.session srv2 in
          Alcotest.(check string) "second attach is stale" Rpc.err_stale
            (error_code_of
               (Server.handle_line srv2 s3
                  (req ~id:4 "attach" [ ("session", J.Int sid) ])));
          Server.end_session srv2 s2;
          Server.end_session srv2 s3;
          Server.shutdown srv2))

let test_stale_handle_ppd092 () =
  with_fixture (fun ~mpl ~seg ->
      with_journal (fun jpath ->
          let srv1 = Server.create ~journal:jpath () in
          let s1 = Server.session srv1 in
          ignore (open_handle srv1 s1 ~mpl ~seg);
          let sid = Server.session_id s1 in
          (* crash, and the log vanishes before the daemon is resumed *)
          Sys.remove seg;
          let srv2 = Server.create ~resume:jpath () in
          let s2 = Server.session srv2 in
          let at =
            result_of
              (Server.handle_line srv2 s2
                 (req ~id:1 "attach" [ ("session", J.Int sid) ]))
          in
          (match J.member "handles" at with
          | Some (J.List (hd :: _)) ->
            Alcotest.(check bool) "handle recovered stale" true
              (J.member "live" hd = Some (J.Bool false))
          | _ -> Alcotest.fail "attach without handles");
          Alcotest.(check string) "stale handle answers PPD092" Rpc.err_stale
            (error_code_of
               (Server.handle_line srv2 s2
                  (req ~id:2 "flowback" [ ("handle", J.Int 1) ])));
          (* a stale handle can still be closed cleanly *)
          ignore
            (result_of
               (Server.handle_line srv2 s2
                  (req ~id:3 "close" [ ("handle", J.Int 1) ])));
          Server.end_session srv2 s2;
          Server.shutdown srv2))

let suite =
  ( "serve",
    [
      json_roundtrip;
      Alcotest.test_case "JSON accepts" `Quick test_json_accepts;
      Alcotest.test_case "JSON rejects" `Quick test_json_rejects;
      Alcotest.test_case "JSON non-finite prints null" `Quick
        test_json_non_finite;
      Alcotest.test_case "RPC parse" `Quick test_rpc_parse;
      Alcotest.test_case "RPC rejects" `Quick test_rpc_rejects;
      Alcotest.test_case "RPC response lines" `Quick test_rpc_lines;
      Alcotest.test_case "gate sheds beyond the queue" `Quick test_gate_shed;
      Alcotest.test_case "gate queues and wakes" `Quick test_gate_queues;
      Alcotest.test_case "gate releases on raise" `Quick
        test_gate_with_slot_releases_on_raise;
      Alcotest.test_case "gate serves in FIFO order" `Quick
        test_gate_fifo_order;
      Alcotest.test_case "gate abandons on deadline" `Quick test_gate_deadline;
      Alcotest.test_case "dispatch basics" `Quick test_dispatch_basics;
      Alcotest.test_case "registry refcounts" `Quick test_registry_refcounts;
      Alcotest.test_case "open-log quota" `Quick test_open_quota;
      Alcotest.test_case "shared cache across sessions" `Quick
        test_shared_cache_across_sessions;
      Alcotest.test_case "open refuses a v1 log, co-tenants unharmed" `Quick
        test_v1_open_refused;
      Alcotest.test_case "-j4 replay byte-identical" `Quick
        test_replay_parallel_matches_serial;
      Alcotest.test_case "watchdog, degraded, caps" `Quick
        test_watchdog_and_degraded;
      Alcotest.test_case "step quota" `Quick test_step_quota;
      Alcotest.test_case "fsck method" `Quick test_fsck_method;
      Alcotest.test_case "Obs namespace invariant" `Quick
        test_obs_namespace_invariant;
      Alcotest.test_case "deadline answers PPD090" `Quick test_deadline_ppd090;
      Alcotest.test_case "quarantine answers PPD091" `Quick
        test_quarantine_ppd091;
      Alcotest.test_case "quarantine isolates co-tenants" `Quick
        test_quarantine_isolates;
      Alcotest.test_case "memory budget bounds the caches" `Quick
        test_mem_budget;
      Alcotest.test_case "journal, resume, attach" `Quick
        test_journal_resume_attach;
      Alcotest.test_case "stale handles answer PPD092" `Quick
        test_stale_handle_ppd092;
    ] )
