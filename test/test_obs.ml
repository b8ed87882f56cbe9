(* The observability layer (lib/obs): counters must be exact under
   domain parallelism, spans must nest per domain, everything must be a
   no-op while disabled, and both export formats must be well-formed.

   The registry is global state, so every test restores the disabled
   default on the way out. *)

let with_obs f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let contains hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_counter_basics () =
  with_obs (fun () ->
      let c = Obs.counter "test.basic" in
      Alcotest.(check int) "starts at zero" 0 (Obs.value c);
      Obs.add c 5;
      Obs.incr c;
      Alcotest.(check int) "sums" 6 (Obs.value c);
      Alcotest.(check int) "same name returns the same counter" 6
        (Obs.value (Obs.counter "test.basic"));
      let g = Obs.gauge_max "test.gauge" in
      Obs.observe g 4;
      Obs.observe g 9;
      Obs.observe g 2;
      Alcotest.(check int) "gauge keeps the max" 9 (Obs.value g);
      Alcotest.(check bool) "registered names are exported" true
        (List.mem_assoc "test.basic" (Obs.counters ())))

let test_disabled_is_noop () =
  Obs.disable ();
  Obs.reset ();
  let c = Obs.counter "test.disabled" in
  Obs.add c 100;
  Obs.incr c;
  Obs.observe (Obs.gauge_max "test.disabled.max") 7;
  Alcotest.(check int) "counter untouched while off" 0 (Obs.value c);
  let r = Obs.with_span "dead" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span is transparent while off" 42 r;
  Alcotest.(check int) "no spans recorded while off" 0
    (List.length (Obs.spans ()))

let test_span_nesting () =
  with_obs (fun () ->
      Obs.phase "outer" (fun () ->
          Obs.with_span "inner1" (fun () -> ());
          Obs.with_span ~arg:"p0#1" "inner2" (fun () -> ()));
      (try Obs.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
      Obs.with_span "after" (fun () -> ());
      let sp = Obs.spans () in
      let names = List.map (fun s -> s.Obs.sp_name) sp in
      Alcotest.(check (list string))
        "completion order" [ "inner1"; "inner2"; "outer"; "boom"; "after" ]
        names;
      let depth n =
        (List.find (fun s -> s.Obs.sp_name = n) sp).Obs.sp_depth
      in
      Alcotest.(check int) "inner1 nested" 1 (depth "inner1");
      Alcotest.(check int) "inner2 nested" 1 (depth "inner2");
      Alcotest.(check int) "outer is a root" 0 (depth "outer");
      (* the raising span closed itself and restored the depth *)
      Alcotest.(check int) "boom recorded despite the exception" 0
        (depth "boom");
      Alcotest.(check int) "depth restored after the exception" 0
        (depth "after");
      let outer = List.find (fun s -> s.Obs.sp_name = "outer") sp in
      Alcotest.(check string) "phase category" "phase" outer.Obs.sp_cat;
      let inner2 = List.find (fun s -> s.Obs.sp_name = "inner2") sp in
      Alcotest.(check (option string)) "arg carried" (Some "p0#1")
        inner2.Obs.sp_arg;
      Alcotest.(check bool) "durations are non-negative" true
        (List.for_all (fun s -> s.Obs.sp_dur_ns >= 0) sp))

(* Nesting depth is domain-local: a span opened on a worker domain is a
   root of that domain's track, not a child of whatever the spawning
   domain had open. *)
let test_span_depth_per_domain () =
  with_obs (fun () ->
      Obs.with_span "main-outer" (fun () ->
          let d =
            Domain.spawn (fun () -> Obs.with_span "worker" (fun () -> ()))
          in
          Domain.join d);
      let sp = Obs.spans () in
      let worker = List.find (fun s -> s.Obs.sp_name = "worker") sp in
      let outer = List.find (fun s -> s.Obs.sp_name = "main-outer") sp in
      Alcotest.(check int) "worker span is a root in its own domain" 0
        worker.Obs.sp_depth;
      Alcotest.(check bool) "distinct domain ids" true
        (worker.Obs.sp_domain <> outer.Obs.sp_domain))

let test_json_export () =
  with_obs (fun () ->
      Obs.add (Obs.counter "test.json.count") 3;
      Obs.with_span ~cat:"phase" ~arg:"a\"b\\c" "ph" (fun () -> ());
      let j = Json.to_string (Obs.to_json ()) in
      Alcotest.(check bool) "object prefix" true
        (String.length j > 13 && String.sub j 0 13 = "{\"version\":1,");
      Alcotest.(check bool) "counter serialized" true
        (contains j "\"test.json.count\":3");
      Alcotest.(check bool) "arg escaped" true
        (contains j "\"a\\\"b\\\\c\"");
      let t = Obs.to_chrome_trace () in
      Alcotest.(check bool) "trace is a JSON array" true
        (String.length t >= 2 && t.[0] = '[' && t.[String.length t - 1] = ']');
      Alcotest.(check bool) "complete event present" true
        (contains t "\"ph\":\"X\"");
      Alcotest.(check bool) "counter sample present" true
        (contains t "\"ph\":\"C\""))

let test_reset () =
  with_obs (fun () ->
      let c = Obs.counter "test.reset" in
      Obs.add c 9;
      Obs.with_span "s" (fun () -> ());
      Obs.reset ();
      Alcotest.(check int) "counter zeroed" 0 (Obs.value c);
      Alcotest.(check int) "spans dropped" 0 (List.length (Obs.spans ())))

(* The load-bearing property: concurrent [incr]/[add] from several
   domains lose no updates (the counters the gate checks for coherence
   are bumped from pool workers), and a gauge keeps the global max. *)
let counter_atomicity_prop =
  Util.qtest ~count:20 "counter sums are exact across domains"
    QCheck2.Gen.(pair (int_range 1 4) (int_range 1 2_000))
    (fun (domains, per) ->
      Obs.enable ();
      Obs.reset ();
      let c = Obs.counter "test.atomic" in
      let g = Obs.gauge_max "test.atomic.max" in
      let ds =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                for i = 1 to per do
                  Obs.incr c;
                  Obs.observe g ((d * per) + i)
                done))
      in
      List.iter Domain.join ds;
      let total = Obs.value c in
      let mx = Obs.value g in
      Obs.disable ();
      Obs.reset ();
      total = domains * per && mx = domains * per)

let suite =
  ( "obs",
    [
      Alcotest.test_case "counter basics" `Quick test_counter_basics;
      Alcotest.test_case "disabled mode is a no-op" `Quick
        test_disabled_is_noop;
      Alcotest.test_case "span nesting and exception safety" `Quick
        test_span_nesting;
      Alcotest.test_case "span depth is per-domain" `Quick
        test_span_depth_per_domain;
      Alcotest.test_case "JSON and Chrome trace export" `Quick
        test_json_export;
      Alcotest.test_case "reset" `Quick test_reset;
      counter_atomicity_prop;
    ] )
