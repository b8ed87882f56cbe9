(* The single global registry. A process profiles one run at a time
   (the CLI enables collection around one command), so global state is
   the right shape — it lets every subsystem register counters at
   module load with no plumbing through a dozen constructors. *)

let on = Atomic.make false

let origin = Atomic.make 0

type kind = K_sum | K_max

type counter = { c_name : string; c_kind : kind; c_cell : int Atomic.t }

(* Registration happens at module-load time and on first use of dynamic
   names; reads of the table happen only at export. One mutex is
   plenty. *)
let reg_lock = Mutex.create ()

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let register name kind =
  locked reg_lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
        let c = { c_name = name; c_kind = kind; c_cell = Atomic.make 0 } in
        Hashtbl.add registry name c;
        c)

let counter name = register name K_sum

let gauge_max name = register name K_max

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.c_cell n)

let incr c = add c 1

let rec observe_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then
    observe_max cell v

let observe c v = if Atomic.get on then observe_max c.c_cell v

let value c = Atomic.get c.c_cell

let counters () =
  locked reg_lock (fun () ->
      Hashtbl.fold (fun n c acc -> (n, Atomic.get c.c_cell) :: acc) registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Spans.                                                               *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_arg : string option;
  sp_domain : int;
  sp_depth : int;
  sp_start_ns : int;
  sp_dur_ns : int;
}

(* Nesting is a per-domain property (a worker's replay span must not
   become a child of whatever the main domain is doing), so the depth
   lives in domain-local storage; only the completed-span list is
   shared. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let span_lock = Mutex.create ()

let spans_rev : span list ref = ref []

let record sp = locked span_lock (fun () -> spans_rev := sp :: !spans_rev)

let with_span ?(cat = "span") ?arg name f =
  if not (Atomic.get on) then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    depth := d + 1;
    let t0 = Monotonic_clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Monotonic_clock.elapsed_ns t0 in
        depth := d;
        record
          {
            sp_name = name;
            sp_cat = cat;
            sp_arg = arg;
            sp_domain = (Domain.self () :> int);
            sp_depth = d;
            sp_start_ns = t0 - Atomic.get origin;
            sp_dur_ns = dur;
          })
      f
  end

let phase name f = with_span ~cat:"phase" name f

let spans () = locked span_lock (fun () -> List.rev !spans_rev)

(* ------------------------------------------------------------------ *)
(* Lifecycle.                                                           *)
(* ------------------------------------------------------------------ *)

let reset () =
  locked reg_lock (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) registry);
  locked span_lock (fun () -> spans_rev := []);
  Atomic.set origin (Monotonic_clock.now_ns ())

let enable () =
  if not (Atomic.get on) then begin
    Atomic.set origin (Monotonic_clock.now_ns ());
    Atomic.set on true
  end

let disable () = Atomic.set on false

let enabled () = Atomic.get on

let now_ns = Monotonic_clock.now_ns

(* ------------------------------------------------------------------ *)
(* Export.                                                              *)
(* ------------------------------------------------------------------ *)

let to_json () =
  let span sp =
    Json.Obj
      [
        ("name", Json.Str sp.sp_name);
        ("cat", Json.Str sp.sp_cat);
        ( "arg",
          Option.fold ~none:Json.Null ~some:(fun a -> Json.Str a) sp.sp_arg );
        ("domain", Json.Int sp.sp_domain);
        ("depth", Json.Int sp.sp_depth);
        ("start_ns", Json.Int sp.sp_start_ns);
        ("dur_ns", Json.Int sp.sp_dur_ns);
      ]
  in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("enabled", Json.Bool (Atomic.get on));
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (counters ())) );
      ("spans", Json.List (List.map span (spans ())));
    ]

(* chrome://tracing's JSON-array flavour: "X" (complete) events carry
   ts/dur in *microseconds*; "C" (counter) samples plot the final
   counter values at the trace end. tid = domain id, so each domain
   gets its own track. *)
let to_chrome_trace () =
  let all = spans () in
  let end_ts =
    List.fold_left
      (fun acc sp -> max acc (sp.sp_start_ns + sp.sp_dur_ns))
      0 all
  in
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  let complete sp =
    Json.Obj
      ([
         ("name", Json.Str sp.sp_name);
         ("cat", Json.Str sp.sp_cat);
         ("ph", Json.Str "X");
         ("pid", Json.Int 1);
         ("tid", Json.Int sp.sp_domain);
         ("ts", us sp.sp_start_ns);
         ("dur", us sp.sp_dur_ns);
       ]
      @
      match sp.sp_arg with
      | None -> []
      | Some a -> [ ("args", Json.Obj [ ("detail", Json.Str a) ]) ])
  in
  let sample (n, v) =
    Json.Obj
      [
        ("name", Json.Str n);
        ("ph", Json.Str "C");
        ("pid", Json.Int 1);
        ("tid", Json.Int 0);
        ("ts", us end_ts);
        ("args", Json.Obj [ ("value", Json.Int v) ]);
      ]
  in
  Json.to_string
    (Json.List (List.map complete all @ List.map sample (counters ())))

let write_file path s =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc s;
      Out_channel.output_char oc '\n')

let write_json path = write_file path (Json.to_string (to_json ()))

let write_chrome_trace path = write_file path (to_chrome_trace ())
