(* The traced run's span recorder. Spans are taken by the benchmark
   around its own calls into each layer's public functions; one
   recorder per client thread, so no locking. Everything stays in
   memory until the run ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for an op's root span *)
  op : int;  (** the op this span belongs to *)
  name : string;
  label : string;  (** what the op did, on an op's root span *)
  t0 : int;  (** monotonic ns *)
  t1 : int;
}

type t = {
  on : bool;
  mutable stack : int list;
  mutable next : int;
  mutable op : int;
  mutable spans : span list;  (** newest first *)
}

let create ~on = { on; stack = []; next = 0; op = -1; spans = [] }

let span ?(label = "") t name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let t0 = Obs.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Obs.now_ns () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; op = t.op; name; label; t0; t1 } :: t.spans)
      f
  end

(* The root span of op [k]: every span opened inside belongs to it.
   [label] is only built when tracing. *)
let op t k ~label f =
  t.op <- k;
  if t.on then span ~label:(label ()) t "op" f else f ()

type agg = { count : int; self_ns : int; dur_ns : int }

(* Per span name: count, total self time and total duration. Self time
   is a span's duration minus the durations of its direct children.
   Ids are only unique per recorder, so children are matched per
   recorder. *)
let self_times (recorders : t list) =
  let agg = Hashtbl.create 32 in
  List.iter
    (fun t ->
      let child = Hashtbl.create 1024 in
      List.iter
        (fun s ->
          if s.parent >= 0 then
            Hashtbl.replace child s.parent
              ((s.t1 - s.t0)
              + Option.value ~default:0 (Hashtbl.find_opt child s.parent)))
        t.spans;
      List.iter
        (fun s ->
          let self =
            s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt child s.id)
          in
          let a =
            Option.value
              ~default:{ count = 0; self_ns = 0; dur_ns = 0 }
              (Hashtbl.find_opt agg s.name)
          in
          Hashtbl.replace agg s.name
            {
              count = a.count + 1;
              self_ns = a.self_ns + self;
              dur_ns = a.dur_ns + (s.t1 - s.t0);
            })
        t.spans)
    recorders;
  agg

(* One JSON object per line: client, id, parent, op, name, label, and
   start and end in ns relative to the earliest span. *)
let write path (recorders : t list) =
  let origin =
    List.fold_left
      (fun acc t -> List.fold_left (fun a s -> min a s.t0) acc t.spans)
      max_int recorders
  in
  Out_channel.with_open_text path (fun oc ->
      List.iteri
        (fun client t ->
          List.iter
            (fun s ->
              Out_channel.output_string oc
                (Serve.Json.to_string
                   (Serve.Json.Obj
                      [
                        ("client", Serve.Json.Int client);
                        ("id", Serve.Json.Int s.id);
                        ("parent", Serve.Json.Int s.parent);
                        ("op", Serve.Json.Int s.op);
                        ("name", Serve.Json.Str s.name);
                        ("label", Serve.Json.Str s.label);
                        ("start_ns", Serve.Json.Int (s.t0 - origin));
                        ("end_ns", Serve.Json.Int (s.t1 - origin));
                      ]));
              Out_channel.output_char oc '\n')
            (List.rev t.spans))
        recorders)
