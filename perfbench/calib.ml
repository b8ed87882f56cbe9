(* Host-speed calibration.

   Shared hosts drift in speed. On a 2-core Xeon VM, a fixed integer
   loop's throughput over 20-second windows varied by 11%
   (IQR/median), and one workload's throughput moved by 1.7x between
   runs a few minutes apart. A longer run does not average that out. So
   every timed metric is reported at a reference host speed:
   - between ops, never inside one, a client asks for a timing of this
     fixed kernel, at most once per [period_ns];
   - a phase's times are scaled by [reference_ns] / (median sample);
   - set-up times are scaled by the median of samples taken just before
     and just after each set-up.

   The kernel runs in a helper process forked before anything else, so
   it shares no heap, domain or thread with the program under test.
   Whatever slows the benchmark's own process (live pool domains,
   background threads, collector work) is therefore not divided out;
   only the host's speed is. The requesting client blocks while the
   helper runs, and any other client waits between ops
   (Common.client_loop), so the helper runs while the benchmark's
   process is idle, usually on the core the client left.

   The kernel does not allocate. It has two parts:
   - integer work, which tracks clock speed;
   - a pass over a 2 MiB buffer, the size of the OCaml minor heap the
     program allocates through. An untimed pass first makes its cost
     independent of what ran on the core before. *)

let kernel () =
  let buf = Array.make (1 lsl 18) 1 in
  let pass r =
    let s = ref r in
    for i = 0 to Array.length buf - 1 do
      s := !s + Array.unsafe_get buf i
    done;
    !s
  in
  let alu () =
    let x = ref 0x2545F4914F6CDD1D in
    for _ = 1 to 20_000 do
      x := !x lxor (!x lsl 13);
      x := !x lxor (!x lsr 7);
      x := !x lxor (!x lsl 17)
    done;
    !x
  in
  fun () ->
    ignore (Sys.opaque_identity (pass 0));
    let t0 = Obs.now_ns () in
    ignore (Sys.opaque_identity (alu ()));
    ignore (Sys.opaque_identity (pass 1));
    Obs.now_ns () - t0

type helper = { pid : int; req : Unix.file_descr; resp : Unix.file_descr }

let helper = ref None

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let rec read_all fd b off len =
  if len > 0 then
    match Unix.read fd b off len with
    | 0 -> raise End_of_file
    | n -> read_all fd b (off + n) (len - n)

(* The helper's loop: one byte in, one timing (8 bytes) out, until the
   request pipe closes. *)
let serve req resp =
  let run = kernel () and b = Bytes.create 8 in
  let rec loop () =
    if Unix.read req b 0 1 = 1 then begin
      Bytes.set_int64_le b 0 (Int64.of_int (run ()));
      write_all resp b 0 8;
      loop ()
    end
  in
  loop ()

let stop () =
  match !helper with
  | None -> ()
  | Some h ->
    helper := None;
    Unix.close h.req;
    Unix.close h.resp;
    ignore (Unix.waitpid [] h.pid)

(* Forks the helper. Call before any thread or domain is started; the
   helper ends when this process closes its pipe ([stop], or exit). *)
let start () =
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let resp_r, resp_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close req_w;
    Unix.close resp_r;
    (try serve req_r resp_w with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    helper := Some { pid; req = req_w; resp = resp_r };
    at_exit stop

(* One sample: (ns the kernel took, ns the caller waited for it). One
   caller at a time. *)
let sample () =
  match !helper with
  | None -> invalid_arg "Calib.sample: helper not started"
  | Some h ->
    let t0 = Obs.now_ns () and b = Bytes.make 8 '\000' in
    write_all h.req b 0 1;
    read_all h.resp b 0 8;
    (Int64.to_int (Bytes.get_int64_le b 0), Obs.now_ns () - t0)

(* The kernel's time at reference speed: about its median on the 2-core
   Xeon VM the first numbers in README.md come from, so reported times
   stay close to the ones measured there. *)
let reference_ns = 400_000

let period_ns = 50_000_000

(* Multiply a time by this to get it at reference speed (divide a rate
   by it). *)
let scale samples =
  match samples with
  | [] -> 1.
  | _ ->
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    let mid =
      if n mod 2 = 1 then float_of_int a.(n / 2)
      else float_of_int (a.((n / 2) - 1) + a.(n / 2)) /. 2.
    in
    float_of_int reference_ns /. mid
