type eref = { epid : int; eseq : int }

let pp_eref ppf { epid; eseq } = Format.fprintf ppf "p%d:%d" epid eseq

type rw = { var : Lang.Prog.var; value : Value.t }

type kind =
  | K_assign
  | K_pred of bool
  | K_call of { callee : int; args : Value.t list }
  | K_call_return of { callee : int; ret : Value.t option }
  | K_return of { value : Value.t option }
  | K_p of { sem : int; src : eref option; was_blocked : bool }
  | K_v of { sem : int }
  | K_send of { chan : int; value : int }
  | K_send_unblocked of { chan : int; by : eref }
  | K_recv of { chan : int; value : int; src : eref }
  | K_spawn of { child : int; callee : int; args : Value.t list }
  | K_join of { child : int; result : Value.t option; child_exit : eref }
  | K_print of { value : Value.t }
  | K_assert of { ok : bool }

type stmt_event = {
  sid : int;
  reads : rw list;
  write : rw option;
  kind : kind;
}

type t =
  | E_stmt of stmt_event
  | E_enter of {
      fid : int;
      call_sid : int option;
      binds : (Lang.Prog.var * Value.t) list;
    }
  | E_leave of { fid : int; call_sid : int option; ret : Value.t option }
  | E_proc_start of {
      fid : int;
      binds : (Lang.Prog.var * Value.t) list;
      spawn : eref option;
    }
  | E_proc_exit of { fid : int; result : Value.t option }
  | E_loop_enter of { sid : int }
  | E_loop_exit of {
      sid : int;
      writes : (Lang.Prog.var * Value.t) list option;
    }

let sid_of = function
  | E_stmt { sid; _ } | E_loop_enter { sid } | E_loop_exit { sid; _ } ->
    Some sid
  | E_enter { call_sid; _ } | E_leave { call_sid; _ } -> call_sid
  | E_proc_start _ | E_proc_exit _ -> None

let pp_value_opt ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some v -> Value.pp ppf v

let pp_rw ppf { var; value } =
  Format.fprintf ppf "%s=%a" var.Lang.Prog.vname Value.pp value

let pp_rws ppf rws =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
    pp_rw ppf rws

let pp_kind ppf = function
  | K_assign -> Format.pp_print_string ppf "assign"
  | K_pred b -> Format.fprintf ppf "pred:%b" b
  | K_call { callee; _ } -> Format.fprintf ppf "call f%d" callee
  | K_call_return { callee; ret } ->
    Format.fprintf ppf "call-return f%d=%a" callee pp_value_opt ret
  | K_return { value } -> Format.fprintf ppf "return %a" pp_value_opt value
  | K_p { sem; src; was_blocked } ->
    Format.fprintf ppf "P(sem%d)%s%s" sem
      (match src with
      | None -> ""
      | Some r -> Format.asprintf "<-%a" pp_eref r)
      (if was_blocked then " [blocked]" else "")
  | K_v { sem } -> Format.fprintf ppf "V(sem%d)" sem
  | K_send { chan; value } -> Format.fprintf ppf "send(ch%d,%d)" chan value
  | K_send_unblocked { chan; by } ->
    Format.fprintf ppf "send-unblocked(ch%d)<-%a" chan pp_eref by
  | K_recv { chan; value; src } ->
    Format.fprintf ppf "recv(ch%d,%d)<-%a" chan value pp_eref src
  | K_spawn { child; callee; _ } ->
    Format.fprintf ppf "spawn p%d (f%d)" child callee
  | K_join { child; result; child_exit } ->
    Format.fprintf ppf "join p%d=%a<-%a" child pp_value_opt result pp_eref
      child_exit
  | K_print { value } -> Format.fprintf ppf "print %a" Value.pp value
  | K_assert { ok } -> Format.fprintf ppf "assert:%b" ok

let pp ppf = function
  | E_stmt { sid; reads; write; kind } ->
    Format.fprintf ppf "s%d %a reads[%a]" sid pp_kind kind pp_rws reads;
    (match write with
    | None -> ()
    | Some w -> Format.fprintf ppf " write[%a]" pp_rw w)
  | E_enter { fid; call_sid; binds } ->
    Format.fprintf ppf "enter f%d%s binds[%a]" fid
      (match call_sid with
      | None -> ""
      | Some sid -> Printf.sprintf " from s%d" sid)
      pp_rws
      (List.map (fun (var, value) -> { var; value }) binds)
  | E_leave { fid; ret; _ } ->
    Format.fprintf ppf "leave f%d ret=%a" fid pp_value_opt ret
  | E_proc_start { fid; spawn; _ } ->
    Format.fprintf ppf "proc-start f%d%s" fid
      (match spawn with
      | None -> ""
      | Some r -> Format.asprintf " by %a" pp_eref r)
  | E_proc_exit { fid; result } ->
    Format.fprintf ppf "proc-exit f%d result=%a" fid pp_value_opt result
  | E_loop_enter { sid } -> Format.fprintf ppf "loop-enter s%d" sid
  | E_loop_exit { sid; writes } -> (
    Format.fprintf ppf "loop-exit s%d" sid;
    match writes with
    | None -> ()
    | Some ws ->
      Format.fprintf ppf " skipped[%a]" pp_rws
        (List.map (fun (var, value) -> { var; value }) ws))
