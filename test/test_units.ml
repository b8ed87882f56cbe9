(* Unit coverage for the small foundational modules: locations, values,
   tokens, schedulers and the dynamic-graph container. *)

let test_loc () =
  let a = Lang.Loc.make ~line:3 ~col:7 in
  let b = Lang.Loc.make ~line:3 ~col:9 in
  Alcotest.(check string) "pp" "3:7" (Lang.Loc.to_string a);
  Alcotest.(check string) "none" "?" (Lang.Loc.to_string Lang.Loc.none);
  Alcotest.(check bool) "order" true (Lang.Loc.compare a b < 0);
  Alcotest.(check bool) "line dominates" true
    (Lang.Loc.compare b (Lang.Loc.make ~line:4 ~col:1) < 0);
  Alcotest.(check bool) "is_none" true (Lang.Loc.is_none Lang.Loc.none);
  Alcotest.(check bool) "equal" true (Lang.Loc.equal a a)

let test_diag () =
  (match Lang.Diag.protect (fun () -> 42) with
  | Ok n -> Alcotest.(check int) "ok" 42 n
  | Error _ -> Alcotest.fail "expected ok");
  match
    Lang.Diag.protect (fun () ->
        Lang.Diag.error (Lang.Loc.make ~line:1 ~col:2) "boom %d" 7)
  with
  | Error (loc, msg) ->
    Alcotest.(check string) "msg" "boom 7" msg;
    Alcotest.(check int) "line" 1 loc.Lang.Loc.line
  | Ok _ -> Alcotest.fail "expected error"

let test_value () =
  let open Runtime.Value in
  Alcotest.(check int) "to_int" 5 (to_int (Vint 5));
  Alcotest.check_raises "undef" Undefined (fun () -> ignore (to_int Vundef));
  let a = Varr [| 1; 2 |] in
  let c = copy a in
  (match (a, c) with
  | Varr x, Varr y ->
    y.(0) <- 99;
    Alcotest.(check int) "deep copy" 1 x.(0)
  | _ -> Alcotest.fail "arrays");
  Alcotest.(check bool) "array equality by contents" true
    (equal (Varr [| 1; 2 |]) (Varr [| 1; 2 |]));
  Alcotest.(check bool) "inequality" false (equal (Vint 1) Vundef);
  Alcotest.(check string) "pp array" "[1, 2]" (to_string (Varr [| 1; 2 |]));
  Alcotest.(check string) "pp undef" "undef" (to_string Vundef)

let test_token_describe () =
  Alcotest.(check string) "keyword" "while" (Lang.Token.describe Lang.Token.WHILE);
  Alcotest.(check string) "ident class" "identifier"
    (Lang.Token.describe (Lang.Token.IDENT "zzz"));
  Alcotest.(check string) "pp carries payload" "IDENT(zzz)"
    (Lang.Token.to_string (Lang.Token.IDENT "zzz"))

let test_sched_round_robin () =
  let s = Runtime.Sched.create (Runtime.Sched.Round_robin 2) in
  let picks = List.init 6 (fun _ -> Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ]) in
  Alcotest.(check (list int)) "quantum 2 rotation" [ 0; 0; 1; 1; 2; 2 ] picks;
  (* a blocked current process forfeits the rest of its quantum *)
  let s = Runtime.Sched.create (Runtime.Sched.Round_robin 3) in
  let _ = Runtime.Sched.pick s ~runnable:[ 0; 1 ] in
  let p = Runtime.Sched.pick s ~runnable:[ 1 ] in
  Alcotest.(check int) "skips blocked" 1 p

(* The regression: [round_robin] used to trust the runnable list to be
   sorted (taking the first pid greater than the current one), so a
   shuffled list mis-rotated — the schedule must be a function of the
   runnable *set*, not its order. *)
let test_sched_round_robin_unsorted () =
  let picks order =
    let s = Runtime.Sched.create (Runtime.Sched.Round_robin 1) in
    List.init 8 (fun _ -> Runtime.Sched.pick s ~runnable:order)
  in
  let sorted = picks [ 0; 1; 2; 3 ] in
  Alcotest.(check (list int))
    "sorted baseline" [ 0; 1; 2; 3; 0; 1; 2; 3 ] sorted;
  List.iter
    (fun order ->
      Alcotest.(check (list int))
        (Printf.sprintf "order %s"
           (String.concat "," (List.map string_of_int order)))
        sorted (picks order))
    [ [ 3; 2; 1; 0 ]; [ 2; 0; 3; 1 ]; [ 1; 3; 0; 2 ]; [ 0; 2; 1; 3 ] ];
  (* duplicates in the runnable list must not extend the rotation *)
  Alcotest.(check (list int))
    "duplicates collapse" [ 0; 1; 2; 3; 0; 1; 2; 3 ]
    (picks [ 2; 0; 2; 3; 1; 0 ])

let test_sched_random_deterministic () =
  let run () =
    let s = Runtime.Sched.create (Runtime.Sched.Random_seed 5) in
    List.init 20 (fun _ -> Runtime.Sched.pick s ~runnable:[ 0; 1; 2; 3 ])
  in
  Alcotest.(check (list int)) "seeded" (run ()) (run ())

let test_sched_scripted () =
  let s = Runtime.Sched.create (Runtime.Sched.Scripted [ 2; 2; 0; 9; 1 ]) in
  let p1 = Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ] in
  let p2 = Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ] in
  let p3 = Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ] in
  let p4 = Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ] in
  (* 9 is never runnable and is skipped *)
  Alcotest.(check (list int)) "script" [ 2; 2; 0; 1 ] [ p1; p2; p3; p4 ];
  (* exhausted script falls back to round robin *)
  let p5 = Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ] in
  Alcotest.(check bool) "fallback picks a runnable" true (List.mem p5 [ 0; 1; 2 ])

let test_dyn_graph_container () =
  let open Ppd.Dyn_graph in
  let g = create () in
  Alcotest.(check int) "empty" 0 (nnodes g);
  let p = Util.compile "func main() { }" in
  ignore p;
  let n1 = add_node g ~pid:0 ~kind:(N_entry 0) ~label:"entry" () in
  let n2 =
    add_node g
      ~ref_:{ Runtime.Event.epid = 0; eseq = 5 }
      ~value:(Runtime.Value.Vint 7) ~pid:0 ~kind:(N_singular 3) ~label:"x = 7" ()
  in
  let n3 = add_node g ~owner:n2 ~pid:0 ~kind:(N_param 1) ~label:"%1" () in
  Alcotest.(check int) "three nodes" 3 (nnodes g);
  add_edge g ~src:n1 ~dst:n2 ~kind:Control;
  add_edge g ~src:n1 ~dst:n2 ~kind:Control;
  (* duplicate ignored *)
  Alcotest.(check int) "dedup edges" 1 (nedges g);
  Alcotest.(check (list int)) "preds" [ n1 ] (List.map fst (preds g n2));
  Alcotest.(check (list int)) "succs" [ n2 ] (List.map fst (succs g n1));
  Alcotest.(check bool) "ref lookup" true
    (find_ref g { Runtime.Event.epid = 0; eseq = 5 } = Some n2);
  Alcotest.(check bool) "missing ref" true
    (find_ref g { Runtime.Event.epid = 1; eseq = 5 } = None);
  Alcotest.(check (list int)) "members" [ n3 ] (members g n2);
  Alcotest.(check bool) "value" true
    ((node g n2).nd_value = Some (Runtime.Value.Vint 7));
  set_value g n2 (Runtime.Value.Vint 9);
  Alcotest.(check bool) "set_value" true
    ((node g n2).nd_value = Some (Runtime.Value.Vint 9));
  (* growth beyond the initial capacity *)
  for i = 0 to 99 do
    ignore (add_node g ~pid:1 ~kind:(N_singular i) ~label:"n" ())
  done;
  Alcotest.(check int) "growth" 103 (nnodes g);
  Alcotest.check_raises "bad edge" (Invalid_argument "Dyn_graph.add_edge: bad node id")
    (fun () -> add_edge g ~src:0 ~dst:9999 ~kind:Flow)

(* The edge store against a list model with the container's documented
   semantics: per node, incoming and outgoing edges oldest first, and a
   repeated (src, dst, kind) ignored — [Data] kinds compared by vid. *)
type graph_op = Op_node | Op_edge of int * int * int

let graph_ops_gen =
  QCheck2.Gen.(
    list_size (int_range 1 1200)
      (frequency
         [
           (1, pure Op_node);
           (* small ids and a small kind alphabet make repeats common *)
           ( 3,
             map3
               (fun s d k -> Op_edge (s, d, k))
               (int_range 0 40) (int_range 0 300) (int_range 0 11) );
         ]))

let prop_edge_store_model ops =
  let open Ppd.Dyn_graph in
  let vars =
    (Util.compile
       "shared int a = 0; shared int b = 0; shared int c = 0; func main() { }")
      .Lang.Prog.vars
  in
  let kind_of k =
    match k with
    | 0 -> Flow
    | 1 -> Control
    | 2 -> Sync
    | k when k < 3 + Array.length vars -> Data vars.(k - 3)
    | k -> Dparam (k - 3 - Array.length vars)
  in
  let same a b =
    match (a, b) with
    | Data v, Data w -> v.Lang.Prog.vid = w.Lang.Prog.vid
    | _ -> a = b
  in
  let g = create () in
  let m_preds = ref [||] and m_succs = ref [||] and m_edges = ref 0 in
  List.iter
    (function
      | Op_node ->
        let i = Array.length !m_preds in
        ignore (add_node g ~pid:0 ~kind:(N_singular i) ~label:"n" ());
        m_preds := Array.append !m_preds [| [] |];
        m_succs := Array.append !m_succs [| [] |]
      | Op_edge (s, d, k) ->
        let n = Array.length !m_preds in
        if n > 0 then begin
          let src = s mod n and dst = d mod n and kind = kind_of k in
          add_edge g ~src ~dst ~kind;
          if
            not
              (List.exists
                 (fun (s', k') -> s' = src && same k' kind)
                 !m_preds.(dst))
          then begin
            !m_preds.(dst) <- !m_preds.(dst) @ [ (src, kind) ];
            !m_succs.(src) <- !m_succs.(src) @ [ (dst, kind) ];
            incr m_edges
          end
        end)
    ops;
  let model_pp ppf () =
    let pp_kind ppf = function
      | Flow -> Format.pp_print_string ppf "flow"
      | Data v -> Format.fprintf ppf "data:%s" v.Lang.Prog.vname
      | Dparam i -> Format.fprintf ppf "param:%%%d" i
      | Control -> Format.pp_print_string ppf "ctrl"
      | Sync -> Format.pp_print_string ppf "sync"
    in
    Format.fprintf ppf "@[<v>dynamic graph (%d nodes, %d edges):"
      (Array.length !m_preds) !m_edges;
    Array.iteri
      (fun i incoming ->
        Format.fprintf ppf "@,%a" pp_node (node g i);
        List.iter
          (fun (src, k) -> Format.fprintf ppf "@,   <- #%d [%a]" src pp_kind k)
          incoming)
      !m_preds;
    Format.fprintf ppf "@]"
  in
  let eq_list a b =
    List.length a = List.length b
    && List.for_all2 (fun (i, k) (j, k') -> i = j && same k k') a b
  in
  nnodes g = Array.length !m_preds
  && nedges g = !m_edges
  && Array.for_all Fun.id
       (Array.mapi
          (fun i p -> eq_list (preds g i) p && eq_list (succs g i) !m_succs.(i))
          !m_preds)
  && String.equal (Format.asprintf "%a" pp g) (Format.asprintf "%a" model_pp ())

let test_interp_frame () =
  let p =
    Util.compile "func f(a, b) { var x = a; var arr[2]; return x + b; } func main() { }"
  in
  let frame =
    Runtime.Interp.make_frame p ~fid:0
      ~args:[ Runtime.Value.Vint 1; Runtime.Value.Vint 2 ]
      ~ret_lhs:None ~call_sid:None
  in
  let binds = Runtime.Interp.binds_of_frame p frame in
  Alcotest.(check (list string)) "param names" [ "a"; "b" ]
    (List.map (fun ((v : Lang.Prog.var), _) -> v.vname) binds);
  (* arrays pre-allocated, scalars undefined *)
  let f = p.funcs.(0) in
  List.iter
    (fun (v : Lang.Prog.var) ->
      match (v.vname, v.vscope) with
      | "arr", Lang.Prog.Local slot ->
        Alcotest.(check bool) "array allocated" true
          (match frame.slots.(slot) with
          | Runtime.Value.Varr a -> Array.length a = 2
          | _ -> false)
      | "x", Lang.Prog.Local slot ->
        Alcotest.(check bool) "scalar undef" true
          (frame.slots.(slot) = Runtime.Value.Vundef)
      | _ -> ())
    f.locals

let suite =
  ( "units",
    [
      Alcotest.test_case "locations" `Quick test_loc;
      Alcotest.test_case "diagnostics" `Quick test_diag;
      Alcotest.test_case "values" `Quick test_value;
      Alcotest.test_case "tokens" `Quick test_token_describe;
      Alcotest.test_case "round robin" `Quick test_sched_round_robin;
      Alcotest.test_case "round robin on unsorted runnable lists" `Quick
        test_sched_round_robin_unsorted;
      Alcotest.test_case "random scheduler determinism" `Quick
        test_sched_random_deterministic;
      Alcotest.test_case "scripted scheduler" `Quick test_sched_scripted;
      Alcotest.test_case "dynamic graph container" `Quick test_dyn_graph_container;
      Util.qtest ~count:200 "edge store matches the list model" graph_ops_gen
        prop_edge_store_model;
      Alcotest.test_case "interpreter frames" `Quick test_interp_frame;
    ] )
