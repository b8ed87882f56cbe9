exception Error of Loc.t * string

let error loc fmt = Format.kasprintf (fun msg -> raise (Error (loc, msg))) fmt

let pp_error ppf (loc, msg) = Format.fprintf ppf "error at %a: %s" Loc.pp loc msg

let protect f =
  match f () with v -> Ok v | exception Error (loc, msg) -> Error (loc, msg)

(* ------------------------------------------------------------------ *)
(* Accumulating diagnostics.                                            *)
(* ------------------------------------------------------------------ *)

type severity = Sev_error | Sev_warning | Sev_note

type diagnostic = {
  d_code : string;
  d_severity : severity;
  d_loc : Loc.t;
  d_message : string;
  d_related : (Loc.t * string) list;
}

type collector = { mutable diags : diagnostic list }

let severity_label = function
  | Sev_error -> "error"
  | Sev_warning -> "warning"
  | Sev_note -> "note"

let pp_severity ppf s = Format.pp_print_string ppf (severity_label s)

let create () = { diags = [] }

let emit c ?(related = []) ~code ~severity loc fmt =
  Format.kasprintf
    (fun msg ->
      c.diags <-
        {
          d_code = code;
          d_severity = severity;
          d_loc = loc;
          d_message = msg;
          d_related = related;
        }
        :: c.diags)
    fmt

let of_error (loc, msg) =
  {
    d_code = "PPD001";
    d_severity = Sev_error;
    d_loc = loc;
    d_message = msg;
    d_related = [];
  }

(* Stable report order: code, then location, then message — diagnostics
   from independent passes interleave deterministically. *)
let diagnostics c =
  List.sort_uniq
    (fun a b ->
      let r = String.compare a.d_code b.d_code in
      if r <> 0 then r
      else
        let r = Loc.compare a.d_loc b.d_loc in
        if r <> 0 then r else compare a b)
    c.diags

let count c severity =
  List.length (List.filter (fun d -> d.d_severity = severity) c.diags)

let is_empty c = c.diags = []

(* One finding, ["CODE severity at LINE:COL: MSG"], plus indented
   related locations. *)
let pp_diagnostic ppf d =
  Format.fprintf ppf "@[<v2>%s %a at %a: %s" d.d_code pp_severity d.d_severity
    Loc.pp d.d_loc d.d_message;
  List.iter
    (fun (loc, msg) -> Format.fprintf ppf "@,- at %a: %s" Loc.pp loc msg)
    d.d_related;
  Format.fprintf ppf "@]"

let pp_human ppf diags =
  match diags with
  | [] -> Format.fprintf ppf "no findings"
  | _ ->
    let n_of s = List.length (List.filter (fun d -> d.d_severity = s) diags) in
    Format.fprintf ppf "@[<v>";
    Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_diagnostic ppf diags;
    Format.fprintf ppf
      "@,%d finding(s): %d error(s), %d warning(s), %d note(s)@]"
      (List.length diags) (n_of Sev_error) (n_of Sev_warning) (n_of Sev_note)

(* ------------------------------------------------------------------ *)
(* JSON rendering.                                                      *)
(* ------------------------------------------------------------------ *)

let json_diag d =
  let loc (l : Loc.t) =
    if Loc.is_none l then Json.Null
    else Json.Obj [ ("line", Json.Int l.line); ("col", Json.Int l.col) ]
  in
  let related =
    match d.d_related with
    | [] -> []
    | rs ->
      [
        ( "related",
          Json.List
            (List.map
               (fun (l, msg) ->
                 Json.Obj [ ("loc", loc l); ("message", Json.Str msg) ])
               rs) );
      ]
  in
  Json.Obj
    ([
       ("code", Json.Str d.d_code);
       ("severity", Json.Str (severity_label d.d_severity));
       ("loc", loc d.d_loc);
       ("message", Json.Str d.d_message);
     ]
    @ related)

let json_of_diagnostic d = Json.to_string (json_diag d)

let json_of_diagnostics diags =
  Json.to_string
    (Json.Obj
       [
         ("findings", Json.List (List.map json_diag diags));
         ("count", Json.Int (List.length diags));
       ])
