(* The one JSON codec: every JSON writer builds a [t] and prints it
   here. The parser is strict — malformed input must become a PPD080
   error response, never an exception escaping the read loop — so
   every failure path returns [Error reason]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing.                                                            *)
(* ------------------------------------------------------------------ *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f when not (Float.is_finite f) -> Buffer.add_string b "null"
  | Float f ->
    (* keep floats round-trippable but compact *)
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.1f" f)
    else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Str s -> escape b s
  | List vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        emit b v)
      vs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        escape b k;
        Buffer.add_char b ':';
        emit b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parsing.                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let max_depth = 64

(* Validate one UTF-8 sequence starting at [i]; returns the index past
   it. Overlong encodings, surrogates and out-of-range code points are
   rejected — a client feeding us raw bytes gets PPD080, not a string
   that later breaks the printer. *)
let utf8_step s i =
  let n = String.length s in
  let byte k = if k < n then Char.code s.[k] else raise (Bad "truncated UTF-8") in
  let cont k =
    let c = byte k in
    if c land 0xc0 <> 0x80 then raise (Bad "invalid UTF-8 continuation");
    c land 0x3f
  in
  let c0 = byte i in
  if c0 < 0x80 then i + 1
  else if c0 land 0xe0 = 0xc0 then begin
    let cp = ((c0 land 0x1f) lsl 6) lor cont (i + 1) in
    if cp < 0x80 then raise (Bad "overlong UTF-8");
    i + 2
  end
  else if c0 land 0xf0 = 0xe0 then begin
    let cp =
      ((c0 land 0x0f) lsl 12) lor (cont (i + 1) lsl 6) lor cont (i + 2)
    in
    if cp < 0x800 then raise (Bad "overlong UTF-8");
    if cp >= 0xd800 && cp <= 0xdfff then raise (Bad "UTF-8 surrogate");
    i + 3
  end
  else if c0 land 0xf8 = 0xf0 then begin
    let cp =
      ((c0 land 0x07) lsl 18)
      lor (cont (i + 1) lsl 12)
      lor (cont (i + 2) lsl 6)
      lor cont (i + 3)
    in
    if cp < 0x10000 || cp > 0x10ffff then raise (Bad "invalid UTF-8 code point");
    i + 4
  end
  else raise (Bad "invalid UTF-8 byte")

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  while
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      true
    | _ -> false
  do
    ()
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> raise (Bad (Printf.sprintf "expected '%c', got '%c'" c c'))
  | None -> raise (Bad (Printf.sprintf "expected '%c', got end of input" c))

let literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else raise (Bad ("invalid literal (expected " ^ word ^ ")"))

(* Add a decoded \uXXXX code point as UTF-8. Surrogate pairs are
   combined; a lone surrogate is an error. *)
let add_codepoint st b cp =
  let cp =
    if cp >= 0xd800 && cp <= 0xdbff then begin
      (* high surrogate: a \uXXXX low surrogate must follow *)
      if
        st.pos + 6 <= String.length st.s
        && st.s.[st.pos] = '\\'
        && st.s.[st.pos + 1] = 'u'
      then begin
        let lo = int_of_string ("0x" ^ String.sub st.s (st.pos + 2) 4) in
        if lo >= 0xdc00 && lo <= 0xdfff then begin
          st.pos <- st.pos + 6;
          0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
        end
        else raise (Bad "lone UTF-16 surrogate in \\u escape")
      end
      else raise (Bad "lone UTF-16 surrogate in \\u escape")
    end
    else if cp >= 0xdc00 && cp <= 0xdfff then
      raise (Bad "lone UTF-16 surrogate in \\u escape")
    else cp
  in
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
  end

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> raise (Bad "unterminated string")
    | Some '"' ->
      advance st;
      Buffer.contents b
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> raise (Bad "unterminated escape")
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if st.pos + 4 > String.length st.s then
            raise (Bad "truncated \\u escape");
          let hex = String.sub st.s st.pos 4 in
          let cp =
            match int_of_string_opt ("0x" ^ hex) with
            | Some cp when String.for_all
                (function
                  | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                  | _ -> false)
                hex -> cp
            | _ -> raise (Bad "invalid \\u escape")
          in
          st.pos <- st.pos + 4;
          add_codepoint st b cp
        | c -> raise (Bad (Printf.sprintf "invalid escape '\\%c'" c)));
        go ())
    | Some c when Char.code c < 0x20 ->
      raise (Bad "unescaped control character in string")
    | Some _ ->
      let next = utf8_step st.s st.pos in
      Buffer.add_string b (String.sub st.s st.pos (next - st.pos));
      st.pos <- next;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  (match peek st with Some '-' -> advance st | _ -> ());
  let digits () =
    let n0 = st.pos in
    while match peek st with Some '0' .. '9' -> advance st; true | _ -> false do
      ()
    done;
    if st.pos = n0 then raise (Bad "invalid number")
  in
  digits ();
  (match peek st with
  | Some '.' ->
    is_float := true;
    advance st;
    digits ()
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    is_float := true;
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | _ -> ());
    digits ()
  | _ -> ());
  let text = String.sub st.s start (st.pos - start) in
  (* an integer literal too large for native int is kept as a float;
     one too large even for that (1e999) has no JSON value *)
  match (if !is_float then None else int_of_string_opt text) with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt text with
    | Some f when Float.is_finite f -> Float f
    | Some _ -> raise (Bad "number out of range")
    | None -> raise (Bad "invalid number"))

let rec parse_value st depth =
  if depth > max_depth then raise (Bad "nesting too deep");
  skip_ws st;
  match peek st with
  | None -> raise (Bad "empty input")
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec fields_loop () =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        fields := (k, v) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields_loop ()
        | Some '}' -> advance st
        | _ -> raise (Bad "expected ',' or '}' in object")
      in
      fields_loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value st (depth + 1) in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items_loop ()
        | Some ']' -> advance st
        | _ -> raise (Bad "expected ',' or ']' in array")
      in
      items_loop ();
      List (List.rev !items)
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> raise (Bad (Printf.sprintf "unexpected character '%c'" c))

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st 0 with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error "trailing garbage after value"
    else Ok v
  | exception Bad reason -> Error reason

(* ------------------------------------------------------------------ *)
(* Accessors.                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_str = function Str s -> Some s | _ -> None
