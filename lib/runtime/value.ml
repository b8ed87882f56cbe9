type t = Vint of int | Varr of int array | Vundef

exception Undefined

let to_int = function
  | Vint n -> n
  | Vundef -> raise Undefined
  | Varr _ -> invalid_arg "Value.to_int: array"

let copy = function
  | Vint _ as v -> v
  | Vundef -> Vundef
  | Varr a -> Varr (Array.copy a)

let equal a b =
  match (a, b) with
  | Vint x, Vint y -> x = y
  | Vundef, Vundef -> true
  | Varr x, Varr y -> x = y
  | (Vint _ | Varr _ | Vundef), _ -> false

let pp ppf = function
  | Vint n -> Format.pp_print_int ppf n
  | Vundef -> Format.pp_print_string ppf "undef"
  | Varr a ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Format.pp_print_int)
      (Array.to_list a)

let to_string v = Format.asprintf "%a" pp v
