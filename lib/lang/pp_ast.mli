(** Pretty-printer for raw MPL syntax.

    Output is valid MPL: [Parser.parse_program (to_string p)] yields a
    program structurally equal to [p] (property-tested). *)

val pp_expr : Format.formatter -> Ast.expr -> unit

val expr_to_string : Ast.expr -> string

val program_to_string : Ast.program -> string
