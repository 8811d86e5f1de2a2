(** A small C statement AST, sufficient for emitting collapsed loops.

    Expressions are carried as preformatted strings (produced by
    {!Symx.Cemit} or by the front-end); the AST only structures
    statements so the printer can indent and brace correctly. *)

type stmt =
  | Raw of string  (** verbatim statement (no trailing semicolon added if present) *)
  | Decl of { ty : string; name : string; init : string option }
  | Assign of string * string  (** lvalue = expr; *)
  | If of { cond : string; then_ : stmt list; else_ : stmt list }
  | For of { init : string; cond : string; step : string; body : stmt list }
  | While of { cond : string; body : stmt list }
  | Do_while of { body : stmt list; cond : string }  (** [do { body } while (cond);] *)
  | Pragma of string  (** emitted as [#pragma ...] at column 0 *)
  | Comment of string
  | Block of stmt list  (** braces without a header *)
