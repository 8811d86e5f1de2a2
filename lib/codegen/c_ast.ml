type stmt =
  | Raw of string
  | Decl of { ty : string; name : string; init : string option }
  | Assign of string * string
  | If of { cond : string; then_ : stmt list; else_ : stmt list }
  | For of { init : string; cond : string; step : string; body : stmt list }
  | While of { cond : string; body : stmt list }
  | Do_while of { body : stmt list; cond : string }
  | Pragma of string
  | Comment of string
  | Block of stmt list
