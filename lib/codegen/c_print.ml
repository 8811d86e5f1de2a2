open C_ast

let to_string ?(indent = 0) stmts =
  let buf = Buffer.create 256 in
  let pad lvl = String.make (2 * lvl) ' ' in
  let line lvl s =
    Buffer.add_string buf (pad lvl);
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  let rec go lvl = function
    | Raw s ->
      (* allow multi-line raw fragments, reindenting each line; the
         fragment is copied verbatim (semicolons are the caller's job) *)
      String.split_on_char '\n' s |> List.iter (fun l -> line lvl (String.trim l))
    | Decl { ty; name; init = None } -> line lvl (Printf.sprintf "%s %s;" ty name)
    | Decl { ty; name; init = Some e } -> line lvl (Printf.sprintf "%s %s = %s;" ty name e)
    | Assign (lv, e) -> line lvl (Printf.sprintf "%s = %s;" lv e)
    | If { cond; then_; else_ = [] } ->
      line lvl (Printf.sprintf "if (%s) {" cond);
      List.iter (go (lvl + 1)) then_;
      line lvl "}"
    | If { cond; then_; else_ } ->
      line lvl (Printf.sprintf "if (%s) {" cond);
      List.iter (go (lvl + 1)) then_;
      line lvl "} else {";
      List.iter (go (lvl + 1)) else_;
      line lvl "}"
    | For { init; cond; step; body } ->
      line lvl (Printf.sprintf "for (%s; %s; %s) {" init cond step);
      List.iter (go (lvl + 1)) body;
      line lvl "}"
    | While { cond; body } ->
      line lvl (Printf.sprintf "while (%s) {" cond);
      List.iter (go (lvl + 1)) body;
      line lvl "}"
    | Do_while { body; cond } ->
      line lvl "do {";
      List.iter (go (lvl + 1)) body;
      line lvl (Printf.sprintf "} while (%s);" cond)
    | Pragma p -> Buffer.add_string buf (Printf.sprintf "#pragma %s\n" p)
    | Comment c -> line lvl (Printf.sprintf "/* %s */" c)
    | Block body ->
      line lvl "{";
      List.iter (go (lvl + 1)) body;
      line lvl "}"
  in
  List.iter (go indent) stmts;
  Buffer.contents buf

let pp fmt stmts = Format.pp_print_string fmt (to_string stmts)
