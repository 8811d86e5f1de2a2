type scheme =
  | Naive
  | Per_thread
  | Chunked of int
  | Simd of int

type options = { scheme : scheme; paper : bool; counter_ty : string }

let default_options = { scheme = Per_thread; paper = false; counter_ty = "long" }

type region = {
  pragma_start : int;
  body_end : int;
  collapse : int;
  nest : Trahrhe.Nest.t;
  body : string;
  reconstruct : (string * Polymath.Affine.t) list;
      (** strided originals rebuilt from surrogate iterators *)
}

(* --- pragma line scanning --- *)

let line_end src pos =
  (* honor backslash continuations *)
  let n = String.length src in
  let rec go p =
    if p >= n then n
    else if src.[p] = '\n' then
      if p > 0 && src.[p - 1] = '\\' then go (p + 1) else p + 1
    else go (p + 1)
  in
  go pos

let contains_word line word =
  (* word match tolerant of clause syntax *)
  let wl = String.length word and n = String.length line in
  let is_id c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_' in
  let rec go i =
    if i + wl > n then false
    else if String.sub line i wl = word
            && (i = 0 || not (is_id line.[i - 1]))
            && (i + wl = n || not (is_id line.[i + wl]))
    then true
    else go (i + 1)
  in
  go 0

let collapse_arg line =
  let n = String.length line in
  let rec find i =
    if i + 8 > n then None
    else if String.sub line i 8 = "collapse" then begin
      (* parse collapse ( INT ) *)
      let l = Lexer.create line ~pos:(i + 8) in
      match (Lexer.next l, Lexer.next l, Lexer.next l) with
      | Token.LParen, Token.Int k, Token.RParen -> Some k
      | _ -> None
    end
    else find (i + 1)
  in
  find 0

(* find the end of the statement starting at [pos]: a braced block or a
   single ;-terminated statement (nested braces/parens respected,
   strings and char literals skipped) *)
let statement_end src pos =
  let n = String.length src in
  let rec skip_ws p = if p < n && (src.[p] = ' ' || src.[p] = '\t' || src.[p] = '\n' || src.[p] = '\r') then skip_ws (p + 1) else p in
  let start = skip_ws pos in
  if start >= n then failwith "Cfront: missing loop body";
  let rec scan p depth in_braces =
    if p >= n then failwith "Cfront: unterminated loop body"
    else
      match src.[p] with
      | '"' ->
        let rec str q = if q >= n then q else if src.[q] = '\\' then str (q + 2) else if src.[q] = '"' then q + 1 else str (q + 1) in
        scan (str (p + 1)) depth in_braces
      | '\'' ->
        let rec chr q = if q >= n then q else if src.[q] = '\\' then chr (q + 2) else if src.[q] = '\'' then q + 1 else chr (q + 1) in
        scan (chr (p + 1)) depth in_braces
      | '{' -> scan (p + 1) (depth + 1) true
      | '}' ->
        if depth = 1 && in_braces then p + 1 else scan (p + 1) (depth - 1) in_braces
      | ';' when depth = 0 && not in_braces -> p + 1
      | _ -> scan (p + 1) depth in_braces
  in
  (start, scan start 0 false)

let strip_braces s =
  let s = String.trim s in
  if String.length s >= 2 && s.[0] = '{' && s.[String.length s - 1] = '}' then
    String.trim (String.sub s 1 (String.length s - 2))
  else s

let find_regions src =
  let n = String.length src in
  let regions = ref [] in
  let rec scan pos =
    if pos >= n then ()
    else begin
      match String.index_from_opt src pos '#' with
      | None -> ()
      | Some h ->
        let le = line_end src h in
        let line = String.sub src h (le - h) in
        if contains_word line "pragma" && contains_word line "omp" && contains_word line "for"
        then begin
          match collapse_arg line with
          | None -> scan le
          | Some c ->
            let l = Lexer.create src ~pos:le in
            let headers = List.init c (fun _ -> Parser.for_header l) in
            let body_start = Lexer.pos l in
            let _, stmt_end = statement_end src body_start in
            let headers, reconstruct = Parser.normalize_strides headers in
            let nest = Parser.nest_of_headers headers in
            if Trahrhe.Nest.is_rectangular nest && reconstruct = [] then scan stmt_end
            else begin
              regions :=
                { pragma_start = h;
                  body_end = stmt_end;
                  collapse = c;
                  nest;
                  body = strip_braces (String.sub src body_start (stmt_end - body_start));
                  reconstruct }
                :: !regions;
              scan stmt_end
            end
        end
        else scan le
    end
  in
  scan 0;
  List.rev !regions

(* the region's collapsed C, and the headers its recovery needs *)
let generate ~options region =
  let inv = Trahrhe.Inversion.invert_exn region.nest in
  let config =
    { Codegen.Schemes.default_config with
      paper = options.paper;
      counter_ty = options.counter_ty;
      (* strided originals are rebuilt inside the loop: thread-private *)
      extra_private = List.map fst region.reconstruct }
  in
  let recon_stmts =
    List.map
      (fun (v, a) ->
        Codegen.C_ast.Assign
          (v, Symx.Cemit.emit_poly_int (Polymath.Affine.to_poly a) ~ty:options.counter_ty))
      region.reconstruct
  in
  let recon_decls =
    List.map
      (fun (v, _) -> Codegen.C_ast.Decl { ty = options.counter_ty; name = v; init = None })
      region.reconstruct
  in
  let body = recon_stmts @ [ Codegen.C_ast.Raw region.body ] in
  let stmts =
    match options.scheme with
    | Naive -> Codegen.Schemes.naive ~config inv ~body
    | Per_thread -> Codegen.Schemes.per_thread ~config inv ~body
    | Chunked chunk -> Codegen.Schemes.chunked ~config ~chunk inv ~body
    | Simd vlength ->
      (* the textual body cannot be re-indexed automatically; wrap it in
         a scalar assignment prelude instead *)
      Codegen.Schemes.simd ~config ~vlength inv ~body_of:(fun subst ->
          List.map
            (fun v -> Codegen.C_ast.Raw (Printf.sprintf "%s %s = %s;" options.counter_ty v (subst v)))
            (Trahrhe.Nest.level_vars region.nest)
          @ [ Codegen.C_ast.Raw region.body ])
  in
  let text =
    "/* collapsed by nonrect-collapse (trahrhe reproduction) */\n{\n"
    ^ Codegen.C_print.to_string ~indent:1 (recon_decls @ stmts)
    ^ "}\n"
  in
  (* only paper mode floors roots, complex ones through [creal] *)
  let calls (_, f) = options.paper && contains_word text f in
  (text, List.map fst (List.filter calls [ ("math.h", "floor"); ("complex.h", "creal") ]))

let transform_source ?(options = default_options) src =
  let regions = find_regions src in
  let buf = Buffer.create (String.length src) in
  let pos = ref 0 and headers = ref [] in
  List.iter
    (fun r ->
      Buffer.add_string buf (String.sub src !pos (r.pragma_start - !pos));
      let text, hs = generate ~options r in
      Buffer.add_string buf text;
      headers := hs @ !headers;
      pos := r.body_end)
    regions;
  Buffer.add_string buf (String.sub src !pos (String.length src - !pos));
  (* each header the recoveries need, once; they are include-guarded *)
  let includes =
    List.filter_map
      (fun h -> if List.mem h !headers then Some (Printf.sprintf "#include <%s>\n" h) else None)
      [ "math.h"; "complex.h" ]
  in
  (String.concat "" includes ^ Buffer.contents buf, List.length regions)

let transform_file ?options ~input ~output () =
  let ic = open_in_bin input in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let out, count = transform_source ?options src in
  let oc = open_out_bin output in
  output_string oc out;
  close_out oc;
  count
