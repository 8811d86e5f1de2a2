module N = Trahrhe.Nest
module C = Codegen.C_ast
module S = Codegen.Schemes

exception Error of string

let i64 = "omp_i64"
let u64 = "omp_u64"

(* every internal identifier is omp_-prefixed, so canonical nest names
   (x0.., p0.., pc) can never collide; anything else is rejected *)
let c_keywords =
  [ "auto"; "break"; "case"; "char"; "const"; "continue"; "default"; "do"; "double";
    "else"; "enum"; "extern"; "float"; "for"; "goto"; "if"; "inline"; "int"; "long";
    "register"; "restrict"; "return"; "short"; "signed"; "sizeof"; "static"; "struct";
    "switch"; "typedef"; "union"; "unsigned"; "void"; "volatile"; "while"; "int64_t";
    "uint64_t" ]

let check_ident what s =
  let ok =
    String.length s > 0
    && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
         s
    && not (String.length s >= 4 && String.sub s 0 4 = "omp_")
    && not (List.mem s c_keywords)
  in
  if not ok then raise (Error (Printf.sprintf "%s %S is not an emittable C identifier" what s))

let fn buf ~ret ~name ~args body =
  Buffer.add_string buf (Printf.sprintf "%s %s(%s) {\n" ret name args);
  Buffer.add_string buf (Codegen.C_print.to_string ~indent:1 body);
  Buffer.add_string buf "}\n\n"

let return e = C.Raw (Printf.sprintf "return %s;" e)

let source (inv : Trahrhe.Inversion.t) ~fingerprint =
  try
    let nest = inv.Trahrhe.Inversion.nest in
    let d = N.depth nest in
    let params = nest.N.params in
    let lvars = N.level_vars nest in
    let pc = inv.Trahrhe.Inversion.pc_var in
    if d < 1 then raise (Error "empty nest");
    if d > 16 then raise (Error "nest too deep for the native ABI");
    if List.length params > 16 then raise (Error "too many parameters for the native ABI");
    List.iter (check_ident "parameter") params;
    List.iter (check_ident "level variable") lvars;
    check_ident "collapsed index" pc;
    let config = { S.default_config with counter_ty = i64 } in
    let inner = List.nth lvars (d - 1) in
    let expr p = Symx.Cemit.emit_poly_int p ~ty:i64 in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf
      (Printf.sprintf
         "/* ompsim native plan specialization (generated)\n\
         \   fingerprint: %s\n\
         \   abi: %d */\n\
          #include <stdint.h>\n\n\
          typedef int64_t %s;\n\
          typedef uint64_t %s;\n\n\
          static const char omp_fp[] = \"%s\";\n\n"
         fingerprint Abi.version i64 u64 fingerprint);
    fn buf ~ret:i64 ~name:"ompsim_abi" ~args:"void" [ return (string_of_int Abi.version) ];
    fn buf ~ret:"const char *" ~name:"ompsim_fingerprint" ~args:"void" [ return "omp_fp" ];
    fn buf ~ret:i64 ~name:"ompsim_depth" ~args:"void" [ return (string_of_int d) ];
    fn buf ~ret:i64 ~name:"ompsim_params" ~args:"void"
      [ return (string_of_int (List.length params)) ];
    (* the canonical names as C locals: parameters from omp_P, the
       collapsed index from omp_pc *)
    let bind_params =
      List.mapi
        (fun i p -> C.Decl { ty = "const " ^ i64; name = p; init = Some (Printf.sprintf "omp_P[%d]" i) })
        params
    in
    fn buf ~ret:i64 ~name:"ompsim_trip" ~args:(Printf.sprintf "const %s *omp_P" i64)
      (bind_params @ [ return (S.trip_count_expr inv ~ty:i64) ]);
    (* exact recovery: the printers' [recovery_stmts], the algorithm
       of the interpreted [Recovery.recover] (a search of the monotone
       ranking at every non-last level, then the innermost formula),
       so the two agree bit for bit *)
    fn buf ~ret:"void" ~name:"ompsim_recover"
      ~args:(Printf.sprintf "const %s *omp_P, %s omp_pc, %s *omp_x" i64 i64 i64)
      (bind_params
      @ C.Decl { ty = "const " ^ i64; name = pc; init = Some "omp_pc" }
        :: List.map (fun v -> C.Decl { ty = i64; name = v; init = None }) lvars
      @ S.recovery_stmts ~config inv
      @ List.mapi (fun k v -> C.Assign (Printf.sprintf "omp_x[%d]" k, v)) lvars);
    (* one recovery, then innermost runs: [per_run] is hoisted out of
       the run, [per_iter] folds one iteration into omp_acc, and
       Codegen's carry moves to the next non-empty row *)
    let walker ~name ~per_run ~per_iter =
      let up = expr (Polymath.Affine.to_poly (List.nth nest.N.levels (d - 1)).N.upper) in
      fn buf ~ret:u64 ~name
        ~args:(Printf.sprintf "const %s *omp_P, %s omp_pc, %s omp_len" i64 i64 i64)
        ([ C.Decl { ty = i64; name = "omp_trip"; init = Some "ompsim_trip(omp_P)" };
           C.If
             { cond = "omp_len <= 0 || omp_pc < 1 || omp_pc > omp_trip";
               then_ = [ return "0" ];
               else_ = [] };
           C.If
             { cond = "omp_len > omp_trip - omp_pc + 1";
               then_ = [ C.Assign ("omp_len", "omp_trip - omp_pc + 1") ];
               else_ = [] };
           C.Decl { ty = i64; name = Printf.sprintf "omp_x[%d]" d; init = None };
           C.Raw "ompsim_recover(omp_P, omp_pc, omp_x);" ]
        @ bind_params
        @ List.mapi
            (fun k v -> C.Decl { ty = i64; name = v; init = Some (Printf.sprintf "omp_x[%d]" k) })
            lvars
        @ [ C.Decl { ty = u64; name = "omp_acc"; init = Some "0" };
            C.Decl { ty = i64; name = "omp_rem"; init = Some "omp_len" };
            C.For
              { init = "";
                cond = "";
                step = "";
                body =
                  C.Decl { ty = i64; name = "omp_end"; init = Some up }
                  :: C.If
                       { cond = Printf.sprintf "omp_end - %s > omp_rem" inner;
                         then_ = [ C.Assign ("omp_end", Printf.sprintf "%s + omp_rem" inner) ];
                         else_ = [] }
                  :: C.Raw (Printf.sprintf "omp_rem -= omp_end - %s;" inner)
                  :: per_run
                  @ [ C.For
                        { init = "";
                          cond = Printf.sprintf "%s < omp_end" inner;
                          step = inner ^ "++";
                          body = [ per_iter ] };
                      C.If { cond = "omp_rem <= 0"; then_ = [ C.Raw "break;" ]; else_ = [] } ]
                  @ if d > 1 then S.carry_stmts ~config inv (d - 2) else [] };
            return "omp_acc" ])
    in
    (* the collapsed checksum: the outer-prefix hash once per run *)
    walker ~name:"ompsim_walk_hash"
      ~per_run:
        (C.Decl { ty = u64; name = "omp_ph"; init = Some "0" }
         :: (List.filteri (fun k _ -> k < d - 1) lvars
            |> List.map (fun v ->
                   C.Raw (Printf.sprintf "omp_ph = omp_ph * 1000003u + (%s)%s;" u64 v)))
        @ [ C.Decl { ty = u64; name = "omp_base"; init = Some "omp_ph * 1000003u" } ])
      ~per_iter:(C.Raw (Printf.sprintf "omp_acc += omp_base + (%s)%s;" u64 inner));
    (* the clause value summed with the checksum's u64 wraparound, so
       the truncated result matches the interpreted native-int sum; the
       symbol is always exported (value 0 without a clause) because
       the loader resolves every symbol *)
    let value =
      match nest.N.reduce with Some r -> expr r.N.value | None -> "0"
    in
    walker ~name:"ompsim_reduce_sum" ~per_run:[]
      ~per_iter:(C.Raw (Printf.sprintf "omp_acc += (%s)(%s);" u64 value));
    Ok (Buffer.contents buf)
  with Error msg | Failure msg -> Result.Error ("jit emit: " ^ msg)
