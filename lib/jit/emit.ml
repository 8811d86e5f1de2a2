module P = Polymath.Polynomial
module A = Polymath.Affine
module N = Trahrhe.Nest
module C = Codegen.C_ast

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

type ctx = { params : string array; lvars : string array; pc_var : string }

let index_of a x =
  let n = Array.length a in
  let rec go i = if i >= n then None else if a.(i) = x then Some i else go (i + 1) in
  go 0

(* bind the variables of [p] to C locals: parameters from omp_P,
   level vars 0..avail-1 from omp_x, and (optionally) the probed level
   var from a given expression *)
let bindings ctx ?probe ~avail p =
  P.vars p
  |> List.map (fun v ->
         let init =
           match probe with
           | Some (pv, e) when pv = v -> e
           | _ -> (
             match index_of ctx.params v with
             | Some i -> Printf.sprintf "omp_P[%d]" i
             | None -> (
               match index_of ctx.lvars v with
               | Some j when j < avail -> Printf.sprintf "omp_x[%d]" j
               | Some j ->
                 raise
                   (Error
                      (Printf.sprintf "level variable %s (level %d) used above level %d" v j
                         avail))
               | None ->
                 if v = ctx.pc_var then
                   raise (Error ("collapsed index " ^ v ^ " appears in a bound polynomial"))
                 else raise (Error ("unbound variable " ^ v))))
         in
         C.Decl { ty = "const " ^ i64; name = v; init = Some init })

let ret_poly p = C.Raw (Printf.sprintf "return %s;" (Symx.Cemit.emit_poly_int p ~ty:i64))

(* silence unused-parameter warnings in bound helpers whose polynomial
   happens to not mention omp_P or omp_x *)
let use_args names =
  C.Raw (String.concat " " (List.map (fun a -> Printf.sprintf "(void)%s;" a) names))

let fn buf ~ret ~name ~args body =
  Buffer.add_string buf (Printf.sprintf "%s %s(%s) {\n" ret name args);
  Buffer.add_string buf (Codegen.C_print.to_string ~indent:1 body);
  Buffer.add_string buf "}\n\n"

let poly_fn buf ctx ~name ?probe ~avail ~extra_args p =
  let args = Printf.sprintf "const %s *omp_P, const %s *omp_x%s" i64 i64 extra_args in
  fn buf ~ret:("static " ^ i64) ~name ~args
    ([ use_args [ "omp_P"; "omp_x" ] ] @ bindings ctx ?probe ~avail p @ [ ret_poly p ])

let source (inv : Trahrhe.Inversion.t) ~fingerprint =
  try
    let nest = inv.Trahrhe.Inversion.nest in
    let d = N.depth nest in
    let params = Array.of_list nest.N.params in
    let lvars = Array.of_list (N.level_vars nest) in
    if d < 1 then raise (Error "empty nest");
    if d > 16 then raise (Error "nest too deep for the native ABI");
    if Array.length params > 16 then raise (Error "too many parameters for the native ABI");
    Array.iter (check_ident "parameter") params;
    Array.iter (check_ident "level variable") lvars;
    let ctx = { params; lvars; pc_var = inv.Trahrhe.Inversion.pc_var } in
    let levels = Array.of_list nest.N.levels in
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
    fn buf ~ret:i64 ~name:"ompsim_abi" ~args:"void"
      [ C.Raw (Printf.sprintf "return %d;" Abi.version) ];
    fn buf ~ret:"const char *" ~name:"ompsim_fingerprint" ~args:"void"
      [ C.Raw "return omp_fp;" ];
    fn buf ~ret:i64 ~name:"ompsim_depth" ~args:"void" [ C.Raw (Printf.sprintf "return %d;" d) ];
    fn buf ~ret:i64 ~name:"ompsim_params" ~args:"void"
      [ C.Raw (Printf.sprintf "return %d;" (Array.length params)) ];
    let trip = inv.Trahrhe.Inversion.trip_count in
    fn buf ~ret:i64 ~name:"ompsim_trip" ~args:(Printf.sprintf "const %s *omp_P" i64)
      ([ use_args [ "omp_P" ] ] @ bindings ctx ~avail:0 trip @ [ ret_poly trip ]);
    (* per-level bound and prefix-rank helpers *)
    for k = 0 to d - 1 do
      poly_fn buf ctx ~name:(Printf.sprintf "omp_lo_%d" k) ~avail:k ~extra_args:""
        (A.to_poly levels.(k).N.lower);
      poly_fn buf ctx ~name:(Printf.sprintf "omp_up_%d" k) ~avail:k ~extra_args:""
        (A.to_poly levels.(k).N.upper);
      poly_fn buf ctx
        ~name:(Printf.sprintf "omp_rsub_%d" k)
        ~probe:(lvars.(k), "omp_v") ~avail:k
        ~extra_args:(Printf.sprintf ", %s omp_v" i64)
        inv.Trahrhe.Inversion.r_sub.(k)
    done;
    (* bound refresh for one level, prefix already final *)
    fn buf ~ret:"static void" ~name:"omp_rebound"
      ~args:
        (Printf.sprintf "const %s *omp_P, const %s *omp_x, %s *omp_lo, %s *omp_hi, int omp_q"
           i64 i64 i64 i64)
      (List.init d (fun q ->
           C.If
             { cond = Printf.sprintf "omp_q == %d" q;
               then_ =
                 [ C.Assign
                     (Printf.sprintf "omp_lo[%d]" q, Printf.sprintf "omp_lo_%d(omp_P, omp_x)" q);
                   C.Assign
                     (Printf.sprintf "omp_hi[%d]" q, Printf.sprintf "omp_up_%d(omp_P, omp_x)" q)
                 ];
               else_ = [] }));
    (* exact recovery: per-level binary search on the monotone prefix
       rank, identical to Recovery.recover_binsearch. Deliberately
       independent of the plan's level_recovery kinds: Numeric levels
       (degree > 4 rankings) specialize to exactly this bracketed
       search, so numeric plans keep the native tier engaged with no
       emitter dispatch at all. *)
    fn buf ~ret:"void" ~name:"ompsim_recover"
      ~args:(Printf.sprintf "const %s *omp_P, %s omp_pc, %s *omp_x" i64 i64 i64)
      (List.concat
         (List.init d (fun k ->
              [ C.Block
                  [ C.Decl
                      { ty = i64;
                        name = "omp_a";
                        init = Some (Printf.sprintf "omp_lo_%d(omp_P, omp_x)" k) };
                    C.Decl
                      { ty = i64;
                        name = "omp_b";
                        init = Some (Printf.sprintf "omp_up_%d(omp_P, omp_x) - 1" k) };
                    C.While
                      { cond = "omp_a < omp_b";
                        body =
                          [ C.Decl
                              { ty = i64;
                                name = "omp_m";
                                init = Some "omp_a + (omp_b - omp_a + 1) / 2" };
                            C.If
                              { cond =
                                  Printf.sprintf "omp_rsub_%d(omp_P, omp_x, omp_m) <= omp_pc" k;
                                then_ = [ C.Assign ("omp_a", "omp_m") ];
                                else_ = [ C.Assign ("omp_b", "omp_m - 1") ] } ] };
                    C.Assign (Printf.sprintf "omp_x[%d]" k, "omp_a") ] ])));
    let rebound_all =
      C.For
        { init = "int omp_q = 0";
          cond = Printf.sprintf "omp_q < %d" d;
          step = "omp_q++";
          body = [ C.Raw "omp_rebound(omp_P, omp_x, omp_lo, omp_hi, omp_q);" ] }
    in
    (* after a run: advance the nearest outer level that is not
       exhausted, then descend, resetting each deeper level to its
       lower bound; an empty row (lo >= hi) at level q resumes the
       advance at level q-1, so no run starts on an empty row. Returns
       0 at the end of the space. *)
    fn buf ~ret:"static int" ~name:"omp_carry"
      ~args:(Printf.sprintf "const %s *omp_P, %s *omp_x, %s *omp_lo, %s *omp_hi" i64 i64 i64 i64)
      [ C.Decl { ty = "int"; name = "omp_k"; init = Some (string_of_int (d - 2)) };
        C.Decl { ty = "int"; name = "omp_q"; init = Some (string_of_int d) };
        C.While
          { cond = "omp_k >= 0";
            body =
              [ C.If
                  { cond = "omp_x[omp_k] + 1 >= omp_hi[omp_k]";
                    then_ = [ C.Raw "omp_k--;" ];
                    else_ =
                      [ C.Raw "omp_x[omp_k] += 1;";
                        C.For
                          { init = "omp_q = omp_k + 1";
                            cond = Printf.sprintf "omp_q < %d" d;
                            step = "omp_q++";
                            body =
                              [ C.Raw "omp_rebound(omp_P, omp_x, omp_lo, omp_hi, omp_q);";
                                C.Raw "omp_x[omp_q] = omp_lo[omp_q];";
                                C.If
                                  { cond = "omp_x[omp_q] >= omp_hi[omp_q]";
                                    then_ = [ C.Raw "break;" ];
                                    else_ = [] } ] };
                        C.If
                          { cond = Printf.sprintf "omp_q >= %d" d;
                            then_ = [ C.Raw "return 1;" ];
                            else_ = [] };
                        C.Assign ("omp_k", "omp_q - 1") ] } ] };
        C.Raw "return 0;" ];
    let carry =
      [ C.If
          { cond = "!omp_carry(omp_P, omp_x, omp_lo, omp_hi)";
            then_ = [ C.Raw "break;" ];
            else_ = [] } ]
    in
    (* one-recovery chunk walk accumulating the collapsed checksum:
       outer-prefix hash is hoisted out of each innermost lockstep run *)
    let ph_unrolled =
      List.init (d - 1) (fun k ->
          C.Raw (Printf.sprintf "omp_ph = omp_ph * 1000003u + (%s)omp_x[%d];" u64 k))
    in
    fn buf ~ret:u64 ~name:"ompsim_walk_hash"
      ~args:(Printf.sprintf "const %s *omp_P, %s omp_pc, %s omp_len" i64 i64 i64)
      ([ C.Decl { ty = i64; name = Printf.sprintf "omp_x[%d]" d; init = None };
         C.Decl { ty = i64; name = Printf.sprintf "omp_lo[%d]" d; init = None };
         C.Decl { ty = i64; name = Printf.sprintf "omp_hi[%d]" d; init = None };
         C.Decl { ty = u64; name = "omp_acc"; init = Some "0" };
         C.Decl { ty = i64; name = "omp_rem"; init = None };
         C.Decl { ty = i64; name = "omp_trip"; init = Some "ompsim_trip(omp_P)" };
         C.If
           { cond = "omp_len <= 0 || omp_pc < 1 || omp_pc > omp_trip";
             then_ = [ C.Raw "return 0;" ];
             else_ = [] };
         C.If
           { cond = "omp_len > omp_trip - omp_pc + 1";
             then_ = [ C.Assign ("omp_len", "omp_trip - omp_pc + 1") ];
             else_ = [] };
         C.Raw "ompsim_recover(omp_P, omp_pc, omp_x);";
         rebound_all;
         C.Assign ("omp_rem", "omp_len");
         C.For
           { init = "";
             cond = "";
             step = "";
             body =
               [ C.Decl { ty = u64; name = "omp_ph"; init = Some "0" } ]
               @ ph_unrolled
               @ [ C.Decl
                     { ty = i64;
                       name = "omp_run";
                       init = Some (Printf.sprintf "omp_hi[%d] - omp_x[%d]" (d - 1) (d - 1)) };
                   C.If
                     { cond = "omp_run > omp_rem";
                       then_ = [ C.Assign ("omp_run", "omp_rem") ];
                       else_ = [] };
                   C.Decl { ty = u64; name = "omp_base"; init = Some "omp_ph * 1000003u" };
                   C.Decl
                     { ty = u64;
                       name = "omp_v";
                       init = Some (Printf.sprintf "(%s)omp_x[%d]" u64 (d - 1)) };
                   C.For
                     { init = Printf.sprintf "%s omp_r = 0" i64;
                       cond = "omp_r < omp_run";
                       step = "omp_r++";
                       body =
                         [ C.Raw
                             (Printf.sprintf "omp_acc += omp_base + omp_v + (%s)omp_r;" u64)
                         ] };
                   C.Raw "omp_rem -= omp_run;";
                   C.If { cond = "omp_rem <= 0"; then_ = [ C.Raw "break;" ]; else_ = [] } ]
               @ carry } ]
      @ [ C.Raw "return omp_acc;" ]);
    (* reduction value and the native int64 sum walk: always exported —
       the dlopen shim resolves every symbol — evaluating the clause's
       value polynomial (constant 0 when the plan carries no clause) at
       each recovered iteration, with the same u64 wraparound as the
       checksum walk so the truncated result matches the interpreted
       native-int accumulation bit for bit *)
    let rvalue =
      match nest.N.reduce with
      | Some r -> r.N.value
      | None -> P.const Zmath.Rat.zero
    in
    poly_fn buf ctx ~name:"omp_val"
      ~probe:(lvars.(d - 1), "omp_iv")
      ~avail:(d - 1)
      ~extra_args:(Printf.sprintf ", %s omp_iv" i64)
      rvalue;
    fn buf ~ret:u64 ~name:"ompsim_reduce_sum"
      ~args:(Printf.sprintf "const %s *omp_P, %s omp_pc, %s omp_len" i64 i64 i64)
      ([ C.Decl { ty = i64; name = Printf.sprintf "omp_x[%d]" d; init = None };
         C.Decl { ty = i64; name = Printf.sprintf "omp_lo[%d]" d; init = None };
         C.Decl { ty = i64; name = Printf.sprintf "omp_hi[%d]" d; init = None };
         C.Decl { ty = u64; name = "omp_acc"; init = Some "0" };
         C.Decl { ty = i64; name = "omp_rem"; init = None };
         C.Decl { ty = i64; name = "omp_trip"; init = Some "ompsim_trip(omp_P)" };
         C.If
           { cond = "omp_len <= 0 || omp_pc < 1 || omp_pc > omp_trip";
             then_ = [ C.Raw "return 0;" ];
             else_ = [] };
         C.If
           { cond = "omp_len > omp_trip - omp_pc + 1";
             then_ = [ C.Assign ("omp_len", "omp_trip - omp_pc + 1") ];
             else_ = [] };
         C.Raw "ompsim_recover(omp_P, omp_pc, omp_x);";
         rebound_all;
         C.Assign ("omp_rem", "omp_len");
         C.For
           { init = "";
             cond = "";
             step = "";
             body =
               [ C.Decl
                   { ty = i64;
                     name = "omp_run";
                     init = Some (Printf.sprintf "omp_hi[%d] - omp_x[%d]" (d - 1) (d - 1)) };
                 C.If
                   { cond = "omp_run > omp_rem";
                     then_ = [ C.Assign ("omp_run", "omp_rem") ];
                     else_ = [] };
                 C.Decl
                   { ty = i64;
                     name = "omp_v0";
                     init = Some (Printf.sprintf "omp_x[%d]" (d - 1)) };
                 C.For
                   { init = Printf.sprintf "%s omp_r = 0" i64;
                     cond = "omp_r < omp_run";
                     step = "omp_r++";
                     body =
                       [ C.Raw
                           (Printf.sprintf "omp_acc += (%s)omp_val(omp_P, omp_x, omp_v0 + omp_r);"
                              u64)
                       ] };
                 C.Raw "omp_rem -= omp_run;";
                 C.If { cond = "omp_rem <= 0"; then_ = [ C.Raw "break;" ]; else_ = [] } ]
               @ carry } ]
      @ [ C.Raw "return omp_acc;" ]);
    Ok (Buffer.contents buf)
  with Error msg -> Result.Error ("jit emit: " ^ msg)
