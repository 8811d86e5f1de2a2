(* Tests for the C generator: printer behaviour and the structure of
   each collapsing scheme. *)

module A = Polymath.Affine
module Q = Zmath.Rat
open Codegen

let aff terms c = A.make (List.map (fun (x, k) -> (x, Q.of_int k)) terms) (Q.of_int c)

let correlation_inv =
  lazy
    (Trahrhe.Inversion.invert_exn
       (Trahrhe.Nest.make ~params:[ "N" ]
          [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] (-1) };
            { var = "j"; lower = aff [ ("i", 1) ] 1; upper = aff [ ("N", 1) ] 0 } ]))

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let check_contains msg needle haystack =
  if not (contains ~needle haystack) then
    Alcotest.failf "%s: %S not found in:\n%s" msg needle haystack

let check_absent msg needle haystack =
  if contains ~needle haystack then Alcotest.failf "%s: %S unexpectedly present" msg needle

(* -------- printer -------- *)

let test_print_structure () =
  let s =
    C_print.to_string
      [ C_ast.If
          { cond = "x > 0";
            then_ = [ C_ast.Assign ("y", "1") ];
            else_ = [ C_ast.Assign ("y", "2") ] };
        C_ast.For
          { init = "i = 0"; cond = "i < n"; step = "i++"; body = [ C_ast.Raw "f(i);" ] };
        C_ast.While { cond = "z"; body = [ C_ast.Raw "g();" ] };
        C_ast.Pragma "omp simd";
        C_ast.Comment "note";
        C_ast.Block [ C_ast.Decl { ty = "long"; name = "t"; init = Some "0" } ] ]
  in
  List.iter
    (fun needle -> check_contains "structure" needle s)
    [ "if (x > 0) {"; "} else {"; "for (i = 0; i < n; i++) {"; "while (z) {"; "#pragma omp simd";
      "/* note */"; "long t = 0;" ]

let test_print_indent () =
  let s = C_print.to_string ~indent:2 [ C_ast.Raw "x = 1;" ] in
  Alcotest.(check string) "4-space lead" "    x = 1;\n" s

let test_print_multiline_raw () =
  let s = C_print.to_string [ C_ast.Block [ C_ast.Raw "a();\nb();" ] ] in
  check_contains "first line" "  a();" s;
  check_contains "second line" "  b();" s

(* -------- schemes -------- *)

let body = [ C_ast.Raw "use(i, j);" ]

let test_trip_count_expr () =
  Alcotest.(check string) "correlation trip" "((long)N*N - (long)N)/2"
    (Schemes.trip_count_expr (Lazy.force correlation_inv) ~ty:"long")

let test_naive_scheme () =
  let s = C_print.to_string (Schemes.naive (Lazy.force correlation_inv) ~body) in
  check_contains "pragma" "#pragma omp parallel for private(i, j) schedule(static)" s;
  check_contains "loop header" "for (long pc = 1; pc <= ((long)N*N - (long)N)/2; pc++) {" s;
  check_contains "exact search of i" "nlo_i" s;
  check_contains "exact last level" "j = (" s;
  check_absent "no floating recovery" "floor" s;
  check_contains "body" "use(i, j);" s;
  check_absent "no incrementation in naive" "first_iteration" s;
  (* paper mode: the closed form of Fig. 3 instead of the search *)
  let config = { Schemes.default_config with paper = true } in
  let p = C_print.to_string (Schemes.naive ~config (Lazy.force correlation_inv) ~body) in
  check_contains "floor recovery" "i = floor(" p;
  check_absent "no search" "nlo_i" p;
  check_contains "exact last level" "j = (" p

let test_per_thread_scheme () =
  let s = C_print.to_string (Schemes.per_thread (Lazy.force correlation_inv) ~body) in
  check_contains "firstprivate" "firstprivate(first_iteration)" s;
  check_contains "flag test" "if (first_iteration) {" s;
  check_contains "flag clear" "first_iteration = 0;" s;
  check_contains "increment" "j++;" s;
  check_contains "cascade" "if (j >= (long)N) {" s;
  check_contains "reset to lower bound" "j = (long)i + (long)1;" s

let test_chunked_scheme () =
  let s = C_print.to_string (Schemes.chunked ~chunk:128 (Lazy.force correlation_inv) ~body) in
  check_contains "chunked schedule" "schedule(static, 128)" s;
  check_contains "chunk-start recovery" "if ((pc - 1) % 128 == 0) {" s

let test_simd_scheme () =
  let s =
    C_print.to_string
      (Schemes.simd ~vlength:8 (Lazy.force correlation_inv) ~body_of:(fun subst ->
           [ C_ast.Raw (Printf.sprintf "use(%s, %s);" (subst "i") (subst "j")) ]))
  in
  check_contains "strided loop" "pc += 8" s;
  check_contains "buffer fill" "T_i[v - pc] = i;" s;
  check_contains "simd pragma" "#pragma omp simd" s;
  check_contains "substituted body" "use(T_i[v - pc], T_j[v - pc]);" s

let test_gpu_scheme () =
  let s = C_print.to_string (Schemes.gpu_warp ~warp:32 (Lazy.force correlation_inv) ~body) in
  check_contains "warp loop" "for (thread = 0; thread < 32; thread++) {" s;
  check_contains "strided pc" "pc += 32" s;
  check_contains "first-of-thread recovery" "if (pc == thread + 1) {" s;
  check_contains "W incrementations" "for (inc = 0; inc < 32; inc++) {" s

let test_original_emission () =
  let inv = (Lazy.force correlation_inv) in
  let s =
    C_print.to_string
      (Schemes.original inv.Trahrhe.Inversion.nest ~parallel:true ~schedule:"dynamic" ~body)
  in
  check_contains "outer pragma" "#pragma omp parallel for private(j) schedule(dynamic)" s;
  check_contains "outer loop" "for (i = 0; i < (long)N - (long)1; i++) {" s;
  check_contains "inner loop" "for (j = (long)i + (long)1; j < (long)N; j++) {" s;
  let serial =
    C_print.to_string
      (Schemes.original inv.Trahrhe.Inversion.nest ~parallel:false ~schedule:"static" ~body)
  in
  check_absent "no pragma when serial" "#pragma" serial

let test_counter_type_config () =
  let config = { Schemes.default_config with counter_ty = "int64_t" } in
  let s = C_print.to_string (Schemes.naive ~config (Lazy.force correlation_inv) ~body) in
  check_contains "typed counter" "for (int64_t pc = 1" s;
  check_contains "typed decls" "int64_t i;" s

let test_increment_stmts_depth3 () =
  (* k = j..i-1 is empty at j = i: the carry must step past that row
     instead of running the body at k = j = i *)
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 1; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 };
        { var = "k"; lower = aff [ ("j", 1) ] 0; upper = aff [ ("i", 1) ] 0 } ]
  in
  let inv = Trahrhe.Inversion.invert_exn nest in
  let s = C_print.to_string (Schemes.increment_stmts inv) in
  check_contains "innermost bump first" "k++;" s;
  check_contains "middle cascade" "j++;" s;
  check_contains "outer bump" "i++;" s;
  (* resets happen after the outward cascade, with the new outer values *)
  check_contains "k reset to j" "k = (long)j;" s;
  (* an empty row resumes one level up; level 0 leaving its range ends it *)
  check_contains "empty k row advances j" "} while (k >= (long)i && i < (long)N);" s;
  check_contains "empty j row advances i" "} while (j >= (long)i + (long)1 && i < (long)N);" s

let test_imperfect_sink () =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [ ("i", 1) ] 1; upper = aff [ ("N", 1) ] 0 };
        { var = "k"; lower = aff [] 0; upper = aff [ ("j", 1) ] 0 } ]
  in
  let s =
    C_print.to_string
      (Imperfect.sink nest
         ~levels:
           [ { Imperfect.pre = [ C_ast.Raw "pre1(i);" ]; post = [ C_ast.Raw "post1(i);" ] };
             { Imperfect.pre = [ C_ast.Raw "pre2(i, j);" ]; post = [] } ]
         ~innermost:[ C_ast.Raw "body(i, j, k);" ])
  in
  (* pre1 runs when j and k sit at their first positions *)
  check_contains "pre1 guard" "if (j == (long)i + (long)1 && k == 0) {" s;
  check_contains "pre2 guard" "if (k == 0) {" s;
  (* post1 runs at the last (j, k) of the row *)
  check_contains "post1 guard" "if (j == ((long)N) - 1 && k == ((long)j) - 1) {" s;
  (* statement order: pres, body, posts *)
  let pos needle =
    let rec go i = if i + String.length needle > String.length s then -1
      else if String.sub s i (String.length needle) = needle then i else go (i + 1) in
    go 0
  in
  Alcotest.(check bool) "pre1 before body" true (pos "pre1" < pos "body(");
  Alcotest.(check bool) "body before post1" true (pos "body(" < pos "post1")

let test_imperfect_sink_arity () =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 } ]
  in
  Alcotest.check_raises "arity check"
    (Invalid_argument "Imperfect.sink: need pre/post statements for every non-innermost level")
    (fun () -> ignore (Imperfect.sink nest ~levels:[] ~innermost:[]))

let test_imperfect_collapse_shape () =
  let inv = Lazy.force correlation_inv in
  let s =
    C_print.to_string
      (Imperfect.collapse inv
         ~levels:[ { Imperfect.pre = [ C_ast.Raw "row_init(i);" ]; post = [] } ]
         ~innermost:[ C_ast.Raw "cell(i, j);" ])
  in
  check_contains "guarded pre inside collapsed loop" "if (j == (long)i + (long)1) {" s;
  check_contains "per-thread recovery" "first_iteration" s

let suites =
  [ ( "codegen.printer",
      [ Alcotest.test_case "statement structure" `Quick test_print_structure;
        Alcotest.test_case "indent" `Quick test_print_indent;
        Alcotest.test_case "multiline raw" `Quick test_print_multiline_raw ] );
    ( "codegen.schemes",
      [ Alcotest.test_case "trip count expression" `Quick test_trip_count_expr;
        Alcotest.test_case "naive (Fig. 3)" `Quick test_naive_scheme;
        Alcotest.test_case "per-thread (Fig. 4)" `Quick test_per_thread_scheme;
        Alcotest.test_case "chunked (§V)" `Quick test_chunked_scheme;
        Alcotest.test_case "simd (§VI-A)" `Quick test_simd_scheme;
        Alcotest.test_case "gpu warp (§VI-B)" `Quick test_gpu_scheme;
        Alcotest.test_case "original nest emission" `Quick test_original_emission;
        Alcotest.test_case "counter type override" `Quick test_counter_type_config;
        Alcotest.test_case "depth-3 incrementation" `Quick test_increment_stmts_depth3 ] );
    ( "codegen.imperfect",
      [ Alcotest.test_case "statement sinking guards" `Quick test_imperfect_sink;
        Alcotest.test_case "arity validation" `Quick test_imperfect_sink_arity;
        Alcotest.test_case "collapse composition" `Quick test_imperfect_collapse_shape ] ) ]
