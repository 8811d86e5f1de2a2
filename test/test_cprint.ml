(* C printer coverage (ISSUE 6): golden files pin the exact text the
   printer emits for each representative collapse scheme — any drift
   in indentation, parenthesization or statement layout shows up as a
   readable diff — and a gcc -fsyntax-only pass over schemes emitted
   for the oracle's random nests checks that everything the printer
   can produce is syntactically valid C, not just the shapes the
   goldens happen to cover. *)

module C = Codegen.C_ast
module S = Codegen.Schemes

let utma_inv =
  lazy
    (let k = Option.get (Kernels.Registry.find "utma") in
     (* goldens record closed-form C: pin past the forced-numeric shard *)
     match Trahrhe.Closed_form.invert ~force_numeric:false k.Kernels.Kernel.nest with
     | Ok forms -> forms
     | Error e ->
       Alcotest.failf "utma inversion failed: %s" (Trahrhe.Closed_form.error_to_string e))

let body = [ C.Raw "/* statements(indices) */;" ]

(* the same construction as [trahrhe emit], so a stale golden can be
   regenerated with the CLI:
     trahrhe emit -k utma --scheme SCHEME [--guarded] > test/golden/NAME.c *)
let emit_scheme ?(guarded = false) scheme =
  let inv = Lazy.force utma_inv in
  let config = { S.default_config with guarded } in
  let stmts =
    match scheme with
    | `Naive -> S.naive ~config inv ~body
    | `Per_thread -> S.per_thread ~config inv ~body
    | `Chunked chunk -> S.chunked ~config ~chunk inv ~body
    | `Simd vlength ->
      S.simd ~config ~vlength inv ~body_of:(fun subst ->
          [ C.Raw
              (Printf.sprintf "/* statements(%s) */;"
                 (String.concat ", "
                    (List.map subst
                       (Trahrhe.Nest.level_vars
                          inv.Trahrhe.Closed_form.inversion.Trahrhe.Inversion.nest))))
          ])
  in
  Codegen.C_print.to_string stmts

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name actual () =
  let path = Filename.concat "golden" (name ^ ".c") in
  let expected =
    try read_file path with Sys_error e -> Alcotest.failf "missing golden file: %s" e
  in
  if actual <> expected then begin
    (* park the actual output where a maintainer can diff and adopt it *)
    let dump = Filename.concat (Filename.get_temp_dir_name ()) (name ^ ".actual.c") in
    let oc = open_out_bin dump in
    output_string oc actual;
    close_out oc;
    Alcotest.failf "emitted C for %s drifted from %s (actual parked at %s)" name path dump
  end

(* ---- gcc -fsyntax-only over the oracle's random nests ---- *)

let gcc_available = lazy (Sys.command "gcc --version > /dev/null 2>&1" = 0)

(* every scheme for one nest, wrapped as its own function: iterators
   and pc are declared by the emitted code, only the parameter comes
   from outside *)
let functions_for buf idx inv =
  List.iteri
    (fun v (name, code) ->
      Buffer.add_string buf (Printf.sprintf "void nest_%d_%d(long N) {\n" idx v);
      Buffer.add_string buf code;
      Buffer.add_string buf "}\n\n";
      ignore name)
    [ ("naive", Codegen.C_print.to_string (S.naive inv ~body));
      ("per_thread", Codegen.C_print.to_string (S.per_thread inv ~body));
      ( "per_thread_guarded",
        Codegen.C_print.to_string
          (S.per_thread ~config:{ S.default_config with guarded = true } inv ~body) );
      ("chunked", Codegen.C_print.to_string (S.chunked ~chunk:4 inv ~body));
      ( "simd",
        Codegen.C_print.to_string
          (S.simd ~vlength:4 inv ~body_of:(fun subst ->
               [ C.Raw
                   (Printf.sprintf "/* statements(%s) */;"
                      (String.concat ", "
                         (List.map subst
                            (Trahrhe.Nest.level_vars
                               inv.Trahrhe.Closed_form.inversion.Trahrhe.Inversion.nest))))
               ])) )
    ]

let test_syntax_random_nests () =
  if not (Lazy.force gcc_available) then Alcotest.skip ();
  let rand = Random.State.make [| 0xc9012de7 |] in
  (* the printers' cases: nests whose closed forms select *)
  let inverts nest = Result.is_ok (Trahrhe.Closed_form.invert nest) in
  let cases = QCheck.Gen.generate ~n:15 ~rand (Test_oracle.gen_case_by ~inverts) in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "#include <math.h>\n#include <complex.h>\n\n";
  List.iteri
    (fun idx (nest, _) ->
      match Trahrhe.Closed_form.invert nest with
      | Error e ->
        Alcotest.failf "inversion failed on the oracle nest %a: %s" Trahrhe.Nest.pp nest
          (Trahrhe.Closed_form.error_to_string e)
      | Ok inv -> functions_for buf idx inv)
    cases;
  let dir = Filename.temp_file "cprint" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      let cfile = Filename.concat dir "schemes.c" in
      let oc = open_out cfile in
      output_string oc (Buffer.contents buf);
      close_out oc;
      let log = Filename.concat dir "gcc.log" in
      let status =
        Sys.command
          (Printf.sprintf "gcc -fopenmp -fsyntax-only -Werror=implicit-function-declaration %s 2>%s"
             (Filename.quote cfile) (Filename.quote log))
      in
      if status <> 0 then begin
        let err = try read_file log with Sys_error _ -> "" in
        Alcotest.failf "gcc -fsyntax-only rejected emitted schemes (%d nests):\n%s"
          (List.length cases)
          (String.sub err 0 (min 2000 (String.length err)))
      end)

let suites =
  [ ( "codegen.c_print",
      [ Alcotest.test_case "golden: naive scheme" `Quick
          (fun () -> check_golden "utma_naive" (emit_scheme `Naive) ());
        Alcotest.test_case "golden: per-thread scheme" `Quick
          (fun () -> check_golden "utma_per_thread" (emit_scheme `Per_thread) ());
        Alcotest.test_case "golden: per-thread guarded" `Quick
          (fun () -> check_golden "utma_per_thread_guarded" (emit_scheme ~guarded:true `Per_thread) ());
        Alcotest.test_case "golden: chunked:4 scheme" `Quick
          (fun () -> check_golden "utma_chunked4" (emit_scheme (`Chunked 4)) ());
        Alcotest.test_case "golden: simd:4 scheme" `Quick
          (fun () -> check_golden "utma_simd4" (emit_scheme (`Simd 4)) ());
        Alcotest.test_case "gcc -fsyntax-only over oracle nests" `Quick
          test_syntax_random_nests ] ) ]
