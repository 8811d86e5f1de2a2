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
  lazy (Kernels.Kernel.inversion (Option.get (Kernels.Registry.find "utma")))

let body = [ C.Raw "/* statements(indices) */;" ]

(* the same construction as [trahrhe emit], so a stale golden can be
   regenerated with the CLI:
     trahrhe emit -k utma --scheme SCHEME [--paper] > test/golden/NAME.c
   The paper-mode goldens pin the paper's closed forms (Figures 3/4),
   the search golden the default exact recovery. *)
let emit_scheme ?(paper = true) scheme =
  let inv = Lazy.force utma_inv in
  let config = { S.default_config with paper } in
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
                    (List.map subst (Trahrhe.Nest.level_vars inv.Trahrhe.Inversion.nest))))
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

(* every scheme for one nest, each wrapped as its own function:
   iterators and pc are declared by the emitted code, only the
   parameter comes from outside. Paper mode adds its per-thread scheme
   when the closed forms select. *)
let functions_for buf idx inv =
  let paper = { S.default_config with paper = true } in
  let body_of subst =
    [ C.Raw
        (Printf.sprintf "/* statements(%s) */;"
           (String.concat ", " (List.map subst (Trahrhe.Nest.level_vars inv.Trahrhe.Inversion.nest))))
    ]
  in
  let paper_fn =
    match Trahrhe.Closed_form.select inv with
    | Error _ -> []
    | Ok _ -> [ S.per_thread ~config:paper inv ~body ]
  in
  List.iteri
    (fun v stmts ->
      Buffer.add_string buf (Printf.sprintf "void nest_%d_%d(long N) {\n" idx v);
      Buffer.add_string buf (Codegen.C_print.to_string stmts);
      Buffer.add_string buf "}\n\n")
    ([ S.naive inv ~body; S.per_thread inv ~body; S.chunked ~chunk:4 inv ~body;
       S.simd ~vlength:4 inv ~body_of ]
    @ paper_fn)

let test_syntax_random_nests () =
  if not (Lazy.force gcc_available) then Alcotest.skip ();
  let rand = Random.State.make [| 0xc9012de7 |] in
  let cases = QCheck.Gen.generate ~n:15 ~rand Test_oracle.gen_case in
  let buf = Buffer.create 65536 in
  List.iteri (fun idx (nest, _) -> functions_for buf idx (Trahrhe.Inversion.invert_exn nest)) cases;
  let dir = Filename.temp_file "cprint" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () ->
      let cfile = Filename.concat dir "schemes.c" in
      let oc = open_out cfile in
      output_string oc ("#include <math.h>\n#include <complex.h>\n\n" ^ Buffer.contents buf);
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
        Alcotest.test_case "golden: per-thread search" `Quick
          (fun () -> check_golden "utma_per_thread_search" (emit_scheme ~paper:false `Per_thread) ());
        Alcotest.test_case "golden: chunked:4 scheme" `Quick
          (fun () -> check_golden "utma_chunked4" (emit_scheme (`Chunked 4)) ());
        Alcotest.test_case "golden: simd:4 scheme" `Quick
          (fun () -> check_golden "utma_simd4" (emit_scheme (`Simd 4)) ());
        Alcotest.test_case "gcc -fsyntax-only over oracle nests" `Quick
          test_syntax_random_nests ] ) ]
