(* End-to-end integration: transform real C sources with the front-end,
   compile original and collapsed programs with gcc -fopenmp, run both,
   and compare outputs. Skipped when no C compiler is available. *)

let gcc_available =
  lazy (Sys.command "gcc --version > /dev/null 2>&1" = 0)

let require_gcc () =
  if not (Lazy.force gcc_available) then Alcotest.skip ()

let find_cli () =
  let base = Filename.dirname Sys.executable_name in
  List.find_opt Sys.file_exists
    [ Filename.concat base "../bin/trahrhe.exe";
      Filename.concat base "../../default/bin/trahrhe.exe";
      "_build/default/bin/trahrhe.exe" ]

let with_temp_dir f =
  let dir = Filename.temp_file "nonrect" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir))) (fun () -> f dir)

let contains text sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length text && (String.sub text i n = sub || go (i + 1)) in
  go 0

(* [flags] follow the sources on gcc's command line; [env] prefixes
   the run *)
let compile_and_run ?(flags = "-lm") ?(env = "") dir name src =
  let cfile = Filename.concat dir (name ^ ".c") in
  let exe = Filename.concat dir name in
  let oc = open_out cfile in
  output_string oc src;
  close_out oc;
  let log = Filename.concat dir (name ^ ".log") in
  if
    Sys.command
      (Printf.sprintf "gcc -O2 -fopenmp %s -o %s %s > %s 2>&1" (Filename.quote cfile)
         (Filename.quote exe) flags (Filename.quote log))
    <> 0
  then begin
    let ic = open_in log in
    let err = really_input_string ic (min 2000 (in_channel_length ic)) in
    close_in ic;
    Alcotest.failf "gcc failed on %s:\n%s" name err
  end;
  let ic = Unix.open_process_in (env ^ Filename.quote exe) in
  let out = input_line ic in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s exited abnormally" name);
  out

(* program template: checksum of a triangular update printed on stdout;
   LOOP is replaced by the parallel construct under test *)
let template ~n ~loop =
  Printf.sprintf
    {|#include <stdio.h>
#include <math.h>
#include <complex.h>
#define N %d
static double a[N][N], b[N][N], c[N][N];
int main(void) {
  long i, j, k;
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++) { b[i][j] = (double)((i*7 + j) %% 13) / 3.0; c[i][j] = (double)((i - 2*j) %% 11) / 5.0; }
%s
  double h = 0.0;
  for (i = 0; i < N; i++) for (j = 0; j < N; j++) h += a[i][j] * (double)(i + 2*j + 1);
  printf("%%.12e\n", h);
  return 0;
}
|}
    n loop

let correlation_loop ~with_collapse =
  Printf.sprintf
    {|  #pragma omp parallel for private(j, k) schedule(static)%s
  for (i = 0; i < N - 1; i++)
    for (j = i + 1; j < N; j++) {
      for (k = 0; k < N; k++)
        a[i][j] += b[k][i] * c[k][j];
      a[j][i] = a[i][j];
    }
|}
    (if with_collapse then " collapse(2)" else "")

let transform options =
  let src = template ~n:67 ~loop:(correlation_loop ~with_collapse:true) in
  let out, count = Cfront.Transform.transform_source ~options src in
  Alcotest.(check int) "one region" 1 count;
  out

(* nests with empty rows: k = j..i-1 is empty at j = i, and the l level
   below it makes that an empty middle row. An incrementation that
   steps onto an empty row runs the body outside the nest. Each
   iteration writes its own cell, so any thread split gives one sum.
   i starts at 1: a wholly empty i = 0 slice is not what these test. *)
let empty_row_template ~loop =
  Printf.sprintf
    {|#include <stdio.h>
#include <math.h>
#include <complex.h>
#define N 9
static long a[N][N][N][3];
int main(void) {
  long i, j, k, l;
%s
  long h = 0;
  for (i = 0; i < N; i++) for (j = 0; j < N; j++) for (k = 0; k < N; k++) for (l = 0; l < 3; l++)
    h += a[i][j][k][l] * (i * 1000003 + j * 1009 + k * 31 + l + 1);
  printf("%%ld\n", h);
  return 0;
}
|}
    loop

let empty_row_loops =
  [ ( "d3",
      3,
      {|  for (i = 1; i < N; i++)
    for (j = 0; j < i + 1; j++)
      for (k = j; k < i; k++)
        a[i][j][k][0] += 1 + i * 100 + j * 10 + k;
|} );
    ( "d4",
      4,
      {|  for (i = 1; i < N; i++)
    for (j = 0; j < i + 1; j++)
      for (k = j; k < i; k++)
        for (l = 0; l < 3; l++)
          a[i][j][k][l] += 1 + i * 1000 + j * 100 + k * 10 + l;
|} ) ]

let test_scheme options name () =
  require_gcc ();
  with_temp_dir (fun dir ->
      let reference =
        compile_and_run dir "reference" (template ~n:67 ~loop:(correlation_loop ~with_collapse:false))
      in
      let collapsed = compile_and_run dir name (transform options) in
      Alcotest.(check string) (name ^ " output matches") reference collapsed;
      (* the empty-row nests in the default, exact recovery: their
         paper closed forms are not float-exact at every rank *)
      let options = { options with Cfront.Transform.paper = false } in
      List.iter
        (fun (tag, depth, loop) ->
          let reference = compile_and_run dir (tag ^ "_ref") (empty_row_template ~loop) in
          let src =
            empty_row_template
              ~loop:
                (Printf.sprintf "  #pragma omp parallel for schedule(static) collapse(%d)\n%s"
                   depth loop)
          in
          let out, count = Cfront.Transform.transform_source ~options src in
          Alcotest.(check int) "one region" 1 count;
          let got = compile_and_run dir (name ^ "_" ^ tag) out in
          Alcotest.(check string) (Printf.sprintf "%s %s empty rows" name tag) reference got)
        empty_row_loops)

let test_fig6_complex_roots () =
  require_gcc ();
  (* depth-3 nest whose recovery uses cpow/csqrt/creal in the C *)
  let loop_orig =
    {|  for (i = 0; i < N - 1; i++)
    for (j = 0; j < i + 1; j++)
      for (k = j; k < i + 1; k++)
        a[i][j] += b[j][k] + c[k][j];
|}
  in
  let loop_collapse =
    {|  #pragma omp parallel for schedule(static) collapse(3)
  for (i = 0; i < N - 1; i++)
    for (j = 0; j < i + 1; j++)
      for (k = j; k < i + 1; k++)
        a[i][j] += b[j][k] + c[k][j];
|}
  in
  with_temp_dir (fun dir ->
      let reference = compile_and_run dir "fig6_ref" (template ~n:41 ~loop:loop_orig) in
      let options = { Cfront.Transform.default_options with paper = true } in
      let out, count =
        Cfront.Transform.transform_source ~options (template ~n:41 ~loop:loop_collapse)
      in
      Alcotest.(check int) "one region" 1 count;
      Alcotest.(check bool) "uses complex recovery" true (contains out "cpow");
      let collapsed = compile_and_run dir "fig6_coll" out in
      Alcotest.(check string) "fig6 output matches" reference collapsed)

let test_cli_collapse () =
  require_gcc ();
  (* exercise the CLI binary end to end *)
  let cli = match find_cli () with Some c -> c | None -> Alcotest.skip () in
  with_temp_dir (fun dir ->
      let input = Filename.concat dir "in.c" in
      let output = Filename.concat dir "out.c" in
      let oc = open_out input in
      output_string oc (template ~n:31 ~loop:(correlation_loop ~with_collapse:true));
      close_out oc;
      let rc =
        Sys.command
          (Printf.sprintf "%s collapse %s -o %s --scheme chunked:64 2> /dev/null" cli
             (Filename.quote input) (Filename.quote output))
      in
      Alcotest.(check int) "cli exit 0" 0 rc;
      let reference =
        compile_and_run dir "cli_ref" (template ~n:31 ~loop:(correlation_loop ~with_collapse:false))
      in
      let ic = open_in output in
      let transformed = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let got = compile_and_run dir "cli_out" transformed in
      Alcotest.(check string) "cli output matches" reference got)

let test_strided_nest () =
  require_gcc ();
  (* stride-4 outer loop: normalized onto a surrogate iterator *)
  let loop_orig =
    {|  for (i = 0; i < 4 * N; i += 4)
    for (j = i; j < 4 * N; j++)
      a[i % N][j % N] += b[j % N][i % N] + 1.0;
|}
  in
  let loop_collapse =
    {|  #pragma omp parallel for schedule(static) collapse(2)
  for (i = 0; i < 4 * N; i += 4)
    for (j = i; j < 4 * N; j++)
      a[i % N][j % N] += b[j % N][i % N] + 1.0;
|}
  in
  with_temp_dir (fun dir ->
      let reference = compile_and_run dir "strided_ref" (template ~n:45 ~loop:loop_orig) in
      let out, count = Cfront.Transform.transform_source (template ~n:45 ~loop:loop_collapse) in
      Alcotest.(check int) "one region" 1 count;
      let got = compile_and_run dir "strided_coll" out in
      Alcotest.(check string) "strided output matches" reference got)

let test_reshape_c () =
  require_gcc ();
  (* execute a triangular source through a rectangular target nest *)
  let module A = Polymath.Affine in
  let module Q = Zmath.Rat in
  let aff terms c = A.make (List.map (fun (v, k) -> (v, Q.of_int k)) terms) (Q.of_int c) in
  let source =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] (-1) };
        { var = "j"; lower = aff [ ("i", 1) ] 1; upper = aff [ ("N", 1) ] 0 } ]
  in
  let target =
    Trahrhe.Nest.make ~params:[ "A"; "B" ]
      [ { var = "x"; lower = aff [] 0; upper = aff [ ("A", 1) ] 0 };
        { var = "y"; lower = aff [] 0; upper = aff [ ("B", 1) ] 0 } ]
  in
  let r =
    Trahrhe.Reshape.make
      ~source:(Trahrhe.Inversion.invert_exn source)
      ~target:(Trahrhe.Inversion.invert_exn target)
  in
  (* N=65 -> 2080 = 32 x 65 *)
  let loop_reshaped =
    Codegen.C_print.to_string ~indent:1
      (Codegen.Xforms.reshape r
         ~body:[ Codegen.C_ast.Raw "a[i][j] += b[j][i] + 1.0; a[j][i] = a[i][j];" ])
  in
  let loop_orig =
    {|  for (i = 0; i < N - 1; i++)
    for (j = i + 1; j < N; j++) {
      a[i][j] += b[j][i] + 1.0; a[j][i] = a[i][j];
    }
|}
  in
  with_temp_dir (fun dir ->
      let reference = compile_and_run dir "reshape_ref" (template ~n:65 ~loop:loop_orig) in
      let prog =
        template ~n:65
          ~loop:("#define A 32\n#define B 65\n  {\n" ^ loop_reshaped ^ "  }\n#undef A\n#undef B\n")
      in
      let got = compile_and_run dir "reshape_tgt" prog in
      Alcotest.(check string) "reshaped output matches" reference got)

let test_fused_c () =
  require_gcc ();
  (* fuse a triangular and a rhomboidal nest into one parallel loop *)
  let module A = Polymath.Affine in
  let module Q = Zmath.Rat in
  let aff terms c = A.make (List.map (fun (v, k) -> (v, Q.of_int k)) terms) (Q.of_int c) in
  let tri =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  let rhomb =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "u"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "v"; lower = aff [ ("u", 1) ] 0; upper = aff [ ("u", 1); ("N", 1) ] 0 } ]
  in
  let fu =
    Trahrhe.Fusion.fuse [ Trahrhe.Inversion.invert_exn tri; Trahrhe.Inversion.invert_exn rhomb ]
  in
  (* fused segments run concurrently in one parallel loop, so they
     must be independent (Fusion's precondition): the rhomboid writes
     its own array [r], folded into the printed checksum after the
     region in both programs *)
  let loop_fused paper =
    Codegen.C_print.to_string ~indent:1
      (Codegen.Xforms.fused ~config:{ Codegen.Schemes.default_config with paper } fu
         ~bodies:
           [ [ Codegen.C_ast.Raw "a[i][j] += 1.0;" ];
             [ Codegen.C_ast.Raw "r[u % N][v % N] += 2.0;" ] ])
  in
  let loop_orig =
    {|  for (i = 0; i < N; i++)
    for (j = i; j < N; j++)
      a[i][j] += 1.0;
  for (i = 0; i < N; i++)
    for (j = i; j < i + N; j++)
      r[i % N][j % N] += 2.0;
|}
  in
  let with_r loop =
    "  {\n  static double r[N][N];\n" ^ loop
    ^ "  for (i = 0; i < N; i++) for (j = 0; j < N; j++) a[i][j] += 3.0 * r[i][j];\n  }\n"
  in
  with_temp_dir (fun dir ->
      let reference = compile_and_run dir "fused_ref" (template ~n:57 ~loop:(with_r loop_orig)) in
      (* each segment recovers from its local rank, in both modes *)
      List.iter
        (fun paper ->
          let loop = "  {\n" ^ loop_fused paper ^ "  }\n" in
          let got = compile_and_run dir "fused_got" (template ~n:57 ~loop:(with_r loop)) in
          Alcotest.(check string) (Printf.sprintf "fused output matches (paper %b)" paper) reference
            got)
        [ false; true ])

let test_imperfect_c () =
  require_gcc ();
  (* imperfect nest: per-row init and finalize statements sunk into a
     guarded perfect body, then collapsed *)
  let module A = Polymath.Affine in
  let module Q = Zmath.Rat in
  let aff terms c = A.make (List.map (fun (v, k) -> (v, Q.of_int k)) terms) (Q.of_int c) in
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] (-1) };
        { var = "j"; lower = aff [ ("i", 1) ] 1; upper = aff [ ("N", 1) ] 0 } ]
  in
  let inv = Trahrhe.Inversion.invert_exn nest in
  let loop_orig =
    {|  for (i = 0; i < N - 1; i++) {
    a[i][i] = 7.0;
    for (j = i + 1; j < N; j++)
      a[i][j] += b[j][i] + 1.0;
    a[i][0] += a[i][N - 1];
  }
|}
  in
  let collapsed =
    Codegen.C_print.to_string ~indent:1
      (Codegen.Imperfect.collapse inv
         ~levels:
           [ { Codegen.Imperfect.pre = [ Codegen.C_ast.Raw "a[i][i] = 7.0;" ];
               post = [ Codegen.C_ast.Raw "a[i][0] += a[i][N - 1];" ] } ]
         ~innermost:[ Codegen.C_ast.Raw "a[i][j] += b[j][i] + 1.0;" ])
  in
  with_temp_dir (fun dir ->
      let reference = compile_and_run dir "imperf_ref" (template ~n:63 ~loop:loop_orig) in
      let got =
        compile_and_run dir "imperf_got" (template ~n:63 ~loop:("  {\n" ^ collapsed ^ "  }\n"))
      in
      Alcotest.(check string) "imperfect output matches" reference got)

let test_cli_smoke () =
  (* every subcommand must run cleanly on a built-in kernel *)
  let cli = match find_cli () with Some c -> c | None -> Alcotest.skip () in
  List.iter
    (fun args ->
      let rc = Sys.command (Printf.sprintf "%s %s > /dev/null 2>&1" cli args) in
      Alcotest.(check int) ("trahrhe " ^ args) 0 rc)
    [ "kernels";
      "info --kernel correlation";
      "info --kernel symm";
      "validate --kernel ltmp --size 12";
      "simulate --kernel utma -n 200 --threads 8";
      "emit --kernel correlation --scheme naive";
      "emit --kernel dynprog --scheme simd:8 --paper" ];
  (* failures must exit nonzero *)
  List.iter
    (fun args ->
      let rc = Sys.command (Printf.sprintf "%s %s > /dev/null 2>&1" cli args) in
      Alcotest.(check bool) ("trahrhe " ^ args ^ " fails") true (rc <> 0))
    [ "info --kernel no_such_kernel"; "emit"; "simulate" ];
  (* a trip count beyond the native int range is reported, not raised
     (an uncaught exception would exit 125) *)
  Alcotest.(check int) "trahrhe exec past the int range exits 1" 1
    (Sys.command (Printf.sprintf "%s exec --kernel utma -n 10000000000 -t 1 > /dev/null 2>&1" cli))

let test_cli_validate_raw_floor () =
  (* the canonical tetrahedron at N = 10: the raw closed form that
     collapse --paper emits misses 6/220 ranks, so validate fails *)
  let cli = match find_cli () with Some c -> c | None -> Alcotest.skip () in
  with_temp_dir (fun dir ->
      let input = Filename.concat dir "tetra.c" in
      let out = Filename.concat dir "validate.out" in
      let oc = open_out input in
      output_string oc
        {|void f(int N, double *a) {
  int i, j, k;
#pragma omp parallel for collapse(3)
  for (i = 0; i < N; i++)
    for (j = i; j < N; j++)
      for (k = j; k < N; k++)
        a[k] += 1.0;
}
|};
      close_out oc;
      let rc =
        Sys.command
          (Printf.sprintf "%s validate %s --size 10 > %s 2>&1" cli
             (Filename.quote input) (Filename.quote out))
      in
      Alcotest.(check int) "validate exits 1" 1 rc;
      let ic = open_in out in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "miss count printed" true (contains text "closed form missed 6/220");
      Alcotest.(check bool) "recover exact" true (contains text "recover ok: 220/220"))

let test_tiled_collapse_c () =
  require_gcc ();
  (* Pluto-lite: tile the triangle, collapse the tile loops, keep
     min/max intra-tile loops — the paper's "tiled" kernels *)
  let module A = Polymath.Affine in
  let module Q = Zmath.Rat in
  let aff terms c = A.make (List.map (fun (v, k) -> (v, Q.of_int k)) terms) (Q.of_int c) in
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  let tl = Looptrans.Tile.tile nest ~size:16 in
  let collapsed =
    Codegen.C_print.to_string ~indent:1
      (Looptrans.Tile.collapse_tiles tl
         ~body:[ Codegen.C_ast.Raw "a[i][j] += b[j][i] + 1.0;" ])
  in
  let loop_orig =
    {|  for (i = 0; i < N; i++)
    for (j = i; j < N; j++)
      a[i][j] += b[j][i] + 1.0;
|}
  in
  (* N = 64: a multiple of the tile size, as the model assumes *)
  with_temp_dir (fun dir ->
      let reference = compile_and_run dir "tiled_ref" (template ~n:64 ~loop:loop_orig) in
      let got =
        compile_and_run dir "tiled_got" (template ~n:64 ~loop:("  {\n" ^ collapsed ^ "  }\n"))
      in
      Alcotest.(check string) "tiled output matches" reference got)

(* ---- gcc differential oracle for the printed recovery ---- *)

let oracle_schemes =
  Cfront.Transform.
    [ ("naive", Naive); ("per-thread", Per_thread); ("chunked:7", Chunked 7); ("simd:4", Simd 4) ]

(* One program per nest at N = [n]: each scheme's default collapse
   counts its visits per cell, then a serial walk of the original nest
   counts the cells not visited exactly once, and any visit outside
   the nest. Indices lie in [BASE, BASE + BOX); one out of it lands in
   a spill cell. The program includes no header and links no -lm. *)
let cell_count_program (nest, n) =
  let vars = Trahrhe.Nest.level_vars nest in
  let base = ref max_int and top = ref min_int in
  Trahrhe.Nest.iterate nest ~param:(fun _ -> n) (fun idx ->
      Array.iter (fun v -> base := min !base v; top := max !top v) idx);
  let args = String.concat ", " vars in
  let decls = Printf.sprintf "  long %s;\n" args in
  let loops = Format.asprintf "%a" Trahrhe.Nest.pp nest in
  let collapsed k (_, scheme) =
    let src =
      Printf.sprintf
        "static void run_%d(void) {\n%s#pragma omp parallel for collapse(%d)\n%s  cnt[cell(%s)]++;\n}\n"
        k decls (List.length vars) loops args
    in
    let out, count =
      Cfront.Transform.transform_source
        ~options:{ Cfront.Transform.default_options with scheme }
        src
    in
    Alcotest.(check int) "one region" 1 count;
    out
  in
  String.concat ""
    ([ Printf.sprintf "#define N %d\n#define BASE %d\n#define BOX %d\n#define CELLS (%s)\n" n
         !base (!top - !base + 1)
         (String.concat " * " (List.map (fun _ -> "BOX") vars));
       "static int cnt[CELLS + 1];\n";
       Printf.sprintf "static long cell(%s) {\n%s  if (%s) return CELLS;\n  return %s;\n}\n"
         (String.concat ", " (List.map (( ^ ) "long ") vars))
         (String.concat "" (List.map (fun v -> Printf.sprintf "  %s -= BASE;\n" v) vars))
         (String.concat " || " (List.map (fun v -> Printf.sprintf "%s < 0 || %s >= BOX" v v) vars))
         (List.fold_left (Printf.sprintf "(%s) * BOX + %s") (List.hd vars) (List.tl vars));
       Printf.sprintf
         "static long check(void) {\n  long bad = 0, c;\n%s%s\
         \  { c = cell(%s); bad += cnt[c] != 1; cnt[c] = 0; }\n\
         \  for (c = 0; c <= CELLS; c++) { bad += cnt[c] != 0; cnt[c] = 0; }\n  return bad;\n}\n"
         decls loops args ]
    @ List.mapi collapsed oracle_schemes
    @ [ "int printf(const char *, ...);\nint main(void) {\n";
        String.concat ""
          (List.mapi
             (fun k (name, _) ->
               Printf.sprintf "  run_%d();\n  printf(\"%s%s=%%ld\", check());\n" k
                 (if k = 0 then "" else " ")
                 name)
             oracle_schemes);
        "  printf(\"\\n\");\n  return 0;\n}\n" ])

(* with [refusable], the printers may refuse the nest; what they print
   must still be exact *)
let check_printed_recovery ?(refusable = false) cases =
  require_gcc ();
  let expected =
    String.concat " " (List.map (fun (name, _) -> name ^ "=0") oracle_schemes)
  in
  with_temp_dir (fun dir ->
      List.iteri
        (fun idx (what, case) ->
          match cell_count_program case with
          | exception Failure _ when refusable -> ()
          | program ->
            let got =
              compile_and_run dir (Printf.sprintf "cells_%d" idx)
                ~flags:"-Werror=implicit-function-declaration" ~env:"OMP_NUM_THREADS=2 " program
            in
            Alcotest.(check string) (what ^ ": cells not visited once") expected got)
        cases)

let tetrahedron () =
  let module A = Polymath.Affine in
  Trahrhe.Nest.make ~params:[ "N" ]
    [ { var = "i"; lower = A.const Zmath.Rat.zero; upper = A.var "N" };
      { var = "j"; lower = A.var "i"; upper = A.var "N" };
      { var = "k"; lower = A.var "j"; upper = A.var "N" } ]

(* i in [s, N+s), j in [i, N+s) *)
let shifted_triangle s =
  let module A = Polymath.Affine in
  let up = A.add_const (Zmath.Rat.of_int s) (A.var "N") in
  Trahrhe.Nest.make ~params:[ "N" ]
    [ { var = "i"; lower = A.const (Zmath.Rat.of_int s); upper = up };
      { var = "j"; lower = A.var "i"; upper = up } ]

(* 20 of the runtime oracle's nests (any nest that inverts; rectangular
   ones are left to OpenMP's own collapse, so they print no recovery),
   the canonical tetrahedron past the size where the paper's raw floor
   misses ranks, an empty-row shape, and a triangle shifted by 10^9,
   whose printed ranking reaches 4*10^18. Shifted by 10^12 its ranking
   leaves a 64-bit counter: the printers refuse it, and a print would
   have to be exact. *)
let test_gcc_oracle () =
  let module A = Polymath.Affine in
  let module Q = Zmath.Rat in
  let empty_rows =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = A.const Q.one; upper = A.var "N" };
        { var = "j"; lower = A.const Q.zero; upper = A.add_const Q.one (A.var "i") };
        { var = "k"; lower = A.var "j"; upper = A.var "i" };
        { var = "l"; lower = A.const Q.zero; upper = A.const (Q.of_int 3) } ]
  in
  let rand = Random.State.make [| 0x6cc0a7e |] in
  let drawn =
    QCheck.Gen.generate ~n:60 ~rand Test_oracle.gen_case
    |> List.filter (fun (nest, _) -> not (Trahrhe.Nest.is_rectangular nest))
    |> List.filteri (fun i _ -> i < 20)
    |> List.map (fun case -> (Test_oracle.print_case case, case))
  in
  Alcotest.(check int) "non-rectangular draws" 20 (List.length drawn);
  check_printed_recovery
    (("tetrahedron N=150", (tetrahedron (), 150))
    :: ("empty rows N=9", (empty_rows, 9))
    :: ("triangle shifted by 10^9, N=20", (shifted_triangle 1_000_000_000, 20))
    :: drawn);
  check_printed_recovery ~refusable:true
    [ ("triangle shifted by 10^12, N=20", (shifted_triangle 1_000_000_000_000, 20)) ]

(* i in [0,N+2), j in [i+1,2i+2), k in [j,2i+1), l in [0,2): the
   forced-numeric selection refused it; the default prints it *)
let test_gcc_staircase_nest () =
  let module A = Polymath.Affine in
  let module Q = Zmath.Rat in
  let twice_i c = A.make [ ("i", Q.of_int 2) ] (Q.of_int c) in
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = A.const Q.zero; upper = A.add_const (Q.of_int 2) (A.var "N") };
        { var = "j"; lower = A.add_const Q.one (A.var "i"); upper = twice_i 2 };
        { var = "k"; lower = A.var "j"; upper = twice_i 1 };
        { var = "l"; lower = A.const Q.zero; upper = A.const (Q.of_int 2) } ]
  in
  check_printed_recovery [ ("staircase N=9", (nest, 9)) ]

(* the default recovery needs no header; paper mode includes what its
   closed forms call, once, at the top of the file *)
let test_collapse_headers () =
  require_gcc ();
  let src =
    {|void f(int N, double *a) {
  int i, j, k;
#pragma omp parallel for collapse(3)
  for (i = 0; i < N; i++)
    for (j = i; j < N; j++)
      for (k = j; k < N; k++)
        a[k] += 1.0;
}
|}
  in
  with_temp_dir (fun dir ->
      List.iter
        (fun (mode, paper) ->
          let out, count =
            Cfront.Transform.transform_source
              ~options:{ Cfront.Transform.default_options with paper }
              src
          in
          Alcotest.(check int) "one region" 1 count;
          List.iter
            (fun name ->
              Alcotest.(check bool) (mode ^ " calls " ^ name) paper (contains out (name ^ "(")))
            [ "floor"; "cpow"; "creal" ];
          Alcotest.(check bool) (mode ^ " includes complex.h") paper
            (String.starts_with ~prefix:"#include <math.h>\n#include <complex.h>\n" out);
          let cfile = Filename.concat dir (mode ^ ".c") in
          let oc = open_out cfile in
          output_string oc out;
          close_out oc;
          Alcotest.(check int) (mode ^ " compiles") 0
            (Sys.command
               (Printf.sprintf
                  "gcc -fopenmp -c -Werror=implicit-function-declaration %s -o %s.o > /dev/null 2>&1"
                  (Filename.quote cfile) (Filename.quote cfile))))
        [ ("default", false); ("paper", true) ])

let suites =
  [ ( "integration.gcc",
      [ Alcotest.test_case "naive scheme vs reference" `Slow
          (test_scheme
             { Cfront.Transform.default_options with scheme = Cfront.Transform.Naive }
             "naive");
        Alcotest.test_case "per-thread scheme vs reference" `Slow
          (test_scheme Cfront.Transform.default_options "per_thread");
        Alcotest.test_case "chunked scheme vs reference" `Slow
          (test_scheme
             { Cfront.Transform.default_options with scheme = Cfront.Transform.Chunked 32 }
             "chunked");
        Alcotest.test_case "simd scheme vs reference" `Slow
          (test_scheme
             { Cfront.Transform.default_options with scheme = Cfront.Transform.Simd 4 }
             "simd");
        Alcotest.test_case "paper scheme vs reference" `Slow
          (test_scheme { Cfront.Transform.default_options with paper = true } "paper");
        Alcotest.test_case "3-depth complex roots vs reference" `Slow test_fig6_complex_roots;
        Alcotest.test_case "strided nest vs reference" `Slow test_strided_nest;
        Alcotest.test_case "reshaped nest vs reference" `Slow test_reshape_c;
        Alcotest.test_case "fused nests vs reference" `Slow test_fused_c;
        Alcotest.test_case "imperfect nest vs reference" `Slow test_imperfect_c;
        Alcotest.test_case "tiled collapse vs reference" `Slow test_tiled_collapse_c;
        Alcotest.test_case "CLI subcommand smoke" `Slow test_cli_smoke;
        Alcotest.test_case "CLI collapse round trip" `Slow test_cli_collapse;
        Alcotest.test_case "CLI validate fails on raw-floor misses" `Slow
          test_cli_validate_raw_floor;
        Alcotest.test_case "collapse headers: none by default, paper's own" `Slow
          test_collapse_headers;
        Alcotest.test_case "gcc oracle: printed search = serial (24 nests)" `Slow test_gcc_oracle;
        Alcotest.test_case "gcc oracle: staircase nest j=i+1..2i+2" `Slow
          test_gcc_staircase_nest ] ) ]
