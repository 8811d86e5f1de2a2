(* Source-to-source use of the tool: feed it a C fragment in which a
   non-rectangular nest carries an OpenMP collapse clause (which gcc
   rejects!), and print the legally collapsed rewrite.

   Run with: dune exec examples/source_to_source.exe *)

let source =
  {|#include <math.h>
#define N 1000
double a[N][N];

void kernel(void) {
  long i, j;
  /* gcc: error: 'schedule' clause may not appear on non-rectangular 'for' */
  #pragma omp parallel for schedule(static) collapse(2)
  for (i = 0; i < N; i++)
    for (j = i; j < N; j++)
      a[i][j] = a[i][j] * 0.5 + 1.0;
}
|}

let () =
  print_endline "================ input ================";
  print_string source;
  List.iter
    (fun (label, options) ->
      Printf.printf "\n================ %s ================\n" label;
      let out, count = Cfront.Transform.transform_source ~options source in
      assert (count = 1);
      print_string out)
    [ ( "per-thread recovery (default)",
        Cfront.Transform.default_options );
      ( "chunked recovery, the paper's closed forms (raw floor)",
        { Cfront.Transform.default_options with
          scheme = Cfront.Transform.Chunked 256;
          paper = true } );
      ( "SIMD scheme (vlength 8)",
        { Cfront.Transform.default_options with scheme = Cfront.Transform.Simd 8 } ) ]
