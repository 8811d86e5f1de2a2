(* Quickstart: collapse the paper's motivating correlation nest
   (Figure 1) through the public API, inspect the mathematics, and emit
   the OpenMP C of Figures 3 and 4.

   Run with: dune exec examples/quickstart.exe *)

module A = Polymath.Affine
module Q = Zmath.Rat

let () =
  (* the nest of Fig. 1:
       for (i = 0; i < N-1; i++)
         for (j = i+1; j < N; j++)  ...                                *)
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = A.const Q.zero; upper = A.make [ ("N", Q.one) ] Q.minus_one };
        { var = "j"; lower = A.make [ ("i", Q.one) ] Q.one; upper = A.var "N" } ]
  in

  (* 1. the ranking Ehrhart polynomial and the collapsed trip count *)
  Printf.printf "ranking polynomial  r(i,j) = %s\n"
    (Polymath.Polynomial.to_string (Trahrhe.Ranking.ranking nest));
  Printf.printf "trip count          = %s\n\n"
    (Polymath.Polynomial.to_string (Trahrhe.Ranking.trip_count nest));

  (* 2. invert it: the paper's closed forms for each index *)
  let inv = Trahrhe.Inversion.invert_exn nest in
  let forms = Trahrhe.Closed_form.select_exn inv in
  Format.printf "%a@." Trahrhe.Closed_form.pp forms;

  (* 3. check the whole pipeline exhaustively at a small size *)
  let report = Trahrhe.Validate.check forms ~param:(fun _ -> 40) in
  Printf.printf "\nvalidation at N=40: %s\n\n"
    (if Trahrhe.Validate.all_ok report then "all recoveries exact on all 780 iterations"
     else "FAILED");

  (* 4. generate the OpenMP C of the paper's Figure 3 (naive) and
        Figure 4 (once-per-thread recovery + incrementation) *)
  let body =
    [ Codegen.C_ast.Raw "for (k = 0; k < N; k++) a[i][j] += b[k][i] * c[k][j];";
      Codegen.C_ast.Raw "a[j][i] = a[i][j];" ]
  in
  let config = { Codegen.Schemes.default_config with extra_private = [ "k" ]; paper = true } in
  print_endline "---- Figure 3: naive collapsed loop ----";
  print_string (Codegen.C_print.to_string (Codegen.Schemes.naive ~config inv ~body));
  print_endline "\n---- Figure 4: per-thread recovery ----";
  print_string (Codegen.C_print.to_string (Codegen.Schemes.per_thread ~config inv ~body));
  print_endline "\n---- the default output: the exact search, as the runtime recovers ----";
  print_string
    (Codegen.C_print.to_string
       (Codegen.Schemes.per_thread ~config:{ config with paper = false } inv ~body))
