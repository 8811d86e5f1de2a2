(* The paper's 3-depth example (Figures 6-8): a tetrahedral nest whose
   outermost index needs a *cubic* root that transits through complex
   arithmetic — pc = 1 makes the discriminant negative even though the
   final value is the real number 0 (paper §IV-C).

   Run with: dune exec examples/triangular_3d.exe *)

module A = Polymath.Affine
module Q = Zmath.Rat
module P = Polymath.Polynomial

let () =
  (* for (i = 0; i < N-1; i++)
       for (j = 0; j < i+1; j++)
         for (k = j; k < i+1; k++) S(i,j,k);                           *)
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = A.const Q.zero; upper = A.make [ ("N", Q.one) ] Q.minus_one };
        { var = "j"; lower = A.const Q.zero; upper = A.make [ ("i", Q.one) ] Q.one };
        { var = "k"; lower = A.var "j"; upper = A.make [ ("i", Q.one) ] Q.one } ]
  in
  let ranking = Trahrhe.Ranking.ranking nest in
  Printf.printf "ranking r(i,j,k) = %s\n" (P.to_string ranking);
  Printf.printf "trip count       = %s   (the paper's (N^3 - N)/6)\n\n"
    (P.to_string (Trahrhe.Ranking.trip_count nest));

  let inv = Trahrhe.Inversion.invert_exn nest in
  let forms = Trahrhe.Closed_form.select_exn inv in
  print_endline "i: degree-3 (Cardano) closed form; j: degree 2; k: exact";
  Format.printf "%a@." Trahrhe.Closed_form.pp forms;

  (* Figure 8: the curves r(i,0,0) - pc — all parallel, so the number
     and order of symbolic roots is the same for every pc (§IV-D) *)
  print_endline "\nFigure 8 series: r(i,0,0) - pc  (N = 10)";
  let r_i00 = inv.Trahrhe.Inversion.r_sub.(0) in
  print_string "      i:";
  let steps = List.init 12 (fun s -> -2.5 +. (0.5 *. float_of_int s)) in
  List.iter (fun x -> Printf.printf "%7.1f" x) steps;
  print_newline ();
  for pc = 1 to 10 do
    Printf.printf "pc = %2d:" pc;
    List.iter
      (fun x ->
        let v =
          P.eval_float (function "i" -> x | "N" -> 10.0 | v -> failwith v) r_i00
          -. float_of_int pc
        in
        Printf.printf "%7.2f" v)
      steps;
    print_newline ()
  done;

  (* Figure 7: the generated collapsed code uses cpow/csqrt/creal *)
  print_endline "\n---- Figure 7: collapsed 3-depth loop (complex recovery) ----";
  let body = [ Codegen.C_ast.Raw "S(i, j, k);" ] in
  let paper = { Codegen.Schemes.default_config with paper = true } in
  print_string (Codegen.C_print.to_string (Codegen.Schemes.naive ~config:paper inv ~body));

  (* the raw floor against the runtime's exact search *)
  let report = Trahrhe.Validate.check forms ~param:(fun _ -> 30) in
  Printf.printf "\nvalidation at N=30: raw floor %d/%d exact; recover %d/%d\n"
    report.Trahrhe.Validate.closed_form_ok report.Trahrhe.Validate.iterations
    report.Trahrhe.Validate.recover_ok report.Trahrhe.Validate.iterations
