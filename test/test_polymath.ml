(* Tests for polymath: monomials, multivariate polynomials, affine
   forms, and exact symbolic summation. *)

module M = Polymath.Monomial
module P = Polymath.Polynomial
module A = Polymath.Affine
module Q = Zmath.Rat

let poly = Alcotest.testable P.pp P.equal
let affine = Alcotest.testable A.pp A.equal
let rat = Alcotest.testable Q.pp Q.equal

(* convenient constructors *)
let v = P.var
let ( *: ) c p = P.scale (Q.of_int c) p
let ( +: ) = P.add
let ( -: ) = P.sub
let ( *.: ) = P.mul

(* -------- Monomial -------- *)

let test_monomial_canonical () =
  Alcotest.(check (list (pair string int)))
    "merge and sort"
    [ ("i", 3); ("j", 1) ]
    (M.to_list (M.of_list [ ("j", 1); ("i", 2); ("i", 1) ]));
  Alcotest.(check (list (pair string int))) "drop zero" [] (M.to_list (M.of_list [ ("i", 0) ]));
  Alcotest.(check bool) "unit" true (M.is_one M.one)

let test_monomial_ops () =
  let m = M.mul (M.var "i") (M.pow (M.var "j") 2) in
  Alcotest.(check int) "degree" 3 (M.degree m);
  Alcotest.(check int) "degree_in j" 2 (M.degree_in "j" m);
  Alcotest.(check int) "degree_in k" 0 (M.degree_in "k" m);
  Alcotest.(check (list string)) "vars" [ "i"; "j" ] (M.vars m);
  Alcotest.(check (list (pair string int))) "remove" [ ("j", 2) ] (M.to_list (M.remove "i" m));
  Alcotest.(check string) "pp" "i*j^2" (Format.asprintf "%a" M.pp m)

let test_monomial_pow_invalid () =
  Alcotest.check_raises "negative exponent" (Invalid_argument "Monomial.pow") (fun () ->
      ignore (M.pow (M.var "i") (-1)))

(* -------- Polynomial -------- *)

let test_poly_basic () =
  let p = (2 *: (v "i" *.: v "i")) +: (3 *: v "j") +: P.one in
  Alcotest.(check string) "to_string" "2*i^2 + 3*j + 1" (P.to_string p);
  Alcotest.(check int) "degree" 2 (P.degree p);
  Alcotest.(check int) "degree_in i" 2 (P.degree_in "i" p);
  Alcotest.(check (list string)) "vars" [ "i"; "j" ] (P.vars p);
  Alcotest.check rat "coeff i^2" (Q.of_int 2) (P.coeff p (M.of_list [ ("i", 2) ]))

let test_poly_cancellation () =
  let p = v "i" -: v "i" in
  Alcotest.(check bool) "zero" true (P.is_zero p);
  Alcotest.check poly "x + -x" P.zero p

let test_poly_is_const () =
  Alcotest.(check (option string))
    "const 5" (Some "5")
    (Option.map Q.to_string (P.is_const (P.of_int 5)));
  Alcotest.(check (option string))
    "zero" (Some "0")
    (Option.map Q.to_string (P.is_const P.zero));
  Alcotest.(check (option string)) "non-const" None (Option.map Q.to_string (P.is_const (v "i")))

let test_poly_subst () =
  (* substitute j := i+1 into i*j: expect i^2 + i *)
  let p = v "i" *.: v "j" in
  let q = P.subst "j" (v "i" +: P.one) p in
  Alcotest.check poly "i*(i+1)" ((v "i" *.: v "i") +: v "i") q

let test_poly_subst_all_simultaneous () =
  (* swap i and j simultaneously in i - j: expect j - i *)
  let p = v "i" -: v "j" in
  let q = P.subst_all [ ("i", v "j"); ("j", v "i") ] p in
  Alcotest.check poly "swap" (v "j" -: v "i") q

let test_poly_as_univariate () =
  let p = ((v "i" *.: v "i") *.: v "j") +: (2 *: v "i") +: (3 *: v "j") +: P.one in
  let u = P.as_univariate "i" p in
  Alcotest.(check int) "3 coefficient groups" 3 (List.length u);
  (match u with
  | (2, c2) :: (1, c1) :: (0, c0) :: [] ->
    Alcotest.check poly "coeff of i^2" (v "j") c2;
    Alcotest.check poly "coeff of i^1" (P.of_int 2) c1;
    Alcotest.check poly "coeff of i^0" ((3 *: v "j") +: P.one) c0
  | _ -> Alcotest.fail "unexpected exponent structure");
  (* reconstruct: sum c_e * i^e = p *)
  let back =
    List.fold_left (fun acc (e, c) -> acc +: (c *.: P.pow (v "i") e)) P.zero u
  in
  Alcotest.check poly "reconstruct" p back

let test_poly_eval () =
  let p = ((v "i" *.: v "i") -: (2 *: v "j")) +: P.one in
  let env = function "i" -> Q.of_int 5 | "j" -> Q.of_int 3 | _ -> Q.zero in
  Alcotest.check rat "eval" (Q.of_int 20) (P.eval env p);
  Alcotest.(check (float 1e-9)) "eval_float" 20.0
    (P.eval_float (function "i" -> 5.0 | "j" -> 3.0 | _ -> 0.0) p)

let test_poly_derivative () =
  let p = (v "i" *.: v "i" *.: v "i") +: (4 *: (v "i" *.: v "j")) in
  Alcotest.check poly "d/di" ((3 *: (v "i" *.: v "i")) +: (4 *: v "j")) (P.derivative "i" p);
  Alcotest.check poly "d/dk" P.zero (P.derivative "k" p)

let test_denominator_lcm () =
  let p = P.scale (Q.of_ints 1 2) (v "i") +: P.scale (Q.of_ints 1 3) (v "j") in
  Alcotest.(check string) "lcm 6" "6" (Zmath.Bigint.to_string (P.denominator_lcm p));
  Alcotest.(check string) "lcm of int poly" "1" (Zmath.Bigint.to_string (P.denominator_lcm (v "i")))

let small_poly =
  (* random polynomial over i, j with small integer coefficients *)
  let gen =
    QCheck.Gen.(
      map
        (fun coeffs ->
          List.fold_left
            (fun acc (c, ei, ej) ->
              P.add acc
                (P.scale (Q.of_int c)
                   (P.mul (P.pow (v "i") ei) (P.pow (v "j") ej))))
            P.zero coeffs)
        (list_size (int_range 0 6) (triple (int_range (-5) 5) (int_range 0 3) (int_range 0 3))))
  in
  QCheck.make ~print:P.to_string gen

let prop_poly_ring =
  QCheck.Test.make ~name:"polynomial ring laws" ~count:200
    (QCheck.triple small_poly small_poly small_poly)
    (fun (p, q, r) ->
      P.equal (P.mul p (P.add q r)) (P.add (P.mul p q) (P.mul p r))
      && P.equal (P.mul p q) (P.mul q p)
      && P.equal (P.sub (P.add p q) q) p)

let prop_eval_hom =
  QCheck.Test.make ~name:"evaluation is a ring homomorphism" ~count:200
    (QCheck.pair small_poly small_poly)
    (fun (p, q) ->
      let env = function "i" -> Q.of_int 7 | _ -> Q.of_int (-3) in
      Q.equal (P.eval env (P.mul p q)) (Q.mul (P.eval env p) (P.eval env q))
      && Q.equal (P.eval env (P.add p q)) (Q.add (P.eval env p) (P.eval env q)))

let prop_subst_then_eval =
  QCheck.Test.make ~name:"subst commutes with eval" ~count:200 small_poly (fun p ->
      (* p[j := i+2] evaluated at i=4 equals p at i=4, j=6 *)
      let substituted = P.subst "j" (v "i" +: P.of_int 2) p in
      let env1 = function "i" -> Q.of_int 4 | _ -> Q.zero in
      let env2 = function "i" -> Q.of_int 4 | "j" -> Q.of_int 6 | _ -> Q.zero in
      Q.equal (P.eval env1 substituted) (P.eval env2 p))

(* -------- Affine -------- *)

let test_affine_basic () =
  let a = A.make [ ("i", Q.of_int 2); ("N", Q.minus_one) ] (Q.of_int 3) in
  Alcotest.check rat "coeff i" (Q.of_int 2) (A.coeff "i" a);
  Alcotest.check rat "coeff missing" Q.zero (A.coeff "j" a);
  Alcotest.check rat "const" (Q.of_int 3) (A.const_part a);
  Alcotest.(check (list string)) "vars" [ "N"; "i" ] (A.vars a);
  Alcotest.check rat "eval"
    (Q.of_int 1)
    (A.eval (function "i" -> Q.of_int 4 | _ -> Q.of_int 10) a)

let test_affine_subst () =
  (* substitute i := t + 1 into 2i + 3: expect 2t + 5 *)
  let a = A.make [ ("i", Q.of_int 2) ] (Q.of_int 3) in
  let b = A.subst "i" (A.make [ ("t", Q.one) ] Q.one) a in
  Alcotest.check affine "2t+5" (A.make [ ("t", Q.of_int 2) ] (Q.of_int 5)) b

let test_affine_poly_roundtrip () =
  let a = A.make [ ("i", Q.of_int 2); ("j", Q.of_ints (-1) 2) ] (Q.of_int 7) in
  match A.of_poly (A.to_poly a) with
  | Some b -> Alcotest.check affine "roundtrip" a b
  | None -> Alcotest.fail "roundtrip lost affinity"

let test_affine_of_poly_rejects () =
  Alcotest.(check bool) "degree 2 rejected" true (A.of_poly (v "i" *.: v "i") = None)

(* -------- Summation -------- *)

let test_sum_constant () =
  (* sum_{t=0}^{n} 1 = n + 1 *)
  let s = Polymath.Summation.count ~var:"t" ~lo:P.zero ~hi:(v "n") in
  Alcotest.check poly "n+1" (v "n" +: P.one) s

let test_sum_linear () =
  (* sum_{t=1}^{n} t = n(n+1)/2 *)
  let s = Polymath.Summation.sum ~var:"t" (v "t") ~lo:P.one ~hi:(v "n") in
  Alcotest.check poly "n(n+1)/2"
    (P.scale Q.half ((v "n" *.: v "n") +: v "n"))
    s

let test_sum_triangular_bound () =
  (* sum_{j=i+1}^{N-1} 1 = N - 1 - i *)
  let s =
    Polymath.Summation.count ~var:"j" ~lo:(v "i" +: P.one) ~hi:(v "N" -: P.one)
  in
  Alcotest.check poly "N-1-i" ((v "N" -: P.one) -: v "i") s

let test_sum_rejects_var_in_bounds () =
  Alcotest.check_raises "bound mentions var"
    (Invalid_argument "Summation.sum: bound mentions the summation variable") (fun () ->
      ignore (Polymath.Summation.sum ~var:"t" (v "t") ~lo:P.zero ~hi:(v "t")))

let prop_sum_matches_bruteforce =
  QCheck.Test.make ~name:"symbolic sum = brute-force sum" ~count:150
    (QCheck.triple small_poly (QCheck.int_range (-4) 4) (QCheck.int_range (-5) 8))
    (fun (p, lo, hi) ->
      QCheck.assume (hi >= lo - 1);
      (* sum p(i, j:=2) over i in [lo, hi] *)
      let p = P.subst "j" (P.of_int 2) p in
      let s = Polymath.Summation.sum ~var:"i" p ~lo:(P.of_int lo) ~hi:(P.of_int hi) in
      let expected = ref Q.zero in
      for x = lo to hi do
        expected := Q.add !expected (P.eval (fun _ -> Q.of_int x) p)
      done;
      Q.equal !expected (P.eval (fun _ -> Q.zero) s))

let prop_sum_parametric =
  QCheck.Test.make ~name:"parametric sum over triangular range" ~count:100
    (QCheck.pair (QCheck.int_range 0 8) (QCheck.int_range 0 12))
    (fun (i0, n0) ->
      QCheck.assume (i0 + 1 <= n0);
      (* sum_{j=i+1}^{N-1} j, then evaluate at i=i0, N=n0 *)
      let s =
        Polymath.Summation.sum ~var:"j" (v "j") ~lo:(v "i" +: P.one) ~hi:(v "N" -: P.one)
      in
      let expected = ref Q.zero in
      for x = i0 + 1 to n0 - 1 do
        expected := Q.add !expected (Q.of_int x)
      done;
      Q.equal !expected
        (P.eval (function "i" -> Q.of_int i0 | _ -> Q.of_int n0) s))

(* -------- Horner compilation and finite-difference stepping -------- *)

module H = Polymath.Horner

let slot3 = function "x" -> 0 | "y" -> 1 | "z" -> 2 | v -> invalid_arg v
let lookup3 x y z s = [| x; y; z |].(s)

let exact_at p x y z =
  let env = function "x" -> Q.of_int x | "y" -> Q.of_int y | "z" -> Q.of_int z | _ -> Q.zero in
  Zmath.Bigint.to_int_exn (Q.to_bigint_exn (P.eval env p))

let test_horner_matches_exact () =
  (* a rational-coefficient, integer-valued polynomial: the shape of a
     real ranking Ehrhart polynomial *)
  let half = Q.of_ints 1 2 in
  let p =
    (* x(x-1)/2 + x*y + 3z + 7 *)
    P.scale half ((v "x" *.: v "x") -: v "x") +: (v "x" *.: v "y") +: (3 *: v "z") +: P.of_int 7
  in
  let h = H.compile ~slot:slot3 p in
  Alcotest.(check int) "degree" 2 (H.degree h);
  Alcotest.(check int) "degree in x" 2 (H.degree_in_slot h 0);
  Alcotest.(check int) "degree in z" 1 (H.degree_in_slot h 2);
  for x = -4 to 4 do
    for y = -3 to 3 do
      for z = -2 to 2 do
        Alcotest.(check int)
          (Printf.sprintf "p(%d,%d,%d)" x y z)
          (exact_at p x y z)
          (H.eval h (lookup3 x y z))
      done
    done
  done

let test_stepper_binomials () =
  (* C(x,4) is integer-valued with denominator 24: the worst case the
     degree <= 4 restriction allows *)
  let p =
    P.scale (Q.of_ints 1 24)
      (v "x" *.: (v "x" -: P.one) *.: (v "x" -: P.of_int 2) *.: (v "x" -: P.of_int 3))
  in
  let h = H.compile ~slot:slot3 p in
  let st = H.Stepper.make h ~slot:0 ~start:(-5) ~lookup:(fun _ -> 0) in
  for x = -5 to 15 do
    Alcotest.(check int) (Printf.sprintf "C(%d,4)" x) (exact_at p x 0 0) (H.Stepper.value st);
    Alcotest.(check int) "arg" x (H.Stepper.arg st);
    H.Stepper.step st
  done

let gen_int_poly =
  QCheck.Gen.(
    let term =
      int_range (-9) 9 >>= fun c ->
      int_range 0 4 >>= fun e0 ->
      int_range 0 (4 - e0) >>= fun e1 ->
      int_range 0 (4 - e0 - e1) >>= fun e2 -> return (c, e0, e1, e2)
    in
    list_size (int_range 0 6) term)

let poly_of_terms terms =
  P.of_terms
    (List.map
       (fun (c, e0, e1, e2) ->
         (Q.of_int c, M.of_list [ ("x", e0); ("y", e1); ("z", e2) ]))
       terms)

let arb_int_poly =
  QCheck.make gen_int_poly ~print:(fun terms -> P.to_string (poly_of_terms terms))

let prop_horner_matches_eval =
  QCheck.Test.make ~name:"compiled Horner = exact eval (deg <= 4)" ~count:200 arb_int_poly
    (fun terms ->
      let p = poly_of_terms terms in
      let h = H.compile ~slot:slot3 p in
      List.for_all
        (fun (x, y, z) -> H.eval h (lookup3 x y z) = exact_at p x y z)
        [ (0, 0, 0); (1, 2, 3); (-2, 5, -7); (11, -13, 4); (100, 3, -50) ])

let prop_stepper_matches_eval =
  QCheck.Test.make ~name:"fdiff stepper = exact eval along each slot" ~count:200
    (QCheck.pair arb_int_poly (QCheck.int_range (-10) 10))
    (fun (terms, start) ->
      let p = poly_of_terms terms in
      let h = H.compile ~slot:slot3 p in
      List.for_all
        (fun slot ->
          let fixed = [| 2; -3; 5 |] in
          let lookup s = fixed.(s) in
          let at w s = if s = slot then w else fixed.(s) in
          let st = H.Stepper.make h ~slot ~start ~lookup in
          let ok = ref true in
          for w = start to start + 12 do
            if H.Stepper.value st <> H.eval h (at w) then ok := false;
            H.Stepper.step st
          done;
          !ok)
        [ 0; 1; 2 ])

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [ ( "polymath.monomial",
      [ Alcotest.test_case "canonical form" `Quick test_monomial_canonical;
        Alcotest.test_case "operations" `Quick test_monomial_ops;
        Alcotest.test_case "invalid pow" `Quick test_monomial_pow_invalid ] );
    ( "polymath.polynomial",
      [ Alcotest.test_case "construction and printing" `Quick test_poly_basic;
        Alcotest.test_case "cancellation" `Quick test_poly_cancellation;
        Alcotest.test_case "is_const" `Quick test_poly_is_const;
        Alcotest.test_case "substitution" `Quick test_poly_subst;
        Alcotest.test_case "simultaneous substitution" `Quick test_poly_subst_all_simultaneous;
        Alcotest.test_case "univariate view" `Quick test_poly_as_univariate;
        Alcotest.test_case "evaluation" `Quick test_poly_eval;
        Alcotest.test_case "derivative" `Quick test_poly_derivative;
        Alcotest.test_case "denominator lcm" `Quick test_denominator_lcm ]
      @ qsuite [ prop_poly_ring; prop_eval_hom; prop_subst_then_eval ] );
    ( "polymath.horner",
      [ Alcotest.test_case "matches exact eval" `Quick test_horner_matches_exact;
        Alcotest.test_case "stepper on binomials" `Quick test_stepper_binomials ]
      @ qsuite [ prop_horner_matches_eval; prop_stepper_matches_eval ] );
    ( "polymath.affine",
      [ Alcotest.test_case "basics" `Quick test_affine_basic;
        Alcotest.test_case "substitution" `Quick test_affine_subst;
        Alcotest.test_case "poly roundtrip" `Quick test_affine_poly_roundtrip;
        Alcotest.test_case "of_poly rejects degree 2" `Quick test_affine_of_poly_rejects ] );
    ( "polymath.summation",
      [ Alcotest.test_case "sum of 1" `Quick test_sum_constant;
        Alcotest.test_case "sum of t" `Quick test_sum_linear;
        Alcotest.test_case "triangular bounds" `Quick test_sum_triangular_bound;
        Alcotest.test_case "rejects var in bounds" `Quick test_sum_rejects_var_in_bounds ]
      @ qsuite [ prop_sum_matches_bruteforce; prop_sum_parametric ] ) ]
