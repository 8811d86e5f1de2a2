module B = Zmath.Bigint
module Q = Zmath.Rat

type t = { bden : B.t; bterms : (B.t * (int * int) array) array }

let compile ~slot p =
  let bden = Polynomial.denominator_lcm p in
  let scaled = Polynomial.scale (Q.of_bigint bden) p in
  let bterms =
    Polynomial.terms scaled
    |> List.map (fun (c, m) ->
           let coeff = Q.to_bigint_exn c in
           let exps = Monomial.to_list m |> List.map (fun (x, e) -> (slot x, e)) |> Array.of_list in
           (coeff, exps))
    |> Array.of_list
  in
  { bden; bterms }

let eval bp lookup =
  let acc = ref B.zero in
  Array.iter
    (fun (coeff, exps) ->
      let v = ref coeff in
      Array.iter (fun (slot, e) -> v := B.mul !v (B.pow (B.of_int (lookup slot)) e)) exps;
      acc := B.add !acc !v)
    bp.bterms;
  let q, r = B.divmod !acc bp.bden in
  assert (B.is_zero r);
  B.to_int_exn q

(* the division by [bden] is deliberately skipped: compiled evaluation
   works on the scaled polynomial, and skipping it only
   over-approximates *)
let magnitude bp mag =
  Array.fold_left
    (fun acc (coeff, exps) ->
      let v =
        Array.fold_left (fun v (slot, e) -> B.mul v (B.pow mag.(slot) e)) (B.abs coeff) exps
      in
      B.add acc v)
    B.zero bp.bterms

let total_degree bp =
  Array.fold_left
    (fun acc (_, exps) -> max acc (Array.fold_left (fun s (_, e) -> s + e) 0 exps))
    0 bp.bterms

let limit = B.pow (B.of_int 2) 61
let bmax a b = if B.compare a b >= 0 then a else b

let fits_native ~mag bps =
  let worst = List.fold_left (fun w bp -> bmax w (magnitude bp mag)) B.zero bps in
  let deg = List.fold_left (fun d bp -> max d (total_degree bp)) 0 bps in
  let bmax = Array.fold_left bmax B.one mag in
  B.compare (B.mul (B.mul worst bmax) (B.pow (B.of_int 2) (deg + 1))) limit < 0
