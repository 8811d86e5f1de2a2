(* Reduction kernels: the same iteration spaces as correlation
   (upper triangle) and covariance (upper prism), but the nest declares
   a reduction clause (a value polynomial, which a run folds with the
   operator it asks for) instead of updating an output matrix. The
   value has integer coefficients, so the serial reference is an exact
   wrapped-int fold (mod 2^63) that the parallel combine tree and the
   JIT's u64 accumulator must reproduce bit-for-bit. *)

open Shape
module P = Polymath.Polynomial
module Q = Zmath.Rat

let pvar = P.var
let pconst c = P.const (Q.of_int c)

(* correlation_reduce: sum over the strict upper triangle of
   (i+1)*(j+1) — degree 2, so the clause exercises the nonlinear
   evaluation path, not just the affine one *)
let correlation_reduce =
  let value = P.mul (P.add (pvar "i") (pconst 1)) (P.add (pvar "j") (pconst 1)) in
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      ~reduce:value
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] (-1) };
        { var = "j"; lower = aff [ ("i", 1) ] 1; upper = aff [ ("N", 1) ] 0 } ]
  in
  let outer_costs ~n = Array.init (max 0 (n - 1)) (fun i -> float_of_int (n - 1 - i)) in
  let collapsed_costs ~n = Array.make (n * (n - 1) / 2) 1.0 in
  let serial_original ~n =
    let acc = ref 0 in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        acc := !acc + ((i + 1) * (j + 1))
      done
    done;
    float_of_int !acc
  in
  let serial_collapsed ~n ~recoveries =
    let k = Kernel.find "correlation_reduce" |> Option.get in
    let rc = Kernel.recovery k ~n in
    let trip = n * (n - 1) / 2 in
    let acc = ref 0 in
    (* fold the declared clause per-point through the recovery, so the
       collapsed reference exercises the same evaluation the parallel
       and native paths use *)
    run_collapsed rc ~trip ~recoveries (fun idx ->
        acc := !acc + Trahrhe.Recovery.reduce_value_int rc idx);
    float_of_int !acc
  in
  Kernel.register
    { name = "correlation_reduce";
      description = "sum reduction of (i+1)(j+1) over correlation's strict upper triangle";
      family = "triangular";
      collapsed = 2;
      total_loops = 2;
      nest;
      param_map = (fun n _ -> n);
      default_n = 2000;
      fig10_n = 96;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }

(* covariance_reduce: sum over the upper prism of i*j + k + 1 *)
let covariance_reduce =
  let value = P.add (P.mul (pvar "i") (pvar "j")) (P.add (pvar "k") (pconst 1)) in
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      ~reduce:value
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "k"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  let outer_costs ~n = Array.init n (fun i -> float_of_int ((n - i) * n)) in
  let collapsed_costs ~n = Array.make (n * (n + 1) / 2 * n) 1.0 in
  let serial_original ~n =
    let acc = ref 0 in
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        for k = 0 to n - 1 do
          acc := !acc + ((i * j) + k + 1)
        done
      done
    done;
    float_of_int !acc
  in
  let serial_collapsed ~n ~recoveries =
    let kd = Kernel.find "covariance_reduce" |> Option.get in
    let rc = Kernel.recovery kd ~n in
    let trip = n * (n + 1) / 2 * n in
    let acc = ref 0 in
    run_collapsed rc ~trip ~recoveries (fun idx ->
        acc := !acc + Trahrhe.Recovery.reduce_value_int rc idx);
    float_of_int !acc
  in
  Kernel.register
    { name = "covariance_reduce";
      description = "sum reduction of i*j + k + 1 over covariance's upper prism, all loops collapsed";
      family = "tetrahedral";
      collapsed = 3;
      total_loops = 3;
      nest;
      param_map = (fun n _ -> n);
      default_n = 220;
      fig10_n = 48;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }
