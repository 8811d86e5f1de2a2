(* Fully-collapsed 3-deep kernels (all loops collapsed — the paper's
   Fig. 10 calls out covariance and symm as the cases where recovery
   overhead is most visible because no inner loop amortizes it). *)

open Shape

(* covariance: cov[i][j] accumulated over k, j >= i (upper prism) *)
let covariance =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "k"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  let outer_costs ~n = Array.init n (fun i -> float_of_int ((n - i) * n)) in
  let collapsed_costs ~n = Array.make (n * (n + 1) / 2 * n) 1.0 in
  let setup n =
    let d = init_mat n (fun r c -> float_of_int (((r * 5) + (3 * c)) mod 31) /. 8.0) in
    let cov = Array.make (n * n) 0.0 in
    (cov, d)
  in
  let serial_original ~n =
    let cov, d = setup n in
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        for k = 0 to n - 1 do
          cov.((i * n) + j) <- cov.((i * n) + j) +. (d.((k * n) + i) *. d.((k * n) + j))
        done
      done
    done;
    checksum cov
  in
  let serial_collapsed ~n ~recoveries =
    let cov, d = setup n in
    let kd = Kernel.find "covariance" |> Option.get in
    let rc = Kernel.recovery kd ~n in
    let trip = n * (n + 1) / 2 * n in
    List.iter
      (fun (start, len) ->
        let idx = Trahrhe.Recovery.recover rc start in
        let i = ref idx.(0) and j = ref idx.(1) and k = ref idx.(2) in
        for _ = 1 to len do
          cov.((!i * n) + !j) <- cov.((!i * n) + !j) +. (d.((!k * n) + !i) *. d.((!k * n) + !j));
          incr k;
          if !k >= n then begin
            incr j;
            if !j >= n then begin
              incr i;
              j := !i
            end;
            k := 0
          end
        done)
      (Kernel.chunk_starts ~trip ~recoveries);
    checksum cov
  in
  Kernel.register
    { name = "covariance";
      description = "covariance accumulation with all three loops collapsed (upper prism)";
      family = "tetrahedral";
      collapsed = 3;
      total_loops = 3;
      nest;
      param_map = (fun n _ -> n);
      default_n = 220;
      fig10_n = 150;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }

(* symm: C[i][j] for j <= i, accumulated over a dense k (lower prism) *)
let symm =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 };
        { var = "k"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  let outer_costs ~n = Array.init n (fun i -> float_of_int ((i + 1) * n)) in
  let collapsed_costs ~n = Array.make (n * (n + 1) / 2 * n) 1.0 in
  let setup n =
    let a = init_mat n (fun r c -> float_of_int (((2 * r) + c) mod 15) /. 4.0) in
    let b = init_mat n (fun r c -> float_of_int ((r + (7 * c)) mod 21) /. 6.0) in
    let cm = Array.make (n * n) 0.0 in
    (cm, a, b)
  in
  let serial_original ~n =
    let cm, a, b = setup n in
    for i = 0 to n - 1 do
      for j = 0 to i do
        for k = 0 to n - 1 do
          cm.((i * n) + j) <- cm.((i * n) + j) +. (a.((k * n) + i) *. b.((k * n) + j))
        done
      done
    done;
    checksum cm
  in
  let serial_collapsed ~n ~recoveries =
    let cm, a, b = setup n in
    let kd = Kernel.find "symm" |> Option.get in
    let rc = Kernel.recovery kd ~n in
    let trip = n * (n + 1) / 2 * n in
    List.iter
      (fun (start, len) ->
        let idx = Trahrhe.Recovery.recover rc start in
        let i = ref idx.(0) and j = ref idx.(1) and k = ref idx.(2) in
        for _ = 1 to len do
          cm.((!i * n) + !j) <- cm.((!i * n) + !j) +. (a.((!k * n) + !i) *. b.((!k * n) + !j));
          incr k;
          if !k >= n then begin
            incr j;
            if !j > !i then begin
              incr i;
              j := 0
            end;
            k := 0
          end
        done)
      (Kernel.chunk_starts ~trip ~recoveries);
    checksum cm
  in
  Kernel.register
    { name = "symm";
      description = "symmetric-matrix style accumulation with all three loops collapsed (lower prism)";
      family = "tetrahedral";
      collapsed = 3;
      total_loops = 3;
      nest;
      param_map = (fun n _ -> n);
      default_n = 220;
      fig10_n = 150;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }
