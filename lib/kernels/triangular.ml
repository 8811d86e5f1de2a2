(* Triangular-domain kernels: correlation (upper triangle, named in the
   paper), syrk / syr2k (lower triangle, reconstructed Polybench picks),
   utma (upper triangular matrix add, 5000x5000 in the paper) and ltmp
   (lower triangular matrix product, 4000x4000 in the paper; only the
   two outer loops are collapsible because the innermost k-loop carries
   a dependence and has non-constant bounds). *)

open Shape

let correlation =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] (-1) };
        { var = "j"; lower = aff [ ("i", 1) ] 1; upper = aff [ ("N", 1) ] 0 } ]
  in
  let outer_costs ~n =
    Array.init (max 0 (n - 1)) (fun i -> float_of_int ((n - 1 - i) * n))
  in
  let collapsed_costs ~n =
    Array.make (n * (n - 1) / 2) (float_of_int n)
  in
  let setup n =
    let b = init_mat n (fun r c -> float_of_int (((r * 7) + c) mod 13) /. 3.0) in
    let c = init_mat n (fun r c -> float_of_int ((r - (2 * c)) mod 11) /. 5.0) in
    let a = Array.make (n * n) 0.0 in
    (a, b, c)
  in
  let body n a b c i j =
    let s = ref 0.0 in
    for k = 0 to n - 1 do
      s := !s +. (b.((k * n) + i) *. c.((k * n) + j))
    done;
    a.((i * n) + j) <- a.((i * n) + j) +. !s;
    a.((j * n) + i) <- a.((i * n) + j)
  in
  let serial_original ~n =
    let a, b, c = setup n in
    for i = 0 to n - 2 do
      for j = i + 1 to n - 1 do
        body n a b c i j
      done
    done;
    checksum a
  in
  let serial_collapsed ~n ~recoveries =
    let a, b, c = setup n in
    let k = Kernel.find "correlation" |> Option.get in
    let rc = Kernel.recovery k ~n in
    let trip = n * (n - 1) / 2 in
    List.iter
      (fun (start, len) ->
        let idx = Trahrhe.Recovery.recover rc start in
        let i = ref idx.(0) and j = ref idx.(1) in
        for _ = 1 to len do
          body n a b c !i !j;
          (* hand-inlined §V incrementation, as the generated C does *)
          incr j;
          if !j >= n then begin
            incr i;
            j := !i + 1
          end
        done)
      (Kernel.chunk_starts ~trip ~recoveries);
    checksum a
  in
  Kernel.register
    { name = "correlation";
      description = "upper-triangular correlation update (paper Fig. 1), k-loop kept inner";
      family = "triangular";
      collapsed = 2;
      total_loops = 3;
      nest;
      param_map = (fun n _ -> n);
      default_n = 2000;
      fig10_n = 300;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }

(* syrk-style symmetric rank-k update on the lower triangle:
   for (i) for (j = 0 .. i) { C[i][j] += sum_k A[i][k]*A[j][k] } *)
let syrk_nest () =
  Trahrhe.Nest.make ~params:[ "N" ]
    [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
      { var = "j"; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 } ]

let make_syrk ~name ~description ~weight =
  let nest = syrk_nest () in
  let outer_costs ~n = Array.init n (fun i -> float_of_int ((i + 1) * weight * n)) in
  let collapsed_costs ~n =
    let total = n * (n + 1) / 2 in
    Array.make total (float_of_int (weight * n))
  in
  let setup n =
    let a = init_mat n (fun r c -> float_of_int (((r * 3) + c) mod 17) /. 7.0) in
    let b = init_mat n (fun r c -> float_of_int ((r + (5 * c)) mod 19) /. 9.0) in
    let cm = Array.make (n * n) 0.0 in
    (cm, a, b)
  in
  let body n cm a b i j =
    let s = ref 0.0 in
    for k = 0 to (weight * n) - 1 do
      let k' = k mod n in
      s := !s +. (a.((i * n) + k') *. b.((j * n) + k'))
    done;
    cm.((i * n) + j) <- cm.((i * n) + j) +. !s
  in
  let serial_original ~n =
    let cm, a, b = setup n in
    for i = 0 to n - 1 do
      for j = 0 to i do
        body n cm a b i j
      done
    done;
    checksum cm
  in
  let serial_collapsed ~n ~recoveries =
    let cm, a, b = setup n in
    let k = Kernel.find name |> Option.get in
    let rc = Kernel.recovery k ~n in
    let trip = n * (n + 1) / 2 in
    List.iter
      (fun (start, len) ->
        let idx = Trahrhe.Recovery.recover rc start in
        let i = ref idx.(0) and j = ref idx.(1) in
        for _ = 1 to len do
          body n cm a b !i !j;
          incr j;
          if !j > !i then begin
            incr i;
            j := 0
          end
        done)
      (Kernel.chunk_starts ~trip ~recoveries);
    checksum cm
  in
  Kernel.register
    { name;
      description;
      family = "triangular";
      collapsed = 2;
      total_loops = 3;
      nest;
      param_map = (fun n _ -> n);
      default_n = 2000;
      fig10_n = (if weight = 1 then 300 else 240);
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }

let syrk =
  make_syrk ~name:"syrk" ~weight:1
    ~description:"symmetric rank-k update on the lower triangle (reconstructed Polybench pick)"

let syr2k =
  make_syrk ~name:"syr2k" ~weight:2
    ~description:"symmetric rank-2k update, twice the inner work of syrk (reconstructed)"

(* utma: sum of two upper triangular matrices (paper: 5000x5000).
   Both loops collapsed; the body is a single add, so recovery overhead
   is comparatively the most visible here. *)
let utma =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  let outer_costs ~n = Array.init n (fun i -> float_of_int (n - i)) in
  let collapsed_costs ~n = Array.make (n * (n + 1) / 2) 1.0 in
  let setup n =
    let b = init_mat n (fun r c -> if c >= r then float_of_int ((r + c) mod 23) else 0.0) in
    let c = init_mat n (fun r c -> if c >= r then float_of_int ((r * c) mod 29) else 0.0) in
    let a = Array.make (n * n) 0.0 in
    (a, b, c)
  in
  let serial_original ~n =
    let a, b, c = setup n in
    for i = 0 to n - 1 do
      for j = i to n - 1 do
        a.((i * n) + j) <- b.((i * n) + j) +. c.((i * n) + j)
      done
    done;
    checksum a
  in
  let serial_collapsed ~n ~recoveries =
    let a, b, c = setup n in
    let k = Kernel.find "utma" |> Option.get in
    let rc = Kernel.recovery k ~n in
    let trip = n * (n + 1) / 2 in
    List.iter
      (fun (start, len) ->
        let idx = Trahrhe.Recovery.recover rc start in
        let i = ref idx.(0) and j = ref idx.(1) in
        for _ = 1 to len do
          a.((!i * n) + !j) <- b.((!i * n) + !j) +. c.((!i * n) + !j);
          incr j;
          if !j >= n then begin
            incr i;
            j := !i
          end
        done)
      (Kernel.chunk_starts ~trip ~recoveries);
    checksum a
  in
  Kernel.register
    { name = "utma";
      description = "sum of two upper triangular matrices (paper workload, 5000^2)";
      family = "triangular";
      collapsed = 2;
      total_loops = 2;
      nest;
      param_map = (fun n _ -> n);
      default_n = 3000;
      fig10_n = 1500;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }

(* ltmp: product of two lower triangular matrices (paper: 4000x4000).
   a[i][j] = sum_{k=j..i} b[i][k]*c[k][j] for j <= i. The k-loop
   carries the reduction and has non-constant bounds, so only i and j
   are collapsed; the per-(i,j) work (i - j + 1) stays imbalanced even
   after collapsing — the one case where schedule(dynamic) beats the
   collapsed loop in the paper. *)
let ltmp =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 } ]
  in
  let outer_costs ~n =
    (* sum_{j=0..i} (i - j + 1) = (i+1)(i+2)/2 *)
    Array.init n (fun i -> float_of_int ((i + 1) * (i + 2) / 2))
  in
  let collapsed_costs ~n =
    let total = n * (n + 1) / 2 in
    let costs = Array.make total 0.0 in
    let q = ref 0 in
    for i = 0 to n - 1 do
      for j = 0 to i do
        costs.(!q) <- float_of_int (i - j + 1);
        incr q
      done
    done;
    costs
  in
  let setup n =
    let b = init_mat n (fun r c -> if c <= r then float_of_int ((r + (2 * c)) mod 13) /. 4.0 else 0.0) in
    let c = init_mat n (fun r c -> if c <= r then float_of_int (((3 * r) + c) mod 11) /. 6.0 else 0.0) in
    let a = Array.make (n * n) 0.0 in
    (a, b, c)
  in
  let body n a b c i j =
    let s = ref 0.0 in
    for k = j to i do
      s := !s +. (b.((i * n) + k) *. c.((k * n) + j))
    done;
    a.((i * n) + j) <- !s
  in
  let serial_original ~n =
    let a, b, c = setup n in
    for i = 0 to n - 1 do
      for j = 0 to i do
        body n a b c i j
      done
    done;
    checksum a
  in
  let serial_collapsed ~n ~recoveries =
    let a, b, c = setup n in
    let k = Kernel.find "ltmp" |> Option.get in
    let rc = Kernel.recovery k ~n in
    let trip = n * (n + 1) / 2 in
    List.iter
      (fun (start, len) ->
        let idx = Trahrhe.Recovery.recover rc start in
        let i = ref idx.(0) and j = ref idx.(1) in
        for _ = 1 to len do
          body n a b c !i !j;
          incr j;
          if !j > !i then begin
            incr i;
            j := 0
          end
        done)
      (Kernel.chunk_starts ~trip ~recoveries);
    checksum a
  in
  Kernel.register
    { name = "ltmp";
      description = "product of two lower triangular matrices (paper workload, 4000^2); k-loop not collapsible";
      family = "triangular";
      collapsed = 2;
      total_loops = 3;
      nest;
      param_map = (fun n _ -> n);
      default_n = 2000;
      fig10_n = 400;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }
