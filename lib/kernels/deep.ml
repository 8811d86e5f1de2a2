(* Depth-5 kernels exercising the numeric inversion path: the level-0
   ranking prefix of a 5-simplex is a quintic, past the quartic radical
   cap, so the printed recovery of the outermost index is a search
   (Closed_form.Numeric). Exact serial references follow the
   prism/tiled pattern so the oracle can compare bit-for-bit. *)

open Shape

let binom n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let r = ref 1 in
    for i = 0 to k - 1 do
      r := !r * (n - i) / (i + 1)
    done;
    !r
  end

(* number of weakly increasing index tuples of length [d] over [0,n) *)
let simplex_points n d = binom (n + d - 1) d

(* 5-simplex: 0 <= i0 <= i1 <= i2 <= i3 <= i4 < n, all five collapsed *)
let simplex5 =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i0"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "i1"; lower = aff [ ("i0", 1) ] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "i2"; lower = aff [ ("i1", 1) ] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "i3"; lower = aff [ ("i2", 1) ] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "i4"; lower = aff [ ("i3", 1) ] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  let trip n = simplex_points n 5 in
  let outer_costs ~n = Array.init n (fun i0 -> float_of_int (simplex_points (n - i0) 4)) in
  let collapsed_costs ~n = Array.make (trip n) 1.0 in
  let setup n =
    let w = Array.init n (fun i -> float_of_int (((3 * i) + 1) mod 17) /. 7.0) in
    let acc = Array.make (n * n) 0.0 in
    (acc, w)
  in
  let point acc w n i0 i1 i2 i3 i4 =
    acc.((i0 * n) + i4) <- acc.((i0 * n) + i4) +. (w.(i1) *. w.(i2) *. w.(i3))
  in
  let serial_original ~n =
    let acc, w = setup n in
    for i0 = 0 to n - 1 do
      for i1 = i0 to n - 1 do
        for i2 = i1 to n - 1 do
          for i3 = i2 to n - 1 do
            for i4 = i3 to n - 1 do
              point acc w n i0 i1 i2 i3 i4
            done
          done
        done
      done
    done;
    checksum acc
  in
  let serial_collapsed ~n ~recoveries =
    let acc, w = setup n in
    let kd = Kernel.find "simplex5" |> Option.get in
    let rc = Kernel.recovery kd ~n in
    run_collapsed rc ~trip:(trip n) ~recoveries (fun idx ->
        point acc w n idx.(0) idx.(1) idx.(2) idx.(3) idx.(4));
    checksum acc
  in
  Kernel.register
    { name = "simplex5";
      description = "5-simplex accumulation with all five loops collapsed (quintic level-0 prefix: numeric recovery)";
      family = "simplicial";
      collapsed = 5;
      total_loops = 5;
      nest;
      param_map = (fun n _ -> n);
      default_n = 16;
      fig10_n = 10;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }

(* Deep-tiled 5-simplex: five triangular *tile* loops collapsed. The
   constraint i_{k-1} <= i_k only binds inside a tile when the two tile
   coordinates coincide; across distinct tiles it is implied by the tile
   ranges, so a tile's point count depends only on the runs of equal
   consecutive tile coordinates. *)
let tile5 = 8

let tile_points its =
  let n = Array.length its in
  let total = ref 1 and run = ref 1 in
  for k = 1 to n do
    if k < n && its.(k) = its.(k - 1) then incr run
    else begin
      total := !total * simplex_points tile5 !run;
      run := 1
    end
  done;
  !total

let simplex5_tiled =
  let nest =
    Trahrhe.Nest.make ~params:[ "NT" ]
      [ { var = "it0"; lower = aff [] 0; upper = aff [ ("NT", 1) ] 0 };
        { var = "it1"; lower = aff [ ("it0", 1) ] 0; upper = aff [ ("NT", 1) ] 0 };
        { var = "it2"; lower = aff [ ("it1", 1) ] 0; upper = aff [ ("NT", 1) ] 0 };
        { var = "it3"; lower = aff [ ("it2", 1) ] 0; upper = aff [ ("NT", 1) ] 0 };
        { var = "it4"; lower = aff [ ("it3", 1) ] 0; upper = aff [ ("NT", 1) ] 0 } ]
  in
  let trip nt = simplex_points nt 5 in
  let outer_costs ~n:nt =
    (* cost per outermost tile coordinate = total points of its tiles *)
    let costs = Array.make nt 0.0 in
    let rec go its k =
      if k = 5 then costs.(its.(0)) <- costs.(its.(0)) +. float_of_int (tile_points its)
      else
        let lo = if k = 0 then 0 else its.(k - 1) in
        for t = lo to nt - 1 do
          its.(k) <- t;
          go its (k + 1)
        done
    in
    go (Array.make 5 0) 0;
    costs
  in
  let collapsed_costs ~n:nt =
    let costs = Array.make (trip nt) 0.0 in
    let q = ref 0 in
    let rec go its k =
      if k = 5 then begin
        costs.(!q) <- float_of_int (tile_points its);
        incr q
      end
      else
        let lo = if k = 0 then 0 else its.(k - 1) in
        for t = lo to nt - 1 do
          its.(k) <- t;
          go its (k + 1)
        done
    in
    go (Array.make 5 0) 0;
    costs
  in
  let setup nt =
    let n = nt * tile5 in
    let w = Array.init n (fun i -> float_of_int (((5 * i) + 2) mod 19) /. 6.0) in
    let acc = Array.make (n * n) 0.0 in
    (acc, w, n)
  in
  let tile_body acc w n it0 it1 it2 it3 it4 =
    for i0 = it0 * tile5 to (it0 * tile5) + tile5 - 1 do
      for i1 = max i0 (it1 * tile5) to (it1 * tile5) + tile5 - 1 do
        for i2 = max i1 (it2 * tile5) to (it2 * tile5) + tile5 - 1 do
          for i3 = max i2 (it3 * tile5) to (it3 * tile5) + tile5 - 1 do
            for i4 = max i3 (it4 * tile5) to (it4 * tile5) + tile5 - 1 do
              acc.((i0 * n) + i4) <- acc.((i0 * n) + i4) +. (w.(i1) *. w.(i2) *. w.(i3))
            done
          done
        done
      done
    done
  in
  let serial_original ~n:nt =
    let acc, w, n = setup nt in
    for it0 = 0 to nt - 1 do
      for it1 = it0 to nt - 1 do
        for it2 = it1 to nt - 1 do
          for it3 = it2 to nt - 1 do
            for it4 = it3 to nt - 1 do
              tile_body acc w n it0 it1 it2 it3 it4
            done
          done
        done
      done
    done;
    checksum acc
  in
  let serial_collapsed ~n:nt ~recoveries =
    let acc, w, n = setup nt in
    let kd = Kernel.find "simplex5_tiled" |> Option.get in
    let rc = Kernel.recovery kd ~n:nt in
    run_collapsed rc ~trip:(trip nt) ~recoveries (fun idx ->
        tile_body acc w n idx.(0) idx.(1) idx.(2) idx.(3) idx.(4));
    checksum acc
  in
  Kernel.register
    { name = "simplex5_tiled";
      description = "deep-tiled 5-simplex; the five triangular tile loops are collapsed (numeric recovery)";
      family = "tiled-simplicial";
      collapsed = 5;
      total_loops = 10;
      nest;
      param_map = (fun n _ -> n);
      default_n = 4;
      fig10_n = 3;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }
