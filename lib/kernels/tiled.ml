(* Tiled triangular kernels: Pluto's --tile on a triangular nest leaves
   a triangular *tile* space with incomplete diagonal tiles — the load
   imbalance the paper tiles-and-collapses away. The collapsed loops
   are the two tile loops; the parameter is the number NT of tiles per
   dimension and the tile size is the constant T below. *)

open Shape

let tile = 16

(* strictly-upper version (correlation): intra-tile points j > i *)
let points_strict it jt = if jt > it then tile * tile else tile * (tile - 1) / 2

(* inclusive-upper version (covariance): intra-tile points j >= i *)
let points_incl it jt = if jt > it then tile * tile else tile * (tile + 1) / 2

let tiled_nest () =
  Trahrhe.Nest.make ~params:[ "NT" ]
    [ { var = "it"; lower = aff [] 0; upper = aff [ ("NT", 1) ] 0 };
      { var = "jt"; lower = aff [ ("it", 1) ] 0; upper = aff [ ("NT", 1) ] 0 } ]

let make_tiled ~name ~description ~points =
  let nest = tiled_nest () in
  (* one (i,j) point costs [tile] inner iterations *)
  let outer_costs ~n =
    Array.init n (fun it ->
        let s = ref 0 in
        for jt = it to n - 1 do
          s := !s + (points it jt * tile)
        done;
        float_of_int !s)
  in
  let collapsed_costs ~n =
    let costs = Array.make (n * (n + 1) / 2) 0.0 in
    let q = ref 0 in
    for it = 0 to n - 1 do
      for jt = it to n - 1 do
        costs.(!q) <- float_of_int (points it jt * tile);
        incr q
      done
    done;
    costs
  in
  let strict = points 0 0 = tile * (tile - 1) / 2 in
  let setup nt =
    let n = nt * tile in
    let b = init_mat n (fun r c -> float_of_int (((r * 7) + c) mod 13) /. 3.0) in
    let c = init_mat n (fun r c -> float_of_int ((r - (2 * c)) mod 11) /. 5.0) in
    let a = Array.make (n * n) 0.0 in
    (a, b, c, n)
  in
  let tile_body a b c n it jt =
    for i = it * tile to (it * tile) + tile - 1 do
      let j0 = if strict then max (i + 1) (jt * tile) else max i (jt * tile) in
      for j = j0 to (jt * tile) + tile - 1 do
        let s = ref 0.0 in
        for k = 0 to tile - 1 do
          s := !s +. (b.((k * n) + i) *. c.((k * n) + j))
        done;
        a.((i * n) + j) <- a.((i * n) + j) +. !s
      done
    done
  in
  let serial_original ~n:nt =
    let a, b, c, n = setup nt in
    for it = 0 to nt - 1 do
      for jt = it to nt - 1 do
        tile_body a b c n it jt
      done
    done;
    checksum a
  in
  let serial_collapsed ~n:nt ~recoveries =
    let a, b, c, n = setup nt in
    let kd = Kernel.find name |> Option.get in
    let rc = Kernel.recovery kd ~n:nt in
    let trip = nt * (nt + 1) / 2 in
    List.iter
      (fun (start, len) ->
        let idx = Trahrhe.Recovery.recover rc start in
        let it = ref idx.(0) and jt = ref idx.(1) in
        for _ = 1 to len do
          tile_body a b c n !it !jt;
          incr jt;
          if !jt >= nt then begin
            incr it;
            jt := !it
          end
        done)
      (Kernel.chunk_starts ~trip ~recoveries);
    checksum a
  in
  Kernel.register
    { name;
      description;
      family = "tiled-triangular";
      collapsed = 2;
      total_loops = 5;
      nest;
      param_map = (fun n _ -> n);
      default_n = 120;
      fig10_n = 24;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }

let correlation_tiled =
  make_tiled ~name:"correlation_tiled" ~points:points_strict
    ~description:"Pluto-style tiled correlation; the two triangular tile loops are collapsed"

let covariance_tiled =
  make_tiled ~name:"covariance_tiled" ~points:points_incl
    ~description:"Pluto-style tiled covariance; the two triangular tile loops are collapsed"
