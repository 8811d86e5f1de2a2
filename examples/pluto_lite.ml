(* The paper feeds its collapser with nests produced by Pluto (tiling,
   skewing). This example reproduces that pipeline with the built-in
   Pluto-lite transformations: tile a triangular nest and collapse the
   (still triangular!) tile loops; skew a rectangular stencil into the
   rhomboid of §I and collapse it.

   Run with: dune exec examples/pluto_lite.exe *)

module A = Polymath.Affine
module Q = Zmath.Rat

let aff terms c = A.make (List.map (fun (v, k) -> (v, Q.of_int k)) terms) (Q.of_int c)

let () =
  (* --- tiling --- *)
  let triangle =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  let tl = Looptrans.Tile.tile triangle ~size:32 in
  Format.printf "tile-coordinate nest (still a Fig. 5 triangle):@\n%a@\n" Trahrhe.Nest.pp
    tl.Looptrans.Tile.tile_nest;
  Printf.printf "tile trip count: %s (over Nt = N/32)\n\n"
    (Polymath.Polynomial.to_string (Trahrhe.Ranking.trip_count tl.Looptrans.Tile.tile_nest));
  print_endline "collapsed tile loops with min/max intra-tile loops:";
  print_string
    (Codegen.C_print.to_string
       (Looptrans.Tile.collapse_tiles tl ~body:[ Codegen.C_ast.Raw "a[i][j] += b[j][i];" ]));

  (* tile-major execution visits exactly the original domain *)
  let count = ref 0 in
  Looptrans.Tile.iterate tl ~param:(fun _ -> 96) (fun _ -> incr count);
  Printf.printf "\ntile-major walk of N=96 visits %d points (expected %d)\n\n" !count
    (96 * 97 / 2);

  (* --- skewing --- *)
  let stencil =
    Trahrhe.Nest.make ~params:[ "T"; "N" ]
      [ { var = "t"; lower = aff [] 0; upper = aff [ ("T", 1) ] 0 };
        { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  let rhomboid = Looptrans.Skew.skew stencil ~level:1 ~wrt:0 ~factor:1 in
  Format.printf "skewed stencil (the paper's rhomboidal domain):@\n%a@\n" Trahrhe.Nest.pp rhomboid;
  let inv = Trahrhe.Inversion.invert_exn rhomboid in
  Printf.printf "rhomboid trip count: %s\n"
    (Polymath.Polynomial.to_string inv.Trahrhe.Inversion.trip_count);
  print_endline "collapsed rhomboid (original index rebuilt in the body):";
  print_string
    (Codegen.C_print.to_string
       (Codegen.Schemes.per_thread inv
          ~body:
            [ Codegen.C_ast.Raw
                (Printf.sprintf "s[%s] = 0.33 * (e[%s - 1] + e[%s] + e[%s + 1]);"
                   (Looptrans.Skew.unskew_expr stencil ~level:1 ~wrt:0 ~factor:1)
                   (Looptrans.Skew.unskew_expr stencil ~level:1 ~wrt:0 ~factor:1)
                   (Looptrans.Skew.unskew_expr stencil ~level:1 ~wrt:0 ~factor:1)
                   (Looptrans.Skew.unskew_expr stencil ~level:1 ~wrt:0 ~factor:1)) ]))
