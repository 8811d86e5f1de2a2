(* Tests for the Pluto-lite transformations: tiling and skewing. *)

module A = Polymath.Affine
module Q = Zmath.Rat

let aff terms c = A.make (List.map (fun (x, k) -> (x, Q.of_int k)) terms) (Q.of_int c)
let affine = Alcotest.testable A.pp A.equal

let triangle () =
  Trahrhe.Nest.make ~params:[ "N" ]
    [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
      { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 0 } ]

let rectangle () =
  Trahrhe.Nest.make ~params:[ "T"; "N" ]
    [ { var = "t"; lower = aff [] 0; upper = aff [ ("T", 1) ] 0 };
      { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 } ]

(* -------- Tile -------- *)

let test_tile_space_bounds () =
  let tl = Looptrans.Tile.tile (triangle ()) ~size:8 in
  let levels = tl.Looptrans.Tile.tile_nest.Trahrhe.Nest.levels in
  (match levels with
  | [ li; lj ] ->
    Alcotest.(check string) "tile vars" "it" li.Trahrhe.Nest.var;
    Alcotest.(check string) "tile vars" "jt" lj.Trahrhe.Nest.var;
    Alcotest.check affine "it lower" (aff [] 0) li.Trahrhe.Nest.lower;
    (* upper exclusive over the derived parameter Nt = N / 8 *)
    Alcotest.check affine "it upper = Nt" (aff [ ("Nt", 1) ] 0) li.Trahrhe.Nest.upper;
    Alcotest.check affine "jt lower tracks it" (aff [ ("it", 1) ] 0) lj.Trahrhe.Nest.lower
  | _ -> Alcotest.fail "expected two tile levels");
  Alcotest.(check (list (pair string string))) "derived params" [ ("N", "Nt") ]
    tl.Looptrans.Tile.derived_params

let test_tile_validation () =
  Alcotest.(check bool) "positive size" true
    (try
       ignore (Looptrans.Tile.tile (triangle ()) ~size:0);
       false
     with Invalid_argument _ -> true);
  (* parameters must divide the size at iteration time *)
  let tl = Looptrans.Tile.tile (triangle ()) ~size:8 in
  Alcotest.(check bool) "indivisible parameter at runtime" true
    (try
       Looptrans.Tile.iterate tl ~param:(fun _ -> 13) (fun _ -> ());
       false
     with Invalid_argument _ -> true)

let test_tile_iterate_covers_domain () =
  (* tile-major iteration must visit exactly the original points *)
  List.iter
    (fun (nest, size, n) ->
      let tl = Looptrans.Tile.tile nest ~size in
      let expected = ref [] in
      Trahrhe.Nest.iterate nest ~param:(fun _ -> n) (fun idx ->
          expected := Array.to_list idx :: !expected);
      let seen = Hashtbl.create 64 in
      let count = ref 0 in
      Looptrans.Tile.iterate tl ~param:(fun _ -> n) (fun idx ->
          incr count;
          Hashtbl.replace seen (Array.to_list idx) ());
      Alcotest.(check int) "same cardinality" (List.length !expected) !count;
      List.iter
        (fun p -> Alcotest.(check bool) "covered" true (Hashtbl.mem seen p))
        !expected)
    [ (triangle (), 4, 12); (triangle (), 8, 16); (rectangle (), 4, 8) ]

let test_tile_nest_collapsible () =
  (* the tile-coordinate nest must invert like any Fig. 5 nest *)
  let tl = Looptrans.Tile.tile (triangle ()) ~size:16 in
  match Trahrhe.Closed_form.invert tl.Looptrans.Tile.tile_nest with
  | Error e -> Alcotest.fail (Trahrhe.Closed_form.error_to_string e)
  | Ok inv ->
    (* parameter of the tile nest is Nt = N / 16 *)
    let report = Trahrhe.Validate.check inv ~param:(fun _ -> 7) in
    Alcotest.(check bool) "tile nest validates" true (Trahrhe.Validate.raw_floor_ok report)

let test_tile_emit_shapes () =
  let tl = Looptrans.Tile.tile (triangle ()) ~size:16 in
  let s =
    Codegen.C_print.to_string
      (Looptrans.Tile.collapse_tiles tl ~body:[ Codegen.C_ast.Raw "use(i, j);" ])
  in
  let contains needle =
    let nl = String.length needle and hl = String.length s in
    let rec go i = i + nl <= hl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "collapsed tile loop" true (contains "pc");
  Alcotest.(check bool) "intra max bound" true (contains "(it)*16");
  Alcotest.(check bool) "derived parameter decl" true (contains "long Nt = N / 16;");
  Alcotest.(check bool) "intra loop on i" true (contains "for (long i =");
  Alcotest.(check bool) "body present" true (contains "use(i, j);")

(* -------- Skew -------- *)

let test_skew_bounds () =
  let skewed = Looptrans.Skew.skew (rectangle ()) ~level:1 ~wrt:0 ~factor:1 in
  let levels = skewed.Trahrhe.Nest.levels in
  match levels with
  | [ _; li ] ->
    Alcotest.check affine "lower t" (aff [ ("t", 1) ] 0) li.Trahrhe.Nest.lower;
    Alcotest.check affine "upper t+N" (aff [ ("t", 1); ("N", 1) ] 0) li.Trahrhe.Nest.upper
  | _ -> Alcotest.fail "depth"

let test_skew_preserves_count () =
  List.iter
    (fun factor ->
      let nest = rectangle () in
      let skewed = Looptrans.Skew.skew nest ~level:1 ~wrt:0 ~factor in
      let count n =
        let c = ref 0 in
        Trahrhe.Nest.iterate n ~param:(fun _ -> 9) (fun _ -> incr c);
        !c
      in
      Alcotest.(check int)
        (Printf.sprintf "factor %d" factor)
        (count nest) (count skewed))
    [ 1; 2; -1 ]

let test_skew_inner_substitution () =
  (* 3-deep: skewing j shifts k's bounds that referenced j *)
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "t"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "k"; lower = aff [ ("j", 1) ] 0; upper = aff [ ("j", 1) ] 4 } ]
  in
  let skewed = Looptrans.Skew.skew nest ~level:1 ~wrt:0 ~factor:3 in
  (match skewed.Trahrhe.Nest.levels with
  | [ _; _; lk ] ->
    Alcotest.check affine "k lower = j - 3t" (aff [ ("j", 1); ("t", -3) ] 0) lk.Trahrhe.Nest.lower
  | _ -> Alcotest.fail "depth");
  (* iteration count invariant *)
  let count n =
    let c = ref 0 in
    Trahrhe.Nest.iterate n ~param:(fun _ -> 6) (fun _ -> incr c);
    !c
  in
  Alcotest.(check int) "count preserved" (count nest) (count skewed)

let test_skew_collapsible_rhomboid () =
  (* the skewed rectangle is the paper's rhomboid: it must collapse *)
  let skewed = Looptrans.Skew.skew (rectangle ()) ~level:1 ~wrt:0 ~factor:1 in
  let inv = Trahrhe.Closed_form.invert_exn skewed in
  let report =
    Trahrhe.Validate.check inv ~param:(function "T" -> 7 | _ -> 11)
  in
  Alcotest.(check bool) "rhomboid validates" true (Trahrhe.Validate.raw_floor_ok report)

let test_skew_validation () =
  Alcotest.(check bool) "wrt >= level" true
    (try
       ignore (Looptrans.Skew.skew (rectangle ()) ~level:0 ~wrt:1 ~factor:1);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero factor" true
    (try
       ignore (Looptrans.Skew.skew (rectangle ()) ~level:1 ~wrt:0 ~factor:0);
       false
     with Invalid_argument _ -> true)

let test_unskew_expr () =
  Alcotest.(check string) "positive" "(i - 2*t)"
    (Looptrans.Skew.unskew_expr (rectangle ()) ~level:1 ~wrt:0 ~factor:2);
  Alcotest.(check string) "negative" "(i + 2*t)"
    (Looptrans.Skew.unskew_expr (rectangle ()) ~level:1 ~wrt:0 ~factor:(-2))

let suites =
  [ ( "looptrans.tile",
      [ Alcotest.test_case "tile-space bounds" `Quick test_tile_space_bounds;
        Alcotest.test_case "validation" `Quick test_tile_validation;
        Alcotest.test_case "tile-major coverage" `Quick test_tile_iterate_covers_domain;
        Alcotest.test_case "tile nest collapsible" `Quick test_tile_nest_collapsible;
        Alcotest.test_case "generated code shapes" `Quick test_tile_emit_shapes ] );
    ( "looptrans.skew",
      [ Alcotest.test_case "skewed bounds" `Quick test_skew_bounds;
        Alcotest.test_case "count preserved" `Quick test_skew_preserves_count;
        Alcotest.test_case "inner substitution" `Quick test_skew_inner_substitution;
        Alcotest.test_case "rhomboid collapsible" `Quick test_skew_collapsible_rhomboid;
        Alcotest.test_case "validation" `Quick test_skew_validation;
        Alcotest.test_case "unskew expression" `Quick test_unskew_expr ] ) ]
