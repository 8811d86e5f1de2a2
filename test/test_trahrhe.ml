(* Core tests: nest model, ranking Ehrhart polynomials, inversion,
   runtime recovery, exhaustive validation — including the paper's own
   examples and property tests over random nests. *)

module A = Polymath.Affine
module P = Polymath.Polynomial
module Q = Zmath.Rat

let poly = Alcotest.testable P.pp P.equal
let aff terms c = A.make (List.map (fun (x, k) -> (x, Q.of_int k)) terms) (Q.of_int c)

let correlation_nest () =
  Trahrhe.Nest.make ~params:[ "N" ]
    [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] (-1) };
      { var = "j"; lower = aff [ ("i", 1) ] 1; upper = aff [ ("N", 1) ] 0 } ]

let fig6_nest () =
  Trahrhe.Nest.make ~params:[ "N" ]
    [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] (-1) };
      { var = "j"; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 };
      { var = "k"; lower = aff [ ("j", 1) ] 0; upper = aff [ ("i", 1) ] 1 } ]

(* -------- Nest -------- *)

let test_nest_validation () =
  Alcotest.check_raises "duplicate iterator"
    (Invalid_argument "Nest.make: duplicate iterator i") (fun () ->
      ignore
        (Trahrhe.Nest.make ~params:[]
           [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [] 5 };
             { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [] 5 } ]));
  Alcotest.check_raises "inner var in outer bound"
    (Invalid_argument
       "Nest.make: bound of i mentions j which is not an outer iterator or parameter") (fun () ->
      ignore
        (Trahrhe.Nest.make ~params:[]
           [ { Trahrhe.Nest.var = "i"; lower = aff [ ("j", 1) ] 0; upper = aff [] 5 };
             { Trahrhe.Nest.var = "j"; lower = aff [] 0; upper = aff [] 5 } ]));
  Alcotest.check_raises "iterator shadows parameter"
    (Invalid_argument "Nest.make: iterator shadows parameter N") (fun () ->
      ignore
        (Trahrhe.Nest.make ~params:[ "N" ]
           [ { Trahrhe.Nest.var = "N"; lower = aff [] 0; upper = aff [] 5 } ]))

let test_nest_accessors () =
  let n = fig6_nest () in
  Alcotest.(check int) "depth" 3 (Trahrhe.Nest.depth n);
  Alcotest.(check (list string)) "vars" [ "i"; "j"; "k" ] (Trahrhe.Nest.level_vars n);
  Alcotest.(check int) "prefix depth" 2 (Trahrhe.Nest.depth (Trahrhe.Nest.prefix n 2));
  Alcotest.(check bool) "non-rectangular" false (Trahrhe.Nest.is_rectangular n);
  let rect =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { Trahrhe.Nest.var = "j"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  Alcotest.(check bool) "rectangular" true (Trahrhe.Nest.is_rectangular rect)

let test_dependence_degree () =
  (* correlation: i used by j's bound -> degree 2; fig6: all three
     loops depend on i (transitively for k) -> degree 3 *)
  Alcotest.(check int) "correlation" 2 (Trahrhe.Nest.max_dependence_degree (correlation_nest ()));
  Alcotest.(check int) "fig6" 3 (Trahrhe.Nest.max_dependence_degree (fig6_nest ()));
  let rect =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  Alcotest.(check int) "rectangular 1" 1 (Trahrhe.Nest.max_dependence_degree rect)

let test_nest_iterate () =
  let pts = ref [] in
  Trahrhe.Nest.iterate (correlation_nest ()) ~param:(fun _ -> 4) (fun idx ->
      pts := Array.to_list idx :: !pts);
  Alcotest.(check (list (list int)))
    "lex order"
    [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]
    (List.rev !pts)

(* the plain rational walk: every bound evaluated with [Affine.eval]
   at every row, the definition [Nest.iterate]'s resolved rows must
   reproduce point for point *)
let rational_points nest ~param =
  let levels = Array.of_list nest.Trahrhe.Nest.levels in
  let d = Array.length levels and pts = ref [] in
  let idx = Array.make d 0 in
  let bound k a =
    let env x =
      let rec find j =
        if j >= k then Q.of_int (param x)
        else if levels.(j).Trahrhe.Nest.var = x then Q.of_int idx.(j)
        else find (j + 1)
      in
      find 0
    in
    Zmath.Bigint.to_int_exn (Q.to_bigint_exn (A.eval env a))
  in
  let rec go k =
    if k = d then pts := Array.to_list idx :: !pts
    else
      for i = bound k levels.(k).lower to bound k levels.(k).upper - 1 do
        idx.(k) <- i;
        go (k + 1)
      done
  in
  go 0;
  List.rev !pts

let iterate_points nest ~param =
  let pts = ref [] in
  Trahrhe.Nest.iterate nest ~param (fun idx -> pts := Array.to_list idx :: !pts);
  List.rev !pts

(* exact on rational coefficients, on values near the int range, and
   on the registry kernels; a non-integer bound raises *)
let test_nest_iterate_exact () =
  let q n d = Q.of_ints n d in
  (* j = i, so k's bound (i + j) / 2 is integral *)
  let halves =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = A.make [ ("N", q 1 2) ] Q.one };
        { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("i", 1) ] 1 };
        { var = "k"; lower = A.make [ ("N", q 1 2) ] Q.zero;
          upper = A.make [ ("N", q 1 2); ("i", q 1 2); ("j", q 1 2) ] Q.one } ]
  in
  let param _ = 10 in
  Alcotest.(check (list (list int))) "rational coefficients"
    (rational_points halves ~param) (iterate_points halves ~param);
  (* at N = 2^61 every bound is past 2^61 *)
  let huge = 1 lsl 61 in
  let shifted =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [ ("N", 1) ] 0; upper = aff [ ("N", 1) ] 2 };
        { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("i", 1) ] 2 } ]
  in
  Alcotest.(check (list (list int))) "past 2^61"
    [ [ huge; huge ]; [ huge; huge + 1 ]; [ huge + 1; huge + 1 ]; [ huge + 1; huge + 2 ] ]
    (iterate_points shifted ~param:(fun _ -> huge));
  (* k's bound (3i - j) / 2 = i has an integer numerator 3i - j that
     wraps native ints at i = 2^61 *)
  let diag = A.make [ ("i", q 3 2); ("j", q (-1) 2) ] Q.zero in
  let wide =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [ ("N", 1) ] 0; upper = aff [ ("N", 1) ] 2 };
        { var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("i", 1) ] 1 };
        { var = "k"; lower = diag; upper = A.add_const Q.one diag } ]
  in
  Alcotest.(check (list (list int))) "numerator past the int range"
    [ [ huge; huge; huge ]; [ huge + 1; huge + 1; huge + 1 ] ]
    (iterate_points wide ~param:(fun _ -> huge));
  List.iter
    (fun (k : Kernels.Kernel.t) ->
      List.iter
        (fun n ->
          let param = Kernels.Kernel.param_of k ~n in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "%s n=%d" k.name n)
            (rational_points k.nest ~param) (iterate_points k.nest ~param))
        [ 0; 3; 8 ])
    Kernels.Registry.kernels;
  let thirds =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [] 0; upper = A.make [ ("i", q 1 3) ] Q.zero } ]
  in
  Alcotest.check_raises "non-integer bound" (Invalid_argument "Nest.iterate: non-integer bound")
    (fun () -> Trahrhe.Nest.iterate thirds ~param (fun _ -> ()))

(* -------- Ranking -------- *)

let eval_at p bindings =
  P.eval (fun x -> Q.of_int (List.assoc x bindings)) p

let test_ranking_correlation_formula () =
  (* the paper's §III closed form: r(i,j) = (2iN + 2j - i^2 - 3i)/2 *)
  let r = Trahrhe.Ranking.ranking (correlation_nest ()) in
  let paper i j n = ((2 * i * n) + (2 * j) - (i * i) - (3 * i)) / 2 in
  List.iter
    (fun (i, j, n) ->
      Alcotest.(check string)
        (Printf.sprintf "r(%d,%d) N=%d" i j n)
        (string_of_int (paper i j n))
        (Q.to_string (eval_at r [ ("i", i); ("j", j); ("N", n) ])))
    [ (0, 1, 10); (0, 2, 10); (0, 9, 10); (1, 2, 10); (8, 9, 10); (3, 7, 12) ]

let test_ranking_paper_anchors () =
  (* §III: r(0,1)=1, r(0,N-1)=N-1, r(1,2)=N, r(N-2,N-1)=(N-1)N/2 *)
  let r = Trahrhe.Ranking.ranking (correlation_nest ()) in
  let n = 20 in
  let at i j = Q.to_bigint_exn (eval_at r [ ("i", i); ("j", j); ("N", n) ]) in
  Alcotest.(check string) "r(0,1)=1" "1" (Zmath.Bigint.to_string (at 0 1));
  Alcotest.(check string) "r(0,N-1)=N-1" (string_of_int (n - 1))
    (Zmath.Bigint.to_string (at 0 (n - 1)));
  Alcotest.(check string) "r(1,2)=N" (string_of_int n) (Zmath.Bigint.to_string (at 1 2));
  Alcotest.(check string) "r(N-2,N-1)=(N-1)N/2"
    (string_of_int ((n - 1) * n / 2))
    (Zmath.Bigint.to_string (at (n - 2) (n - 1)))

let test_ranking_fig6_formula () =
  (* §IV-C: r(i,j,k) = (6k - 3j^2 + 6ij + 3j + i^3 + 3i^2 + 2i + 6)/6 *)
  let r = Trahrhe.Ranking.ranking (fig6_nest ()) in
  let paper i j k =
    ((6 * k) - (3 * j * j) + (6 * i * j) + (3 * j) + (i * i * i) + (3 * i * i) + (2 * i) + 6) / 6
  in
  List.iter
    (fun (i, j, k) ->
      Alcotest.(check string)
        (Printf.sprintf "r(%d,%d,%d)" i j k)
        (string_of_int (paper i j k))
        (Q.to_string (eval_at r [ ("i", i); ("j", j); ("k", k); ("N", 99) ])))
    [ (0, 0, 0); (1, 0, 0); (1, 0, 1); (1, 1, 1); (4, 2, 3); (7, 0, 6) ]

let test_trip_counts () =
  let tc2 = Trahrhe.Ranking.trip_count (correlation_nest ()) in
  Alcotest.(check string) "correlation (N-1)N/2 at N=100" "4950"
    (Q.to_string (eval_at tc2 [ ("N", 100) ]));
  let tc3 = Trahrhe.Ranking.trip_count (fig6_nest ()) in
  (* paper: (N^3 - N)/6 *)
  Alcotest.(check string) "fig6 (N^3-N)/6 at N=10" "165" (Q.to_string (eval_at tc3 [ ("N", 10) ]))

(* both halves of one chain agree: the last iteration ranks as the
   trip count *)
let test_ranking_and_trip () =
  List.iter
    (fun nest ->
      let r, t = Trahrhe.Ranking.ranking_and_trip nest in
      let n = 9 in
      let last = ref [||] in
      Trahrhe.Nest.iterate nest ~param:(fun _ -> n) (fun idx -> last := Array.copy idx);
      let at = List.mapi (fun k x -> (x, !last.(k))) (Trahrhe.Nest.level_vars nest) in
      Alcotest.(check string) "rank of the last iteration"
        (Q.to_string (eval_at t [ ("N", n) ]))
        (Q.to_string (eval_at r (("N", n) :: at))))
    [ correlation_nest (); fig6_nest () ]

let test_rank_at () =
  let nest = correlation_nest () in
  Alcotest.(check string) "rank_at first" "1"
    (Zmath.Bigint.to_string (Trahrhe.Ranking.rank_at nest ~param:(fun _ -> 10) [| 0; 1 |]))

(* -------- Inversion -------- *)

let test_invert_correlation_modes () =
  let forms = Trahrhe.Closed_form.invert_exn (correlation_nest ()) in
  (match forms.Trahrhe.Closed_form.levels.(0) with
  | Trahrhe.Closed_form.Root { var; mode; _ } ->
    Alcotest.(check string) "outer var" "i" var;
    Alcotest.(check bool) "sqrt stays real" true (mode = Symx.Cemit.Real)
  | _ -> Alcotest.fail "expected closed-form root for i");
  match forms.Trahrhe.Closed_form.levels.(1) with
  | Trahrhe.Closed_form.Last { var; _ } -> Alcotest.(check string) "last var" "j" var
  | _ -> Alcotest.fail "expected exact last level"

let test_invert_fig6_complex () =
  let forms = Trahrhe.Closed_form.invert_exn (fig6_nest ()) in
  match forms.Trahrhe.Closed_form.levels.(0) with
  | Trahrhe.Closed_form.Root { mode; _ } ->
    Alcotest.(check bool) "cubic needs complex evaluation (paper §IV-C)" true
      (mode = Symx.Cemit.Complex)
  | _ -> Alcotest.fail "expected closed-form root for i"

let test_invert_depth1 () =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { Trahrhe.Nest.var = "i"; lower = aff [] 3; upper = aff [ ("N", 1) ] 0 } ]
  in
  let inv = Trahrhe.Inversion.invert_exn nest in
  let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> 10) in
  Alcotest.(check int) "trip" 7 (Trahrhe.Recovery.trip_count rc);
  Alcotest.(check (array int)) "pc=1 -> i=3" [| 3 |] (Trahrhe.Recovery.recover rc 1);
  Alcotest.(check (array int)) "pc=7 -> i=9" [| 9 |] (Trahrhe.Recovery.recover rc 7)

let test_invert_degree5_numeric () =
  (* 5 nested loops all depending on i: the level-0 prefix is a quintic,
     past the radical cap — the seed rejected this with Degree_too_high;
     it now inverts through certified numeric root isolation *)
  let dep v = { Trahrhe.Nest.var = v; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 } in
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        dep "j"; dep "k"; dep "l"; dep "m" ]
  in
  Alcotest.(check int) "dependence degree 5" 5 (Trahrhe.Nest.max_dependence_degree nest);
  let forms = Trahrhe.Closed_form.invert_exn nest in
  (match forms.Trahrhe.Closed_form.levels.(0) with
  | Trahrhe.Closed_form.Numeric { var; r_sub_index } ->
    Alcotest.(check string) "numeric var" "i" var;
    Alcotest.(check int) "r_sub index" 0 r_sub_index
  | _ -> Alcotest.fail "expected numeric recovery for i");
  (* inner levels still get closed forms / the exact last level *)
  (match forms.Trahrhe.Closed_form.levels.(4) with
  | Trahrhe.Closed_form.Last { var; _ } -> Alcotest.(check string) "last var" "m" var
  | _ -> Alcotest.fail "expected exact last level for m");
  (* exhaustive differential against lexicographic enumeration *)
  let report = Trahrhe.Validate.check forms ~param:(fun _ -> 5) in
  Alcotest.(check int) "trip at N=5" 979 report.Trahrhe.Validate.iterations;
  if not (Trahrhe.Validate.all_ok report) then
    Alcotest.failf "degree-5 numeric recovery:@\n%a" Trahrhe.Validate.pp report

let test_invert_pc_collision () =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { Trahrhe.Nest.var = "pc"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { Trahrhe.Nest.var = "j"; lower = aff [] 0; upper = aff [ ("pc", 1) ] 1 } ]
  in
  Alcotest.check_raises "pc collision"
    (Invalid_argument "Inversion.invert: pc variable pc collides with the nest") (fun () ->
      ignore (Trahrhe.Inversion.invert nest));
  (* renaming the collapsed index works *)
  match Trahrhe.Inversion.invert ~pc_var:"flat" nest with
  | Ok inv -> Alcotest.(check string) "custom pc var" "flat" inv.Trahrhe.Inversion.pc_var
  | Error e -> Alcotest.failf "unexpected: %s" (Trahrhe.Inversion.error_to_string e)

(* i in [0,N), j in [i,N+2), k in [j,N): the rows j = N, N+1 have
   k-extent -1 and -2, so the summed counts are not the enumeration
   (at N = 3 they count 7 points where enumeration finds 10); sampling
   names the first misranked point *)
let test_invert_rank_mismatch () =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { Trahrhe.Nest.var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 2 };
        { Trahrhe.Nest.var = "k"; lower = aff [ ("j", 1) ] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  match Trahrhe.Inversion.invert nest with
  | Error (Trahrhe.Inversion.Rank_mismatch { size; points; position; point } as e) ->
    Alcotest.(check int) "sample size" 3 size;
    Alcotest.(check int) "enumerated" 10 points;
    Alcotest.(check int) "first misranked" 7 position;
    Alcotest.(check (list (pair string int))) "point" [ ("i", 1); ("j", 1); ("k", 1) ] point;
    let msg = Trahrhe.Inversion.error_to_string e in
    Alcotest.(check bool) msg true
      (String.starts_with ~prefix:"the ranking polynomial misranks iteration 7 (i=1, j=1, k=1)" msg)
  | Error e -> Alcotest.failf "unexpected error: %s" (Trahrhe.Inversion.error_to_string e)
  | Ok _ -> Alcotest.fail "a misranking nest inverted"

(* i in [0,N+90), j in [i,N+90): every sample (N = 3, 4, 6) has more
   than 4000 points, which is not an empty domain *)
let test_invert_sample_budget () =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 90 };
        { Trahrhe.Nest.var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 90 } ]
  in
  match Trahrhe.Inversion.invert nest with
  | Error (Trahrhe.Inversion.Sample_budget { budget; sizes } as e) ->
    Alcotest.(check int) "budget" 4000 budget;
    Alcotest.(check (list int)) "sizes" [ 3; 4; 6 ] sizes;
    let msg = Trahrhe.Inversion.error_to_string e in
    Alcotest.(check bool) msg true
      (String.starts_with ~prefix:"no sample within the 4000-point budget" msg)
  | Error e -> Alcotest.failf "unexpected error: %s" (Trahrhe.Inversion.error_to_string e)
  | Ok _ -> Alcotest.fail "an over-budget nest inverted"

(* i in [0,N+2), j in [i,N), k in [j,N+1): the rows j = N.. have
   negative k-extent and come last, so every sampled point ranks right
   but the trip count gives 15 at N = 3, where enumeration finds 16 *)
let test_invert_trip_mismatch () =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 2 };
        { Trahrhe.Nest.var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 0 };
        { Trahrhe.Nest.var = "k"; lower = aff [ ("j", 1) ] 0; upper = aff [ ("N", 1) ] 1 } ]
  in
  match Trahrhe.Inversion.invert nest with
  | Error (Trahrhe.Inversion.Trip_mismatch { size; points; trip } as e) ->
    Alcotest.(check int) "sample size" 3 size;
    Alcotest.(check int) "enumerated" 16 points;
    Alcotest.(check string) "trip" "15" (Q.to_string trip);
    let msg = Trahrhe.Inversion.error_to_string e in
    Alcotest.(check bool) msg true
      (String.starts_with ~prefix:"the trip count polynomial gives 15 at sample size 3" msg)
  | Error e -> Alcotest.failf "unexpected error: %s" (Trahrhe.Inversion.error_to_string e)
  | Ok _ -> Alcotest.fail "a nest with a wrong trip count inverted"

(* triangles whose outer bounds are shifted by L = 10^9, 10^12 and
   10^18, and the depth-3 form at 10^9: the doubles of a closed-form
   root lose the index at such coordinates, but inversion selects no
   root, and the runtime recovers every rank exactly *)
let test_invert_large_outer_shift () =
  let shifted depth l =
    let level var lower = { Trahrhe.Nest.var; lower; upper = aff [ ("N", 1) ] l } in
    Trahrhe.Nest.make ~params:[ "N" ]
      (List.filteri
         (fun k _ -> k < depth)
         [ level "i" (aff [] l); level "j" (aff [ ("i", 1) ] 0); level "k" (aff [ ("j", 1) ] 0) ])
  in
  List.iter
    (fun (depth, l) ->
      let nest = shifted depth l in
      let param _ = 9 in
      let rc = Trahrhe.Recovery.make (Trahrhe.Inversion.invert_exn nest) ~param in
      let pc = ref 0 in
      Trahrhe.Nest.iterate nest ~param (fun want ->
          incr pc;
          if Trahrhe.Recovery.recover rc !pc <> want then
            Alcotest.failf "L=%d depth %d: rank %d recovered wrong" l depth !pc);
      Alcotest.(check int) "trip = enumeration" !pc (Trahrhe.Recovery.trip_count rc))
    [ (2, 1_000_000_000);
      (2, 1_000_000_000_000);
      (2, 1_000_000_000_000_000_000);
      (3, 1_000_000_000) ]

(* k in [L, j+L+1) with L = 10^18: the scaled ranking's constant term
   alone (-6L) is outside the native int range, so every sample must be
   ranked exactly; root selection still works, and the enumeration
   ranks are the exact ranking polynomial's *)
let test_invert_large_literal_exact_ranks () =
  let l = 1_000_000_000_000_000_000 in
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { Trahrhe.Nest.var = "j"; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 };
        { Trahrhe.Nest.var = "k"; lower = aff [] l; upper = aff [ ("j", 1) ] (l + 1) } ]
  in
  (match Trahrhe.Closed_form.invert nest with
  | Ok forms -> (
    match forms.Trahrhe.Closed_form.levels with
    | [| Trahrhe.Closed_form.Root _; Trahrhe.Closed_form.Root _; Trahrhe.Closed_form.Last _ |] -> ()
    | _ -> Alcotest.fail "expected two closed-form roots and an exact last level")
  | Error e -> Alcotest.failf "unexpected error: %s" (Trahrhe.Closed_form.error_to_string e));
  let n = ref 0 in
  Trahrhe.Nest.iterate nest ~param:(fun _ -> 3) (fun idx ->
      incr n;
      Alcotest.(check string)
        (Printf.sprintf "rank of point %d" !n)
        (string_of_int !n)
        (Zmath.Bigint.to_string (Trahrhe.Ranking.rank_at nest ~param:(fun _ -> 3) idx)))

(* the closed-form plans of the registry kernels and of a 64-nest grid
   of shifted one-parameter triangles (upper and lower, shifts 0..3,
   widths 1/2), as their wire forms *)
let plan_identity_nests () =
  let triangle upper a b e =
    let i = { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] a } in
    let j =
      if upper then { Trahrhe.Nest.var = "j"; lower = aff [ ("i", 1) ] b; upper = aff [ ("N", 1) ] (a + b + e) }
      else { Trahrhe.Nest.var = "j"; lower = aff [] b; upper = aff [ ("i", 1) ] (b + 1 + e) }
    in
    Trahrhe.Nest.make ~params:[ "N" ] [ i; j ]
  in
  List.map (fun (k : Kernels.Kernel.t) -> k.nest) Kernels.Registry.kernels
  @ List.concat_map
      (fun upper ->
        List.concat_map
          (fun a ->
            List.concat_map (fun b -> List.map (fun e -> triangle upper a b e) [ 0; 1 ]) [ 0; 1; 2; 3 ])
          [ 0; 1; 2; 3 ])
      [ true; false ]

let plan_identity_digest () =
  plan_identity_nests ()
  |> List.map (fun nest ->
         Service.Plan.encode
           (Service.Plan.make ~fingerprint:(Service.Fingerprint.digest nest)
              (Trahrhe.Inversion.invert_exn nest)))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* the selected recoveries as full trees, so two selections print the
   same text only if they are structurally equal *)
let rec expr_tree = function
  | Symx.Expr.Const q -> Q.to_string q
  | Symx.Expr.I -> "i"
  | Symx.Expr.Var v -> v
  | Symx.Expr.Sum es -> "(+ " ^ String.concat " " (List.map expr_tree es) ^ ")"
  | Symx.Expr.Prod es -> "(* " ^ String.concat " " (List.map expr_tree es) ^ ")"
  | Symx.Expr.Pow (b, q) -> Printf.sprintf "(^ %s %s)" (expr_tree b) (Q.to_string q)

let level_text = function
  | Trahrhe.Closed_form.Root { var; expr; mode } ->
    Printf.sprintf "root %s %s %s" var (expr_tree expr)
      (match mode with Symx.Cemit.Real -> "real" | Symx.Cemit.Complex -> "complex")
  | Trahrhe.Closed_form.Last { var; poly } -> Printf.sprintf "last %s %s" var (P.to_string poly)
  | Trahrhe.Closed_form.Numeric { var; r_sub_index } ->
    Printf.sprintf "numeric %s %d" var r_sub_index

let closed_form_digest () =
  plan_identity_nests ()
  |> List.map (fun nest ->
         let forms = Trahrhe.Closed_form.invert_exn nest in
         String.concat "; " (Array.to_list (Array.map level_text forms.Trahrhe.Closed_form.levels)))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* The closed-form digest was taken from the plans that still carried
   their roots, before selection moved out of the plan: it must not
   change with where selection runs. The plan digest changes with any
   intended change to the plan wire form or the fingerprint salt
   (Fingerprint.format_version). *)
let test_plan_identity_golden () =
  Alcotest.(check int) "nests" 79 (List.length (plan_identity_nests ()));
  Alcotest.(check string)
    "closed-form digest" "7c86e52c2f26b441a2e7c5899c053821" (closed_form_digest ());
  Alcotest.(check string) "plan digest" "00cb05b38868688123d5f58fa2815dd1" (plan_identity_digest ())

(* -------- Recovery -------- *)

(* the nest's points in lexicographic order: point [pc - 1] has rank pc *)
let enumerate nest ~param =
  let points = ref [] in
  Trahrhe.Nest.iterate nest ~param (fun idx -> points := Array.copy idx :: !points);
  Array.of_list (List.rev !points)

(* [recover] at [pc] is the lexicographic successor of [recover] at
   [pc - 1] and ranks back to [pc]: enumeration order, checked locally
   where the space is too large to enumerate *)
let check_recover_successor rc pc =
  let idx = Trahrhe.Recovery.recover rc pc in
  if Trahrhe.Recovery.rank rc idx <> pc then Alcotest.failf "pc=%d: rank mismatch" pc;
  if pc > 1 then begin
    let prev = Trahrhe.Recovery.recover rc (pc - 1) in
    if not (Trahrhe.Recovery.increment rc prev) || prev <> idx then
      Alcotest.failf "pc=%d: recover is not the successor of pc=%d" pc (pc - 1)
  end;
  idx

let test_recovery_paper_formulas () =
  (* at N=10: pc=1 -> (0,1); pc=9 -> first iteration of i=1 (paper:
     r(1,2) = N means pc=N -> (1,2)), by the paper's closed forms and
     by the runtime recovery *)
  let forms = Trahrhe.Closed_form.invert_exn (correlation_nest ()) in
  let param _ = 10 in
  let rc = Trahrhe.Recovery.make forms.Trahrhe.Closed_form.inversion ~param in
  let closed = Trahrhe.Closed_form.make forms ~param in
  List.iter
    (fun (name, pc, want) ->
      Alcotest.(check (array int))
        (name ^ " closed form") want
        (Trahrhe.Closed_form.recover closed pc);
      Alcotest.(check (array int)) (name ^ " recover") want (Trahrhe.Recovery.recover rc pc))
    [ ("pc=1", 1, [| 0; 1 |]); ("pc=N=10", 10, [| 1; 2 |]);
      ("pc=last", Trahrhe.Recovery.trip_count rc, [| 8; 9 |]) ]

let test_recovery_strategies_agree () =
  (* recover, rank and lexicographic enumeration agree at every rank *)
  let nest = fig6_nest () and param _ = 12 in
  let rc = Trahrhe.Recovery.make (Trahrhe.Inversion.invert_exn nest) ~param in
  let points = enumerate nest ~param in
  Alcotest.(check int) "trip" (Array.length points) (Trahrhe.Recovery.trip_count rc);
  Array.iteri
    (fun i want ->
      let pc = i + 1 in
      let g = Trahrhe.Recovery.recover rc pc in
      if g <> want then
        Alcotest.failf "pc=%d: recover=(%d,%d,%d) enumeration=(%d,%d,%d)" pc g.(0) g.(1) g.(2)
          want.(0) want.(1) want.(2);
      if Trahrhe.Recovery.rank rc g <> pc then Alcotest.failf "pc=%d: rank mismatch" pc)
    points

let test_recovery_bounds_functions () =
  let inv = Trahrhe.Inversion.invert_exn (correlation_nest ()) in
  let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> 10) in
  Alcotest.(check int) "lower j at i=3" 4 (Trahrhe.Recovery.lower_bound rc ~level:1 [| 3; 0 |]);
  Alcotest.(check int) "upper j" 10 (Trahrhe.Recovery.upper_bound rc ~level:1 [| 3; 0 |]);
  Alcotest.(check int) "rank_prefix: first with i=1" 10
    (Trahrhe.Recovery.rank_prefix rc ~level:0 1 [| 0; 0 |])

let test_recovery_bigint_fallback () =
  (* ISSUE 4 acceptance: an oversized parameter flips the recovery
     into overflow-safe bigint mode (observable on the counter) and
     still recovers exact indices. For fig6 at N = 2,000,000 the rank
     values reach ~N^3/6 > 1.3e18 and the precomputed headroom
     threshold rejects native-int evaluation. *)
  let inv = Trahrhe.Inversion.invert_exn (fig6_nest ()) in
  let small = Trahrhe.Recovery.make inv ~param:(fun _ -> 12) in
  Alcotest.(check bool) "N=12 stays on the native path" false
    (Trahrhe.Recovery.overflow_guarded small);
  let nval = 2_000_000 in
  let counter =
    match Obsv.Metrics.find "recovery.bigint_fallback" with
    | Some c -> c
    | None -> Alcotest.fail "recovery.bigint_fallback counter not registered"
  in
  let rc =
    Obsv.Control.with_enabled true (fun () ->
        Obsv.Metrics.reset counter;
        let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> nval) in
        Alcotest.(check bool) "bigint fallback observed" true
          (Obsv.Metrics.total counter > 0);
        rc)
  in
  Alcotest.(check bool) "N=2e6 is overflow-guarded" true
    (Trahrhe.Recovery.overflow_guarded rc);
  (* exact trip count (exclusive uppers): i in [0,N-1), j in [0,i+1),
     k in [j,i+1) gives sum_{i=0}^{N-2} (i+1)(i+2)/2 =
     (N-1)N(N+1)/6 ~ 1.33e18 *)
  let expected_trip = ref 0 in
  for i = 0 to nval - 2 do
    expected_trip := !expected_trip + ((i + 1) * (i + 2) / 2)
  done;
  Alcotest.(check int) "exact trip count" !expected_trip (Trahrhe.Recovery.trip_count rc);
  (* rank round-trips at the extremes and deep in the range, where a
     native evaluation would have overflowed long ago *)
  let trip = Trahrhe.Recovery.trip_count rc in
  List.iter
    (fun pc ->
      (* rank round trip, and the successor of rank pc - 1 *)
      let idx = check_recover_successor rc pc in
      (* the recovered point lies inside its level bounds *)
      for k = 0 to Trahrhe.Recovery.depth rc - 1 do
        let lo = Trahrhe.Recovery.lower_bound rc ~level:k idx
        and up = Trahrhe.Recovery.upper_bound rc ~level:k idx in
        if idx.(k) < lo || idx.(k) > up then
          Alcotest.failf "pc=%d level %d: %d outside [%d,%d]" pc k idx.(k) lo up
      done)
    [ 1; 2; trip / 3; trip / 2; trip - 1; trip ];
  (* the safe walk takes the increment path and matches recover *)
  let base = trip / 2 in
  let j = ref 0 in
  Trahrhe.Recovery.walk rc ~pc:base ~len:4 (fun idx ->
      Alcotest.(check (array int))
        (Printf.sprintf "walk rank %d" (base + !j))
        (Trahrhe.Recovery.recover rc (base + !j))
        idx;
      incr j);
  Alcotest.(check int) "walk delivered 4 ranks" 4 !j

let test_recovery_increment_walks_domain () =
  let inv = Trahrhe.Inversion.invert_exn (correlation_nest ()) in
  let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> 6) in
  let idx = Trahrhe.Recovery.first rc in
  let seen = ref [ Array.to_list idx ] in
  while Trahrhe.Recovery.increment rc idx do
    seen := Array.to_list idx :: !seen
  done;
  Alcotest.(check int) "visited all" (Trahrhe.Recovery.trip_count rc) (List.length !seen);
  Alcotest.(check (list int)) "ends at last" [ 4; 5 ] (List.hd !seen)

let test_recovery_empty_domain () =
  let inv = Trahrhe.Inversion.invert_exn (correlation_nest ()) in
  let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> 1) in
  Alcotest.(check int) "empty trip" 0 (Trahrhe.Recovery.trip_count rc);
  Alcotest.check_raises "first on empty" (Failure "Recovery.first: empty iteration domain")
    (fun () -> ignore (Trahrhe.Recovery.first rc))

let test_recovery_missing_param () =
  let inv = Trahrhe.Inversion.invert_exn (correlation_nest ()) in
  Alcotest.(check bool) "missing parameter raises" true
    (try
       ignore (Trahrhe.Recovery.make inv ~param:(fun _ -> failwith "no such param"));
       false
     with Failure _ -> true)

let test_recovery_trip_overflow () =
  (* correlation's N(N-1)/2 collapsed iterations leave the native int
     range at N = 10^10: [make] refuses with its documented exception *)
  let inv = Trahrhe.Inversion.invert_exn (correlation_nest ()) in
  Alcotest.check_raises "trip beyond int range"
    (Invalid_argument "Recovery.make: trip count exceeds the native int range") (fun () ->
      ignore (Trahrhe.Recovery.make inv ~param:(fun _ -> 10_000_000_000)))

let test_recovery_horner_matches_exact () =
  (* every native-int Horner evaluation — recovery, rank, bounds and
     substituted rankings — must equal exact bigint/rational evaluation
     of the nest's own polynomials at every rank *)
  List.iter
    (fun (name, nest, n) ->
      let inv = Trahrhe.Inversion.invert_exn nest in
      let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> n) in
      let points = enumerate nest ~param:(fun _ -> n) in
      let levels = Array.of_list nest.Trahrhe.Nest.levels in
      let vars = Array.map (fun (l : Trahrhe.Nest.level) -> l.Trahrhe.Nest.var) levels in
      (* level vars 0..upto-1 read [idx], everything else is a parameter *)
      let env idx ~upto x =
        let rec find j =
          if j >= upto then Q.of_int n else if vars.(j) = x then Q.of_int idx.(j) else find (j + 1)
        in
        find 0
      in
      let exact_int what q =
        if not (Q.is_integer q) then Alcotest.failf "%s: %s is not an integer" what (Q.to_string q);
        Zmath.Bigint.to_int_exn (Q.to_bigint_exn q)
      in
      for pc = 1 to Trahrhe.Recovery.trip_count rc do
        let g = Trahrhe.Recovery.recover rc pc in
        if g <> points.(pc - 1) then Alcotest.failf "%s pc=%d: recover <> enumeration" name pc;
        let exact_rank = Trahrhe.Ranking.rank_at nest ~param:(fun _ -> n) g in
        if Zmath.Bigint.of_int (Trahrhe.Recovery.rank rc g) <> exact_rank then
          Alcotest.failf "%s pc=%d: rank %d, exact %s" name pc (Trahrhe.Recovery.rank rc g)
            (Zmath.Bigint.to_string exact_rank);
        Array.iteri
          (fun k (l : Trahrhe.Nest.level) ->
            let where what = Printf.sprintf "%s pc=%d level %d %s" name pc k what in
            let check what got q =
              let want = exact_int (where what) q in
              if got <> want then Alcotest.failf "%s: %d, exact %d" (where what) got want
            in
            check "lower bound"
              (Trahrhe.Recovery.lower_bound rc ~level:k g)
              (A.eval (env g ~upto:k) l.Trahrhe.Nest.lower);
            check "upper bound"
              (Trahrhe.Recovery.upper_bound rc ~level:k g)
              (A.eval (env g ~upto:k) l.Trahrhe.Nest.upper);
            (* the recovered index and its successor: the two probes
               that bracket [pc] in every recovery strategy *)
            List.iter
              (fun v ->
                let probe = Array.copy g in
                probe.(k) <- v;
                check
                  (Printf.sprintf "rank_prefix at %d" v)
                  (Trahrhe.Recovery.rank_prefix rc ~level:k v g)
                  (P.eval (env probe ~upto:(k + 1)) inv.Trahrhe.Inversion.r_sub.(k)))
              [ g.(k); g.(k) + 1 ])
          levels
      done)
    [ ("correlation", correlation_nest (), 12); ("fig6", fig6_nest (), 9) ]

let test_recovery_walk_matches_increment () =
  (* the finite-difference chunk walk must visit exactly the sequence
     first/increment produces, from any starting pc *)
  List.iter
    (fun (name, nest, n) ->
      let inv = Trahrhe.Inversion.invert_exn nest in
      let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> n) in
      let trip = Trahrhe.Recovery.trip_count rc in
      let reference = Array.make trip [||] in
      let idx = Trahrhe.Recovery.first rc in
      reference.(0) <- Array.copy idx;
      for q = 1 to trip - 1 do
        ignore (Trahrhe.Recovery.increment rc idx);
        reference.(q) <- Array.copy idx
      done;
      let q = ref 0 in
      Trahrhe.Recovery.walk rc ~pc:1 ~len:trip (fun idx ->
          if idx <> reference.(!q) then Alcotest.failf "%s: full walk diverges at rank %d" name !q;
          incr q);
      Alcotest.(check int) (name ^ ": full walk length") trip !q;
      List.iter
        (fun pc ->
          if pc >= 1 && pc <= trip then begin
            let q = ref (pc - 1) in
            Trahrhe.Recovery.walk rc ~pc ~len:(min 7 (trip - pc + 1)) (fun idx ->
                if idx <> reference.(!q) then
                  Alcotest.failf "%s: chunk walk from pc=%d diverges at rank %d" name pc !q;
                incr q)
          end)
        [ 1; 2; 3; trip / 2; trip - 1; trip ];
      (* a walk reaching the end of the space stops early *)
      let count = ref 0 in
      Trahrhe.Recovery.walk rc ~pc:trip ~len:10 (fun _ -> incr count);
      Alcotest.(check int) (name ^ ": clipped walk") 1 !count;
      Trahrhe.Recovery.walk rc ~pc:1 ~len:0 (fun _ -> Alcotest.fail "len=0 must not call f"))
    [ ("correlation", correlation_nest (), 10); ("fig6", fig6_nest (), 8) ]

let test_recovery_walk_lanes_matches_walk () =
  (* the §VI-A batched lane-walk must deliver exactly the per-iteration
     walk's sequence, for every block width, from any starting pc —
     lane [l] of a block based at [base] holds the index of rank
     [base + l] *)
  List.iter
    (fun (name, nest, n) ->
      let inv = Trahrhe.Inversion.invert_exn nest in
      let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> n) in
      let trip = Trahrhe.Recovery.trip_count rc in
      let depth = Trahrhe.Nest.depth nest in
      let reference = Array.make (trip + 1) [||] in
      let pos = ref 1 in
      Trahrhe.Recovery.walk rc ~pc:1 ~len:trip (fun idx ->
          reference.(!pos) <- Array.copy idx;
          incr pos);
      let check ~vlength ~pc ~len =
        let where = Printf.sprintf "%s vlength=%d pc=%d len=%d" name vlength pc len in
        let next = ref pc in
        let last = min trip (pc + len - 1) in
        Trahrhe.Recovery.walk_lanes rc ~pc ~len ~vlength (fun ~base ~count lanes ->
            if base <> !next then Alcotest.failf "%s: block base %d, expected %d" where base !next;
            if count <= 0 || count > vlength then
              Alcotest.failf "%s: block count %d" where count;
            if Array.length lanes <> depth then Alcotest.failf "%s: lane rows" where;
            for l = 0 to count - 1 do
              for k = 0 to depth - 1 do
                if lanes.(k).(l) <> reference.(base + l).(k) then
                  Alcotest.failf "%s: rank %d level %d is %d, walk has %d" where (base + l) k
                    lanes.(k).(l)
                    reference.(base + l).(k)
              done
            done;
            next := base + count);
        Alcotest.(check int) (where ^ ": covered") (last + 1) !next
      in
      (* full walks at several widths, including 1 (degenerate: every
         block is a single lane) and a width wider than the space *)
      List.iter (fun v -> check ~vlength:v ~pc:1 ~len:trip) [ 1; 4; 8; trip + 5 ];
      (* chunked walks with partial final blocks, from interior pcs *)
      List.iter
        (fun pc -> if pc >= 1 && pc <= trip then check ~vlength:4 ~pc ~len:(min 7 (trip - pc + 1)))
        [ 1; 2; trip / 2; trip - 1; trip ];
      (* len clipped by the end of the space *)
      check ~vlength:8 ~pc:trip ~len:10;
      (* len=0 must not call f *)
      Trahrhe.Recovery.walk_lanes rc ~pc:1 ~len:0 ~vlength:4 (fun ~base:_ ~count:_ _ ->
          Alcotest.fail "len=0 must not call f");
      Alcotest.check_raises "vlength 0 rejected"
        (Invalid_argument "Recovery.walk_lanes: vlength must be positive") (fun () ->
          Trahrhe.Recovery.walk_lanes rc ~pc:1 ~len:trip ~vlength:0 (fun ~base:_ ~count:_ _ -> ())))
    [ ("correlation", correlation_nest (), 10); ("fig6", fig6_nest (), 8) ]

let test_recover_block () =
  let inv = Trahrhe.Inversion.invert_exn (correlation_nest ()) in
  let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> 10) in
  let trip = Trahrhe.Recovery.trip_count rc in
  let lanes = Array.init 2 (fun _ -> Array.make 8 (-1)) in
  (* interior block: all 8 lanes filled with ranks pc..pc+7 *)
  Alcotest.(check int) "full block" 8 (Trahrhe.Recovery.recover_block rc ~pc:3 lanes);
  for l = 0 to 7 do
    let want = Trahrhe.Recovery.recover rc (3 + l) in
    Alcotest.(check int) (Printf.sprintf "lane %d level 0" l) want.(0) lanes.(0).(l);
    Alcotest.(check int) (Printf.sprintf "lane %d level 1" l) want.(1) lanes.(1).(l)
  done;
  (* block cut short by the end of the iteration space *)
  Alcotest.(check int) "clipped block" 2 (Trahrhe.Recovery.recover_block rc ~pc:(trip - 1) lanes);
  (* out-of-range pc fills nothing *)
  Alcotest.(check int) "pc past the end" 0 (Trahrhe.Recovery.recover_block rc ~pc:(trip + 1) lanes);
  Alcotest.(check int) "pc 0" 0 (Trahrhe.Recovery.recover_block rc ~pc:0 lanes);
  (* misshapen buffers are rejected *)
  Alcotest.check_raises "wrong row count"
    (Invalid_argument "Recovery.recover_block: lanes must have one row per nest level")
    (fun () -> ignore (Trahrhe.Recovery.recover_block rc ~pc:1 [| Array.make 4 0 |]));
  Alcotest.check_raises "ragged rows" (Invalid_argument "Recovery.recover_block: ragged lanes buffer")
    (fun () ->
      ignore (Trahrhe.Recovery.recover_block rc ~pc:1 [| Array.make 4 0; Array.make 3 0 |]))

(* the row-sum [block_hash] relies on wrapping arithmetic: it must
   equal the per-lane sum of [iter_hash] for values anywhere in the
   int range, and ignore the lanes at and past [count] *)
let prop_block_hash_is_lane_sum =
  let gen =
    QCheck.Gen.(
      let value = frequency [ (4, int); (1, oneofl [ min_int; max_int; 0; -1; 1 ]) ] in
      int_range 1 5 >>= fun d ->
      int_range 1 40 >>= fun width ->
      int_range 0 (width - 1) >>= fun count ->
      array_repeat d (array_repeat width value) >|= fun lanes -> (count, lanes))
  in
  let print (count, lanes) =
    Printf.sprintf "count %d, rows [%s]" count
      (String.concat "; "
         (Array.to_list
            (Array.map
               (fun row -> String.concat "," (Array.to_list (Array.map string_of_int row)))
               lanes)))
  in
  QCheck.Test.make ~name:"block_hash = per-lane sum of iter_hash" ~count:500
    (QCheck.make ~print gen) (fun (count, lanes) ->
      let d = Array.length lanes in
      let acc = ref 0 in
      for l = 0 to count - 1 do
        acc := !acc + Trahrhe.Recovery.iter_hash (Array.init d (fun k -> lanes.(k).(l)))
      done;
      Trahrhe.Recovery.block_hash lanes ~count = !acc)

(* the lane walk writes a run's outer prefix once per run and keeps
   it across the run's later blocks: every lane of every block, on
   nests whose rows are shorter than the block (so blocks straddle
   runs), with empty rows, on a depth-1 nest with no outer rows, and
   from chunk starts in the middle of a row, must hold the recovery
   of its rank *)
let test_walk_lanes_straddles_runs () =
  let var v lower upper = { Trahrhe.Nest.var = v; lower; upper } in
  let nests =
    [ (* k in [j, i): a short row per (i, j), empty where j = i *)
      ( "short and empty rows",
        Trahrhe.Nest.make ~params:[ "N" ]
          [ var "i" (aff [] 0) (aff [ ("N", 1) ] 0);
            var "j" (aff [] 0) (aff [ ("i", 1) ] 1);
            var "k" (aff [ ("j", 1) ] 0) (aff [ ("i", 1) ] 0) ],
        9 );
      (* j in [0, i): the i = 1 row is empty, the rest grow by one *)
      ( "triangle with an empty first row",
        Trahrhe.Nest.make ~params:[ "N" ]
          [ var "i" (aff [] 1) (aff [ ("N", 1) ] 0); var "j" (aff [] 0) (aff [ ("i", 1) ] 0) ],
        12 );
      ("fig6", fig6_nest (), 8);
      ( "depth 1",
        Trahrhe.Nest.make ~params:[ "N" ] [ var "i" (aff [] 3) (aff [ ("N", 1) ] 0) ],
        80 ) ]
  in
  List.iter
    (fun (name, nest, n) ->
      let rc = Trahrhe.Recovery.make (Trahrhe.Inversion.invert_exn nest) ~param:(fun _ -> n) in
      let trip = Trahrhe.Recovery.trip_count rc in
      let want = Array.init (trip + 1) (fun r -> if r = 0 then [||] else Trahrhe.Recovery.recover rc r) in
      List.iter
        (fun vlength ->
          (* whole walks, and chunks of odd lengths that start and end
             mid-row *)
          List.iter
            (fun chunk ->
              let pc = ref 1 in
              while !pc <= trip do
                let where = Printf.sprintf "%s vlength=%d chunk=%d pc=%d" name vlength chunk !pc in
                Trahrhe.Recovery.walk_lanes rc ~pc:!pc ~len:chunk ~vlength
                  (fun ~base ~count lanes ->
                    for l = 0 to count - 1 do
                      Array.iteri
                        (fun k row ->
                          if row.(l) <> want.(base + l).(k) then
                            Alcotest.failf "%s: rank %d level %d is %d, recover has %d" where
                              (base + l) k row.(l)
                              want.(base + l).(k))
                        lanes
                    done);
                pc := !pc + chunk
              done)
            [ trip; 5; 13; 2 * vlength + 1 ])
        [ 3; 8; 32 ])
    nests;
  Alcotest.check_raises "block_hash count past the row"
    (Invalid_argument "Recovery.block_hash: count exceeds the row") (fun () ->
      ignore (Trahrhe.Recovery.block_hash [| [| 1; 2 |] |] ~count:3))

(* -------- Validation: paper nests, kernels, random nests -------- *)

let check_nest ?(sizes = [ 2; 3; 5; 13 ]) name nest =
  match Trahrhe.Closed_form.invert nest with
  | Error e ->
    Alcotest.failf "%s: inversion failed: %s" name (Trahrhe.Closed_form.error_to_string e)
  | Ok forms ->
    List.iter
      (fun n ->
        let report = Trahrhe.Validate.check forms ~param:(fun _ -> n) in
        if not (Trahrhe.Validate.raw_floor_ok report) then
          Alcotest.failf "%s at n=%d:@\n%a" name n Trahrhe.Validate.pp report)
      sizes

let test_validate_paper_nests () =
  check_nest "correlation" (correlation_nest ());
  check_nest "fig6" (fig6_nest ())

let test_validate_shifted_lower_bounds () =
  (* non-zero constant lower bounds exercise the lbk handling of §IV *)
  check_nest "shifted"
    (Trahrhe.Nest.make ~params:[ "N" ]
       [ { Trahrhe.Nest.var = "i"; lower = aff [] 2; upper = aff [ ("N", 1) ] 2 };
         { Trahrhe.Nest.var = "j"; lower = aff [ ("i", 1) ] (-1); upper = aff [ ("N", 1); ("i", 1) ] 0 } ])

let test_validate_rhomboid () =
  check_nest "rhomboid"
    (Trahrhe.Nest.make ~params:[ "N" ]
       [ { Trahrhe.Nest.var = "t"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
         { Trahrhe.Nest.var = "i"; lower = aff [ ("t", 1) ] 0; upper = aff [ ("t", 1); ("N", 1) ] 0 } ])

let test_validate_trapezoid () =
  check_nest "trapezoid"
    (Trahrhe.Nest.make ~params:[ "N" ]
       [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
         { Trahrhe.Nest.var = "j"; lower = aff [] 0; upper = aff [ ("i", 1); ("N", 1) ] 1 } ])

let test_validate_multi_dependence () =
  (* inner bound mixing two outer iterators: k < i + j + 2 *)
  check_nest "mixed" ~sizes:[ 2; 3; 6 ]
    (Trahrhe.Nest.make ~params:[ "N" ]
       [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
         { Trahrhe.Nest.var = "j"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
         { Trahrhe.Nest.var = "k"; lower = aff [] 0; upper = aff [ ("i", 1); ("j", 1) ] 2 } ])

let test_validate_quartic_nest () =
  (* four loops depending on i: the outermost equation has degree 4,
     exercising the Ferrari solver end to end *)
  check_nest "quartic" ~sizes:[ 2; 3; 5 ]
    (Trahrhe.Nest.make ~params:[ "N" ]
       [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
         { Trahrhe.Nest.var = "j"; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 };
         { Trahrhe.Nest.var = "k"; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 };
         { Trahrhe.Nest.var = "l"; lower = aff [] 0; upper = aff [ ("i", 1) ] 1 } ])

let test_validate_all_kernels () =
  List.iter
    (fun (k : Kernels.Kernel.t) ->
      let forms = Trahrhe.Closed_form.select_exn (Kernels.Kernel.inversion k) in
      List.iter
        (fun n ->
          let report = Trahrhe.Validate.check forms ~param:(Kernels.Kernel.param_of k ~n) in
          if not (Trahrhe.Validate.raw_floor_ok report) then
            Alcotest.failf "%s at n=%d:@\n%a" k.Kernels.Kernel.name n Trahrhe.Validate.pp report)
        [ 3; 8 ])
    Kernels.Registry.kernels

let test_validate_tetrahedron_raw_floor () =
  (* for i in [0,N) for j in [i,N) for k in [j,N) at N = 10: the
     paper's raw floor (what collapse --paper emits) misses 6 of the
     220 ranks, the runtime recovery none *)
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { Trahrhe.Nest.var = "j"; lower = aff [ ("i", 1) ] 0; upper = aff [ ("N", 1) ] 0 };
        { Trahrhe.Nest.var = "k"; lower = aff [ ("j", 1) ] 0; upper = aff [ ("N", 1) ] 0 } ]
  in
  let forms = Trahrhe.Closed_form.invert_exn nest in
  let report = Trahrhe.Validate.check forms ~param:(fun _ -> 10) in
  Alcotest.(check int) "iterations" 220 report.Trahrhe.Validate.iterations;
  Alcotest.(check int) "closed form" 214 report.Trahrhe.Validate.closed_form_ok;
  Alcotest.(check int) "recover" 220 report.Trahrhe.Validate.recover_ok;
  Alcotest.(check bool) "exact apart from the raw floor" true (Trahrhe.Validate.raw_floor_ok report);
  Alcotest.(check bool) "not all ok" false (Trahrhe.Validate.all_ok report)

let test_paper_formula_equivalence () =
  (* our selected correlation root, as the closed-form reference
     evaluates it, must compute the same index as the paper's literal
     Figure 3 formula for every pc *)
  let forms = Trahrhe.Closed_form.invert_exn (correlation_nest ()) in
  let n = 200 in
  let closed = Trahrhe.Closed_form.make forms ~param:(fun _ -> n) in
  let nf = float_of_int n in
  let paper_i pc =
    (* i = floor(-(sqrt(4N^2 - 4N - 8pc + 9) - 2N + 1) / 2) *)
    int_of_float
      (Float.floor
         (-.(Float.sqrt ((4. *. nf *. nf) -. (4. *. nf) -. (8. *. float_of_int pc) +. 9.)
             -. (2. *. nf) +. 1.)
         /. 2.))
  in
  for pc = 1 to n * (n - 1) / 2 do
    let got = (Trahrhe.Closed_form.recover closed pc).(0) in
    if got <> paper_i pc then
      Alcotest.failf "pc=%d: ours %d, paper %d" pc got (paper_i pc)
  done

let prop_compiled_rank_matches_exact =
  (* the native-int compiled ranking must agree with exact bigint
     evaluation on every point *)
  QCheck.Test.make ~name:"compiled rank = exact bigint rank" ~count:300
    (QCheck.triple (QCheck.int_range 2 60) (QCheck.int_range 0 58) (QCheck.int_range 0 59))
    (fun (n, i, j) ->
      QCheck.assume (i < n - 1 && j > i && j < n);
      let nest = correlation_nest () in
      let inv = Trahrhe.Inversion.invert_exn nest in
      let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> n) in
      let fast = Trahrhe.Recovery.rank rc [| i; j |] in
      let exact = Trahrhe.Ranking.rank_at nest ~param:(fun _ -> n) [| i; j |] in
      Zmath.Bigint.to_int exact = Some fast)

let test_recovery_extralarge_sampled () =
  (* paper-scale sizes (utma 5000, ltmp 4000): recover must stay exact
     at sparse sampled ranks *)
  List.iter
    (fun (nest, n) ->
      let inv = Trahrhe.Inversion.invert_exn nest in
      let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> n) in
      let trip = Trahrhe.Recovery.trip_count rc in
      let step = max 1 (trip / 997) in
      let pc = ref 1 in
      while !pc <= trip do
        ignore (check_recover_successor rc !pc);
        pc := !pc + step
      done)
    [ (correlation_nest (), 5000); (fig6_nest (), 800) ]

(* random 2- and 3-level nests: the central soundness property *)
let random_nest =
  let gen =
    QCheck.Gen.(
      let coeff = int_range (-2) 2 in
      let* depth = int_range 2 3 in
      let* a = int_range 1 6 in
      let* c1 = coeff and* d1 = int_range (-2) 2 and* w1 = int_range 0 5 in
      let* c2a = coeff and* c2b = coeff and* d2 = int_range (-2) 2 and* w2 = int_range 0 4 in
      let levels2 =
        [ { Trahrhe.Nest.var = "i"; lower = aff [] 0; upper = aff [] a };
          { Trahrhe.Nest.var = "j"; lower = aff [ ("i", c1) ] d1; upper = aff [ ("i", c1) ] (d1 + w1 + 1) } ]
      in
      let levels3 =
        levels2
        @ [ { Trahrhe.Nest.var = "k";
              lower = aff [ ("i", c2a); ("j", c2b) ] d2;
              upper = aff [ ("i", c2a); ("j", c2b) ] (d2 + w2 + 1) } ]
      in
      return (Trahrhe.Nest.make ~params:[] (if depth = 2 then levels2 else levels3)))
  in
  QCheck.make ~print:(Format.asprintf "%a" Trahrhe.Nest.pp) gen

let prop_random_nests_validate =
  QCheck.Test.make ~name:"random nests: ranking bijective, recoveries exact" ~count:60
    random_nest (fun nest ->
      match Trahrhe.Closed_form.invert ~sample_sizes:[ 1 ] nest with
      | Error _ -> QCheck.assume_fail ()
      | Ok forms ->
        let report = Trahrhe.Validate.check forms ~param:(fun _ -> 0) in
        Trahrhe.Validate.raw_floor_ok report)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [ ( "trahrhe.nest",
      [ Alcotest.test_case "validation errors" `Quick test_nest_validation;
        Alcotest.test_case "accessors" `Quick test_nest_accessors;
        Alcotest.test_case "dependence degree" `Quick test_dependence_degree;
        Alcotest.test_case "iterate order" `Quick test_nest_iterate;
        Alcotest.test_case "iterate exact" `Quick test_nest_iterate_exact ] );
    ( "trahrhe.ranking",
      [ Alcotest.test_case "correlation paper formula" `Quick test_ranking_correlation_formula;
        Alcotest.test_case "correlation paper anchors" `Quick test_ranking_paper_anchors;
        Alcotest.test_case "fig6 paper formula" `Quick test_ranking_fig6_formula;
        Alcotest.test_case "trip counts" `Quick test_trip_counts;
        Alcotest.test_case "ranking and trip from one chain" `Quick test_ranking_and_trip;
        Alcotest.test_case "rank_at" `Quick test_rank_at ] );
    ( "trahrhe.inversion",
      [ Alcotest.test_case "correlation root modes" `Quick test_invert_correlation_modes;
        Alcotest.test_case "fig6 needs complex" `Quick test_invert_fig6_complex;
        Alcotest.test_case "depth-1 nest" `Quick test_invert_depth1;
        Alcotest.test_case "degree > 4 goes numeric" `Quick test_invert_degree5_numeric;
        Alcotest.test_case "pc variable collision" `Quick test_invert_pc_collision;
        Alcotest.test_case "misranking nest names its point" `Quick test_invert_rank_mismatch;
        Alcotest.test_case "sample budget is not empty" `Quick test_invert_sample_budget;
        Alcotest.test_case "large literal ranks exactly" `Quick
          test_invert_large_literal_exact_ranks;
        Alcotest.test_case "trip mismatch names its sample" `Quick test_invert_trip_mismatch;
        Alcotest.test_case "large outer shifts invert exactly" `Quick
          test_invert_large_outer_shift;
        Alcotest.test_case "plans match the golden digest" `Quick test_plan_identity_golden ] );
    ( "trahrhe.recovery",
      [ Alcotest.test_case "paper anchor recoveries" `Quick test_recovery_paper_formulas;
        Alcotest.test_case "strategies agree everywhere" `Quick test_recovery_strategies_agree;
        Alcotest.test_case "bounds and rank_prefix" `Quick test_recovery_bounds_functions;
        Alcotest.test_case "bigint overflow fallback" `Quick test_recovery_bigint_fallback;
        Alcotest.test_case "increment walks domain" `Quick test_recovery_increment_walks_domain;
        Alcotest.test_case "empty domain" `Quick test_recovery_empty_domain;
        Alcotest.test_case "missing parameter" `Quick test_recovery_missing_param;
        Alcotest.test_case "trip count beyond int range" `Quick test_recovery_trip_overflow;
        Alcotest.test_case "horner matches the exact reference" `Quick
          test_recovery_horner_matches_exact;
        Alcotest.test_case "fdiff walk matches increment" `Quick test_recovery_walk_matches_increment;
        Alcotest.test_case "lane-walk matches walk (\xc2\xa7VI-A)" `Quick
          test_recovery_walk_lanes_matches_walk;
        Alcotest.test_case "recover_block edges" `Quick test_recover_block;
        Alcotest.test_case "lane blocks straddle runs" `Quick test_walk_lanes_straddles_runs ]
      @ qsuite [ prop_block_hash_is_lane_sum ] );
    ( "trahrhe.validate",
      [ Alcotest.test_case "paper nests exhaustively" `Quick test_validate_paper_nests;
        Alcotest.test_case "shifted lower bounds" `Quick test_validate_shifted_lower_bounds;
        Alcotest.test_case "rhomboid" `Quick test_validate_rhomboid;
        Alcotest.test_case "trapezoid" `Quick test_validate_trapezoid;
        Alcotest.test_case "mixed multi-outer dependence" `Quick test_validate_multi_dependence;
        Alcotest.test_case "quartic inversion end-to-end" `Slow test_validate_quartic_nest;
        Alcotest.test_case "all benchmark kernels" `Slow test_validate_all_kernels;
        Alcotest.test_case "paper Figure 3 formula equivalence" `Slow test_paper_formula_equivalence;
        Alcotest.test_case "paper-scale sampled recovery" `Slow test_recovery_extralarge_sampled ]
      @ qsuite [ prop_random_nests_validate; prop_compiled_rank_matches_exact ]
      @ [ Alcotest.test_case "tetrahedron raw floor misses" `Quick
            test_validate_tetrahedron_raw_floor ] ) ]
