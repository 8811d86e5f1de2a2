(* Tests for the benchmark kernels: cost models must agree with the
   nest geometry, and the collapsed serial implementations must compute
   exactly what the original nests compute. *)

module K = Kernels.Kernel

let test_registry () =
  Alcotest.(check int) "15 kernels (9 + utma + ltmp + 2 reduction + 2 deep kernels)" 15
    (List.length Kernels.Registry.kernels);
  Alcotest.(check bool) "names unique" true
    (let names = Kernels.Registry.names in
     List.length (List.sort_uniq compare names) = List.length names);
  Alcotest.(check bool) "find works" true (Kernels.Registry.find "ltmp" <> None);
  Alcotest.(check bool) "find missing" true (Kernels.Registry.find "nope" = None)

let test_families_covered () =
  let families =
    List.map (fun (k : K.t) -> k.family) Kernels.Registry.kernels |> List.sort_uniq compare
  in
  (* §I: triangular, tetrahedral, trapezoidal, rhomboidal (+ tiled) *)
  List.iter
    (fun f -> Alcotest.(check bool) (f ^ " present") true (List.mem f families))
    [ "triangular"; "tetrahedral"; "trapezoidal"; "rhomboidal"; "tiled-triangular" ]

let test_cost_arrays_consistent () =
  (* for every kernel: the collapsed cost array has exactly trip_count
     entries, and total work matches the outer-loop view *)
  List.iter
    (fun (k : K.t) ->
      let n = 8 in
      let rc = K.recovery k ~n in
      let coll = k.collapsed_costs ~n in
      Alcotest.(check int)
        (k.name ^ ": collapsed length = trip count")
        (Trahrhe.Recovery.trip_count rc)
        (Array.length coll);
      let outer = k.outer_costs ~n in
      let total_outer = Array.fold_left ( +. ) 0.0 outer in
      let total_coll = Array.fold_left ( +. ) 0.0 coll in
      Alcotest.(check bool)
        (Printf.sprintf "%s: totals agree (%g vs %g)" k.name total_outer total_coll)
        true
        (Float.abs (total_outer -. total_coll) <= 1e-6 *. Float.max 1.0 total_outer))
    Kernels.Registry.kernels

let test_outer_costs_length () =
  List.iter
    (fun (k : K.t) ->
      let n = 8 in
      let param = K.param_of k ~n in
      (* outer array must have one entry per outermost iteration *)
      let outer_var_count = ref 0 in
      let seen = Hashtbl.create 16 in
      Trahrhe.Nest.iterate k.nest ~param (fun idx ->
          if not (Hashtbl.mem seen idx.(0)) then begin
            Hashtbl.add seen idx.(0) ();
            incr outer_var_count
          end);
      Alcotest.(check int)
        (k.name ^ ": outer rows")
        !outer_var_count
        (Array.length (k.outer_costs ~n)))
    Kernels.Registry.kernels

let test_checksums_match () =
  List.iter
    (fun (k : K.t) ->
      let n = max 6 (k.fig10_n / 16) in
      let o = k.serial_original ~n in
      List.iter
        (fun recoveries ->
          let c = k.serial_collapsed ~n ~recoveries in
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d recoveries=%d (%g vs %g)" k.name n recoveries o c)
            true
            (Float.abs (o -. c) <= 1e-9 *. Float.max 1.0 (Float.abs o)))
        [ 1; 5; 12 ])
    Kernels.Registry.kernels

let test_chunk_starts () =
  Alcotest.(check (list (pair int int)))
    "10 over 3"
    [ (1, 4); (5, 3); (8, 3) ]
    (K.chunk_starts ~trip:10 ~recoveries:3);
  Alcotest.(check (list (pair int int))) "trip smaller than recoveries"
    [ (1, 1); (2, 1) ]
    (K.chunk_starts ~trip:2 ~recoveries:5);
  Alcotest.(check (list (pair int int))) "empty" [] (K.chunk_starts ~trip:0 ~recoveries:4);
  (* chunks must exactly tile 1..trip *)
  let chunks = K.chunk_starts ~trip:101 ~recoveries:7 in
  let covered = List.fold_left (fun acc (_, len) -> acc + len) 0 chunks in
  Alcotest.(check int) "covers trip" 101 covered;
  let rec contiguous = function
    | (s1, l1) :: ((s2, _) :: _ as rest) -> s1 + l1 = s2 && contiguous rest
    | _ -> true
  in
  Alcotest.(check bool) "contiguous" true (contiguous chunks);
  Alcotest.(check int) "starts at 1" 1 (fst (List.hd chunks))

let test_param_of () =
  let k = Option.get (Kernels.Registry.find "fdtd_skewed") in
  Alcotest.(check int) "T fixed" 28 (K.param_of k ~n:5000 "T");
  Alcotest.(check int) "N is n" 5000 (K.param_of k ~n:5000 "N");
  Alcotest.(check bool) "unknown param raises" true
    (try
       ignore (K.param_of k ~n:10 "Z");
       false
     with Invalid_argument _ -> true)

let test_inversion_cached () =
  let k = Option.get (Kernels.Registry.find "correlation") in
  let a = K.inversion k and b = K.inversion k in
  Alcotest.(check bool) "same inversion object" true (a == b)

let test_ltmp_stays_imbalanced () =
  (* the paper's ltmp observation: even collapsed, the (i-j+1) work
     profile leaves static chunks imbalanced, so dynamic wins *)
  let k = Option.get (Kernels.Registry.find "ltmp") in
  let coll = k.collapsed_costs ~n:600 in
  let r =
    Ompsim.Sim.run ~costs:coll ~schedule:Ompsim.Schedule.Static ~nthreads:12
      ~overheads:Ompsim.Sim.no_overheads
  in
  Alcotest.(check bool) "collapsed static still imbalanced" true (r.Ompsim.Sim.imbalance > 1.2)

let test_correlation_collapsed_balanced () =
  let k = Option.get (Kernels.Registry.find "correlation") in
  let coll = k.collapsed_costs ~n:600 in
  let r =
    Ompsim.Sim.run ~costs:coll ~schedule:Ompsim.Schedule.Static ~nthreads:12
      ~overheads:Ompsim.Sim.no_overheads
  in
  Alcotest.(check bool) "collapsed static balanced" true (r.Ompsim.Sim.imbalance < 1.01);
  let outer = k.outer_costs ~n:600 in
  let r0 =
    Ompsim.Sim.run ~costs:outer ~schedule:Ompsim.Schedule.Static ~nthreads:12
      ~overheads:Ompsim.Sim.no_overheads
  in
  Alcotest.(check bool) "original static imbalanced" true (r0.Ompsim.Sim.imbalance > 1.5)

let test_parallel_execution_matches_serial () =
  (* drive a real kernel through Ompsim.Par with per-chunk recovery:
     the §V scheme end-to-end on OCaml domains *)
  let k = Option.get (Kernels.Registry.find "utma") in
  let n = 120 in
  let serial = k.K.serial_original ~n in
  let rc = K.recovery k ~n in
  let trip = Trahrhe.Recovery.trip_count rc in
  (* rebuild the same arrays as the kernel's setup and run in parallel *)
  let b =
    Array.init (n * n) (fun q ->
        let r = q / n and c = q mod n in
        if c >= r then float_of_int ((r + c) mod 23) else 0.0)
  in
  let cmat =
    Array.init (n * n) (fun q ->
        let r = q / n and c = q mod n in
        if c >= r then float_of_int ((r * c) mod 29) else 0.0)
  in
  List.iter
    (fun schedule ->
      let a = Array.make (n * n) 0.0 in
      Ompsim.Par.parallel_for_chunks ~nthreads:4 ~schedule ~n:trip
        (fun ~thread:_ ~start ~len ->
          let idx = Trahrhe.Recovery.recover rc (start + 1) in
          let i = ref idx.(0) and j = ref idx.(1) in
          for _ = 1 to len do
            a.((!i * n) + !j) <- b.((!i * n) + !j) +. cmat.((!i * n) + !j);
            incr j;
            if !j >= n then begin
              incr i;
              j := !i
            end
          done);
      let sum = ref 0.0 in
      Array.iteri (fun q v -> sum := !sum +. (v *. float_of_int ((q mod 97) + 1))) a;
      Alcotest.(check (float 1e-9))
        (Ompsim.Schedule.to_string schedule ^ " parallel = serial")
        serial !sum)
    [ Ompsim.Schedule.Static; Ompsim.Schedule.Dynamic 256; Ompsim.Schedule.Guided 128 ]

let test_reduction_kernels () =
  (* the reduction kernels carry a declared clause whose serial fold
     must agree with (a) the hand-written reference loops, (b) the
     recovery's per-chunk walk_reduce_int, and (c) the parallel
     Par.reduce combine tree under every schedule *)
  List.iter
    (fun name ->
      let k = Option.get (Kernels.Registry.find name) in
      Alcotest.(check bool) (name ^ " declares a clause") true (k.K.nest.Trahrhe.Nest.reduce <> None);
      let n = 12 in
      let param = K.param_of k ~n in
      let rc = K.recovery k ~n in
      let trip = Trahrhe.Recovery.trip_count rc in
      (* serial fold of the clause over the whole space *)
      let serial = ref 0 in
      Trahrhe.Nest.iterate k.K.nest ~param (fun idx ->
          serial := !serial + Trahrhe.Recovery.reduce_value_int rc idx);
      Alcotest.(check (float 0.0))
        (name ^ ": hand-written reference = clause fold")
        (k.K.serial_original ~n)
        (float_of_int !serial);
      Alcotest.(check int)
        (name ^ ": one-shot walk_reduce_int = serial")
        !serial
        (Trahrhe.Recovery.walk_reduce_int rc Trahrhe.Nest.Sum ~pc:1 ~len:trip);
      List.iter
        (fun schedule ->
          let r =
            Ompsim.Par.reduce ~faults:None ~nthreads:4 ~schedule ~n:trip ~combine:( + )
              (fun ~thread:_ ~start ~len ->
                Trahrhe.Recovery.walk_reduce_int rc Trahrhe.Nest.Sum ~pc:(start + 1) ~len)
            |> Result.get_ok
          in
          Alcotest.(check (option int))
            (Printf.sprintf "%s: %s parallel reduction = serial" name
               (Ompsim.Schedule.to_string schedule))
            (Some !serial) r)
        [ Ompsim.Schedule.Static;
          Ompsim.Schedule.Dynamic 7;
          Ompsim.Schedule.Guided 5;
          Ompsim.Schedule.Work_stealing 16;
          Ompsim.Schedule.Dnc 3 ])
    [ "correlation_reduce"; "covariance_reduce" ]

let suites =
  [ ( "kernels",
      [ Alcotest.test_case "registry" `Quick test_registry;
        Alcotest.test_case "iteration-space families" `Quick test_families_covered;
        Alcotest.test_case "cost arrays consistent with geometry" `Quick test_cost_arrays_consistent;
        Alcotest.test_case "outer cost rows" `Quick test_outer_costs_length;
        Alcotest.test_case "chunk starts" `Quick test_chunk_starts;
        Alcotest.test_case "param_of" `Quick test_param_of;
        Alcotest.test_case "inversion cache" `Quick test_inversion_cached;
        Alcotest.test_case "ltmp stays imbalanced (paper)" `Quick test_ltmp_stays_imbalanced;
        Alcotest.test_case "correlation balance flip" `Quick test_correlation_collapsed_balanced;
        Alcotest.test_case "reduction kernels (clause = reference = parallel)" `Quick
          test_reduction_kernels;
        Alcotest.test_case "collapsed checksums match originals" `Slow test_checksums_match;
        Alcotest.test_case "parallel domains execution (§V end-to-end)" `Slow
          test_parallel_execution_matches_serial ] ) ]
