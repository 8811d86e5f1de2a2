(* The paper's evaluation (§VII) as text tables: Figures 2, 8, 9 and
   10, the generated code of Figures 3/4/7, ablations A1-A5 and the
   bechamel micro-benchmarks. See DESIGN.md for the experiment index
   and EXPERIMENTS.md for paper-vs-measured results. *)

module K = Kernels.Kernel
module Sim = Ompsim.Sim
module Sched = Ompsim.Schedule
open Common

let threads = 12

let base_overheads =
  { Sim.fork_join = Ompsim.Calibrate.default_fork_join;
    dispatch = Ompsim.Calibrate.default_dispatch;
    chunk_start = 0.0;
    per_iter = 0.0 }

let collapsed_overheads =
  { base_overheads with
    chunk_start = Ompsim.Calibrate.default_recovery;
    per_iter = Ompsim.Calibrate.default_increment }

let naive_overheads =
  (* closed-form recovery at every iteration (paper Fig. 3 shape) *)
  { base_overheads with per_iter = Ompsim.Calibrate.default_recovery }

(* ---------------- Figure 2 ---------------- *)

let fig2 () =
  header "Figure 2: static distribution of the correlation triangle over 5 threads";
  let k = Option.get (Kernels.Registry.find "correlation") in
  let n = 1000 in
  let rows = k.K.outer_costs ~n in
  let blocks = Sched.static_blocks ~nthreads:5 ~n:(Array.length rows) in
  let total = Array.fold_left ( +. ) 0.0 rows in
  Printf.printf "correlation N=%d, schedule(static) on the outer i-loop:\n" n;
  Array.iteri
    (fun t (start, len) ->
      let work = ref 0.0 in
      for q = start to start + len - 1 do
        work := !work +. rows.(q)
      done;
      Printf.printf
        "  thread %d: rows %4d..%4d  work %12.0f  (%.1f%% of total, %.2fx fair share)\n" t start
        (start + len - 1) !work
        (100.0 *. !work /. total)
        (!work /. (total /. 5.0)))
    blocks;
  let coll = k.K.collapsed_costs ~n in
  let cblocks = Sched.static_blocks ~nthreads:5 ~n:(Array.length coll) in
  Printf.printf "after collapsing (pc-loop, schedule(static)):\n";
  Array.iteri
    (fun t (start, len) ->
      let work = ref 0.0 in
      for q = start to start + len - 1 do
        work := !work +. coll.(q)
      done;
      Printf.printf "  thread %d: %7d iterations  work %12.0f  (%.2fx fair share)\n" t len !work
        (!work /. (total /. 5.0)))
    cblocks

(* ---------------- Figure 8 ---------------- *)

let fig6_nest () =
  let module A = Polymath.Affine in
  let module Q = Zmath.Rat in
  Trahrhe.Nest.make ~params:[ "N" ]
    [ { var = "i"; lower = A.const Q.zero; upper = A.make [ ("N", Q.one) ] Q.minus_one };
      { var = "j"; lower = A.const Q.zero; upper = A.make [ ("i", Q.one) ] Q.one };
      { var = "k"; lower = A.var "j"; upper = A.make [ ("i", Q.one) ] Q.one } ]

let fig8 () =
  header "Figure 8: r(i,0,0) - pc for the 3-depth nest (parallel curves, N=10)";
  let inv = Trahrhe.Inversion.invert_exn (fig6_nest ()) in
  let r = inv.Trahrhe.Inversion.r_sub.(0) in
  let steps = List.init 12 (fun s -> -2.5 +. (0.5 *. float_of_int s)) in
  Printf.printf "%8s" "i:";
  List.iter (fun x -> Printf.printf "%8.1f" x) steps;
  print_newline ();
  for pc = 1 to 10 do
    Printf.printf "pc=%4d:" pc;
    List.iter
      (fun x ->
        let v =
          Polymath.Polynomial.eval_float (function "i" -> x | _ -> 10.0) r -. float_of_int pc
        in
        Printf.printf "%8.2f" v)
      steps;
    print_newline ()
  done

(* ---------------- Figure 9 ---------------- *)

let fig9 () =
  header "Figure 9: gains of collapsing, 12 threads (simulated makespans, work units)";
  Printf.printf "%-18s %8s %12s %12s %12s %12s %9s %9s\n" "kernel" "n" "static" "dynamic" "guided"
    "collapsed" "g_static" "g_dynamic";
  List.iter
    (fun (k : K.t) ->
      let n = k.K.default_n in
      let outer = k.K.outer_costs ~n in
      let coll = k.K.collapsed_costs ~n in
      let run costs sched ov =
        (Sim.run ~costs ~schedule:sched ~nthreads:threads ~overheads:ov).Sim.makespan
      in
      let ts = run outer Sched.Static base_overheads in
      let td = run outer (Sched.Dynamic 1) base_overheads in
      let tg = run outer (Sched.Guided 1) base_overheads in
      let tc = run coll Sched.Static collapsed_overheads in
      Printf.printf "%-18s %8d %12.3e %12.3e %12.3e %12.3e %8.1f%% %8.1f%%\n" k.K.name n ts td tg
        tc
        (100.0 *. Sim.gain ~baseline:ts ~improved:tc)
        (100.0 *. Sim.gain ~baseline:td ~improved:tc))
    Kernels.Registry.kernels;
  print_endline "(gain = (t_without - t_with)/t_without, as in the paper)"

(* ---------------- Figure 10 ---------------- *)

let fig10 () =
  header "Figure 10: serial control overhead of 12 root evaluations (native wall-clock)";
  Printf.printf "%-18s %8s %12s %12s %10s  %s\n" "kernel" "n" "original(s)" "collapsed(s)"
    "overhead" "checksum";
  List.iter
    (fun (k : K.t) ->
      let n = k.K.fig10_n in
      let o_sum = ref 0.0 and c_sum = ref 0.0 in
      let t_orig =
        Ompsim.Calibrate.time_best ~reps:3 (fun () -> o_sum := k.K.serial_original ~n)
      in
      let t_coll =
        Ompsim.Calibrate.time_best ~reps:3 (fun () ->
            c_sum := k.K.serial_collapsed ~n ~recoveries:12)
      in
      let same = Float.abs (!o_sum -. !c_sum) <= 1e-9 *. Float.max 1.0 (Float.abs !o_sum) in
      Printf.printf "%-18s %8d %12.4f %12.4f %9.2f%%  %s\n" k.K.name n t_orig t_coll
        (100.0 *. (t_coll -. t_orig) /. t_orig)
        (if same then "ok" else "MISMATCH"))
    Kernels.Registry.kernels

(* ---------------- generated code (Figures 3, 4, 7) ---------------- *)

let codegen () =
  header "Figures 3/4/7: generated collapsed OpenMP C";
  let k = Option.get (Kernels.Registry.find "correlation") in
  let forms = K.inversion k in
  let body =
    [ Codegen.C_ast.Raw "for (k = 0; k < N; k++) a[i][j] += b[k][i] * c[k][j];";
      Codegen.C_ast.Raw "a[j][i] = a[i][j];" ]
  in
  let config = { Codegen.Schemes.default_config with extra_private = [ "k" ] } in
  print_endline "--- Figure 3 (naive) ---";
  print_string (Codegen.C_print.to_string (Codegen.Schemes.naive ~config forms ~body));
  print_endline "--- Figure 4 (per-thread recovery) ---";
  print_string (Codegen.C_print.to_string (Codegen.Schemes.per_thread ~config forms ~body));
  let inv3 = Trahrhe.Closed_form.invert_exn (fig6_nest ()) in
  print_endline "--- Figure 7 (3-depth nest, complex recovery) ---";
  print_string
    (Codegen.C_print.to_string
       (Codegen.Schemes.naive inv3 ~body:[ Codegen.C_ast.Raw "S(i, j, k);" ]))

(* ---------------- ablations ---------------- *)

let ablation_chunk () =
  header "Ablation A1: chunk size of the chunked recovery scheme (correlation, 12 threads)";
  let k = Option.get (Kernels.Registry.find "correlation") in
  let n = k.K.default_n in
  let coll = k.K.collapsed_costs ~n in
  Printf.printf "%10s %12s %12s %10s\n" "chunk" "makespan" "chunks" "imbalance";
  List.iter
    (fun chunk ->
      let r =
        Sim.run ~costs:coll ~schedule:(Sched.Static_chunk chunk) ~nthreads:threads
          ~overheads:collapsed_overheads
      in
      Printf.printf "%10d %12.3e %12d %10.3f\n" chunk r.Sim.makespan r.Sim.chunks_dispatched
        r.Sim.imbalance)
    [ 16; 64; 256; 1024; 4096; 16384; 65536 ];
  let r =
    Sim.run ~costs:coll ~schedule:Sched.Static ~nthreads:threads ~overheads:collapsed_overheads
  in
  Printf.printf "%10s %12.3e %12d %10.3f\n" "static" r.Sim.makespan r.Sim.chunks_dispatched
    r.Sim.imbalance

let ablation_threads () =
  header "Ablation A2: thread scaling (gain of collapsed+static vs originals)";
  List.iter
    (fun name ->
      let k = Option.get (Kernels.Registry.find name) in
      let n = k.K.default_n in
      Printf.printf "%s (n=%d):\n%8s %12s %12s %12s %9s %9s\n" name n "threads" "static" "dynamic"
        "collapsed" "g_static" "g_dyn";
      List.iter
        (fun t ->
          let outer = k.K.outer_costs ~n and coll = k.K.collapsed_costs ~n in
          let ts =
            (Sim.run ~costs:outer ~schedule:Sched.Static ~nthreads:t ~overheads:base_overheads)
              .Sim.makespan
          in
          let td =
            (Sim.run ~costs:outer ~schedule:(Sched.Dynamic 1) ~nthreads:t
               ~overheads:base_overheads)
              .Sim.makespan
          in
          let tc =
            (Sim.run ~costs:coll ~schedule:Sched.Static ~nthreads:t
               ~overheads:collapsed_overheads)
              .Sim.makespan
          in
          Printf.printf "%8d %12.3e %12.3e %12.3e %8.1f%% %8.1f%%\n" t ts td tc
            (100.0 *. Sim.gain ~baseline:ts ~improved:tc)
            (100.0 *. Sim.gain ~baseline:td ~improved:tc))
        [ 2; 4; 8; 12; 24; 48; 96 ])
    [ "correlation"; "ltmp"; "fdtd_skewed" ]

let ablation_recovery () =
  header "Ablation A3: index recovery, paper closed forms vs the exact search";
  Printf.printf "%-18s %14s %14s   %s\n" "kernel" "closed(ns)" "recover(ns)"
    "naive-scheme makespan penalty";
  List.iter
    (fun (k : K.t) ->
      let n = max 64 (k.K.fig10_n / 2) in
      let rc = K.recovery k ~n in
      let closed_form = Trahrhe.Closed_form.make (K.inversion k) ~param:(K.param_of k ~n) in
      let trip = Trahrhe.Recovery.trip_count rc in
      let reps = 20_000 in
      let time_ns f =
        let t0 = Unix.gettimeofday () in
        let sink = ref 0 in
        for q = 1 to reps do
          let pc = 1 + (q * 7919 mod trip) in
          sink := !sink + (f pc).(0)
        done;
        ignore !sink;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int reps
      in
      let closed = time_ns (Trahrhe.Closed_form.recover closed_form) in
      let recover = time_ns (Trahrhe.Recovery.recover rc) in
      let coll = k.K.collapsed_costs ~n:k.K.default_n in
      let t_naive =
        (Sim.run ~costs:coll ~schedule:Sched.Static ~nthreads:threads ~overheads:naive_overheads)
          .Sim.makespan
      in
      let t_pt =
        (Sim.run ~costs:coll ~schedule:Sched.Static ~nthreads:threads
           ~overheads:collapsed_overheads)
          .Sim.makespan
      in
      Printf.printf "%-18s %14.0f %14.0f   +%.1f%%\n" k.K.name closed recover
        (100.0 *. ((t_naive /. t_pt) -. 1.0)))
    Kernels.Registry.kernels

let ablation_gpu () =
  header "Ablation A4: GPU warp mapping (§VI-B cost model, correlation)";
  let k = Option.get (Kernels.Registry.find "correlation") in
  let n = 600 in
  let coll = k.K.collapsed_costs ~n in
  let total = Array.length coll in
  (* row-major address of the (i,j) element touched by each collapsed
     iteration: walk the triangle once to record them *)
  let addresses = Array.make total 0 in
  let rc = K.recovery k ~n in
  let idx = Trahrhe.Recovery.first rc in
  for q = 0 to total - 1 do
    addresses.(q) <- (idx.(0) * n) + idx.(1);
    if q < total - 1 then ignore (Trahrhe.Recovery.increment rc idx)
  done;
  Printf.printf "%12s %10s %12s %14s %12s\n" "mapping" "warp" "compute" "transactions" "time";
  List.iter
    (fun (name, mapping) ->
      List.iter
        (fun warp ->
          let r =
            Ompsim.Gpu.run ~n:total ~warp ~mapping
              ~cost:(fun q -> coll.(q) /. float_of_int n)
              ~address:(fun q -> addresses.(q))
              ~line:16 ~transaction_cost:8.0
          in
          Printf.printf "%12s %10d %12.3e %14d %12.3e\n" name warp r.Ompsim.Gpu.compute
            r.Ompsim.Gpu.transactions r.Ompsim.Gpu.time)
        [ 16; 32; 64 ])
    [ ("coalesced", Ompsim.Gpu.Coalesced); ("blocked", Ompsim.Gpu.Blocked) ];
  print_endline "(coalesced = the paper's consecutive-rank-per-warp distribution)"

let ablation_simd () =
  header "Ablation A5: SIMD vectorization of the collapsed loop (§VI-A model)";
  Printf.printf "%-18s %8s %12s %12s %10s\n" "kernel" "vlength" "scalar" "vector" "speedup";
  List.iter
    (fun name ->
      let k = Option.get (Kernels.Registry.find name) in
      let costs = k.K.collapsed_costs ~n:(max 16 (k.K.default_n / 4)) in
      (* per-lane work normalized to one unit so vlength lanes of the
         inner loop vectorize; fill = one tuple store + §V increment *)
      let unit = Array.map (fun c -> c /. Float.max 1.0 c) costs in
      List.iter
        (fun vlength ->
          let r = Ompsim.Simd.run ~costs:unit ~vlength ~fill:0.06 in
          Printf.printf "%-18s %8d %12.3e %12.3e %9.2fx\n" name vlength r.Ompsim.Simd.scalar_time
            r.Ompsim.Simd.vector_time r.Ompsim.Simd.speedup)
        [ 2; 4; 8; 16 ])
    [ "utma"; "dynprog" ]

(* ---------------- bechamel micro-benchmarks ---------------- *)

let micro () =
  header "Micro-benchmarks (bechamel, ns/run)";
  let open Bechamel in
  let open Toolkit in
  let corr = Option.get (Kernels.Registry.find "correlation") in
  let rc = K.recovery corr ~n:2000 in
  let closed = Trahrhe.Closed_form.make (K.inversion corr) ~param:(K.param_of corr ~n:2000) in
  let trip = Trahrhe.Recovery.trip_count rc in
  let symm = Option.get (Kernels.Registry.find "symm") in
  let rc3 = K.recovery symm ~n:100 in
  let closed3 = Trahrhe.Closed_form.make (K.inversion symm) ~param:(K.param_of symm ~n:100) in
  let trip3 = Trahrhe.Recovery.trip_count rc3 in
  let big_a = Zmath.Bigint.of_string "123456789012345678901234567890123456789" in
  let big_b = Zmath.Bigint.of_string "987654321098765432109876543210987654321" in
  let ranking = (K.inversion corr).Trahrhe.Closed_form.inversion.Trahrhe.Inversion.ranking in
  let counter = ref 0 in
  let next_pc t =
    counter := (!counter + 7919) mod t;
    1 + !counter
  in
  let costs = corr.K.collapsed_costs ~n:500 in
  let rows = corr.K.outer_costs ~n:500 in
  let idx = Trahrhe.Recovery.first rc in
  let tests =
    [ Test.make ~name:"recover_closed_deg2"
        (Staged.stage (fun () -> Trahrhe.Closed_form.recover closed (next_pc trip)));
      Test.make ~name:"recover_deg2"
        (Staged.stage (fun () -> Trahrhe.Recovery.recover rc (next_pc trip)));
      Test.make ~name:"recover_closed_deg3"
        (Staged.stage (fun () -> Trahrhe.Closed_form.recover closed3 (next_pc trip3)));
      Test.make ~name:"recover_deg3"
        (Staged.stage (fun () -> Trahrhe.Recovery.recover rc3 (next_pc trip3)));
      Test.make ~name:"rank_eval_exact"
        (Staged.stage (fun () -> Trahrhe.Recovery.rank rc [| 100; 200 |]));
      Test.make ~name:"increment"
        (Staged.stage (fun () ->
             if not (Trahrhe.Recovery.increment rc idx) then begin
               idx.(0) <- 0;
               idx.(1) <- 1
             end));
      Test.make ~name:"bigint_mul_128bit" (Staged.stage (fun () -> Zmath.Bigint.mul big_a big_b));
      Test.make ~name:"poly_mul_ranking^2"
        (Staged.stage (fun () -> Polymath.Polynomial.mul ranking ranking));
      Test.make ~name:"invert_correlation"
        (Staged.stage (fun () -> Trahrhe.Inversion.invert_exn corr.K.nest));
      Test.make ~name:"sim_static_125k"
        (Staged.stage (fun () ->
             Sim.run ~costs ~schedule:Sched.Static ~nthreads:12 ~overheads:collapsed_overheads));
      Test.make ~name:"sim_dynamic_500rows"
        (Staged.stage (fun () ->
             Sim.run ~costs:rows ~schedule:(Sched.Dynamic 1) ~nthreads:12
               ~overheads:base_overheads)) ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (Test.make_grouped ~name:"micro" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let entries =
    Hashtbl.fold
      (fun name o acc ->
        match Analyze.OLS.estimates o with
        | Some [ est ] -> (name, est) :: acc
        | _ -> (name, nan) :: acc)
      results []
    |> List.sort compare
  in
  List.iter (fun (name, est) -> Printf.printf "  %-36s %12.1f ns/run\n" name est) entries
