(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (§VII), plus ablations. See DESIGN.md for the experiment
   index and EXPERIMENTS.md for paper-vs-measured results.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig9    # one artifact

   Artifacts: fig2 fig8 fig9 fig10 codegen ablation-chunk
   ablation-threads ablation-recovery micro micro-recovery
   micro-invert micro-pool micro-obsv micro-lanes micro-steal
   micro-fault micro-cache micro-jit micro-reduce micro-serve
   micro-chaos

   The micro-* artifacts additionally write machine-readable
   BENCH_recovery.json / BENCH_invert.json / BENCH_pool.json /
   BENCH_obsv.json / BENCH_lanes.json / BENCH_steal.json /
   BENCH_fault.json / BENCH_cache.json / BENCH_jit.json /
   BENCH_reduce.json / BENCH_serve.json / BENCH_chaos.json into the
   current directory (all through the shared Emit module, which stamps
   schema_version + git revision) so the hot-path perf trajectory can
   be tracked across PRs; micro-obsv also writes TRACE_obsv.json, a
   Chrome trace of an instrumented parallel run. micro-lanes,
   micro-steal, micro-fault, micro-cache, micro-jit and micro-serve
   honour BENCH_LANES_N / BENCH_STEAL_N / BENCH_FAULT_N /
   BENCH_CACHE_NESTS, BENCH_CACHE_REQS / BENCH_JIT_N, BENCH_JIT_LANES,
   BENCH_JIT_CHUNK / BENCH_SERVE_CLIENTS, BENCH_SERVE_REQS,
   BENCH_SERVE_WINDOW, BENCH_SERVE_TRIALS, BENCH_SERVE_NESTS for
   CI-sized runs; micro-invert honours BENCH_INVERT_N;
   micro-reduce honours BENCH_REDUCE_N,
   BENCH_REDUCE_SPIN, BENCH_REDUCE_SWEEP_N. micro-chaos (bench/chaos.ml)
   is the robustness harness: kill-9 mid-write, corrupt-store,
   wedged-cc and flooding-client scenarios with recovery gates,
   sized by BENCH_CHAOS_SEED, BENCH_CHAOS_TIMEOUT_MS,
   BENCH_CHAOS_VICTIM_REQS, BENCH_CHAOS_FLOOD_WINDOW,
   BENCH_CHAOS_RATE. *)

module K = Kernels.Kernel
module Sim = Ompsim.Sim
module Sched = Ompsim.Schedule

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

let header title =
  Printf.printf "\n==================== %s ====================\n" title

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
  let inv = K.inversion k in
  let body =
    [ Codegen.C_ast.Raw "for (k = 0; k < N; k++) a[i][j] += b[k][i] * c[k][j];";
      Codegen.C_ast.Raw "a[j][i] = a[i][j];" ]
  in
  let config = { Codegen.Schemes.default_config with extra_private = [ "k" ] } in
  print_endline "--- Figure 3 (naive) ---";
  print_string (Codegen.C_print.to_string (Codegen.Schemes.naive ~config inv ~body));
  print_endline "--- Figure 4 (per-thread recovery) ---";
  print_string (Codegen.C_print.to_string (Codegen.Schemes.per_thread ~config inv ~body));
  let inv3 = Trahrhe.Inversion.invert_exn (fig6_nest ()) in
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
  header "Ablation A3: index recovery strategies";
  Printf.printf "%-18s %14s %14s %14s   %s\n" "kernel" "closed(ns)" "guarded(ns)" "binsearch(ns)"
    "naive-scheme makespan penalty";
  List.iter
    (fun (k : K.t) ->
      let n = max 64 (k.K.fig10_n / 2) in
      let rc = K.recovery k ~n in
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
      let closed = time_ns (Trahrhe.Recovery.recover rc) in
      let guarded = time_ns (Trahrhe.Recovery.recover_guarded rc) in
      let binsearch = time_ns (Trahrhe.Recovery.recover_binsearch rc) in
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
      Printf.printf "%-18s %14.0f %14.0f %14.0f   +%.1f%%\n" k.K.name closed guarded binsearch
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
  let trip = Trahrhe.Recovery.trip_count rc in
  let symm = Option.get (Kernels.Registry.find "symm") in
  let rc3 = K.recovery symm ~n:100 in
  let trip3 = Trahrhe.Recovery.trip_count rc3 in
  let big_a = Zmath.Bigint.of_string "123456789012345678901234567890123456789" in
  let big_b = Zmath.Bigint.of_string "987654321098765432109876543210987654321" in
  let ranking = (K.inversion corr).Trahrhe.Inversion.ranking in
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
        (Staged.stage (fun () -> Trahrhe.Recovery.recover rc (next_pc trip)));
      Test.make ~name:"recover_guarded_deg2"
        (Staged.stage (fun () -> Trahrhe.Recovery.recover_guarded rc (next_pc trip)));
      Test.make ~name:"recover_binsearch_deg2"
        (Staged.stage (fun () -> Trahrhe.Recovery.recover_binsearch rc (next_pc trip)));
      Test.make ~name:"recover_closed_deg3"
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

(* ---------------- hot-path engine artifacts (JSON-emitting) ---------------- *)

(* every BENCH_*.json goes through the shared Emit module, which stamps
   the artifact schema version and the git revision in one place so the
   perf trajectory across PRs stays attributable *)

(* per-iteration cost of the strategies for executing a collapsed
   chunk: full recovery each iteration (the naive scheme), §V
   incrementation with per-step Horner re-evaluation of the bounds, and
   the walk whose carries advance the bounds by finite-difference
   tables *)
let micro_recovery () =
  header "micro-recovery: ns/iter walking the collapsed correlation nest (N=1000)";
  Emit.ensure_writable "BENCH_recovery.json";
  let n = 1000 in
  let corr = Option.get (Kernels.Registry.find "correlation") in
  let rc = K.recovery corr ~n in
  let trip = Trahrhe.Recovery.trip_count rc in
  let sink = ref 0 in
  let time_ns f =
    let s = Ompsim.Calibrate.time_best ~reps:3 f in
    s *. 1e9 /. float_of_int trip
  in
  let recover_each =
    time_ns (fun () ->
        for pc = 1 to trip do
          sink := !sink + (Trahrhe.Recovery.recover_guarded rc pc).(0)
        done)
  in
  let increment_horner =
    time_ns (fun () ->
        let idx = Trahrhe.Recovery.first rc in
        for _ = 1 to trip do
          sink := !sink + idx.(0);
          ignore (Trahrhe.Recovery.increment rc idx)
        done)
  in
  let fdiff_walk =
    time_ns (fun () -> Trahrhe.Recovery.walk rc ~pc:1 ~len:trip (fun idx -> sink := !sink + idx.(0)))
  in
  ignore !sink;
  Printf.printf "%-54s %10s\n" "strategy" "ns/iter";
  List.iter
    (fun (name, ns) -> Printf.printf "%-54s %10.1f\n" name ns)
    [ ("guarded closed-form recovery at every iteration", recover_each);
      ("§V increment, Horner bound re-evaluation", increment_horner);
      ("walk, finite-difference bound stepping", fdiff_walk) ];
  Printf.printf "walk vs re-evaluating increment: %.1fx; walk vs naive recovery: %.1fx\n"
    (increment_horner /. fdiff_walk)
    (recover_each /. fdiff_walk);
  Emit.write ~path:"BENCH_recovery.json" ~artifact:"micro-recovery"
    [ ("kernel", Emit.Str "correlation");
      ("n", Emit.Int n);
      ("iterations", Emit.Int trip);
      ( "ns_per_iter",
        Emit.Obj
          [ ("recover_each", Emit.F (recover_each, 2));
            ("increment_horner", Emit.F (increment_horner, 2));
            ("fdiff_walk", Emit.F (fdiff_walk, 2))
          ] );
      ( "speedup",
        Emit.Obj
          [ ("walk_vs_increment_horner", Emit.F (increment_horner /. fdiff_walk, 3));
            ("walk_vs_recover_each", Emit.F (recover_each /. fdiff_walk, 3))
          ] )
    ]

(* per-region overhead of the real executor: warm pool dispatch vs
   spawning fresh domains per parallel region *)
let micro_pool () =
  header "micro-pool: per-region overhead of Par.parallel_for (ns/call)";
  Emit.ensure_writable "BENCH_pool.json";
  let thread_counts = [ 2; 4; 8 ] in
  let measure backend nthreads =
    Ompsim.Calibrate.measure_region_overhead ~calls:200 ~backend ~nthreads ()
  in
  Printf.printf "%10s %14s %14s %10s\n" "nthreads" "spawn(ns)" "pool(ns)" "ratio";
  let rows =
    List.map
      (fun nthreads ->
        let spawn = measure Ompsim.Par.Spawn nthreads in
        let pool = measure Ompsim.Par.Pool nthreads in
        Printf.printf "%10d %14.0f %14.0f %9.1fx\n" nthreads spawn pool (spawn /. pool);
        (nthreads, spawn, pool))
      thread_counts
  in
  Emit.write ~path:"BENCH_pool.json" ~artifact:"micro-pool"
    [ ("calls_per_measurement", Emit.Int 200);
      ("pool_workers_alive", Emit.Int (Ompsim.Pool.size ()));
      ( "regions",
        Emit.Arr
          (List.map
             (fun (nthreads, spawn, pool) ->
               Emit.Obj
                 [ ("nthreads", Emit.Int nthreads);
                   ("spawn_ns", Emit.F (spawn, 0));
                   ("pool_ns", Emit.F (pool, 0));
                   ("spawn_over_pool", Emit.F (spawn /. pool, 3))
                 ])
             rows) )
    ]

(* overhead and imbalance of the observability layer itself: the §V
   walk loop with instrumentation absent / counters only (tracing
   off: the [walk_disabled_*] rows) / tracing on, then a
   real instrumented parallel execution whose per-worker counters give
   the imbalance histogram; also emits TRACE_obsv.json for CI's
   Chrome-trace validation *)
let micro_obsv () =
  header "micro-obsv: observability overhead on the walk loop (correlation, N=1000)";
  Emit.ensure_writable "BENCH_obsv.json";
  Emit.ensure_writable "TRACE_obsv.json";
  let n = 1000 in
  let corr = Option.get (Kernels.Registry.find "correlation") in
  let rc = K.recovery corr ~n in
  let trip = Trahrhe.Recovery.trip_count rc in
  let chunk = 512 in
  let sink = ref 0 in
  let time_ns f =
    let s = Ompsim.Calibrate.time_best ~reps:5 f in
    s *. 1e9 /. float_of_int trip
  in
  let full walk () = walk rc ~pc:1 ~len:trip (fun idx -> sink := !sink + idx.(0)) in
  let chunked walk () =
    let start = ref 0 in
    while !start < trip do
      walk rc ~pc:(!start + 1)
        ~len:(min chunk (trip - !start))
        (fun idx -> sink := !sink + idx.(0));
      start := !start + chunk
    done
  in
  Obsv.Control.set_enabled false;
  let bare_full = time_ns (full Trahrhe.Recovery.walk_uninstrumented) in
  let bare_chunked = time_ns (chunked Trahrhe.Recovery.walk_uninstrumented) in
  let disabled_full = time_ns (full Trahrhe.Recovery.walk) in
  let disabled_chunked = time_ns (chunked Trahrhe.Recovery.walk) in
  let enabled_chunked =
    Obsv.Control.with_enabled true (fun () -> time_ns (chunked Trahrhe.Recovery.walk))
  in
  ignore !sink;
  Obsv.Trace.clear ();
  Ompsim.Stats.reset ();
  let pct over base = 100.0 *. ((over -. base) /. base) in
  Printf.printf "%-46s %10s\n" "variant" "ns/iter";
  List.iter
    (fun (name, ns) -> Printf.printf "%-46s %10.2f\n" name ns)
    [ ("walk_uninstrumented, one chunk", bare_full);
      ("walk_uninstrumented, 512-chunks", bare_chunked);
      ("walk, tracing off (counters on), one chunk", disabled_full);
      ("walk, tracing off (counters on), 512-chunks", disabled_chunked);
      ("walk, tracing on, 512-chunks", enabled_chunked) ];
  Printf.printf
    "counters-on overhead: %+.2f%% (one chunk), %+.2f%% (512-chunks); enabled tracing: %+.2f%%\n"
    (pct disabled_full bare_full) (pct disabled_chunked bare_chunked)
    (pct enabled_chunked bare_chunked);
  (* instrumented parallel runs: per-worker chunk/iteration histogram *)
  let nthreads = 4 in
  let parallel_section schedule =
    Ompsim.Stats.reset ();
    Ompsim.Par.parallel_for_chunks ~nthreads ~schedule ~n:trip (fun ~thread:_ ~start ~len ->
        Trahrhe.Recovery.walk rc ~pc:(start + 1) ~len (fun idx -> sink := !sink + idx.(0)));
    let per_worker =
      Obsv.Metrics.per_slot Ompsim.Stats.par_iterations
      |> List.map (fun (slot, iters) ->
             Emit.Obj
               [ ("slot", Emit.Int slot);
                 ("chunks", Emit.Int (Obsv.Metrics.get Ompsim.Stats.par_chunks ~slot));
                 ("iterations", Emit.Int iters)
               ])
    in
    let imb = Obsv.Metrics.imbalance Ompsim.Stats.par_iterations in
    Printf.printf "  %-14s imbalance (max/mean iterations per worker): %.3f\n"
      (Sched.to_string schedule) imb;
    Ompsim.Stats.emit_trace_counters ();
    Emit.Obj
      [ ("schedule", Emit.Str (Sched.to_string schedule));
        ("nthreads", Emit.Int nthreads);
        ("imbalance", Emit.F (imb, 4));
        ("per_worker", Emit.Arr per_worker)
      ]
  in
  let sections =
    Obsv.Control.with_enabled true (fun () ->
        let s1 = parallel_section Sched.Static in
        let s2 = parallel_section (Sched.Dynamic chunk) in
        Obsv.Trace.write "TRACE_obsv.json";
        [ s1; s2 ])
  in
  Printf.printf "wrote TRACE_obsv.json (%d events)\n" (Obsv.Trace.event_count ());
  Emit.write ~path:"BENCH_obsv.json" ~artifact:"micro-obsv"
    [ ("kernel", Emit.Str "correlation");
      ("n", Emit.Int n);
      ("iterations", Emit.Int trip);
      ("chunk", Emit.Int chunk);
      ("walk_disabled_means", Emit.Str "tracing off, counters on");
      ( "ns_per_iter",
        Emit.Obj
          [ ("walk_uninstrumented_full", Emit.F (bare_full, 2));
            ("walk_uninstrumented_chunked", Emit.F (bare_chunked, 2));
            ("walk_disabled_full", Emit.F (disabled_full, 2));
            ("walk_disabled_chunked", Emit.F (disabled_chunked, 2));
            ("walk_enabled_chunked", Emit.F (enabled_chunked, 2))
          ] );
      ( "overhead_pct",
        Emit.Obj
          [ ("disabled_full", Emit.F (pct disabled_full bare_full, 3));
            ("disabled_chunked", Emit.F (pct disabled_chunked bare_chunked, 3));
            ("enabled_chunked", Emit.F (pct enabled_chunked bare_chunked, 3))
          ] );
      ("parallel", Emit.Arr sections);
      ("trace_events", Emit.Int (Obsv.Trace.event_count ()))
    ]

(* positive integer from the environment, for CI to shrink the bench
   sizes without patching the source *)
let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> (
    match int_of_string_opt s with Some v when v > 0 -> v | _ -> default)
  | None -> default

(* §VI-A batched lane-walk vs the per-iteration walk callback: same
   kernel, same chunking, the body reduced to one add per iteration so
   the difference is pure delivery mechanism (closure call per
   iteration vs Array.fill runs + one closure call per block) *)
let micro_lanes () =
  let n = env_int "BENCH_LANES_N" 1000 in
  header (Printf.sprintf "micro-lanes: walk vs walk_lanes ns/iter (correlation, N=%d)" n);
  Emit.ensure_writable "BENCH_lanes.json";
  let corr = Option.get (Kernels.Registry.find "correlation") in
  let rc = K.recovery corr ~n in
  let trip = Trahrhe.Recovery.trip_count rc in
  let chunk = min trip 4096 in
  let sink = ref 0 in
  let time_ns f =
    let s = Ompsim.Calibrate.time_best ~reps:5 f in
    s *. 1e9 /. float_of_int trip
  in
  let chunked per_chunk () =
    let start = ref 0 in
    while !start < trip do
      per_chunk ~pc:(!start + 1) ~len:(min chunk (trip - !start));
      start := !start + chunk
    done
  in
  let walk_ns =
    time_ns
      (chunked (fun ~pc ~len ->
           Trahrhe.Recovery.walk rc ~pc ~len (fun idx -> sink := !sink + idx.(0))))
  in
  let lanes_ns vlength =
    time_ns
      (chunked (fun ~pc ~len ->
           Trahrhe.Recovery.walk_lanes rc ~pc ~len ~vlength (fun ~base:_ ~count lanes ->
               let row = lanes.(0) in
               let acc = ref 0 in
               for l = 0 to count - 1 do
                 acc := !acc + row.(l)
               done;
               sink := !sink + !acc)))
  in
  let vlengths = [ 1; 4; 8; 16; 32 ] in
  let rows = List.map (fun v -> (v, lanes_ns v)) vlengths in
  ignore !sink;
  Printf.printf "%-40s %10s %9s\n" "variant" "ns/iter" "vs walk";
  Printf.printf "%-40s %10.2f %9s\n" "walk, per-iteration callback" walk_ns "1.00x";
  List.iter
    (fun (v, ns) ->
      Printf.printf "%-40s %10.2f %8.2fx\n"
        (Printf.sprintf "walk_lanes, vlength %d" v)
        ns (walk_ns /. ns))
    rows;
  Emit.write ~path:"BENCH_lanes.json" ~artifact:"micro-lanes"
    [ ("kernel", Emit.Str "correlation");
      ("n", Emit.Int n);
      ("iterations", Emit.Int trip);
      ("chunk", Emit.Int chunk);
      ("walk_ns_per_iter", Emit.F (walk_ns, 2));
      ( "lanes",
        Emit.Arr
          (List.map
             (fun (v, ns) ->
               Emit.Obj
                 [ ("vlength", Emit.Int v);
                   ("ns_per_iter", Emit.F (ns, 2));
                   ("speedup_vs_walk", Emit.F (walk_ns /. ns, 3))
                 ])
             rows) );
      ( "speedup",
        Emit.Obj
          [ ("vlength_8_vs_walk", Emit.F (walk_ns /. List.assoc 8 rows, 3));
            ("vlength_32_vs_walk", Emit.F (walk_ns /. List.assoc 32 rows, 3))
          ] )
    ]

(* scheduling-overhead shootout on a skewed-cost workload: a central
   mutex-protected chunk queue (the textbook dynamic scheduler), the
   atomic fetch-add Dynamic dispatcher, and the Chase-Lev work-stealing
   deques — followed by an instrumented run whose steal counters must
   reconcile exactly against the ground-truth chunk count *)
let micro_steal () =
  let n = env_int "BENCH_STEAL_N" 200_000 in
  header (Printf.sprintf "micro-steal: scheduler overhead on %d skewed iterations" n);
  Emit.ensure_writable "BENCH_steal.json";
  (* default 2 workers: the schedulers are compared under modest
     oversubscription — with many more domains than cores the run is
     dominated by OS descheduling (a parked owner strands its claimed
     batch), which measures the kernel's scheduler, not ours *)
  let nthreads = env_int "BENCH_STEAL_T" 2 in
  let chunk = env_int "BENCH_STEAL_CHUNK" 8 in
  let skew = 64 in
  let stride = 16 in
  let partial = Array.make (nthreads * stride) 0 in
  (* triangular per-iteration cost, like a collapsed triangular nest's
     rows: iteration q spins ~q*skew/n times, so the tail chunks cost
     skew spins while the head chunks cost none and rebalancing
     matters *)
  let do_chunk thread start len =
    let cell = thread * stride in
    let acc = ref 0 in
    for q = start to start + len - 1 do
      let spins = q * skew / n in
      let r = ref 0 in
      for _ = 1 to spins do
        incr r
      done;
      acc := !acc + !r
    done;
    partial.(cell) <- partial.(cell) + !acc
  in
  let reset () = Array.fill partial 0 (Array.length partial) 0 in
  let run_mutex () =
    reset ();
    let next = ref 0 in
    let m = Mutex.create () in
    Ompsim.Pool.run ~nthreads (fun t ->
        let live = ref true in
        while !live do
          Mutex.lock m;
          let s = !next in
          if s >= n then begin
            Mutex.unlock m;
            live := false
          end
          else begin
            next := s + chunk;
            Mutex.unlock m;
            do_chunk t s (min chunk (n - s))
          end
        done)
  in
  let run_sched schedule () =
    reset ();
    Ompsim.Par.parallel_for_chunks ~nthreads ~schedule ~n (fun ~thread ~start ~len ->
        do_chunk thread start len)
  in
  (* interleave the contenders within every rep round so CPU frequency
     drift between measurements biases none of them; keep the per-
     scheduler minimum, as time_best would *)
  let runners = [| run_mutex; run_sched (Sched.Dynamic chunk); run_sched (Sched.Work_stealing chunk) |] in
  let best = Array.make (Array.length runners) infinity in
  let rounds = env_int "BENCH_STEAL_ROUNDS" 15 in
  Array.iter (fun f -> f ()) runners (* warm pool, deque cache, page tables *);
  for _ = 1 to rounds do
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        f ();
        best.(i) <- Float.min best.(i) ((Unix.gettimeofday () -. t0) *. 1e3))
      runners
  done;
  let t_mutex = best.(0) and t_dyn = best.(1) and t_ws = best.(2) in
  Printf.printf "%-38s %10s %9s\n" "scheduler" "ms" "vs mutex";
  List.iter
    (fun (name, t) -> Printf.printf "%-38s %10.2f %8.2fx\n" name t (t_mutex /. t))
    [ ("central mutex queue", t_mutex);
      ("atomic fetch-add dynamic", t_dyn);
      ("work-stealing deques", t_ws) ];
  (* counter reconciliation: every dealt chunk is popped locally or
     stolen, exactly once *)
  let truth = (n + chunk - 1) / chunk in
  let pops, steals, retries, par_chunks =
    Ompsim.Stats.reset ();
    run_sched (Sched.Work_stealing chunk) ();
    ( Obsv.Metrics.total Ompsim.Stats.ws_local_pops,
      Obsv.Metrics.total Ompsim.Stats.ws_steals,
      Obsv.Metrics.total Ompsim.Stats.ws_steal_retries,
      Obsv.Metrics.total Ompsim.Stats.par_chunks )
  in
  let reconciled = pops + steals = truth && par_chunks = truth in
  Printf.printf
    "ws counters: %d local pops + %d steals = %d (ground truth %d chunks, %d CAS retries) %s\n"
    pops steals (pops + steals) truth retries
    (if reconciled then "ok" else "MISMATCH");
  Emit.write ~path:"BENCH_steal.json" ~artifact:"micro-steal"
    [ ("n", Emit.Int n);
      ("chunk", Emit.Int chunk);
      ("nthreads", Emit.Int nthreads);
      ("skew", Emit.Int skew);
      ("ground_truth_chunks", Emit.Int truth);
      ( "time_ms",
        Emit.Obj
          [ ("mutex_queue", Emit.F (t_mutex, 3));
            ("dynamic_atomic", Emit.F (t_dyn, 3));
            ("work_stealing", Emit.F (t_ws, 3))
          ] );
      ( "speedup",
        Emit.Obj
          [ ("ws_vs_mutex", Emit.F (t_mutex /. t_ws, 3));
            ("ws_vs_dynamic", Emit.F (t_dyn /. t_ws, 3))
          ] );
      ( "counters",
        Emit.Obj
          [ ("local_pops", Emit.Int pops);
            ("steals", Emit.Int steals);
            ("steal_retries", Emit.Int retries);
            ("pops_plus_steals", Emit.Int (pops + steals));
            ("par_chunks", Emit.Int par_chunks);
            ("reconciled", Emit.Bool reconciled)
          ] )
    ]

(* micro-fault: cost of the fault-tolerance layer. Two questions:
   (1) what does supervision cost when nothing ever fails — the
   per-chunk cancellation check, success bookkeeping and the Result
   plumbing of [run_resilient] vs the plain path (must be within
   noise at realistic chunk sizes); (2) how does recovery latency grow
   with the injected fault rate, and do the fault counters reconcile
   with an exact checksum at every rate. *)
let micro_fault () =
  let n = env_int "BENCH_FAULT_N" 200_000 in
  header (Printf.sprintf "micro-fault: supervision overhead + recovery latency on %d iterations" n);
  Emit.ensure_writable "BENCH_fault.json";
  let nthreads = env_int "BENCH_FAULT_T" 2 in
  let chunk = env_int "BENCH_FAULT_CHUNK" 64 in
  let retries = 2 in
  let schedule = Sched.Dynamic chunk in
  let stride = 16 in
  let partial = Array.make (nthreads * stride) 0 in
  let do_chunk thread start len =
    let cell = thread * stride in
    let acc = ref 0 in
    for q = start to start + len - 1 do
      acc := !acc + q
    done;
    partial.(cell) <- partial.(cell) + !acc
  in
  let reset () = Array.fill partial 0 (Array.length partial) 0 in
  let checksum () =
    let s = ref 0 in
    for t = 0 to nthreads - 1 do
      s := !s + partial.(t * stride)
    done;
    !s
  in
  let expected = n * (n - 1) / 2 in
  let run_plain () =
    reset ();
    Ompsim.Par.parallel_for_chunks ~nthreads ~schedule ~n (fun ~thread ~start ~len ->
        do_chunk thread start len)
  in
  let run_resilient ?(retries = 0) faults () =
    reset ();
    (* ~faults:(Some cfg) arms this region only; ~faults:None
       suppresses even an OMPSIM_FAULTS env spec, so the no-fault
       measurement is honest in a faulted CI job *)
    match
      Ompsim.Par.run_resilient ~retries ~faults ~nthreads ~schedule ~n (fun ~thread ~start ~len ->
          do_chunk thread start len)
    with
    | Ok () -> ()
    | Error e -> failwith (Ompsim.Par.describe_error e)
  in
  (* (1) interleaved rounds, keep per-contender minimum (as time_best
     would): supervision cost with no faults, no deadline, no retries *)
  let runners = [| run_plain; run_resilient None |] in
  let best = Array.make (Array.length runners) infinity in
  let rounds = env_int "BENCH_FAULT_ROUNDS" 15 in
  Array.iter (fun f -> f ()) runners (* warm pool and page tables *);
  for _ = 1 to rounds do
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        f ();
        best.(i) <- Float.min best.(i) ((Unix.gettimeofday () -. t0) *. 1e3))
      runners
  done;
  let t_plain = best.(0) and t_resilient = best.(1) in
  let overhead_pct = (t_resilient -. t_plain) /. t_plain *. 100.0 in
  let nchunks = (n + chunk - 1) / chunk in
  let ns_per_chunk = (t_resilient -. t_plain) *. 1e6 /. float_of_int nchunks in
  let ns_per_iter = (t_resilient -. t_plain) *. 1e6 /. float_of_int n in
  Printf.printf "%-38s %10.2f ms\n" "plain parallel_for_chunks" t_plain;
  Printf.printf "%-38s %10.2f ms  (%+.1f%%)\n" "run_resilient, faults disabled" t_resilient
    overhead_pct;
  (* the body above is an empty-weight sum, so the percentage is the
     worst case; the absolute cost is what a real kernel pays *)
  Printf.printf "%-38s %10.1f ns/chunk  (%.2f ns/iteration)\n" "supervision cost" ns_per_chunk
    ns_per_iter;
  (* (2) recovery latency and counter reconciliation vs fault rate *)
  let rates = [ 0.0; 0.02; 0.1; 0.3 ] in
  Printf.printf "%-38s %10s %9s %8s %10s %9s\n" "injected fault rate" "ms" "injected" "retries"
    "cancelled" "fallback";
  let all_ok = ref true in
  let rows =
    List.map
      (fun p ->
        let faults = Some { Ompsim.Fault.default with p; seed = 11 } in
        (* timing with the obsv layer off *)
        let t_ms =
          let best = ref infinity in
          for _ = 1 to 3 do
            let t0 = Unix.gettimeofday () in
            run_resilient ~retries faults ();
            best := Float.min !best ((Unix.gettimeofday () -. t0) *. 1e3)
          done;
          !best
        in
        (* counters from one more run of the same region *)
        let injected, retried, cancelled, fallbacks, iters =
          Ompsim.Stats.reset ();
          run_resilient ~retries faults ();
          ( Obsv.Metrics.total Ompsim.Stats.faults_injected,
            Obsv.Metrics.total Ompsim.Stats.chunk_retries,
            Obsv.Metrics.total Ompsim.Stats.regions_cancelled,
            Obsv.Metrics.total Ompsim.Stats.serial_fallbacks,
            Obsv.Metrics.total Ompsim.Stats.par_iterations )
        in
        let sum_ok = checksum () = expected in
        let counters_ok =
          iters = n && retried <= injected
          && (p = 0.0) = (injected = 0)
          && (cancelled = 0 || fallbacks > 0 || injected > 0)
        in
        if not (sum_ok && counters_ok) then all_ok := false;
        Printf.printf "p=%-36g %10.2f %9d %8d %10d %9d %s\n" p t_ms injected retried cancelled
          fallbacks
          (if sum_ok then "ok" else "CHECKSUM MISMATCH");
        Emit.Obj
          [ ("p", Emit.G p);
            ("time_ms", Emit.F (t_ms, 3));
            ("injected", Emit.Int injected);
            ("retries", Emit.Int retried);
            ("cancelled", Emit.Int cancelled);
            ("serial_fallbacks", Emit.Int fallbacks);
            ("iterations", Emit.Int iters);
            ("checksum_ok", Emit.Bool sum_ok)
          ])
      rates
  in
  Emit.write ~path:"BENCH_fault.json" ~artifact:"micro-fault"
    [ ("n", Emit.Int n);
      ("chunk", Emit.Int chunk);
      ("nthreads", Emit.Int nthreads);
      ("retries", Emit.Int retries);
      ( "supervision_overhead",
        Emit.Obj
          [ ("plain_ms", Emit.F (t_plain, 3));
            ("resilient_ms", Emit.F (t_resilient, 3));
            ("overhead_pct", Emit.F (overhead_pct, 2));
            ("overhead_ns_per_chunk", Emit.F (ns_per_chunk, 1));
            ("overhead_ns_per_iter", Emit.F (ns_per_iter, 3))
          ] );
      ("rates", Emit.Arr rows);
      ("reconciled", Emit.Bool !all_ok)
    ]

(* micro-cache: the compilation service's plan cache. Phases:
   (1) cold — compile BENCH_CACHE_NESTS distinct nests through an
   ample cache, timing the misses; (2) warm — re-request every nest,
   timing pure in-memory hits (the ISSUE acceptance wants warm >= 20x
   cold); (3) a Zipf-ish skewed workload against a deliberately
   undersized cache, with a per-request outcome log (a request that
   ran the compiler was a miss) that must reconcile exactly against
   the cache.* counters;
   (4) single-flight — concurrent requests for one fresh fingerprint
   with an artificially slow compile must dedup to exactly one miss. *)
let micro_cache () =
  let nnests = env_int "BENCH_CACHE_NESTS" 32 in
  let reqs = env_int "BENCH_CACHE_REQS" 512 in
  header
    (Printf.sprintf "micro-cache: plan cache cold/warm latency, %d nests, %d skewed requests"
       nnests reqs);
  Emit.ensure_writable "BENCH_cache.json";
  let module A = Polymath.Affine in
  let module Q = Zmath.Rat in
  (* distinct triangular nests: the inner upper bound's constant offset
     varies, so every nest gets its own fingerprint but inversion always
     succeeds (depth 2) *)
  let nest_of_seed s =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = A.const Q.zero; upper = A.var "N" };
        { var = "j"; lower = A.var "i"; upper = A.make [ ("N", Q.one) ] (Q.of_int (1 + s)) } ]
  in
  let nests = Array.init nnests nest_of_seed in
  let time_ns f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1e9
  in
  let request ?compile cache nest =
    match Service.Cache.find_or_compile ?compile cache nest with
    | Ok _ -> ()
    | Error e -> failwith ("plan compile failed: " ^ e)
  in
  (* each phase reads its own slice of the process-wide cache ledger *)
  let phase_counts since =
    let d = Obsv.Metrics.since since in
    Service.Stats.(d cache_hits, d cache_misses, d singleflight_waits, d cache_evictions)
  in
  (* (1)+(2) cold misses then warm hits on an ample cache *)
  let ample = Service.Cache.create ~capacity:(2 * nnests) ~dir:None () in
  let since = Obsv.Metrics.snapshot () in
  let cold_total = time_ns (fun () -> Array.iter (request ample) nests) in
  let warm_rounds = 5 in
  let warm_total =
    time_ns (fun () ->
        for _ = 1 to warm_rounds do
          Array.iter (request ample) nests
        done)
  in
  let cold_ns = cold_total /. float_of_int nnests in
  let warm_ns = warm_total /. float_of_int (warm_rounds * nnests) in
  let warm_speedup = cold_ns /. warm_ns in
  let ample_hits, ample_misses, _, _ = phase_counts since in
  Printf.printf "%-38s %12.0f ns\n" "cold compile (miss)" cold_ns;
  Printf.printf "%-38s %12.0f ns\n" "warm lookup (memory hit)" warm_ns;
  Printf.printf "%-38s %11.1fx\n" "warm speedup" warm_speedup;
  (* (3) Zipf-ish workload against an undersized cache: quadratically
     skewed toward nest 0, so popular plans stay resident and the tail
     churns through evictions; every request's outcome is logged on
     the client side — one request at a time, so a request that ran
     the compiler was a miss and any other was a hit *)
  let small = Service.Cache.create ~capacity:(max 2 (nnests / 4)) ~dir:None () in
  let since = Obsv.Metrics.snapshot () in
  let log_misses = ref 0 in
  let logged_compile nest =
    incr log_misses;
    Service.Plan.compile nest
  in
  let state = ref 12345 in
  let zipf_time =
    time_ns (fun () ->
        for _ = 1 to reqs do
          state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
          let u = float_of_int !state /. 1073741824.0 in
          let idx = min (nnests - 1) (int_of_float (float_of_int nnests *. u *. u)) in
          request ~compile:logged_compile small nests.(idx)
        done)
  in
  let log_hits = reqs - !log_misses in
  let zipf_hits, zipf_misses, zipf_waits, zipf_evictions = phase_counts since in
  let hit_ratio = float_of_int zipf_hits /. float_of_int reqs in
  Printf.printf
    "zipf workload: %d requests, %d hits (%.1f%%), %d misses, %d evictions, %.0f ns/request\n" reqs
    zipf_hits (100.0 *. hit_ratio) zipf_misses zipf_evictions
    (zipf_time /. float_of_int reqs);
  (* (4) single-flight: 4 workers race for one fresh fingerprint whose
     compile is slowed enough that every follower arrives in time *)
  let sf = Service.Cache.create ~capacity:8 ~dir:None () in
  let sf_nest = nest_of_seed (nnests + 1) in
  let sf_workers = 4 in
  let since = Obsv.Metrics.snapshot () in
  let slow_compile nest =
    Unix.sleepf 0.02;
    Service.Plan.compile nest
  in
  Ompsim.Pool.run ~nthreads:sf_workers (fun _ ->
      match Service.Cache.find_or_compile ~compile:slow_compile sf sf_nest with
      | Ok _ -> ()
      | Error e -> failwith ("single-flight compile failed: " ^ e));
  let _, sf_compiles, dedup, _ = phase_counts since in
  Printf.printf "single-flight: %d concurrent requests -> %d compile, %d deduplicated\n" sf_workers
    sf_compiles dedup;
  (* reconciliation: client-side truth vs the cache.* ledger *)
  let log_ok = log_hits = zipf_hits && !log_misses = zipf_misses && zipf_waits = 0 in
  let sf_ok = sf_compiles = 1 && dedup = sf_workers - 1 in
  let ample_ok = ample_misses = nnests && ample_hits = warm_rounds * nnests in
  let reconciled = log_ok && sf_ok && ample_ok in
  Printf.printf "counters reconcile (request log = cache.* ledger): %s\n"
    (if reconciled then "ok" else "MISMATCH");
  Emit.write ~path:"BENCH_cache.json" ~artifact:"micro-cache"
    [ ("nests", Emit.Int nnests);
      ("requests", Emit.Int reqs);
      ( "latency_ns",
        Emit.Obj
          [ ("cold_compile", Emit.F (cold_ns, 0));
            ("warm_hit", Emit.F (warm_ns, 0));
            ("zipf_per_request", Emit.F (zipf_time /. float_of_int reqs, 0))
          ] );
      ("warm_speedup", Emit.F (warm_speedup, 1));
      ("warm_speedup_ok", Emit.Bool (warm_speedup >= 20.0));
      ( "zipf",
        Emit.Obj
          [ ("capacity", Emit.Int (Service.Cache.capacity small));
            ("requests", Emit.Int reqs);
            ("hits", Emit.Int zipf_hits);
            ("misses", Emit.Int zipf_misses);
            ("evictions", Emit.Int zipf_evictions);
            ("hit_ratio", Emit.F (hit_ratio, 4))
          ] );
      ( "singleflight",
        Emit.Obj
          [ ("concurrent_requests", Emit.Int sf_workers);
            ("compiles", Emit.Int sf_compiles);
            ("deduplicated", Emit.Int dedup)
          ] );
      ( "request_log",
        Emit.Obj
          [ ("hits", Emit.Int log_hits); ("misses", Emit.Int !log_misses) ] );
      ("reconciled", Emit.Bool reconciled)
    ]

(* micro-jit: the native specialization tier. Phases: (1) chunked
   walk — the exec workload — interpreted vs the specialized object's
   one-call-per-chunk walk_hash; (2) latencies: cold emit+gcc
   compile, warm dlopen of the published .so, and the cache-served
   steady state where the handle is already resident in the
   Service.Native tier; (3) a deliberate bigint-headroom fallback, reconciled against the
   jit.compile/jit.load/jit.fallback/native.served counters. The headline gate is native >= 2x
   interpreted ns/iter on the chunked walk. *)
let micro_jit () =
  let n = env_int "BENCH_JIT_N" 1000 in
  let chunk = env_int "BENCH_JIT_CHUNK" 4096 in
  header (Printf.sprintf "micro-jit: interpreted vs native walk (correlation, N=%d)" n);
  Emit.ensure_writable "BENCH_jit.json";
  let module R = Trahrhe.Recovery in
  if not (Jit.Abi.available ()) then begin
    (* no C compiler: the tier falls back to the interpreted walk, so
       there is nothing to time — emit a recognizable artifact rather
       than failing the whole bench run *)
    Printf.printf "C compiler %S unavailable; native tier disabled, nothing to measure\n"
      (Jit.Abi.cc ());
    Emit.write ~path:"BENCH_jit.json" ~artifact:"micro-jit"
      [ ("compiler", Emit.Str (Jit.Abi.cc ()));
        ("compiler_available", Emit.Bool false);
        ("native_speedup_ok", Emit.Bool false)
      ]
  end
  else begin
    let corr = Option.get (Kernels.Registry.find "correlation") in
    let tmp_root =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "ompsim-bench-jit-%d" (Unix.getpid ()))
    in
    let cache_dir = Filename.concat tmp_root "cache" in
    let cold_dir = Filename.concat tmp_root "cold" in
    let cache = Service.Cache.create ~capacity:8 ~dir:(Some cache_dir) () in
    let nt = Service.Native.create ~dir:(Some cache_dir) () in
    let plan, renaming =
      match Service.Cache.find_or_compile cache corr.K.nest with
      | Ok x -> x
      | Error e -> failwith ("plan compile failed: " ^ e)
    in
    let cparam = Service.Fingerprint.canonical_param renaming (K.param_of corr ~n) in
    let since = Obsv.Metrics.snapshot () in
    (* first attach cold-compiles the object into the cache dir *)
    let attach_ms =
      let t0 = Unix.gettimeofday () in
      let rc = Service.Native.recovery nt plan ~param:cparam in
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      if not (R.native_enabled rc) then failwith "native backend failed to attach";
      (rc, ms)
    in
    let rc_native, cold_attach_ms = attach_ms in
    let rc_interp = Service.Plan.recovery plan ~param:cparam in
    let trip = R.trip_count rc_interp in
    let sink = ref 0 in
    (* (1) PR-1 workload: the chunked walk, exactly as exec runs it —
       one walk_hash call per chunk *)
    let walk_ns rc =
      let s =
        Ompsim.Calibrate.time_best ~reps:3 (fun () ->
            let pc = ref 1 in
            while !pc <= trip do
              let len = min chunk (trip - !pc + 1) in
              sink := !sink + R.walk_hash rc ~pc:!pc ~len;
              pc := !pc + len
            done)
      in
      s *. 1e9 /. float_of_int trip
    in
    let interp_walk = walk_ns rc_interp in
    let native_walk = walk_ns rc_native in
    ignore !sink;
    (* (2) latencies: cold emit+compile in a fresh dir, warm dlopen of
       the published object, and the tier-resident steady state *)
    let fp = plan.Service.Plan.fingerprint in
    let inv = plan.Service.Plan.inversion in
    let cold_ms =
      let t0 = Unix.gettimeofday () in
      (match Jit.Compile.specialize ~dir:cold_dir ~fingerprint:fp inv with
      | Ok h -> Jit.Native.close h
      | Error e -> failwith ("cold compile failed: " ^ e));
      (Unix.gettimeofday () -. t0) *. 1e3
    in
    let warm_ms =
      let t0 = Unix.gettimeofday () in
      (match Jit.Compile.specialize ~dir:cold_dir ~fingerprint:fp inv with
      | Ok h -> Jit.Native.close h
      | Error e -> failwith ("warm load failed: " ^ e));
      (Unix.gettimeofday () -. t0) *. 1e3
    in
    let steady_reps = 200 in
    let steady_ns =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to steady_reps do
        let rc = Service.Native.recovery nt plan ~param:cparam in
        if not (R.native_enabled rc) then failwith "steady-state attach lost the backend"
      done;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int steady_reps
    in
    (* (3) bigint-headroom fallback: same plan, a parameter value whose
       intermediates would wrap native ints — the tier must refuse the
       backend and count the fallback *)
    let big = 3_000_000_000 in
    let rc_big = Service.Native.recovery nt plan ~param:(fun _ -> big) in
    if R.native_enabled rc_big then failwith "overflow-guarded nest accepted a native backend";
    if not (R.overflow_guarded rc_big) then failwith "expected an overflow-guarded recovery";
    let compiles = Obsv.Metrics.since since Jit.Stats.compiles in
    let loads = Obsv.Metrics.since since Jit.Stats.loads in
    let fallbacks = Obsv.Metrics.since since Jit.Stats.fallbacks in
    let served = Obsv.Metrics.since since Service.Stats.native_served in
    (* compiles: tier cold + bench cold; loads: the warm dlopen only
       (cold-path loads ride the compile); served: one attach per
       successful recovery call; fallbacks: the one refused *)
    let reconciled = compiles = 2 && loads = 1 && fallbacks = 1 && served = 1 + steady_reps in
    let walk_speedup = interp_walk /. native_walk in
    Printf.printf "%d collapsed iterations, chunk %d\n" trip chunk;
    Printf.printf "%-44s %10.2f\n" "interpreted walk (ns/iter)" interp_walk;
    Printf.printf "%-44s %10.2f\n" "native walk_hash (ns/iter)" native_walk;
    Printf.printf "%-44s %9.1fx %s\n" "walk speedup (gate: >= 2x)" walk_speedup
      (if walk_speedup >= 2.0 then "ok" else "BELOW TARGET");
    Printf.printf "%-44s %10.1f ms\n" "cold emit+compile latency" cold_ms;
    Printf.printf "%-44s %10.2f ms\n" "warm .so load latency" warm_ms;
    Printf.printf "%-44s %10.0f ns\n" "cache-served attach (steady state)" steady_ns;
    Printf.printf
      "counters reconcile (jit.compile=%d jit.load=%d jit.fallback=%d native.served=%d): %s\n"
      compiles loads fallbacks served
      (if reconciled then "ok" else "MISMATCH");
    Emit.write ~path:"BENCH_jit.json" ~artifact:"micro-jit"
      [ ("kernel", Emit.Str "correlation");
        ("n", Emit.Int n);
        ("iterations", Emit.Int trip);
        ("chunk", Emit.Int chunk);
        ("compiler", Emit.Str (Jit.Abi.cc ()));
        ("compiler_available", Emit.Bool true);
        ( "ns_per_iter",
          Emit.Obj
            [ ("interpreted_walk", Emit.F (interp_walk, 2));
              ("native_walk", Emit.F (native_walk, 2))
            ] );
        ("speedup", Emit.Obj [ ("walk", Emit.F (walk_speedup, 2)) ]);
        ("native_speedup_ok", Emit.Bool (walk_speedup >= 2.0));
        ( "latency",
          Emit.Obj
            [ ("cold_compile_ms", Emit.F (cold_ms, 2));
              ("cold_attach_ms", Emit.F (cold_attach_ms, 2));
              ("warm_load_ms", Emit.F (warm_ms, 3));
              ("cache_served_ns", Emit.F (steady_ns, 0))
            ] );
        ( "counters",
          Emit.Obj
            [ ("jit_compile", Emit.Int compiles);
              ("jit_load", Emit.Int loads);
              ("jit_fallback", Emit.Int fallbacks);
              ("native_served", Emit.Int served)
            ] );
        ("reconciled", Emit.Bool reconciled)
      ]
  end

(* micro-reduce: parallel reductions over the collapsed range. The
   workload is the skewed triangle (ltmp's space: i in [0,N), j in
   [0,i]) with a sum clause attached; each point additionally spins
   proportionally to i - j + 1 — the ltmp work profile — so
   equal-count static chunks are load-imbalanced and the
   divide-and-conquer splitter has something to win. Phases:
   (1) serial fold baseline and parallel reductions at 1..8 domains
   under static chunking, work stealing and D&C; (2) native
   one-call-per-chunk reduce_sum vs the interpreted clause fold;
   (3) a bit-identical sweep — every schedule x backend x lane width
   x faults-armed must reproduce the serial fold exactly — plus a
   D&C counter reconciliation against Schedule.dnc_leaves ground
   truth. The speedup gates (8-domain parallel >= 3x serial, D&C >=
   static on the skew) are hardware-dependent and emitted honestly
   next to the machine's domain count; the correctness gates must
   hold everywhere. *)
let micro_reduce () =
  let n = env_int "BENCH_REDUCE_N" 400 in
  let spin_scale = env_int "BENCH_REDUCE_SPIN" 2 in
  let n_sweep = env_int "BENCH_REDUCE_SWEEP_N" 40 in
  header (Printf.sprintf "micro-reduce: parallel sum over the skewed triangle (N=%d)" n);
  Emit.ensure_writable "BENCH_reduce.json";
  let module R = Trahrhe.Recovery in
  let module N = Trahrhe.Nest in
  let ltmp = Option.get (Kernels.Registry.find "ltmp") in
  let reduced param_n =
    let nest =
      N.with_reduce ltmp.K.nest
        (Some { N.op = N.Sum; value = N.default_reduce_value ltmp.K.nest })
    in
    let inv =
      match Trahrhe.Inversion.invert nest with
      | Ok i -> i
      | Error e -> failwith ("inversion failed: " ^ Trahrhe.Inversion.error_to_string e)
    in
    (nest, R.make inv ~param:(K.param_of ltmp ~n:param_n))
  in
  let _, rc = reduced n in
  let trip = R.trip_count rc in
  (* the skewed chunk body: fold the clause and spin i - j + 1 units
     per point, so chunk cost tracks the triangle's work profile *)
  let chunk_partial ~start ~len =
    let acc = ref 0 in
    R.walk rc ~pc:(start + 1) ~len (fun idx ->
        acc := !acc + R.reduce_value_int rc idx;
        let w = (idx.(0) - idx.(1) + 1) * spin_scale in
        let s = ref 0 in
        for q = 1 to w do
          s := !s + q
        done;
        ignore (Sys.opaque_identity !s));
    !acc
  in
  let serial_value = chunk_partial ~start:0 ~len:trip in
  let serial_s =
    Ompsim.Calibrate.time_best ~reps:3 (fun () -> ignore (chunk_partial ~start:0 ~len:trip))
  in
  let time_schedule ~nthreads schedule =
    Ompsim.Calibrate.time_best ~reps:3 (fun () ->
        match
          Ompsim.Par.reduce_chunks ~nthreads ~schedule ~n:trip ~combine:( + ) (fun ~thread:_ ->
              chunk_partial)
        with
        | Some v when v = serial_value -> ()
        | Some v -> failwith (Printf.sprintf "reduction mismatch: %d vs serial %d" v serial_value)
        | None -> failwith "empty reduction")
  in
  let domain_counts = [ 1; 2; 4; 8 ] in
  let machine_domains = Domain.recommended_domain_count () in
  Printf.printf "%d collapsed iterations, spin scale %d, machine has %d domain(s)\n" trip
    spin_scale machine_domains;
  Printf.printf "%-10s %12s %12s %12s %10s %10s %10s\n" "domains" "static ms" "ws ms" "dnc ms"
    "sp static" "sp ws" "sp dnc";
  let rows =
    List.map
      (fun d ->
        let st = time_schedule ~nthreads:d Sched.Static in
        let ws = time_schedule ~nthreads:d (Sched.Work_stealing 64) in
        let dnc = time_schedule ~nthreads:d (Sched.Dnc 64) in
        Printf.printf "%-10d %12.2f %12.2f %12.2f %9.2fx %9.2fx %9.2fx\n" d (st *. 1e3)
          (ws *. 1e3) (dnc *. 1e3) (serial_s /. st) (serial_s /. ws) (serial_s /. dnc);
        (d, st, ws, dnc))
      domain_counts
  in
  let _, st8, ws8, dnc8 = List.nth rows (List.length rows - 1) in
  let best8 = min st8 (min ws8 dnc8) in
  let parallel_speedup = serial_s /. best8 in
  (* D&C vs static on the skew case, with a 5% measurement tolerance *)
  let dnc_at_least_static = dnc8 <= st8 *. 1.05 in
  let parallel_3x = parallel_speedup >= 3.0 in
  Printf.printf "%-44s %9.2fx %s\n" "8-domain speedup vs serial (gate: >= 3x)" parallel_speedup
    (if parallel_3x then "ok"
     else if machine_domains < 8 then
       Printf.sprintf "BELOW TARGET (machine has %d domain(s))" machine_domains
     else "BELOW TARGET");
  Printf.printf "%-44s %10s\n" "d&c >= static chunking on the skew (gate)"
    (if dnc_at_least_static then "ok" else "BELOW TARGET");
  (* native one-call-per-chunk clause reduction vs the interpreted
     fold (no spin here: this measures delivery of the clause itself) *)
  let compiler_available = Jit.Abi.available () in
  let interp_ns, native_ns, native_speedup =
    if not compiler_available then begin
      Printf.printf "C compiler unavailable; native reduce phase skipped\n";
      (0.0, 0.0, 0.0)
    end
    else begin
      let nest, _ = reduced n in
      let tmp_root =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "ompsim-bench-reduce-%d" (Unix.getpid ()))
      in
      let cache = Service.Cache.create ~capacity:8 ~dir:(Some tmp_root) () in
      let nt = Service.Native.create ~dir:(Some tmp_root) () in
      let plan, renaming =
        match Service.Cache.find_or_compile cache nest with
        | Ok x -> x
        | Error e -> failwith ("plan compile failed: " ^ e)
      in
      let cparam = Service.Fingerprint.canonical_param renaming (K.param_of ltmp ~n) in
      let rc_native = Service.Native.recovery nt plan ~param:cparam in
      if not (R.native_enabled rc_native) then failwith "native backend failed to attach";
      let rc_interp = Service.Plan.recovery plan ~param:cparam in
      let chunk = 4096 in
      let sink = ref 0 in
      let reduce_ns rc =
        let s =
          Ompsim.Calibrate.time_best ~reps:3 (fun () ->
              let pc = ref 1 in
              while !pc <= trip do
                let len = min chunk (trip - !pc + 1) in
                sink := !sink + R.walk_reduce_sum rc ~pc:!pc ~len;
                pc := !pc + len
              done)
        in
        s *. 1e9 /. float_of_int trip
      in
      let interp = reduce_ns rc_interp in
      let native = reduce_ns rc_native in
      ignore !sink;
      (* the native accumulator must agree bit for bit *)
      let vi = R.walk_reduce_sum rc_interp ~pc:1 ~len:trip in
      let vn = R.walk_reduce_sum rc_native ~pc:1 ~len:trip in
      if vi <> vn then failwith (Printf.sprintf "native reduce %d <> interpreted %d" vn vi);
      Printf.printf "%-44s %10.2f\n" "interpreted clause fold (ns/iter)" interp;
      Printf.printf "%-44s %10.2f\n" "native reduce_sum (ns/iter)" native;
      Printf.printf "%-44s %9.1fx\n" "native reduce speedup" (interp /. native);
      (interp, native, interp /. native)
    end
  in
  (* bit-identical sweep on a small instance: every schedule x backend
     x lane width x faults-armed combination must reproduce the serial
     fold exactly — the combine tree is keyed by chunk position, so
     nothing here is allowed to move a bit *)
  let _, rc_s = reduced n_sweep in
  let trip_s = R.trip_count rc_s in
  let serial_s_value = R.walk_reduce_sum rc_s ~pc:1 ~len:trip_s in
  let sweep_cases = ref 0 in
  let sweep_ok = ref true in
  let check where = function
    | Some v when v = serial_s_value -> incr sweep_cases
    | Some v ->
      incr sweep_cases;
      sweep_ok := false;
      Printf.printf "  sweep MISMATCH at %s: %d vs %d\n" where v serial_s_value
    | None ->
      incr sweep_cases;
      sweep_ok := false;
      Printf.printf "  sweep EMPTY at %s\n" where
  in
  let body ~thread:_ ~start ~len = R.walk_reduce_sum rc_s ~pc:(start + 1) ~len in
  let faults = Some { Ompsim.Fault.default with p = 0.3; seed = 0x5eed } in
  let sweep_schedules =
    [ Sched.Static; Sched.Static_chunk 3; Sched.Dynamic 2; Sched.Guided 2;
      Sched.Work_stealing 2; Sched.Dnc 2 ]
  in
  List.iter
    (fun (backend, bname) ->
      Ompsim.Par.with_backend backend (fun () ->
          List.iter
            (fun schedule ->
              let sname = Sched.to_string schedule in
              check
                (Printf.sprintf "%s/%s" bname sname)
                (Ompsim.Par.reduce_chunks ~nthreads:3 ~schedule ~n:trip_s ~combine:( + ) body);
              match
                Ompsim.Par.reduce_resilient ~retries:2 ~faults ~nthreads:3 ~schedule ~n:trip_s
                  ~combine:( + ) body
              with
              | Ok r -> check (Printf.sprintf "%s/%s/faults" bname sname) r
              | Error e ->
                incr sweep_cases;
                sweep_ok := false;
                Printf.printf "  sweep ERROR at %s/%s/faults: %s\n" bname sname
                  (Ompsim.Par.describe_error e))
            sweep_schedules))
    [ (Ompsim.Par.Pool, "pool"); (Ompsim.Par.Spawn, "spawn") ];
  (* lane widths feeding the fold *)
  let depth = 2 in
  List.iter
    (fun vlength ->
      let lane_body ~thread:_ ~start ~len =
        let idx = Array.make depth 0 in
        let acc = ref 0 in
        R.walk_lanes rc_s ~pc:(start + 1) ~len ~vlength (fun ~base:_ ~count lanes ->
            for l = 0 to count - 1 do
              for k = 0 to depth - 1 do
                idx.(k) <- lanes.(k).(l)
              done;
              acc := !acc + R.reduce_value_int rc_s idx
            done);
        !acc
      in
      check
        (Printf.sprintf "lanes/%d" vlength)
        (Ompsim.Par.reduce_chunks ~nthreads:3 ~schedule:(Sched.Dynamic 2) ~n:trip_s
           ~combine:( + ) lane_body))
    [ 1; 4; 8; 32 ];
  Printf.printf "%-44s %6d cases %s\n" "bit-identical sweep" !sweep_cases
    (if !sweep_ok then "ok" else "MISMATCH");
  (* D&C counter reconciliation against dnc_leaves ground truth *)
  let grain = 16 in
  let leaves = List.length (Sched.dnc_leaves ~grain ~n:trip_s) in
  let dnc_reconciled =
    let total = Obsv.Metrics.total in
    let splits0 = total Ompsim.Stats.dnc_splits in
    let chunks0 = total Ompsim.Stats.dnc_grain_chunks in
    let partials0 = total Ompsim.Stats.reduce_partials in
    let combines0 = total Ompsim.Stats.reduce_combines in
    check "dnc/counters"
      (Ompsim.Par.reduce_chunks ~nthreads:4 ~schedule:(Sched.Dnc grain) ~n:trip_s
         ~combine:( + ) body);
    total Ompsim.Stats.dnc_grain_chunks - chunks0 = leaves
    && total Ompsim.Stats.dnc_splits - splits0 = leaves - 1
    && total Ompsim.Stats.reduce_partials - partials0 = leaves
    && total Ompsim.Stats.reduce_combines - combines0 = leaves - 1
  in
  Printf.printf "%-44s %10s\n"
    (Printf.sprintf "dnc counters = dnc_leaves (%d leaves)" leaves)
    (if dnc_reconciled then "ok" else "MISMATCH");
  Emit.write ~path:"BENCH_reduce.json" ~artifact:"micro-reduce"
    [ ("kernel", Emit.Str "ltmp triangle + sum clause");
      ("n", Emit.Int n);
      ("iterations", Emit.Int trip);
      ("spin_scale", Emit.Int spin_scale);
      ("serial_ms", Emit.F (serial_s *. 1e3, 2));
      ( "rows",
        Emit.Arr
          (List.map
             (fun (d, st, ws, dnc) ->
               Emit.Obj
                 [ ("domains", Emit.Int d);
                   ("static_ms", Emit.F (st *. 1e3, 2));
                   ("ws_ms", Emit.F (ws *. 1e3, 2));
                   ("dnc_ms", Emit.F (dnc *. 1e3, 2));
                   ("speedup_static", Emit.F (serial_s /. st, 2));
                   ("speedup_ws", Emit.F (serial_s /. ws, 2));
                   ("speedup_dnc", Emit.F (serial_s /. dnc, 2))
                 ])
             rows) );
      ( "native",
        Emit.Obj
          [ ("compiler_available", Emit.Bool compiler_available);
            ("interpreted_ns_iter", Emit.F (interp_ns, 2));
            ("native_ns_iter", Emit.F (native_ns, 2));
            ("speedup", Emit.F (native_speedup, 2))
          ] );
      ( "sweep",
        Emit.Obj
          [ ("n", Emit.Int n_sweep);
            ("cases", Emit.Int !sweep_cases);
            ("bit_identical", Emit.Bool !sweep_ok)
          ] );
      ( "dnc",
        Emit.Obj
          [ ("grain", Emit.Int grain);
            ("leaves", Emit.Int leaves);
            ("counters_reconciled", Emit.Bool dnc_reconciled)
          ] );
      ( "gates",
        Emit.Obj
          [ ("parallel_speedup_3x", Emit.Bool parallel_3x);
            ("dnc_at_least_static", Emit.Bool dnc_at_least_static);
            ("bit_identical", Emit.Bool !sweep_ok);
            ("dnc_counters_reconciled", Emit.Bool dnc_reconciled)
          ] );
      ("parallel_speedup", Emit.F (parallel_speedup, 2))
    ]

(* micro-serve: the non-blocking multi-client serve loop. One server
   (event loop + plan cache) in its own domain; a client driver issues
   Zipf-skewed compile requests over the kernel registry and measures
   per-request round-trip latency. Phases: (1) cold — a single
   blocking client touches every kernel for the first time, so each
   distinct fingerprint pays a compile; (2) warm — 1..BENCH_SERVE_CLIENTS
   concurrent clients against the now-hot cache. The 1-client row is
   the blocking baseline: strict request/response, window 1 — the best
   case of a blocking accept-loop server, which can never overlap
   round trips. Multi-client rows pipeline up to BENCH_SERVE_WINDOW
   outstanding requests per connection, which only a multiplexing loop
   can serve. The ISSUE acceptance gate wants warm 8-client throughput
   >= 4x the 1-client baseline. Afterwards the serve_stats the loop
   returns, the client-side request log, and the obsv serve.* /
   service.inflight counters must reconcile exactly. *)
let micro_serve () =
  let module Server = Service.Server in
  let max_clients = env_int "BENCH_SERVE_CLIENTS" 8 in
  let reqs_total = env_int "BENCH_SERVE_REQS" 16000 in
  let window = max 1 (env_int "BENCH_SERVE_WINDOW" 16) in
  (* each warm phase reports its median-throughput trial: one 10ms
     wall is at the mercy of a single GC pause or scheduler hiccup,
     and "sustained" means the typical rate, not the unluckiest *)
  let trials = max 1 (env_int "BENCH_SERVE_TRIALS" 3) in
  (* the Zipf mix draws from the kernel registry: every [kernel=NAME]
     request resolves to the registry's shared nest value, which is
     exactly the workload the fingerprint memo serves *)
  let nests = Array.of_list Kernels.Registry.names in
  let nnests = min (Array.length nests) (env_int "BENCH_SERVE_NESTS" (Array.length nests)) in
  header
    (Printf.sprintf
       "micro-serve: multi-client serve loop, %d kernels, %d requests/phase, up to %d clients (pipeline window %d)"
       nnests reqs_total max_clients window);
  Emit.ensure_writable "BENCH_serve.json";
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ompsim-bench-serve-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let req_strs = Array.init nnests (fun idx -> Printf.sprintf "compile kernel=%s\n" nests.(idx)) in
  let connect () =
    let rec go tries =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX socket) with
      | () -> fd
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.01;
        go (tries - 1)
    in
    go 500
  in
  let send_all fd s =
    let n = String.length s in
    let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
    go 0
  in
  (* incremental line reader with an explicit scan position, so a
     batch of pipelined responses is split without re-copying *)
  let make_reader fd =
    let buf = Buffer.create 4096 in
    let pos = ref 0 in
    let chunk = Bytes.create 4096 in
    fun () ->
      let rec next () =
        let s = Buffer.contents buf in
        match String.index_from_opt s !pos '\n' with
        | Some i ->
          let line = String.sub s !pos (i - !pos) in
          pos := i + 1;
          if !pos = String.length s then begin
            Buffer.clear buf;
            pos := 0
          end;
          line
        | None -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> failwith "micro-serve: unexpected EOF"
          | r ->
            Buffer.add_subbytes buf chunk 0 r;
            next ())
      in
      next ()
  in
  let ok_marker = "\"status\":\"ok\"" in
  let is_ok line =
    let nl = String.length ok_marker and hl = String.length line in
    let rec find i = i + nl <= hl && (String.sub line i nl = ok_marker || find (i + 1)) in
    find 0
  in
  (* one client: [count] Zipf-skewed requests with at most [window]
     outstanding. window=1 is the classic blocking request/response
     client (the baseline); window>1 pipelines — the framing layer
     makes that safe, and responses still come back in order. *)
  let client_loop seed count window =
    let fd = connect () in
    let read_line = make_reader fd in
    let lat = Array.make (max 1 count) 0.0 in
    let t_sent = Array.make (max 1 count) 0.0 in
    let oks = ref 0 in
    let state = ref (12345 + (seed * 9973)) in
    let pick () =
      state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
      let u = float_of_int !state /. 1073741824.0 in
      min (nnests - 1) (int_of_float (float_of_int nnests *. u *. u))
    in
    let sent = ref 0 and recvd = ref 0 in
    let batch = Buffer.create 1024 in
    while !recvd < count do
      if !sent < count && !sent - !recvd < window then begin
        (* fill the window in one write *)
        Buffer.clear batch;
        let now = Unix.gettimeofday () in
        while !sent < count && !sent - !recvd < window do
          Buffer.add_string batch req_strs.(pick ());
          t_sent.(!sent) <- now;
          incr sent
        done;
        send_all fd (Buffer.contents batch)
      end;
      let line = read_line () in
      lat.(!recvd) <- (Unix.gettimeofday () -. t_sent.(!recvd)) *. 1e6;
      if is_ok line then incr oks;
      incr recvd
    done;
    Unix.close fd;
    (lat, !oks)
  in
  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.0 else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  (* N concurrent clients driven from ONE domain: each client is a
     connection with up to [window] outstanding pipelined requests,
     multiplexed over its own select. What the server sees is real
     concurrency — N sockets with interleaved outstanding requests —
     but the measurement stays about the serve loop: on a small (even
     single-core) box, a domain per client would mostly measure the OS
     scheduler and the runtime's stop-the-world synchronization across
     domains. The 1-client phase instead runs [client_loop], the
     classic blocking request/response client. *)
  (* every request of every trial goes through the one server, so the
     reconciliation at the end must see them all, not just the median
     trials the report keeps *)
  let total_sent = ref 0 in
  let total_oks = ref 0 in
  let total_conns = ref 0 in
  let run_phase nclients window =
    let per_client = max 1 (reqs_total / nclients) in
    total_sent := !total_sent + (nclients * per_client);
    total_conns := !total_conns + nclients;
    if nclients = 1 && window = 1 then begin
      let t0 = Unix.gettimeofday () in
      let lat, oks = client_loop 0 per_client 1 in
      let wall = Unix.gettimeofday () -. t0 in
      total_oks := !total_oks + oks;
      Array.sort compare lat;
      (per_client, oks, wall, float_of_int per_client /. wall, lat)
    end
    else begin
      let fds = Array.init nclients (fun _ -> connect ()) in
      let bufs = Array.init nclients (fun _ -> Buffer.create 4096) in
      let poss = Array.make nclients 0 in
      let sent = Array.make nclients 0 in
      let recvd = Array.make nclients 0 in
      let states = Array.init nclients (fun c -> 12345 + (c * 9973)) in
      let lats = Array.make (nclients * per_client) 0.0 in
      let t_sent = Array.make (nclients * per_client) 0.0 in
      let oks = ref 0 in
      let finished = ref 0 in
      let chunk = Bytes.create 65536 in
      let batch = Buffer.create 1024 in
      let contains_ok s lo hi =
        let m = String.length ok_marker in
        let rec at i j = j = m || (s.[i + j] = ok_marker.[j] && at i (j + 1)) in
        let rec find i = i + m <= hi && (at i 0 || find (i + 1)) in
        find lo
      in
      (* top up [c]'s window with one batched write *)
      let fill c =
        if sent.(c) < per_client && sent.(c) - recvd.(c) < window then begin
          Buffer.clear batch;
          let now = Unix.gettimeofday () in
          while sent.(c) < per_client && sent.(c) - recvd.(c) < window do
            states.(c) <- ((states.(c) * 1103515245) + 12345) land 0x3FFFFFFF;
            let u = float_of_int states.(c) /. 1073741824.0 in
            let idx = min (nnests - 1) (int_of_float (float_of_int nnests *. u *. u)) in
            Buffer.add_string batch req_strs.(idx);
            t_sent.((c * per_client) + sent.(c)) <- now;
            sent.(c) <- sent.(c) + 1
          done;
          send_all fds.(c) (Buffer.contents batch)
        end
      in
      (* one read, then pop every complete response line it brought *)
      let read_burst c =
        match Unix.read fds.(c) chunk 0 (Bytes.length chunk) with
        | 0 -> failwith "micro-serve: unexpected EOF"
        | r ->
          Buffer.add_subbytes bufs.(c) chunk 0 r;
          let now = Unix.gettimeofday () in
          let s = Buffer.contents bufs.(c) in
          let n = String.length s in
          let pos = ref poss.(c) in
          let scanning = ref true in
          while !scanning do
            match String.index_from_opt s !pos '\n' with
            | None -> scanning := false
            | Some i ->
              if contains_ok s !pos i then incr oks;
              let slot = (c * per_client) + recvd.(c) in
              lats.(slot) <- (now -. t_sent.(slot)) *. 1e6;
              recvd.(c) <- recvd.(c) + 1;
              pos := i + 1;
              if recvd.(c) = per_client then begin
                incr finished;
                scanning := false
              end
          done;
          if !pos = n then begin
            Buffer.clear bufs.(c);
            poss.(c) <- 0
          end
          else poss.(c) <- !pos
      in
      let t0 = Unix.gettimeofday () in
      while !finished < nclients do
        for c = 0 to nclients - 1 do
          fill c
        done;
        let waiting = ref [] in
        for c = nclients - 1 downto 0 do
          if recvd.(c) < sent.(c) then waiting := fds.(c) :: !waiting
        done;
        match Unix.select !waiting [] [] 1.0 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
          for c = 0 to nclients - 1 do
            if recvd.(c) < per_client && List.mem fds.(c) ready then read_burst c
          done
      done;
      let wall = Unix.gettimeofday () -. t0 in
      Array.iter Unix.close fds;
      Array.sort compare lats;
      total_oks := !total_oks + !oks;
      let total = nclients * per_client in
      (total, !oks, wall, float_of_int total /. wall, lats)
    end
  in
  let run_phase_median nclients window =
    let runs = List.init trials (fun _ -> run_phase nclients window) in
    let sorted = List.sort (fun (_, _, _, a, _) (_, _, _, b, _) -> compare a b) runs in
    List.nth sorted (trials / 2)
  in
  let since = Obsv.Metrics.snapshot () in
  let counted = Obsv.Metrics.since since in
  let cache = Service.Cache.create ~capacity:(2 * nnests) ~dir:None () in
  let config =
    { Server.default_serve_config with
      max_clients = 2 * max_clients;
      (* admission-capped throughput is the tests' concern; the bench
         measures loop capacity, so the cap covers every outstanding
         request the client fleet can have in flight *)
      max_inflight = max Server.default_serve_config.max_inflight (max_clients * window);
      (* let one turn retire a connection's whole pipeline window, so
         its responses batch into one write *)
      service_quantum = max Server.default_serve_config.service_quantum window }
  in
  let server = Domain.spawn (fun () -> Server.serve ~cache ~config ~socket ()) in
  let rec wait_ready tries =
    if not (Sys.file_exists socket) then
      if tries = 0 then failwith "micro-serve: server socket never appeared"
      else begin
        Unix.sleepf 0.01;
        wait_ready (tries - 1)
      end
  in
  wait_ready 500;
  (* (1) cold: one blocking client, every kernel's first touch pays a
     compile through the symbolic pipeline *)
  let cold_sent, cold_oks, _, cold_rps, cold_lats =
    let fd = connect () in
    let read_line = make_reader fd in
    let t0 = Unix.gettimeofday () in
    let lats =
      Array.init nnests (fun idx ->
          let t = Unix.gettimeofday () in
          send_all fd req_strs.(idx);
          ignore (read_line ());
          (Unix.gettimeofday () -. t) *. 1e6)
    in
    let wall = Unix.gettimeofday () -. t0 in
    Unix.close fd;
    total_sent := !total_sent + nnests;
    total_oks := !total_oks + nnests;
    total_conns := !total_conns + 1;
    Array.sort compare lats;
    (nnests, nnests, wall, float_of_int nnests /. wall, lats)
  in
  ignore cold_oks;
  Printf.printf "cold: %d compiles, %8.0f req/s, p50 %.0f us, p99 %.0f us\n" cold_sent cold_rps
    (percentile cold_lats 0.50) (percentile cold_lats 0.99);
  (* (2) warm: 1..max clients against the hot cache. The 1-client
     phase runs with window 1 — a strictly blocking request/response
     client, which is also the best case of the old blocking server —
     and the multi-client phases pipeline up to [window] outstanding
     requests each, which only a multiplexing loop can serve fairly. *)
  let rec client_counts c = if c >= max_clients then [ max_clients ] else c :: client_counts (c * 2) in
  let counts = client_counts 1 in
  let phases =
    List.map
      (fun nclients ->
        let w = if nclients = 1 then 1 else window in
        let sent, oks, wall, rps, lats = run_phase_median nclients w in
        Printf.printf
          "warm %2d client(s) (window %2d): %6d reqs in %6.3f s, %8.0f req/s, p50 %.0f us, p99 %.0f us, p999 %.0f us\n"
          nclients w sent wall rps (percentile lats 0.50) (percentile lats 0.99)
          (percentile lats 0.999);
        (nclients, sent, oks, wall, rps, lats))
      counts
  in
  (* shut the loop down and reconcile every ledger *)
  let shutdown_fd = connect () in
  let read_ack = make_reader shutdown_fd in
  send_all shutdown_fd "shutdown\n";
  ignore (read_ack ());
  Unix.close shutdown_fd;
  let stats =
    match Domain.join server with
    | Ok s -> s
    | Error e -> failwith ("micro-serve: serve failed: " ^ e)
  in
  let sent_total = !total_sent + 1 in
  let oks_total = !total_oks + 1 in
  let conns_total = !total_conns + 1 in
  (* several registry kernels canonicalize to the same iteration space
     (alpha-renaming erases their differences), so the cold sweep
     compiles one plan per DISTINCT fingerprint, not one per kernel *)
  let distinct_plans =
    List.init nnests (fun idx ->
        match Kernels.Registry.find nests.(idx) with
        | Some k -> Service.Fingerprint.hash k.Kernels.Kernel.nest
        | None -> assert false)
    |> List.sort_uniq compare |> List.length
  in
  let reconciled =
    stats.Server.requests = sent_total
    && stats.Server.ok_responses = oks_total
    && stats.Server.connections = conns_total
    && stats.Server.requests = counted Service.Stats.inflight_admissions
    && stats.Server.inflight_final = 0
    && stats.Server.dropped = 0
    && counted Service.Stats.cache_hits + counted Service.Stats.cache_misses
       + counted Service.Stats.singleflight_waits
       = sent_total - 1 (* every request but [shutdown] touched the cache *)
    && counted Service.Stats.cache_misses = distinct_plans
  in
  Printf.printf "counters reconcile (serve_stats = request log = ledger): %s\n"
    (if reconciled then "ok" else "MISMATCH");
  let baseline_rps =
    match phases with (1, _, _, _, rps, _) :: _ -> rps | _ -> cold_rps
  in
  let peak_clients, peak_rps =
    List.fold_left
      (fun (bc, br) (n, _, _, _, rps, _) -> if rps > br then (n, rps) else (bc, br))
      (1, baseline_rps) phases
  in
  (* the acceptance gate reads the [max_clients]-client row itself,
     not whichever client count happened to peak *)
  let gate_rps =
    List.fold_left
      (fun acc (n, _, _, _, rps, _) -> if n = max_clients then rps else acc)
      peak_rps phases
  in
  let speedup = gate_rps /. baseline_rps in
  Printf.printf "throughput: 1 client %8.0f req/s, %d clients %8.0f req/s -> %.2fx\n" baseline_rps
    max_clients gate_rps speedup;
  Emit.write ~path:"BENCH_serve.json" ~artifact:"micro-serve"
    [ ("kernels", Emit.Int nnests);
      ("requests_per_phase", Emit.Int reqs_total);
      ("trials_per_phase", Emit.Int trials);
      ("max_clients", Emit.Int max_clients);
      ("pipeline_window", Emit.Int window);
      ( "cold",
        Emit.Obj
          [ ("requests", Emit.Int cold_sent);
            ("req_per_s", Emit.F (cold_rps, 0));
            ("p50_us", Emit.F (percentile cold_lats 0.50, 0));
            ("p99_us", Emit.F (percentile cold_lats 0.99, 0))
          ] );
      ( "warm",
        Emit.Arr
          (List.map
             (fun (nclients, sent, _, wall, rps, lats) ->
               Emit.Obj
                 [ ("clients", Emit.Int nclients);
                   ("requests", Emit.Int sent);
                   ("wall_s", Emit.F (wall, 3));
                   ("req_per_s", Emit.F (rps, 0));
                   ("p50_us", Emit.F (percentile lats 0.50, 0));
                   ("p99_us", Emit.F (percentile lats 0.99, 0));
                   ("p999_us", Emit.F (percentile lats 0.999, 0))
                 ])
             phases) );
      ( "throughput",
        Emit.Obj
          [ ("baseline_1_client_req_per_s", Emit.F (baseline_rps, 0));
            ("gate_clients", Emit.Int max_clients);
            ("gate_req_per_s", Emit.F (gate_rps, 0));
            ("peak_clients", Emit.Int peak_clients);
            ("peak_req_per_s", Emit.F (peak_rps, 0));
            ("speedup", Emit.F (speedup, 2))
          ] );
      ("serve_speedup_ok", Emit.Bool (speedup >= 4.0));
      ( "counters",
        Emit.Obj
          [ ("connections", Emit.Int stats.Server.connections);
            ("requests", Emit.Int stats.Server.requests);
            ("ok_responses", Emit.Int stats.Server.ok_responses);
            ("error_responses", Emit.Int stats.Server.error_responses);
            ("timeouts", Emit.Int stats.Server.timeouts);
            ("rejected", Emit.Int stats.Server.rejected);
            ("dropped", Emit.Int stats.Server.dropped);
            ("max_concurrent", Emit.Int stats.Server.max_concurrent);
            ("cache_hits", Emit.Int (counted Service.Stats.cache_hits));
            ("cache_misses", Emit.Int (counted Service.Stats.cache_misses))
          ] );
      ("reconciled", Emit.Bool reconciled)
    ]

(* certified numeric inversion (ISSUE 10): per-recovery cost of the
   seeded bracket search against the closed forms it replaces, the
   chunked-walk amortization that hides it, the quintic kernel the
   radical cap used to reject, and counter reconciliation against
   ground truth. Gates: numeric recovery within 5x closed-form, and
   inversion.numeric / inversion.closed_form matching trip x levels. *)
let micro_invert () =
  header "micro-invert: certified numeric recovery vs closed forms";
  Emit.ensure_writable "BENCH_invert.json";
  let module R = Trahrhe.Recovery in
  let n = env_int "BENCH_INVERT_N" 400 in
  let corr = Option.get (Kernels.Registry.find "correlation") in
  let param = K.param_of corr ~n in
  let inv_c = K.inversion corr in
  let inv_n = Trahrhe.Inversion.invert_exn ~force_numeric:true corr.K.nest in
  let rc_c = R.make inv_c ~param in
  let rc_n = R.make inv_n ~param in
  let trip = R.trip_count rc_c in
  let sink = ref 0 in
  (* every-iteration recovery: the worst case for the numeric path *)
  let ns_per f =
    let s = Ompsim.Calibrate.time_best ~reps:3 f in
    s *. 1e9 /. float_of_int trip
  in
  let recover_closed =
    ns_per (fun () ->
        for pc = 1 to trip do
          sink := !sink + (R.recover_guarded rc_c pc).(0)
        done)
  in
  let recover_numeric =
    ns_per (fun () ->
        for pc = 1 to trip do
          sink := !sink + (R.recover_guarded rc_n pc).(0)
        done)
  in
  (* chunked walk: one recovery per chunk, incrementation after — the
     §V deployment shape, where the recovery cost amortizes away *)
  let chunks = 64 in
  let walk_with rc =
    ns_per (fun () ->
        let chunk = max 1 (trip / chunks) in
        let pc = ref 1 in
        while !pc <= trip do
          let len = min chunk (trip - !pc + 1) in
          R.walk rc ~pc:!pc ~len (fun idx -> sink := !sink + idx.(0));
          pc := !pc + len
        done)
  in
  let walk_closed = walk_with rc_c in
  let walk_numeric = walk_with rc_n in
  ignore !sink;
  let ratio_each = recover_numeric /. recover_closed in
  let ratio_walk = walk_numeric /. walk_closed in
  Printf.printf "%-54s %10s\n" (Printf.sprintf "strategy (correlation, N=%d)" n) "ns/iter";
  List.iter
    (fun (name, ns) -> Printf.printf "%-54s %10.1f\n" name ns)
    [ ("closed-form recovery at every iteration", recover_closed);
      ("numeric recovery at every iteration", recover_numeric);
      (Printf.sprintf "chunked walk (%d chunks), closed forms" chunks, walk_closed);
      (Printf.sprintf "chunked walk (%d chunks), numeric" chunks, walk_numeric) ];
  Printf.printf "numeric vs closed: %.2fx per recovery, %.2fx chunk-amortized\n" ratio_each
    ratio_walk;
  (* the quintic kernel the radical cap rejected: recovery now works,
     counters and certificates reconcile against ground truth *)
  let deep = Option.get (Kernels.Registry.find "simplex5") in
  let dn = deep.K.default_n in
  let rc_d = K.recovery deep ~n:dn in
  let dtrip = R.trip_count rc_d in
  let levels = Array.length (R.recover_guarded rc_d 1) in
  let numeric_levels =
    Array.fold_left
      (fun acc r -> match r with Trahrhe.Inversion.Numeric _ -> acc + 1 | _ -> acc)
      0
      (K.inversion deep).Trahrhe.Inversion.recoveries
  in
  let reconciled =
    let n0 = R.numeric_recoveries () and c0 = R.closed_form_recoveries () in
    for pc = 1 to dtrip do
      sink := !sink + (R.recover_guarded rc_d pc).(0)
    done;
    R.numeric_recoveries () - n0 = dtrip * numeric_levels
    && R.closed_form_recoveries () - c0 = dtrip * (levels - numeric_levels)
  in
  let deep_each =
    let s = Ompsim.Calibrate.time_best ~reps:3 (fun () ->
        for pc = 1 to dtrip do
          sink := !sink + (R.recover_guarded rc_d pc).(0)
        done)
    in
    s *. 1e9 /. float_of_int dtrip
  in
  (* isolation effort on the quintic at a few representative ranks *)
  let newton = ref 0 and bisect = ref 0 and probes = ref 0 in
  List.iter
    (fun pc ->
      let idx = R.recover_guarded rc_d pc in
      match R.isolate_level rc_d idx ~pc ~level:0 with
      | Some (Ok e) ->
        newton := !newton + e.Rootsolve.Isolate.newton_steps;
        bisect := !bisect + e.Rootsolve.Isolate.bisect_steps;
        incr probes
      | _ -> ())
    [ 1; dtrip / 4; dtrip / 2; (3 * dtrip) / 4; dtrip ];
  Printf.printf
    "simplex5 (n=%d, trip %d): %.1f ns/recovery; avg %.1f newton + %.1f bisect steps; counters \
     %s\n"
    dn dtrip deep_each
    (float_of_int !newton /. float_of_int (max 1 !probes))
    (float_of_int !bisect /. float_of_int (max 1 !probes))
    (if reconciled then "reconciled" else "MISMATCH");
  let within_5x = ratio_each <= 5.0 in
  Printf.printf "gates: within_5x=%b reconciled=%b\n" within_5x reconciled;
  Emit.write ~path:"BENCH_invert.json" ~artifact:"micro-invert"
    [ ("kernel", Emit.Str "correlation");
      ("n", Emit.Int n);
      ("iterations", Emit.Int trip);
      ( "ns_per_recovery",
        Emit.Obj
          [ ("closed_form", Emit.F (recover_closed, 2));
            ("numeric", Emit.F (recover_numeric, 2));
            ("walk_closed_form", Emit.F (walk_closed, 2));
            ("walk_numeric", Emit.F (walk_numeric, 2))
          ] );
      ( "ratio",
        Emit.Obj
          [ ("numeric_vs_closed_each", Emit.F (ratio_each, 3));
            ("numeric_vs_closed_walk", Emit.F (ratio_walk, 3))
          ] );
      ( "simplex5",
        Emit.Obj
          [ ("n", Emit.Int dn);
            ("iterations", Emit.Int dtrip);
            ("ns_per_recovery", Emit.F (deep_each, 2));
            ("numeric_levels", Emit.Int numeric_levels);
            ("levels", Emit.Int levels);
            ("newton_steps", Emit.Int !newton);
            ("bisect_steps", Emit.Int !bisect)
          ] );
      ("within_5x", Emit.Bool within_5x);
      ("reconciled", Emit.Bool reconciled)
    ]

(* ---------------- driver ---------------- *)

let artifacts =
  [ ("fig2", fig2);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("codegen", codegen);
    ("ablation-chunk", ablation_chunk);
    ("ablation-threads", ablation_threads);
    ("ablation-recovery", ablation_recovery);
    ("ablation-gpu", ablation_gpu);
    ("ablation-simd", ablation_simd);
    ("micro", micro);
    ("micro-recovery", micro_recovery);
    ("micro-invert", micro_invert);
    ("micro-pool", micro_pool);
    ("micro-obsv", micro_obsv);
    ("micro-lanes", micro_lanes);
    ("micro-steal", micro_steal);
    ("micro-fault", micro_fault);
    ("micro-cache", micro_cache);
    ("micro-jit", micro_jit);
    ("micro-reduce", micro_reduce);
    ("micro-serve", micro_serve);
    ("micro-chaos", Chaos.run) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) artifacts
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name artifacts with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown artifact %S; available: %s\n" name
            (String.concat " " (List.map fst artifacts));
          exit 1)
      names
