(* Benchmark entry point: regenerates every table and figure of the paper's
   evaluation (§VII), the ablations, and the hot-path artifacts.

     dune exec bench/main.exe              # everything, every artifact
     dune exec bench/main.exe -- fig9      # one section

   The no-argument run is the one that produces the committed
   BENCH_*.json files; pin it for comparable numbers
   (taskset -c 1 dune exec bench/main.exe). Each micro-* section writes
   BENCH_<name>.json into the current directory through Emit, which
   stamps schema_version, git revision, cpu_model and domains;
   micro-obsv also writes TRACE_obsv.json, a Chrome trace of an
   instrumented parallel run.

   Size knobs, for CI-sized runs (positive integers; anything else
   exits with an error naming the knob): BENCH_LANES_N, BENCH_STEAL_N,
   BENCH_STEAL_ROUNDS, BENCH_FAULT_N, BENCH_FAULT_ROUNDS,
   BENCH_CACHE_NESTS, BENCH_CACHE_REQS, BENCH_JIT_N, BENCH_REDUCE_N,
   BENCH_INVERT_N, BENCH_CHAOS_VICTIM_REQS, BENCH_CHAOS_FLOOD_WINDOW. *)

let artifacts =
  [ ("fig2", Figures.fig2);
    ("fig8", Figures.fig8);
    ("fig9", Figures.fig9);
    ("fig10", Figures.fig10);
    ("codegen", Figures.codegen);
    ("ablation-chunk", Figures.ablation_chunk);
    ("ablation-threads", Figures.ablation_threads);
    ("ablation-recovery", Figures.ablation_recovery);
    ("ablation-gpu", Figures.ablation_gpu);
    ("ablation-simd", Figures.ablation_simd);
    ("micro", Figures.micro);
    ("micro-recovery", Micro_recovery.run);
    ("micro-invert", Micro_invert.run);
    ("micro-pool", Micro_pool.run);
    ("micro-obsv", Micro_obsv.run);
    ("micro-lanes", Micro_lanes.run);
    ("micro-steal", Micro_steal.run);
    ("micro-fault", Micro_fault.run);
    ("micro-cache", Micro_cache.run);
    ("micro-jit", Micro_jit.run);
    ("micro-reduce", Micro_reduce.run);
    ("micro-serve", Micro_serve.run);
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
