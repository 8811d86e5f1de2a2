module K = Kernels.Kernel
open Common

(* micro-jit: the native specialization tier. Phases: (1) chunked
   walk — the exec workload — interpreted vs the specialized object's
   one-call-per-chunk walk_hash; (2) latencies: cold emit+gcc
   compile, warm dlopen of the published .so, and the cache-served
   steady state where the handle is already resident in the
   Service.Native tier; (3) the compiler supervisor's spawn overhead.
   The headline gate is native >= 2x interpreted ns/iter on the
   chunked walk; spawn_ok gates the supervisor below 10 ms per child.
   The jit.compile/jit.load/jit.fallback/native.served ledger is
   test_jit's. *)
let run () =
  let n = env_int "BENCH_JIT_N" 1000 in
  let chunk = 4096 in
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
    let tmp_root = temp_path "bench-jit" in
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
    (* first attach cold-compiles the object into the cache dir *)
    let attach_ms =
      let t0 = Unix.gettimeofday () in
      let rc =
        Service.Native.recovery nt plan ~param:cparam (Service.Plan.recovery plan ~param:cparam)
      in
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      if not (R.native_enabled rc) then failwith "native backend failed to attach";
      (rc, ms)
    in
    let rc_native, cold_attach_ms = attach_ms in
    let rc_interp = Service.Plan.recovery plan ~param:cparam in
    let trip = R.trip_count rc_interp in
    let sink = ref 0 in
    (* (1) the exec workload: the chunked walk, exactly as exec runs it —
       one walk_hash call per chunk. The two tiers are interleaved
       round by round, so a slow spell of the host biases neither. *)
    let walk rc () =
      let pc = ref 1 in
      while !pc <= trip do
        let len = min chunk (trip - !pc + 1) in
        sink := !sink + R.walk_hash rc ~pc:!pc ~len;
        pc := !pc + len
      done
    in
    let best = best_of_rounds ~rounds:31 [| walk rc_interp; walk rc_native |] in
    let ns_per_iter ms = ms *. 1e6 /. float_of_int trip in
    let interp_walk = ns_per_iter best.(0) and native_walk = ns_per_iter best.(1) in
    ignore !sink;
    (* (2) latencies: cold emit+compile in a fresh dir, warm dlopen of
       the published object, and the tier-resident steady state *)
    let inv = plan.Service.Plan.inversion in
    let cold_ms =
      let t0 = Unix.gettimeofday () in
      (match Jit.Compile.specialize ~dir:cold_dir inv with
      | Ok h -> Jit.Native.close h
      | Error e -> failwith ("cold compile failed: " ^ e));
      (Unix.gettimeofday () -. t0) *. 1e3
    in
    let warm_ms =
      let t0 = Unix.gettimeofday () in
      (match Jit.Compile.specialize ~dir:cold_dir inv with
      | Ok h -> Jit.Native.close h
      | Error e -> failwith ("warm load failed: " ^ e));
      (Unix.gettimeofday () -. t0) *. 1e3
    in
    (* per-valuation specialization plus attach, as on a recovery-memo
       miss ({!Service.Cache.recovery}) *)
    let steady_reps = 200 in
    let steady_ns =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to steady_reps do
        let rc =
          Service.Native.recovery nt plan ~param:cparam (Service.Plan.recovery plan ~param:cparam)
        in
        if not (R.native_enabled rc) then failwith "steady-state attach lost the backend"
      done;
      (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int steady_reps
    in
    (* the supervisor's own cost: the median run of a child that exits
       at once, which every compile and probe pays on top of its work *)
    let spawn_ms =
      let runs =
        List.init 15 (fun _ -> (Jit.Subproc.run "/bin/true" []).Jit.Subproc.elapsed_ms)
      in
      List.nth (List.sort compare runs) 7
    in
    let spawn_ok = spawn_ms < 10.0 in
    let walk_speedup = interp_walk /. native_walk in
    Printf.printf "%d collapsed iterations, chunk %d\n" trip chunk;
    Printf.printf "%-44s %10.2f\n" "interpreted walk (ns/iter)" interp_walk;
    Printf.printf "%-44s %10.2f\n" "native walk_hash (ns/iter)" native_walk;
    Printf.printf "%-44s %9.1fx %s\n" "walk speedup (gate: >= 2x)" walk_speedup
      (if walk_speedup >= 2.0 then "ok" else "BELOW TARGET");
    Printf.printf "%-44s %10.1f ms\n" "cold emit+compile latency" cold_ms;
    Printf.printf "%-44s %10.2f ms\n" "warm .so load latency" warm_ms;
    Printf.printf "%-44s %10.0f ns\n" "cache-served attach (steady state)" steady_ns;
    Printf.printf "%-44s %10.2f ms %s\n" "supervised spawn of /bin/true (gate: < 10 ms)" spawn_ms
      (if spawn_ok then "ok" else "ABOVE TARGET");
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
        ("spawn_ok", Emit.Bool spawn_ok);
        ( "latency",
          Emit.Obj
            [ ("cold_compile_ms", Emit.F (cold_ms, 2));
              ("cold_attach_ms", Emit.F (cold_attach_ms, 2));
              ("warm_load_ms", Emit.F (warm_ms, 3));
              ("cache_served_ns", Emit.F (steady_ns, 0));
              ("spawn_overhead_ms", Emit.F (spawn_ms, 2))
            ] )
      ]
  end
