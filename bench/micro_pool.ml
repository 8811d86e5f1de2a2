open Common

(* per-region overhead of the real executor: warm pool dispatch vs
   spawning fresh domains per parallel region (the pool's nested-region
   fallback), each timed over an empty per-slot body *)
let run () =
  header "micro-pool: per-region overhead of Pool.run vs Pool.run_spawned (ns/call)";
  Emit.ensure_writable "BENCH_pool.json";
  let thread_counts = [ 2; 4; 8 ] in
  let calls = 200 in
  (* three untimed calls first, so lazy pool creation is not billed *)
  let measure run nthreads =
    let region () = run ~nthreads (fun _ -> ()) in
    for _ = 1 to 3 do
      region ()
    done;
    let s =
      Ompsim.Calibrate.time (fun () ->
          for _ = 1 to calls do
            region ()
          done)
    in
    s *. 1e9 /. float_of_int calls
  in
  Printf.printf "%10s %14s %14s %10s\n" "nthreads" "spawn(ns)" "pool(ns)" "ratio";
  let rows =
    List.map
      (fun nthreads ->
        let spawn = measure Ompsim.Pool.run_spawned nthreads in
        let pool = measure Ompsim.Pool.run nthreads in
        Printf.printf "%10d %14.0f %14.0f %9.1fx\n" nthreads spawn pool (spawn /. pool);
        (nthreads, spawn, pool))
      thread_counts
  in
  Emit.write ~path:"BENCH_pool.json" ~artifact:"micro-pool"
    [ ("calls_per_measurement", Emit.Int calls);
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
