module Sched = Ompsim.Schedule
open Common

(* scheduling-overhead shootout on a skewed-cost workload: a central
   mutex-protected chunk queue (the textbook dynamic scheduler), the
   atomic fetch-add Dynamic dispatcher, and the Chase-Lev work-stealing
   deques. That every dealt chunk is popped or stolen exactly once is
   test_ompsim's work-stealing soak. *)
let run () =
  let n = env_int "BENCH_STEAL_N" 200_000 in
  let rounds = env_int "BENCH_STEAL_ROUNDS" 15 in
  header (Printf.sprintf "micro-steal: scheduler overhead on %d skewed iterations" n);
  Emit.ensure_writable "BENCH_steal.json";
  (* 2 workers: the schedulers are compared under modest
     oversubscription — with many more domains than cores the run is
     dominated by OS descheduling (a parked owner strands its claimed
     batch), which measures the kernel's scheduler, not ours *)
  let nthreads = 2 in
  let chunk = 8 in
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
  let best =
    best_of_rounds ~rounds
      [| run_mutex; run_sched (Sched.Dynamic chunk); run_sched (Sched.Work_stealing chunk) |]
  in
  let t_mutex = best.(0) and t_dyn = best.(1) and t_ws = best.(2) in
  Printf.printf "%-38s %10s %9s\n" "scheduler" "ms" "vs mutex";
  List.iter
    (fun (name, t) -> Printf.printf "%-38s %10.2f %8.2fx\n" name t (t_mutex /. t))
    [ ("central mutex queue", t_mutex);
      ("atomic fetch-add dynamic", t_dyn);
      ("work-stealing deques", t_ws) ];
  Emit.write ~path:"BENCH_steal.json" ~artifact:"micro-steal"
    [ ("n", Emit.Int n);
      ("chunk", Emit.Int chunk);
      ("nthreads", Emit.Int nthreads);
      ("skew", Emit.Int skew);
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
          ] )
    ]
