module Sched = Ompsim.Schedule
open Common

(* micro-fault: cost of the fault-tolerance layer. Two questions:
   (1) what does supervision cost when nothing ever fails — the
   per-chunk cancellation check, success bookkeeping and the Result
   plumbing of [run_resilient] vs the plain path (must be within
   noise at realistic chunk sizes); (2) how does recovery latency grow
   with the injected fault rate. Exactly-once execution and the fault
   counters under injection are test_fault's. *)
let run () =
  let n = env_int "BENCH_FAULT_N" 200_000 in
  let rounds = env_int "BENCH_FAULT_ROUNDS" 15 in
  header (Printf.sprintf "micro-fault: supervision overhead + recovery latency on %d iterations" n);
  Emit.ensure_writable "BENCH_fault.json";
  let nthreads = 2 in
  let chunk = 64 in
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
  let best = best_of_rounds ~rounds [| run_plain; run_resilient None |] in
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
  (* (2) recovery latency vs fault rate, with the obsv layer off *)
  let rates = [ 0.0; 0.02; 0.1; 0.3 ] in
  Printf.printf "%-38s %10s\n" "injected fault rate" "ms";
  let rows =
    List.map
      (fun p ->
        let faults = Some { Ompsim.Fault.default with p; seed = 11 } in
        let t_ms = Ompsim.Calibrate.time_best ~reps:3 (run_resilient ~retries faults) *. 1e3 in
        Printf.printf "p=%-36g %10.2f\n" p t_ms;
        Emit.Obj [ ("p", Emit.G p); ("time_ms", Emit.F (t_ms, 3)) ])
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
      ("rates", Emit.Arr rows)
    ]
