module Sched = Ompsim.Schedule
open Common

(* micro-fault: recovery latency of the region engine as the injected
   fault rate grows. Every region is supervised, so the p = 0 row is
   the fault-free region cost itself. Exactly-once execution and the
   fault counters under injection are test_fault's. *)
let run () =
  let n = env_int "BENCH_FAULT_N" 200_000 in
  let reps = env_int "BENCH_FAULT_ROUNDS" 5 in
  header (Printf.sprintf "micro-fault: recovery latency vs fault rate on %d iterations" n);
  Emit.ensure_writable "BENCH_fault.json";
  let nthreads = 2 in
  let chunk = 64 in
  let retries = 2 in
  let schedule = Sched.Dynamic chunk in
  let expect = n * (n - 1) / 2 in
  (* ~faults:(Some cfg) arms this region only, so every row measures
     its own rate even in a job with OMPSIM_FAULTS armed *)
  let region faults () =
    match
      Ompsim.Par.reduce ~retries ~faults ~nthreads ~schedule ~n ~combine:( + )
        (fun ~thread:_ ~start ~len ->
          let acc = ref 0 in
          for q = start to start + len - 1 do
            acc := !acc + q
          done;
          !acc)
    with
    | Ok (Some v) when v = expect -> ()
    | Ok _ -> failwith "micro-fault: wrong region sum"
    | Error e -> failwith (Ompsim.Par.describe_error e)
  in
  (* the obsv layer is off: this is the cost a real region pays *)
  let rates = [ 0.0; 0.02; 0.1; 0.3 ] in
  Printf.printf "%-38s %10s\n" "injected fault rate" "ms";
  let rows =
    List.map
      (fun p ->
        let faults = Some { Ompsim.Fault.default with p; seed = 11 } in
        let t_ms = Ompsim.Calibrate.time_best ~reps (region faults) *. 1e3 in
        Printf.printf "p=%-36g %10.2f\n" p t_ms;
        Emit.Obj [ ("p", Emit.G p); ("time_ms", Emit.F (t_ms, 3)) ])
      rates
  in
  Emit.write ~path:"BENCH_fault.json" ~artifact:"micro-fault"
    [ ("n", Emit.Int n);
      ("chunk", Emit.Int chunk);
      ("nthreads", Emit.Int nthreads);
      ("retries", Emit.Int retries);
      ("rates", Emit.Arr rows)
    ]
