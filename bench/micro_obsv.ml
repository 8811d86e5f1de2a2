module K = Kernels.Kernel
module Sched = Ompsim.Schedule
open Common

(* overhead and imbalance of the observability layer itself: the §V
   walk loop with instrumentation absent / counters only (tracing
   off: the [walk_disabled_*] rows) / tracing on, then a
   real instrumented parallel execution whose per-worker counters give
   the imbalance histogram; also emits TRACE_obsv.json for CI's
   Chrome-trace validation *)
let run () =
  header "micro-obsv: observability overhead on the walk loop (correlation, N=1000)";
  Emit.ensure_writable "BENCH_obsv.json";
  Emit.ensure_writable "TRACE_obsv.json";
  let n = 1000 in
  let corr = Option.get (Kernels.Registry.find "correlation") in
  let rc = K.recovery corr ~n in
  let trip = Trahrhe.Recovery.trip_count rc in
  let chunk = 512 in
  let sink = ref 0 in
  let time_ns = best_ns_per_iter ~reps:5 ~iters:trip in
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
