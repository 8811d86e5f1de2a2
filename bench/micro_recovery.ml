module K = Kernels.Kernel
open Common

(* per-iteration cost of the strategies for executing a collapsed
   chunk: full exact recovery each iteration (the naive scheme), §V
   incrementation with per-step Horner re-evaluation of the bounds, and
   the walk whose carries advance the bounds by finite-difference
   tables *)
let run () =
  header "micro-recovery: ns/iter walking the collapsed correlation nest (N=1000)";
  Emit.ensure_writable "BENCH_recovery.json";
  let n = 1000 in
  let corr = Option.get (Kernels.Registry.find "correlation") in
  let rc = K.recovery corr ~n in
  let trip = Trahrhe.Recovery.trip_count rc in
  let sink = ref 0 in
  let time_ns = best_ns_per_iter ~reps:3 ~iters:trip in
  let recover_each =
    time_ns (fun () ->
        for pc = 1 to trip do
          sink := !sink + (Trahrhe.Recovery.recover rc pc).(0)
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
    [ ("exact recovery at every iteration", recover_each);
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
