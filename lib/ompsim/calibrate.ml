let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let time_best ?(reps = 3) f =
  let best = ref infinity in
  for _ = 1 to reps do
    best := Float.min !best (time f)
  done;
  !best

let ns_per_iter ~iters f =
  let s = time (fun () -> f iters) in
  s *. 1e9 /. float_of_int iters

(* Work unit = one innermost iteration of a Polybench-style kernel
   (~a few ns: one fused multiply-add plus loads). Constants below are
   expressed in that unit and match common libgomp measurements:
   dynamic dispatch ~100-200ns, parallel region fork/join ~ a few us,
   closed-form recovery ~100-300ns (sqrt/cpow + flops), §V
   incrementation ~1 compare + add. *)
let default_dispatch = 60.0
let default_fork_join = 2000.0
let default_recovery = 80.0

(* the §V incrementation replaces (not duplicates) the original loops'
   own index arithmetic; its marginal cost is one extra compare+reset
   per iteration, a few percent of one work unit *)
let default_increment = 0.02
