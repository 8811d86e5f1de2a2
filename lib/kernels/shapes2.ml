(* Trapezoidal and rhomboidal kernels (reconstructed Polybench-style
   picks covering the remaining iteration-space families of §I). *)

open Shape

(* dynprog: trapezoidal domain i in [0,N), j in [0, i+M) with M = N.
   Both loops collapsed and innermost — the Fig. 10 case where recovery
   overhead is NOT amortized by an inner loop. *)
let dynprog =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = aff [] 0; upper = aff [ ("N", 1) ] 0 };
        { var = "j"; lower = aff [] 0; upper = aff [ ("i", 1); ("N", 1) ] 0 } ]
  in
  let trip n = (n * n) + (n * (n - 1) / 2) in
  let outer_costs ~n = Array.init n (fun i -> float_of_int (i + n)) in
  let collapsed_costs ~n = Array.make (trip n) 1.0 in
  let setup n =
    let c = Array.make (2 * n * n) 0.0 in
    let w = Array.init (2 * n * n) (fun q -> float_of_int ((q * 7) mod 37) /. 9.0) in
    (c, w)
  in
  let serial_original ~n =
    let c, w = setup n in
    for i = 0 to n - 1 do
      for j = 0 to i + n - 1 do
        c.((i * 2 * n) + j) <- w.((i * 2 * n) + j) +. float_of_int (i + j)
      done
    done;
    checksum c
  in
  let serial_collapsed ~n ~recoveries =
    let c, w = setup n in
    let kd = Kernel.find "dynprog" |> Option.get in
    let rc = Kernel.recovery kd ~n in
    List.iter
      (fun (start, len) ->
        let idx = Trahrhe.Recovery.recover rc start in
        let i = ref idx.(0) and j = ref idx.(1) in
        for _ = 1 to len do
          c.((!i * 2 * n) + !j) <- w.((!i * 2 * n) + !j) +. float_of_int (!i + !j);
          incr j;
          if !j >= !i + n then begin
            incr i;
            j := 0
          end
        done)
      (Kernel.chunk_starts ~trip:(trip n) ~recoveries);
    checksum c
  in
  Kernel.register
    { name = "dynprog";
      description = "trapezoidal dynamic-programming style sweep; collapsed loops are innermost";
      family = "trapezoidal";
      collapsed = 2;
      total_loops = 2;
      nest;
      param_map = (fun n _ -> n);
      default_n = 1600;
      fig10_n = 1000;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }

(* fdtd_skewed: rhomboidal domain t in [0,T), i in [t, t+N) after time
   skewing, with T a small number of wavefronts (the parallelism the
   outer loop alone exposes is scarce — the motivating case for
   collapsing rhomboids: 12 threads over 28 wavefronts leaves a 3-vs-2
   rows imbalance that collapsing erases). Inner stencil window of
   fixed width [win]. *)
let fdtd_waves = 28

let fdtd_win = 32

let fdtd_skewed =
  let nest =
    Trahrhe.Nest.make ~params:[ "T"; "N" ]
      [ { var = "t"; lower = aff [] 0; upper = aff [ ("T", 1) ] 0 };
        { var = "i"; lower = aff [ ("t", 1) ] 0; upper = aff [ ("t", 1); ("N", 1) ] 0 } ]
  in
  let outer_costs ~n = Array.make fdtd_waves (float_of_int (n * fdtd_win)) in
  let collapsed_costs ~n = Array.make (fdtd_waves * n) (float_of_int fdtd_win) in
  let setup n =
    let e =
      Array.init (n + fdtd_waves + fdtd_win) (fun q -> float_of_int ((q * 3) mod 17) /. 5.0)
    in
    let h = Array.make (n + fdtd_waves + fdtd_win) 0.0 in
    (e, h)
  in
  let body e h t i =
    let s = ref 0.0 in
    for w = 0 to fdtd_win - 1 do
      s := !s +. e.(i - t + w)
    done;
    h.(i) <- h.(i) +. (!s /. float_of_int (t + 1))
  in
  let serial_original ~n =
    let e, h = setup n in
    for t = 0 to fdtd_waves - 1 do
      for i = t to t + n - 1 do
        body e h t i
      done
    done;
    checksum h
  in
  let serial_collapsed ~n ~recoveries =
    let e, h = setup n in
    let kd = Kernel.find "fdtd_skewed" |> Option.get in
    let rc = Kernel.recovery kd ~n in
    let trip = fdtd_waves * n in
    List.iter
      (fun (start, len) ->
        let idx = Trahrhe.Recovery.recover rc start in
        (* walk the chunk row-span by row-span with tight inner loops,
           as an optimizing compiler renders the §V scheme *)
        let t = ref idx.(0) and i0 = ref idx.(1) in
        let remaining = ref len in
        while !remaining > 0 do
          let row_end = !t + n - 1 in
          let span = min !remaining (row_end - !i0 + 1) in
          let tw = !t in
          for i = !i0 to !i0 + span - 1 do
            body e h tw i
          done;
          remaining := !remaining - span;
          if !remaining > 0 then begin
            incr t;
            i0 := !t
          end
        done)
      (Kernel.chunk_starts ~trip ~recoveries);
    checksum h
  in
  Kernel.register
    { name = "fdtd_skewed";
      description =
        "time-skewed stencil over a rhomboidal domain with few wavefronts (28) — collapsing \
         exposes the parallelism the outer loop lacks";
      family = "rhomboidal";
      collapsed = 2;
      total_loops = 3;
      nest;
      param_map = (fun n x -> if x = "T" then fdtd_waves else n);
      default_n = 40000;
      fig10_n = 12000;
      outer_costs;
      collapsed_costs;
      serial_original;
      serial_collapsed }
