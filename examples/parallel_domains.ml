(* Execute a collapsed nest for real on OCaml 5 domains.

   The collapsed single loop is handed to an OpenMP-like parallel_for;
   each chunk performs one costly index recovery and then walks the
   iteration space by cheap incrementation (§V) — here via
   Recovery.walk, whose bound updates use compiled finite-difference
   tables. Regions are dispatched to the warm persistent domain pool
   (Ompsim.Pool). Every schedule must produce the exact same matrix as
   the sequential nest.

   Run with: dune exec examples/parallel_domains.exe *)

module A = Polymath.Affine
module Q = Zmath.Rat

let n = 500

let () =
  let nest =
    Trahrhe.Nest.make ~params:[ "N" ]
      [ { var = "i"; lower = A.const Q.zero; upper = A.make [ ("N", Q.one) ] Q.minus_one };
        { var = "j"; lower = A.make [ ("i", Q.one) ] Q.one; upper = A.var "N" } ]
  in
  let inv = Trahrhe.Inversion.invert_exn nest in
  let rc = Trahrhe.Recovery.make inv ~param:(fun _ -> n) in
  let trip = Trahrhe.Recovery.trip_count rc in
  Printf.printf "correlation N=%d: %d collapsed iterations\n" n trip;

  let reference = Array.make (n * n) 0.0 in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      reference.((i * n) + j) <- float_of_int ((i * j) mod 101) /. 7.0
    done
  done;

  let run schedule =
    let a = Array.make (n * n) 0.0 in
    let t0 = Unix.gettimeofday () in
    Ompsim.Par.parallel_for_chunks ~nthreads:8 ~schedule ~n:trip (fun ~thread:_ ~start ~len ->
        (* pc ranges are 1-based; one costly recovery per chunk, then
           finite-difference-stepped incrementation *)
        Trahrhe.Recovery.walk rc ~pc:(start + 1) ~len (fun idx ->
            let i = idx.(0) and j = idx.(1) in
            a.((i * n) + j) <- float_of_int ((i * j) mod 101) /. 7.0));
    let dt = Unix.gettimeofday () -. t0 in
    (a, dt)
  in
  List.iter
    (fun schedule ->
      let a, dt = run schedule in
      Printf.printf "  schedule(%-11s): %s in %.1f ms\n"
        (Ompsim.Schedule.to_string schedule)
        (if a = reference then "exact match with sequential nest" else "MISMATCH")
        (1000.0 *. dt))
    [ Ompsim.Schedule.Static;
      Ompsim.Schedule.Static_chunk 1024;
      Ompsim.Schedule.Dynamic 512;
      Ompsim.Schedule.Guided 256 ];
  Printf.printf "persistent pool workers alive: %d\n" (Ompsim.Pool.size ())
